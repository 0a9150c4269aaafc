//! Cross-query cardinality feedback: observed selectivities keyed on
//! normalized predicate / join-edge shape.
//!
//! The executor's runtime profile records actual rows per operator
//! (`morsel_core::profile::OpProfile::rows_out`). [`harvest`] walks a
//! finished plan against those actuals and stores *observed*
//! selectivities into a [`FeedbackCache`]; the estimator consults the
//! cache before falling back to its min/max + NDV model, so the next
//! planning pass of any query with the same predicate shape sees the
//! truth instead of the textbook assumption.
//!
//! Three properties keep the cache sound:
//!
//! - **Normalized keys.** A scan key is the filter expression with
//!   every literal replaced by a `?` hole and columns named through the
//!   base relation's schema; a join key is the sorted pair of equi-join
//!   column lists. Both are invariant under literal churn and alias
//!   renames (same normalization philosophy as the plan cache's
//!   `ShapeKey`), so feedback accumulates across a parameterized
//!   workload instead of fragmenting per literal.
//! - **Exponential decay.** A new observation moves the stored value by
//!   [`FEEDBACK_DECAY`]; old evidence fades geometrically, so a shifting
//!   data distribution is tracked instead of averaged away.
//! - **Catalog-version awareness.** Every entry is stamped with the
//!   catalog version it was observed under; [`set_catalog_version`]
//!   drops *all* learned entries the moment the version moves (DML
//!   commit, delta merge, DDL), so no entry ever outlives a catalog
//!   bump.
//!
//! [`set_catalog_version`]: FeedbackCache::set_catalog_version

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use morsel_exec::expr::Expr;
use morsel_exec::join::JoinKind;
use morsel_exec::plan::Plan;
use morsel_storage::Schema;

/// Weight of the newest observation when merged into an existing entry
/// (`new = DECAY * observed + (1 - DECAY) * old`).
pub const FEEDBACK_DECAY: f64 = 0.5;

/// Relative change below which an observation does not bump the cache
/// epoch: converged entries stop invalidating cached plans.
const EPOCH_TOLERANCE: f64 = 0.1;

/// One learned selectivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackEntry {
    /// Exponentially-decayed observed selectivity.
    pub sel: f64,
    /// Observations folded into `sel`.
    pub observations: u64,
    /// Catalog version the latest observation was made under.
    pub catalog_version: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, FeedbackEntry>,
    catalog_version: u64,
}

/// The persistent feedback cache. Shared (`Arc`) between the planner's
/// estimator (reader) and the session that harvests runtime profiles
/// (writer); thread-safe.
#[derive(Default)]
pub struct FeedbackCache {
    inner: Mutex<Inner>,
    /// Bumped whenever learned state changes enough to warrant
    /// replanning; the plan cache stores the epoch it planned under and
    /// treats a mismatch as an invalidation.
    epoch: AtomicU64,
}

impl fmt::Debug for FeedbackCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FeedbackCache")
            .field("entries", &self.len())
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl FeedbackCache {
    pub fn new() -> Arc<Self> {
        Arc::new(FeedbackCache::default())
    }

    /// Learned entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic counter of material learning events (see field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The catalog version the cache currently considers live.
    pub fn catalog_version(&self) -> u64 {
        self.inner.lock().unwrap().catalog_version
    }

    /// Install a new catalog version. If it differs from the live one,
    /// every learned entry is dropped — observed selectivities describe
    /// the data as of the version they were measured under, and a commit
    /// or merge invalidates that evidence wholesale (mirroring the plan
    /// cache's version guard).
    pub fn set_catalog_version(&self, version: u64) {
        let mut inner = self.inner.lock().unwrap();
        if inner.catalog_version != version {
            inner.catalog_version = version;
            if !inner.entries.is_empty() {
                inner.entries.clear();
                self.epoch.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Fold one observed selectivity into the cache under `key`.
    pub fn observe(&self, key: &str, sel: f64) {
        let sel = sel.clamp(1e-9, 1.0);
        let mut inner = self.inner.lock().unwrap();
        let version = inner.catalog_version;
        let material = match inner.entries.get_mut(key) {
            Some(e) => {
                let merged = FEEDBACK_DECAY * sel + (1.0 - FEEDBACK_DECAY) * e.sel;
                let rel = (merged - e.sel).abs() / e.sel.max(1e-12);
                e.sel = merged;
                e.observations += 1;
                e.catalog_version = version;
                rel > EPOCH_TOLERANCE
            }
            None => {
                inner.entries.insert(
                    key.to_owned(),
                    FeedbackEntry {
                        sel,
                        observations: 1,
                        catalog_version: version,
                    },
                );
                true
            }
        };
        drop(inner);
        if material {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The learned selectivity for `key`, if any.
    pub fn lookup(&self, key: &str) -> Option<f64> {
        self.inner.lock().unwrap().entries.get(key).map(|e| e.sel)
    }

    /// The full entry for `key` (tests and diagnostics).
    pub fn entry(&self, key: &str) -> Option<FeedbackEntry> {
        self.inner.lock().unwrap().entries.get(key).copied()
    }
}

// ------------------------------------------------------------------ keys

/// Normalized key for a base-table filter: the expression shape with
/// literals holed out and columns resolved to the relation's canonical
/// column names. Stable under literal churn (every constant becomes `?`)
/// and alias renames (binder aliases never reach physical plans; the
/// names here come from the base schema).
pub fn scan_key(schema: &Schema, filter: &Expr) -> String {
    let mut out = String::from("scan|");
    expr_shape(filter, &|i| schema.name(i).to_owned(), &mut out);
    out
}

/// Normalized key for an inner-join edge: both key-column lists, sorted
/// so `a ⋈ b` and `b ⋈ a` share one entry.
pub fn join_key(a_keys: &[String], b_keys: &[String]) -> String {
    let a = a_keys.join(",");
    let b = b_keys.join(",");
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    format!("join|{x}={y}")
}

/// Write the literal-free shape of `expr` into `out`, naming columns via
/// `name_of`.
fn expr_shape(expr: &Expr, name_of: &dyn Fn(usize) -> String, out: &mut String) {
    let bin = |tag: &str, a: &Expr, b: &Expr, out: &mut String| {
        out.push_str(tag);
        out.push('(');
        expr_shape(a, name_of, out);
        out.push(',');
        expr_shape(b, name_of, out);
        out.push(')');
    };
    match expr {
        Expr::Col(i) => out.push_str(&name_of(*i)),
        // Every literal is a hole: the key must survive literal churn.
        Expr::ConstI64(_) | Expr::ConstF64(_) | Expr::ConstStr(_) => out.push('?'),
        Expr::Add(a, b) => bin("add", a, b, out),
        Expr::Sub(a, b) => bin("sub", a, b, out),
        Expr::Mul(a, b) => bin("mul", a, b, out),
        Expr::Div(a, b) => bin("div", a, b, out),
        Expr::And(a, b) => bin("and", a, b, out),
        Expr::Or(a, b) => bin("or", a, b, out),
        Expr::Cmp(op, a, b) => {
            out.push_str(&format!("cmp[{op:?}]"));
            out.push('(');
            expr_shape(a, name_of, out);
            out.push(',');
            expr_shape(b, name_of, out);
            out.push(')');
        }
        Expr::Not(a) => {
            out.push_str("not(");
            expr_shape(a, name_of, out);
            out.push(')');
        }
        Expr::ToF64(a) => {
            out.push_str("f64(");
            expr_shape(a, name_of, out);
            out.push(')');
        }
        Expr::BetweenI64(a, _, _) => {
            out.push_str("between(");
            expr_shape(a, name_of, out);
            out.push_str(",?,?)");
        }
        Expr::InI64(a, list) => {
            out.push_str("in_i64(");
            expr_shape(a, name_of, out);
            // List *arity* stays in the key: `IN (a)` and `IN (a,b,c)`
            // have genuinely different selectivities.
            out.push_str(&format!(",#{})", list.len()));
        }
        Expr::InStr(a, list) => {
            out.push_str("in_str(");
            expr_shape(a, name_of, out);
            out.push_str(&format!(",#{})", list.len()));
        }
        Expr::Like(a, _) => {
            out.push_str("like(");
            expr_shape(a, name_of, out);
            out.push_str(",?)");
        }
        Expr::StrPrefix(a, _) => {
            out.push_str("prefix(");
            expr_shape(a, name_of, out);
            out.push_str(",?)");
        }
        Expr::Case(c, t, e) => {
            out.push_str("case(");
            expr_shape(c, name_of, out);
            out.push(',');
            expr_shape(t, name_of, out);
            out.push(',');
            expr_shape(e, name_of, out);
            out.push(')');
        }
        Expr::YearOf(a) => {
            out.push_str("year(");
            expr_shape(a, name_of, out);
            out.push(')');
        }
        Expr::Substr(a, from, len) => {
            // Positions are structure, not data: keep them.
            out.push_str(&format!("substr[{from},{len}]("));
            expr_shape(a, name_of, out);
            out.push(')');
        }
    }
}

// --------------------------------------------------------------- harvest

/// Walk a finished plan against its runtime actuals (`rows_out` per
/// operator, in explain / profile-slot order: pre-order, probe before
/// build) and fold observed selectivities into `cache`.
///
/// Learns two families of keys:
/// - filtered base scans: `actual / total_rows` under [`scan_key`];
/// - inner-join edges: `actual / (probe_actual * build_actual)` under
///   [`join_key`].
///
/// Returns the number of observations recorded.
pub fn harvest(plan: &Plan, actuals: &[u64], cache: &FeedbackCache) -> usize {
    let mut slot = 0usize;
    let mut n = 0usize;
    harvest_walk(plan, actuals, cache, &mut slot, &mut n);
    n
}

fn harvest_walk(
    plan: &Plan,
    actuals: &[u64],
    cache: &FeedbackCache,
    slot: &mut usize,
    n: &mut usize,
) {
    let my = *slot;
    *slot += 1;
    if my >= actuals.len() {
        return;
    }
    match plan {
        Plan::Scan {
            relation, filter, ..
        } => {
            if let Some(f) = filter {
                let total = relation.total_rows();
                if total > 0 {
                    cache.observe(
                        &scan_key(relation.schema(), f),
                        actuals[my] as f64 / total as f64,
                    );
                    *n += 1;
                }
            }
        }
        Plan::Filter { input, .. }
        | Plan::Map { input, .. }
        | Plan::Agg { input, .. }
        | Plan::Sort { input, .. } => harvest_walk(input, actuals, cache, slot, n),
        Plan::Join {
            build,
            probe,
            build_keys,
            probe_keys,
            kind,
            ..
        } => {
            let probe_slot = *slot;
            harvest_walk(probe, actuals, cache, slot, n);
            let build_slot = *slot;
            harvest_walk(build, actuals, cache, slot, n);
            if matches!(kind, JoinKind::Inner | JoinKind::InnerMark) {
                let (Some(&ap), Some(&ab)) = (actuals.get(probe_slot), actuals.get(build_slot))
                else {
                    return;
                };
                if ap > 0 && ab > 0 {
                    let ps = probe.schema();
                    let bs = build.schema();
                    let pk: Vec<String> =
                        probe_keys.iter().map(|&i| ps.name(i).to_owned()).collect();
                    let bk: Vec<String> =
                        build_keys.iter().map(|&i| bs.name(i).to_owned()).collect();
                    let sel = actuals[my] as f64 / (ap as f64 * ab as f64);
                    cache.observe(&join_key(&pk, &bk), sel);
                    *n += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_exec::expr::{and, between, col, eq, lit};
    use morsel_numa::{Placement, Topology};
    use morsel_storage::{Batch, Column, DataType, PartitionBy, Relation};

    fn schema() -> Schema {
        Schema::new(vec![("a", DataType::I64), ("b", DataType::I64)])
    }

    #[test]
    fn scan_keys_hole_literals_but_keep_structure() {
        let s = schema();
        let k1 = scan_key(&s, &and(eq(col(0), lit(7)), between(col(1), 1, 9)));
        let k2 = scan_key(&s, &and(eq(col(0), lit(99)), between(col(1), 0, 1000)));
        assert_eq!(k1, k2, "literal churn must not change the key");
        let k3 = scan_key(&s, &and(eq(col(1), lit(7)), between(col(1), 1, 9)));
        assert_ne!(k1, k3, "different columns are different shapes");
        let k4 = scan_key(&s, &eq(col(0), lit(7)));
        assert_ne!(k1, k4, "dropping a conjunct changes the shape");
    }

    #[test]
    fn join_keys_are_orientation_free() {
        let a = vec!["o_orderkey".to_owned()];
        let b = vec!["l_orderkey".to_owned()];
        assert_eq!(join_key(&a, &b), join_key(&b, &a));
        assert_ne!(join_key(&a, &b), join_key(&a, &a));
    }

    #[test]
    fn observe_decays_toward_new_evidence() {
        let fb = FeedbackCache::default();
        fb.observe("k", 0.8);
        assert_eq!(fb.lookup("k"), Some(0.8));
        fb.observe("k", 0.0); // clamps to 1e-9
        let v = fb.lookup("k").unwrap();
        assert!((v - 0.4).abs() < 1e-6, "decayed halfway, got {v}");
        assert_eq!(fb.entry("k").unwrap().observations, 2);
    }

    #[test]
    fn catalog_bump_drops_every_entry() {
        let fb = FeedbackCache::default();
        fb.set_catalog_version(3);
        fb.observe("k", 0.5);
        assert_eq!(fb.entry("k").unwrap().catalog_version, 3);
        let epoch = fb.epoch();
        fb.set_catalog_version(3); // no-op: same version
        assert_eq!(fb.lookup("k"), Some(0.5));
        assert_eq!(fb.epoch(), epoch);
        fb.set_catalog_version(4);
        assert_eq!(fb.lookup("k"), None);
        assert!(fb.is_empty());
        assert!(fb.epoch() > epoch, "invalidation is a material change");
    }

    #[test]
    fn converged_entries_stop_bumping_the_epoch() {
        let fb = FeedbackCache::default();
        fb.observe("k", 0.5);
        for _ in 0..10 {
            fb.observe("k", 0.5);
        }
        let epoch = fb.epoch();
        fb.observe("k", 0.5);
        assert_eq!(fb.epoch(), epoch, "steady state must not churn plans");
        fb.observe("k", 0.001);
        assert!(fb.epoch() > epoch, "a shift resumes invalidation");
    }

    #[test]
    fn harvest_learns_scan_and_join_selectivities() {
        let topo = Topology::laptop();
        let mk = |n: i64| {
            std::sync::Arc::new(Relation::partitioned(
                Schema::new(vec![("k", DataType::I64), ("v", DataType::I64)]),
                &Batch::from_columns(vec![
                    Column::I64((0..n).collect()),
                    Column::I64((0..n).map(|x| x % 10).collect()),
                ]),
                PartitionBy::Hash { column: 0 },
                2,
                Placement::FirstTouch,
                &topo,
            ))
        };
        let probe = Plan::scan(mk(1000), Some(eq(col(1), lit(3))), &["k", "v"]);
        let build = Plan::scan(mk(100), None, &["k"]);
        let plan = probe.join(build, &["k"], &["k"], &[]);
        // Slots: 0 = join, 1 = probe scan, 2 = build scan.
        let actuals = vec![10u64, 100, 100];
        let fb = FeedbackCache::default();
        let n = harvest(&plan, &actuals, &fb);
        assert_eq!(n, 2, "one filtered scan + one join edge");
        let sk = fb.lookup(&scan_key(
            &Schema::new(vec![("k", DataType::I64), ("v", DataType::I64)]),
            &eq(col(1), lit(3)),
        ));
        assert_eq!(sk, Some(0.1), "100 of 1000 rows survived");
        let jk = fb.lookup(&join_key(&["k".to_owned()], &["k".to_owned()]));
        assert_eq!(jk, Some(10.0 / (100.0 * 100.0)));
    }
}
