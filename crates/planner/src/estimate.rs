//! Cardinality estimation over physical plans.
//!
//! Works on the executor's [`Plan`] so the same estimates drive three
//! consumers: the join enumerator's leaf statistics, the simulated-cost
//! comparison between planner-chosen and hand-authored plans, and the
//! `repro explain` cardinality annotations.
//!
//! Assumptions are the textbook ones (System R lineage):
//! **independence** between predicates (conjunctions multiply — except
//! the integer bounds on one column, which are one range priced once:
//! `a >= x AND a < y` is no likelier than `a BETWEEN x AND y - 1`), and
//! **containment of value sets** for equi-joins
//! (`|L ⋈ R| = |L|·|R| / max(ndv(L.k), ndv(R.k))`). Base-table inputs
//! come from the catalog sketches cached on each
//! [`Relation`](morsel_storage::Relation); derived columns fall back to
//! documented default selectivities.

use std::collections::HashMap;
use std::sync::Arc;

use morsel_exec::expr::{CmpOp, Expr};
use morsel_exec::join::JoinKind;
use morsel_exec::plan::Plan;
use morsel_exec::predicate::fuse_int_bounds;
use morsel_storage::{ColumnStats, DataType, Dictionary};

use crate::feedback::{self, FeedbackCache};

/// Estimated properties of one output column.
#[derive(Debug, Clone)]
pub struct ColEst {
    /// Estimated distinct values.
    pub ndv: f64,
    /// Average bytes per value.
    pub width: f64,
    /// Numeric `[min, max]` range, when known.
    pub span: Option<(f64, f64)>,
    /// The column's sorted dictionary, when dictionary-encoded. String
    /// range, prefix, LIKE, and IN predicates then resolve to exact
    /// fractions of the code domain instead of default selectivities.
    pub dict: Option<Arc<Dictionary>>,
}

impl ColEst {
    fn unknown(dtype: DataType, rows: f64) -> Self {
        ColEst {
            ndv: rows.max(1.0),
            width: match dtype {
                DataType::Str => 16.0,
                DataType::I32 => 4.0,
                _ => 8.0,
            },
            span: None,
            dict: None,
        }
    }

    pub(crate) fn from_stats(s: &ColumnStats) -> Self {
        ColEst {
            ndv: s.ndv.max(1.0),
            width: s.avg_width.max(1.0),
            span: s.numeric_span().and_then(|_| match (&s.min, &s.max) {
                (Some(lo), Some(hi)) => Some((lo.as_f64(), hi.as_f64())),
                _ => None,
            }),
            dict: s.dict.clone(),
        }
    }

    fn capped(&self, rows: f64) -> Self {
        ColEst {
            ndv: self.ndv.min(rows.max(1.0)),
            width: self.width,
            span: self.span,
            dict: self.dict.clone(),
        }
    }
}

/// Estimated properties of a plan node's output.
#[derive(Debug, Clone)]
pub struct PlanEst {
    /// Estimated output rows.
    pub rows: f64,
    /// Column estimates, aligned with the node's output schema.
    pub cols: Vec<ColEst>,
}

impl PlanEst {
    /// Estimated bytes per output row.
    pub fn row_width(&self) -> f64 {
        self.cols.iter().map(|c| c.width).sum::<f64>().max(1.0)
    }

    /// Estimated total output bytes.
    pub fn bytes(&self) -> f64 {
        self.rows * self.row_width()
    }
}

/// The estimator, with its default selectivities exposed for tuning.
#[derive(Debug, Clone)]
pub struct Estimator {
    /// Selectivity of a predicate the estimator cannot decompose.
    pub default_sel: f64,
    /// Selectivity of a column-vs-column inequality (`a < b`).
    pub col_cmp_sel: f64,
    /// Selectivity of `LIKE '%..%'` containment patterns.
    pub like_sel: f64,
    /// Selectivity of prefix-anchored string predicates.
    pub prefix_sel: f64,
    /// Runtime cardinality feedback, consulted before the model above:
    /// an observed selectivity for a scan filter or join edge overrides
    /// the textbook estimate. `None` disables feedback entirely.
    pub feedback: Option<Arc<FeedbackCache>>,
}

impl Default for Estimator {
    fn default() -> Self {
        Estimator {
            default_sel: 0.25,
            col_cmp_sel: 1.0 / 3.0,
            like_sel: 0.1,
            prefix_sel: 0.05,
            feedback: None,
        }
    }
}

impl Estimator {
    /// Attach a feedback cache (builder style).
    pub fn with_feedback(mut self, cache: Arc<FeedbackCache>) -> Self {
        self.feedback = Some(cache);
        self
    }
}

/// Memo for repeated estimates over one plan tree, keyed by node address
/// (valid only while the borrowed plan is alive). Lets tree walkers like
/// [`crate::cost::plan_cost`] and `explain` stay linear instead of
/// re-estimating every subtree at every ancestor.
pub type EstMemo = HashMap<usize, PlanEst>;

impl Estimator {
    /// Estimate a plan node (recursively).
    pub fn estimate(&self, plan: &Plan) -> PlanEst {
        self.estimate_memo(plan, &mut EstMemo::new())
    }

    /// Estimate with an explicit memo shared across calls over the same
    /// plan tree.
    pub fn estimate_memo(&self, plan: &Plan, memo: &mut EstMemo) -> PlanEst {
        let key = plan as *const Plan as usize;
        if let Some(hit) = memo.get(&key) {
            return hit.clone();
        }
        let out = self.estimate_node(plan, memo);
        memo.insert(key, out.clone());
        out
    }

    fn estimate_node(&self, plan: &Plan, memo: &mut EstMemo) -> PlanEst {
        match plan {
            Plan::Scan {
                relation,
                filter,
                project,
            } => {
                let stats = relation.stats();
                let base: Vec<ColEst> = stats.columns.iter().map(ColEst::from_stats).collect();
                let src_types = relation.schema().data_types();
                // An observed selectivity for this exact predicate shape
                // beats the independence model.
                let sel = filter.as_ref().map_or(1.0, |f| {
                    self.feedback
                        .as_ref()
                        .and_then(|fb| fb.lookup(&feedback::scan_key(relation.schema(), f)))
                        .unwrap_or_else(|| self.selectivity(f, &base, &src_types))
                });
                let rows = (relation.total_rows() as f64 * sel).max(1.0);
                let cols = project
                    .iter()
                    .map(|(_, e)| self.project_col(e, &base, &src_types, rows))
                    .collect();
                PlanEst { rows, cols }
            }
            Plan::Filter { input, predicate } => {
                let mut est = self.estimate_memo(input, memo);
                let sel = self.selectivity(predicate, &est.cols, &input.schema().data_types());
                est.rows = (est.rows * sel).max(1.0);
                est.cols = est.cols.iter().map(|c| c.capped(est.rows)).collect();
                est
            }
            Plan::Map { input, project } => {
                let est = self.estimate_memo(input, memo);
                let in_types: Vec<DataType> = input.schema().data_types();
                let cols = project
                    .iter()
                    .map(|(_, e)| self.project_col(e, &est.cols, &in_types, est.rows))
                    .collect();
                PlanEst {
                    rows: est.rows,
                    cols,
                }
            }
            Plan::Join {
                build,
                probe,
                build_keys,
                probe_keys,
                kind,
                build_payload,
            } => {
                let b = self.estimate_memo(build, memo);
                let p = self.estimate_memo(probe, memo);
                let ndv_b = combined_ndv(&b, build_keys);
                let ndv_p = combined_ndv(&p, probe_keys);
                let (rows, emit_build) = match kind {
                    JoinKind::Inner | JoinKind::InnerMark => {
                        // Observed join-edge selectivity (actual_out /
                        // (probe_in * build_in)) overrides containment.
                        let observed = self.feedback.as_ref().and_then(|fb| {
                            let ps = probe.schema();
                            let bs = build.schema();
                            let pk: Vec<String> =
                                probe_keys.iter().map(|&i| ps.name(i).to_owned()).collect();
                            let bk: Vec<String> =
                                build_keys.iter().map(|&i| bs.name(i).to_owned()).collect();
                            fb.lookup(&feedback::join_key(&pk, &bk))
                        });
                        let rows = match observed {
                            Some(s) => (p.rows * b.rows * s).max(1.0),
                            None => (p.rows * b.rows / ndv_b.max(ndv_p)).max(1.0),
                        };
                        (rows, true)
                    }
                    JoinKind::Semi => ((p.rows * (ndv_b / ndv_p).min(1.0)).max(1.0), false),
                    JoinKind::Anti => ((p.rows * (1.0 - (ndv_b / ndv_p).min(1.0))).max(1.0), false),
                    JoinKind::Count => (p.rows, false),
                };
                let mut cols: Vec<ColEst> = p.cols.iter().map(|c| c.capped(rows)).collect();
                if emit_build {
                    for &c in build_payload {
                        cols.push(b.cols[c].capped(rows));
                    }
                }
                if matches!(kind, JoinKind::Count) {
                    cols.push(ColEst {
                        ndv: (b.rows / ndv_b + 1.0).min(rows),
                        width: 8.0,
                        span: None,
                        dict: None,
                    });
                }
                PlanEst { rows, cols }
            }
            Plan::Agg {
                input,
                group_cols,
                aggs,
            } => {
                let est = self.estimate_memo(input, memo);
                let rows = if group_cols.is_empty() {
                    1.0
                } else {
                    group_cols
                        .iter()
                        .map(|&c| est.cols[c].ndv)
                        .product::<f64>()
                        .min(est.rows)
                        .max(1.0)
                };
                let mut cols: Vec<ColEst> = group_cols
                    .iter()
                    .map(|&c| est.cols[c].capped(rows))
                    .collect();
                for _ in aggs {
                    cols.push(ColEst {
                        ndv: rows,
                        width: 8.0,
                        span: None,
                        dict: None,
                    });
                }
                PlanEst { rows, cols }
            }
            Plan::Sort { input, limit, .. } => {
                let est = self.estimate_memo(input, memo);
                let rows = limit.map_or(est.rows, |k| est.rows.min(k as f64)).max(1.0);
                PlanEst {
                    rows,
                    cols: est.cols.iter().map(|c| c.capped(rows)).collect(),
                }
            }
        }
    }

    /// Column estimate for a projected expression.
    fn project_col(
        &self,
        expr: &Expr,
        input: &[ColEst],
        in_types: &[DataType],
        rows: f64,
    ) -> ColEst {
        match expr {
            Expr::Col(i) => input[*i].capped(rows),
            // Calendar years collapse day-number spans by ~365x; this is
            // the one derived-column shape the TPC-H aggregates group by.
            Expr::YearOf(inner) => {
                if let Expr::Col(i) = &**inner {
                    if let Some((lo, hi)) = input[*i].span {
                        let years = ((hi - lo) / 365.25).floor() + 1.0;
                        return ColEst {
                            ndv: years.max(1.0).min(rows),
                            width: 8.0,
                            span: None,
                            dict: None,
                        };
                    }
                }
                ColEst::unknown(DataType::I64, rows)
            }
            Expr::ConstI64(_) | Expr::ConstF64(_) | Expr::ConstStr(_) => ColEst {
                ndv: 1.0,
                width: 8.0,
                span: None,
                dict: None,
            },
            other => ColEst::unknown(other.result_type(in_types), rows),
        }
    }

    /// Selectivity of a predicate over columns of `types`, estimated as
    /// `cols`. The conjunction is taken apart by [`fuse_int_bounds`] — the
    /// step the executor compiles filters with — so every integer column
    /// contributes the one range its bounds leave, however many
    /// comparisons spell it; the ranges and the remaining conjuncts
    /// multiply.
    pub fn selectivity(&self, expr: &Expr, cols: &[ColEst], types: &[DataType]) -> f64 {
        let (ranges, rest) = fuse_int_bounds(expr, types);
        let ranges = ranges
            .into_iter()
            .map(|(c, lo, hi)| self.int_range_selectivity(&cols[c], lo, hi));
        let rest = rest
            .into_iter()
            .map(|leaf| self.leaf_selectivity(leaf, cols, types));
        ranges.chain(rest).product::<f64>().clamp(1e-7, 1.0)
    }

    /// Selectivity of `lo <= col <= hi` on an integer column: a point is
    /// an equality (one value in NDV), contradictory bounds select
    /// nothing, anything else is its share of the column's span. With no
    /// span known, a half-open range falls back to the inequality
    /// default, a closed one to the `BETWEEN` default.
    fn int_range_selectivity(&self, col: &ColEst, lo: i64, hi: i64) -> f64 {
        if lo >= hi {
            return if lo > hi { 0.0 } else { 1.0 / col.ndv };
        }
        let half_open = lo == i64::MIN || hi == i64::MAX;
        let default = if half_open {
            self.col_cmp_sel
        } else {
            self.default_sel
        };
        range_fraction(col, lo as f64, hi as f64, default)
    }

    /// Selectivity of one conjunct that states no integer bound.
    fn leaf_selectivity(&self, expr: &Expr, cols: &[ColEst], types: &[DataType]) -> f64 {
        let s = match expr {
            Expr::Or(a, b) => {
                let (sa, sb) = (
                    self.selectivity(a, cols, types),
                    self.selectivity(b, cols, types),
                );
                sa + sb - sa * sb
            }
            Expr::Not(a) => 1.0 - self.selectivity(a, cols, types),
            Expr::Cmp(op, a, b) => self.cmp_selectivity(*op, a, b, cols),
            Expr::BetweenI64(a, lo, hi) => match &**a {
                Expr::Col(i) => range_fraction(&cols[*i], *lo as f64, *hi as f64, self.default_sel),
                _ => self.default_sel,
            },
            Expr::InI64(a, list) => self.membership(a, list.len(), cols),
            Expr::InStr(a, list) => {
                // Against a dictionary: count how many of the listed
                // values exist in the domain — absent values contribute
                // nothing (the executor's code-set rewrite drops them too).
                if let Expr::Col(i) = a.as_ref() {
                    if let Some(d) = &cols[*i].dict {
                        let present = list.iter().filter(|l| d.code_of(l).is_some()).count() as f64;
                        return (present / d.len().max(1) as f64).clamp(1e-7, 1.0);
                    }
                }
                self.membership(a, list.len(), cols)
            }
            Expr::Like(a, pat) => {
                // A dictionary enumerates the domain, so LIKE selectivity
                // is exact over values (uniformity across values assumed).
                if let Expr::Col(i) = a.as_ref() {
                    if let Some(d) = &cols[*i].dict {
                        let hits = d.values().iter().filter(|v| pat.matches(v)).count() as f64;
                        return (hits / d.len().max(1) as f64).clamp(1e-7, 1.0);
                    }
                }
                self.like_sel
            }
            Expr::StrPrefix(a, p) => {
                // Prefix predicates are code ranges of the sorted domain.
                if let Expr::Col(i) = a.as_ref() {
                    if let Some(d) = &cols[*i].dict {
                        let (lo, hi) = d.prefix_range(p);
                        return (f64::from(hi - lo) / d.len().max(1) as f64).clamp(1e-7, 1.0);
                    }
                }
                self.prefix_sel
            }
            _ => self.default_sel,
        };
        s.clamp(1e-7, 1.0)
    }

    fn membership(&self, a: &Expr, list_len: usize, cols: &[ColEst]) -> f64 {
        match a {
            Expr::Col(i) => (list_len as f64 / cols[*i].ndv).min(1.0),
            // `substr(phone, 1, 2) IN (codes)`-style derived membership.
            _ => self.default_sel,
        }
    }

    fn cmp_selectivity(&self, op: CmpOp, a: &Expr, b: &Expr, cols: &[ColEst]) -> f64 {
        match (a, b) {
            (Expr::Col(i), Expr::ConstI64(c)) => self.col_const_cmp(op, &cols[*i], *c as f64),
            (Expr::ConstI64(c), Expr::Col(i)) => self.col_const_cmp(flip(op), &cols[*i], *c as f64),
            (Expr::Col(i), Expr::ConstF64(c)) => self.col_const_cmp(op, &cols[*i], *c),
            (Expr::Col(i), Expr::ConstStr(s)) => match op {
                CmpOp::Eq => match &cols[*i].dict {
                    // Absent from the domain: selects nothing.
                    Some(d) if d.code_of(s).is_none() => 1e-7,
                    _ => 1.0 / cols[*i].ndv,
                },
                CmpOp::Ne => match &cols[*i].dict {
                    // Absent from the domain: excludes nothing.
                    Some(d) if d.code_of(s).is_none() => 1.0,
                    _ => 1.0 - 1.0 / cols[*i].ndv,
                },
                // Ordering against a sorted dictionary: the constant's
                // code position is the range fraction of the domain.
                _ => match &cols[*i].dict {
                    Some(d) if !d.is_empty() => {
                        let len = d.len() as f64;
                        let below = f64::from(d.lower_bound(s)) / len;
                        let at_or_below = f64::from(d.upper_bound(s)) / len;
                        match op {
                            CmpOp::Lt => below,
                            CmpOp::Le => at_or_below,
                            CmpOp::Gt => 1.0 - at_or_below,
                            CmpOp::Ge => 1.0 - below,
                            CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
                        }
                    }
                    _ => self.col_cmp_sel,
                },
            },
            (Expr::Col(i), Expr::Col(j)) => match op {
                CmpOp::Eq => 1.0 / cols[*i].ndv.max(cols[*j].ndv),
                CmpOp::Ne => 1.0 - 1.0 / cols[*i].ndv.max(cols[*j].ndv),
                _ => self.col_cmp_sel,
            },
            _ => self.default_sel,
        }
    }

    fn col_const_cmp(&self, op: CmpOp, col: &ColEst, c: f64) -> f64 {
        match op {
            CmpOp::Eq => 1.0 / col.ndv,
            CmpOp::Ne => 1.0 - 1.0 / col.ndv,
            CmpOp::Lt | CmpOp::Le => match col.span {
                Some((lo, hi)) if hi > lo => ((c - lo) / (hi - lo)).clamp(0.0, 1.0),
                _ => self.col_cmp_sel,
            },
            CmpOp::Gt | CmpOp::Ge => match col.span {
                Some((lo, hi)) if hi > lo => ((hi - c) / (hi - lo)).clamp(0.0, 1.0),
                _ => self.col_cmp_sel,
            },
        }
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// `BETWEEN lo AND hi` fraction of a column's range.
fn range_fraction(col: &ColEst, lo: f64, hi: f64, default_sel: f64) -> f64 {
    match col.span {
        Some((cl, ch)) if ch > cl => {
            let overlap = (hi.min(ch) - lo.max(cl) + 1.0).max(0.0);
            (overlap / (ch - cl + 1.0)).clamp(0.0, 1.0)
        }
        Some((cl, _)) => {
            // Single-valued column: in range or not.
            if cl >= lo && cl <= hi {
                1.0
            } else {
                0.0
            }
        }
        None => default_sel,
    }
}

/// Combined distinct count of a multi-column key (independence, capped by
/// the side's row count).
pub fn combined_ndv(est: &PlanEst, keys: &[usize]) -> f64 {
    keys.iter()
        .map(|&k| est.cols[k].ndv)
        .product::<f64>()
        .min(est.rows)
        .max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_exec::expr::{and, between, col, eq, lit, lits};
    use morsel_exec::plan::Plan;
    use morsel_numa::{Placement, Topology};
    use morsel_storage::{Batch, Column, PartitionBy, Relation, Schema};
    use std::sync::Arc;

    fn rel(n: i64, groups: i64) -> Arc<Relation> {
        Arc::new(Relation::partitioned(
            Schema::new(vec![
                ("k", DataType::I64),
                ("g", DataType::I64),
                ("s", DataType::Str),
            ]),
            &Batch::from_columns(vec![
                Column::I64((0..n).collect()),
                Column::I64((0..n).map(|x| x % groups).collect()),
                Column::Str((0..n).map(|x| format!("s{}", x % 11)).collect()),
            ]),
            PartitionBy::Hash { column: 0 },
            8,
            Placement::FirstTouch,
            &Topology::laptop(),
        ))
    }

    fn est() -> Estimator {
        Estimator::default()
    }

    #[test]
    fn scan_point_predicate_uses_ndv() {
        let r = rel(10_000, 100);
        let p = Plan::scan(r, Some(eq(col(1), lit(7))), &["k", "g"]);
        let e = est().estimate(&p);
        // 1/ndv(g) = 1/100 of 10k rows = ~100.
        assert!(e.rows > 50.0 && e.rows < 220.0, "rows {}", e.rows);
    }

    #[test]
    fn range_predicate_uses_span() {
        let r = rel(10_000, 100);
        // k in [0, 9999]; between 0..999 is ~10%.
        let p = Plan::scan(r, Some(between(col(0), 0, 999)), &["k"]);
        let e = est().estimate(&p);
        assert!(e.rows > 700.0 && e.rows < 1400.0, "rows {}", e.rows);
    }

    #[test]
    fn bounds_on_one_column_are_one_range() {
        use morsel_exec::expr::{ge, gt, lt};
        let r = rel(10_000, 100);
        let rows = |p| {
            est()
                .estimate(&Plan::scan(Arc::clone(&r), Some(p), &["k"]))
                .rows
        };
        // k in [0, 9999]: a two-sided window is priced as the BETWEEN it
        // is (~10 %), not as two independent halves (~3.6 %) — wherever
        // the constants stand and whatever else the conjunction holds.
        let window = rows(between(col(0), 2_000, 2_999));
        assert!((window - 1_000.0).abs() < 1.0, "rows {window}");
        assert_eq!(
            rows(and(ge(col(0), lit(2_000)), lt(col(0), lit(3_000)))),
            window
        );
        assert_eq!(
            rows(and(gt(lit(3_000), col(0)), ge(col(0), lit(2_000)))),
            window
        );
        let with_group = rows(and(
            and(ge(col(0), lit(2_000)), eq(col(1), lit(7))),
            lt(col(0), lit(3_000)),
        ));
        // ... times 1/ndv(g), a sketch's idea of 100.
        assert!(with_group > 7.0 && with_group < 14.0, "rows {with_group}");
        // Contradictory bounds select nothing: the selectivity floor.
        let none = est().selectivity(
            &and(gt(col(0), lit(9)), lt(col(0), lit(3))),
            &[ColEst::from_stats(&r.stats().columns[0])],
            &[DataType::I64],
        );
        assert_eq!(none, 1e-7);
    }

    #[test]
    fn conjunction_multiplies() {
        let r = rel(10_000, 100);
        let p = Plan::scan(
            r,
            Some(and(eq(col(1), lit(7)), eq(col(2), lits("s3")))),
            &["k"],
        );
        let e = est().estimate(&p);
        // ~10_000 / 100 / 11 ≈ 9.
        assert!(e.rows > 2.0 && e.rows < 40.0, "rows {}", e.rows);
    }

    #[test]
    fn dict_domain_gives_exact_string_selectivities() {
        use morsel_exec::expr::{ge, in_str, like, ne, prefix};
        // 11 distinct values s0..s10 over 10k rows: the relation encodes.
        let r = Arc::new(
            Arc::try_unwrap(rel(10_000, 100))
                .expect("sole owner")
                .dict_encoded(),
        );
        let n = 10_000.0;
        let sel_of = |p: morsel_exec::expr::Expr| {
            est()
                .estimate(&Plan::scan(Arc::clone(&r), Some(p), &["k"]))
                .rows
                / n
        };
        // Equality/inequality of an absent constant: nothing / everything.
        assert!(sel_of(eq(col(2), lits("nope"))) < 1e-3);
        assert!(sel_of(ne(col(2), lits("nope"))) > 0.99);
        // Prefix covers the whole s0..s10 domain; an absent prefix none.
        assert!(sel_of(prefix(col(2), "s")) > 0.99);
        assert!(sel_of(prefix(col(2), "zz")) < 1e-3);
        // IN counts only values present in the domain (1 of 11 here).
        let in_sel = sel_of(in_str(col(2), &["s3", "absent"]));
        assert!((in_sel - 1.0 / 11.0).abs() < 0.02, "in_sel {in_sel}");
        // LIKE enumerates the domain exactly: '%0%' hits s0 and s10.
        let like_sel = sel_of(like(col(2), "%0%"));
        assert!((like_sel - 2.0 / 11.0).abs() < 0.02, "like_sel {like_sel}");
        // Ordering uses code positions: >= "s10" keeps all but "s0"/"s1"
        // (lexicographic order is s0 < s1 < s10 < s2 < ... < s9).
        let ge_sel = sel_of(ge(col(2), lits("s10")));
        assert!((ge_sel - 9.0 / 11.0).abs() < 0.02, "ge_sel {ge_sel}");
    }

    #[test]
    fn pk_fk_join_is_containment_bounded() {
        let fact = rel(100_000, 50);
        let dim = rel(1_000, 10);
        // fact.k joins dim.k: ndv(fact.k)=100k, ndv(dim.k)=1k ->
        // 100k * 1k / 100k = 1k rows.
        let p = Plan::scan(fact, None, &["k", "g"]).join(
            Plan::scan(dim, None, &["k"]),
            &["k"],
            &["k"],
            &[],
        );
        let e = est().estimate(&p);
        assert!(e.rows > 500.0 && e.rows < 2_000.0, "rows {}", e.rows);
    }

    #[test]
    fn group_by_rows_track_ndv() {
        let r = rel(10_000, 37);
        let p = Plan::scan(r, None, &["g", "k"])
            .agg(&["g"], vec![("c", morsel_exec::agg::AggFn::Count)]);
        let e = est().estimate(&p);
        assert!(e.rows > 25.0 && e.rows < 50.0, "rows {}", e.rows);
        // Scalar aggregation collapses to one row.
        let scalar = Plan::scan(rel(1000, 5), None, &["k"])
            .agg(&[], vec![("c", morsel_exec::agg::AggFn::Count)]);
        assert_eq!(est().estimate(&scalar).rows, 1.0);
    }

    #[test]
    fn semi_join_bounded_by_probe_rows() {
        let big = rel(50_000, 50);
        let small = rel(100, 10);
        let p = Plan::scan(big, None, &["k", "g"]).join_kind(
            Plan::scan(small, None, &["k"]),
            &["k"],
            &["k"],
            &[],
            morsel_exec::join::JoinKind::Semi,
        );
        let e = est().estimate(&p);
        assert!(e.rows <= 50_000.0);
        assert!(e.rows < 500.0, "selective semi join, rows {}", e.rows);
    }

    #[test]
    fn limit_caps_rows() {
        let p = Plan::scan(rel(10_000, 10), None, &["k"])
            .sort_by(vec![morsel_exec::sort::SortKey::asc(0)], Some(10));
        assert_eq!(est().estimate(&p).rows, 10.0);
    }
}
