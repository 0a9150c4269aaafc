//! Plan costs from the operators' own charges.
//!
//! The planner keeps no price list of its own. [`plan_charges`] maps each
//! plan node to the operators it compiles to — a join to its build-side
//! materialization, hash-table insert and probe; an aggregation to its
//! pre-aggregation and partition merge; a sort to its materialization,
//! local sort and merge, or its top-k heap — and asks
//! [`morsel_exec::charge`] what each costs, with estimated counts where
//! the operators pass actual ones. [`CostParams::price`] turns a charge
//! into virtual nanoseconds under the calibrated [`CostModel`] the
//! discrete-event executor runs on: streaming overlaps with CPU, stalls do
//! not ([`CostModel::combine`]), and since the hash table is interleaved
//! across sockets (Section 4.2 of the paper), `1 - 1/sockets` of its bytes
//! and misses are one hop away.
//!
//! One term is the planner's alone: an access into a hash table misses the
//! cache at the rate `min(1, table bytes / CACHE_BYTES)`, which is what
//! makes a small build side cheap — the signal the join enumerator
//! optimizes. The simulator books every access as a miss, which is what
//! reproduces the paper's SF 100 machine at the small scale factors here.
//! At SF 0.1 a planner that does the same builds tables that fit in cache
//! as if they did not, and picks slower join orders (DESIGN.md §8).

use morsel_exec::agg::PREAGG_CAPACITY;
use morsel_exec::charge::{self, Charge, ScanShape};
use morsel_exec::expr::col;
use morsel_exec::join::JoinKind;
use morsel_exec::pipeline::SEL_COMPACT_DENOM;
use morsel_exec::plan::{Plan, TOPK_THRESHOLD};
use morsel_numa::{CostModel, Topology};
use morsel_storage::DataType;

use crate::estimate::{combined_ndv, EstMemo, Estimator, PlanEst};

/// Effective last-level cache per socket: accesses to hash tables smaller
/// than this mostly hit cache and pay no memory stall.
const CACHE_BYTES: f64 = 8.0 * (1 << 20) as f64;

/// Cost parameters for one simulated machine.
#[derive(Debug, Clone)]
pub struct CostParams {
    pub model: CostModel,
    pub sockets: u32,
}

impl CostParams {
    pub fn for_topology(topology: &Topology) -> Self {
        CostParams {
            model: CostModel::for_topology(topology),
            sockets: u32::from(topology.sockets().max(1)),
        }
    }

    /// Virtual nanoseconds of `charge` on one worker of an idle machine.
    /// Reads and writes are NUMA-local: morsel scheduling keeps a scan on
    /// its partition's socket, and operators write to their worker's own.
    pub fn price(&self, charge: &Charge) -> f64 {
        let sockets = f64::from(self.sockets);
        let spread = charge.spread_read + charge.spread_write;
        let local = charge.read + charge.write + spread / sockets;
        let stream = self.model.stream_ns(local as u64, 0, 1, 0)
            + self
                .model
                .stream_ns((spread - spread / sockets) as u64, 1, 1, 1);
        let misses = charge.accesses * (charge.table_bytes / CACHE_BYTES).min(1.0);
        let stall = self.model.random_ns((misses / sockets) as u64, 0)
            + self.model.random_ns((misses - misses / sockets) as u64, 1);
        self.model.combine(charge.cpu_ns(), stream, stall)
    }

    /// Cost of one inner hash-join step of the join enumerator, whose
    /// inputs carry every column of their relations: `keys` join-key
    /// columns of 8 bytes, and the build side's columns all carried as
    /// payload into the `out_rows` matches.
    pub fn join_step(&self, build: Side, probe: Side, keys: usize, out_rows: f64) -> f64 {
        let emit = Side {
            rows: out_rows,
            ..build
        };
        join_charges(
            JoinKind::Inner,
            build,
            8.0 * keys as f64,
            probe,
            emit,
            out_rows,
        )
        .iter()
        .map(|c| self.price(c))
        .sum()
    }
}

/// One side of a hash join as the planner prices it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Side {
    pub rows: f64,
    /// Bytes per row.
    pub width: f64,
    pub cols: usize,
}

/// The charges of one hash join: materialize the build side, insert it
/// (keys of `key_width` bytes a row), probe it with the probe side,
/// walking `traversed` chain links. `emit` is an inner join's output: its
/// matches, and the build payload each carries.
fn join_charges(
    kind: JoinKind,
    build: Side,
    key_width: f64,
    probe: Side,
    emit: Side,
    traversed: f64,
) -> [Charge; 3] {
    [
        charge::materialize(build.rows, build.cols, build.rows * build.width),
        charge::hash_build(build.rows, build.rows * key_width, build.rows * build.width),
        charge::hash_probe(
            kind,
            probe.rows,
            traversed,
            emit.rows,
            probe.cols + emit.cols,
            emit.rows * emit.width,
            build.rows * build.width,
        ),
    ]
}

/// Total simulated cost (virtual ns of work) of a physical plan.
///
/// Used to compare planner-chosen against hand-authored plans on equal
/// footing: both are lowered `exec` plans priced by the same model and
/// the same cardinality estimates.
pub fn plan_cost(params: &CostParams, est: &Estimator, plan: &Plan) -> f64 {
    // One memo for the whole walk keeps costing linear in plan size.
    let mut memo = EstMemo::new();
    let charges = plan_charges(plan, &mut |p| est.estimate_memo(p, &mut memo));
    charges.iter().flatten().map(|c| params.price(c)).sum()
}

/// Every charge `plan` books when it runs, per plan node in
/// [`Plan::preorder`] order (the runtime profile's slot order), with each
/// node's output estimated by `est`. The walk recurses on its own rather
/// than mapping over `preorder`, because a node's charges need its
/// children's flows, bottom-up. A node is charged for the
/// operators it compiles to; an aggregation or sort below the root also
/// for the scan of its output by the pipeline above it, and the root for
/// materializing the result when it is neither.
pub fn plan_charges(plan: &Plan, est: &mut dyn FnMut(&Plan) -> PlanEst) -> Vec<Vec<Charge>> {
    let mut out = Vec::new();
    let root = walk(plan, est, &mut out, true);
    if !matches!(plan, Plan::Agg { .. } | Plan::Sort { .. }) {
        let o = &root.est;
        out[0].push(charge::materialize(o.rows, o.cols.len(), o.bytes()));
    }
    out
}

/// A node's output as the operator it feeds sees it.
struct Flow {
    est: PlanEst,
    /// When the output is a selection vector: the rows of the batch under
    /// it.
    under: Option<f64>,
}

fn walk(
    plan: &Plan,
    est: &mut dyn FnMut(&Plan) -> PlanEst,
    out: &mut Vec<Vec<Charge>>,
    root: bool,
) -> Flow {
    let slot = out.len();
    out.push(Vec::new());
    let o = est(plan);
    let mut charges = Vec::new();
    let under = match plan {
        Plan::Scan {
            relation,
            filter,
            project,
        } => {
            let types = relation.schema().data_types();
            let shape = ScanShape::of(filter.as_ref(), project.iter().map(|(_, e)| e), &types);
            let rows = relation.total_rows() as f64;
            let stats = relation.stats();
            let width: f64 = shape.used.iter().map(|&c| stats.columns[c].avg_width).sum();
            charges.push(charge::scan(
                rows,
                o.rows,
                shape.used.len(),
                rows * width,
                shape.filter_weight,
                shape.projection_weight,
                0.0,
            ));
            None
        }
        Plan::Filter { input, predicate } => {
            let i = walk(input, est, out, false);
            let under = i.under.unwrap_or(i.est.rows);
            let selected = i.under.map(|_| i.est.rows);
            charges.push(charge::filter(under, selected, predicate.weight()));
            compact(&mut charges, &o, under)
        }
        Plan::Map { input, project } => {
            let i = walk(input, est, out, false);
            if i.under.is_some() {
                charges.push(charge::materialize(i.est.rows, i.est.cols.len(), 0.0));
            }
            let weight = project.iter().map(|(_, e)| e.weight()).sum();
            charges.push(charge::map(i.est.rows, weight));
            None
        }
        Plan::Join {
            build,
            probe,
            build_keys,
            probe_keys,
            kind,
            build_payload,
        } => {
            let p = walk(probe, est, out, false);
            let b = walk(build, est, out, false);
            let (pe, be) = (&p.est, &b.est);
            let side = |e: &PlanEst| Side {
                rows: e.rows,
                width: e.row_width(),
                cols: e.cols.len(),
            };
            let key_width = build_keys.iter().map(|&k| be.cols[k].width).sum();
            let (emit, traversed) = match kind {
                JoinKind::Inner => {
                    let emit = Side {
                        rows: o.rows,
                        width: build_payload.iter().map(|&c| be.cols[c].width).sum(),
                        cols: build_payload.len(),
                    };
                    (emit, o.rows)
                }
                // The links walked are the matches an inner join would
                // have (containment).
                JoinKind::Semi | JoinKind::Anti | JoinKind::Count => {
                    let ndv = combined_ndv(be, build_keys).max(combined_ndv(pe, probe_keys));
                    (Side::default(), pe.rows * be.rows / ndv)
                }
            };
            charges.extend(join_charges(
                *kind,
                side(be),
                key_width,
                side(pe),
                emit,
                traversed,
            ));
            match kind {
                JoinKind::Inner => None,
                JoinKind::Semi | JoinKind::Anti => {
                    compact(&mut charges, &o, p.under.unwrap_or(pe.rows))
                }
                // The count column is dense: a selection is gathered.
                JoinKind::Count => {
                    if p.under.is_some() {
                        charges.push(charge::materialize(pe.rows, pe.cols.len(), 0.0));
                    }
                    None
                }
            }
        }
        Plan::Agg {
            input,
            group_cols,
            aggs,
        } => {
            let i = walk(input, est, out, false);
            let types = input.schema().data_types();
            let strings = (group_cols.iter())
                .filter(|&&c| types[c] == DataType::Str && i.est.cols[c].dict.is_none())
                .count();
            let entry = charge::agg_entry_bytes(group_cols.len(), strings, aggs.len()) as f64;
            // Every group reaches the merge once; a table that outgrows
            // its capacity spills them as the input streams by.
            let entries = o.rows;
            let spilled = if entries > PREAGG_CAPACITY as f64 {
                entries * entry
            } else {
                0.0
            };
            charges.push(charge::agg_update(i.est.rows, aggs.len(), spilled));
            charges.push(charge::agg_merge(
                entries,
                aggs.len(),
                entries * entry,
                o.bytes(),
            ));
            None
        }
        Plan::Sort { input, keys, limit } => {
            let i = walk(input, est, out, false);
            let (rows, bytes) = (i.est.rows, i.est.bytes());
            match limit {
                Some(k) if *k <= TOPK_THRESHOLD => charges.push(charge::top_k(rows, *k)),
                // One worker: one run, one merge segment.
                _ => charges.extend([
                    charge::materialize(rows, i.est.cols.len(), bytes),
                    charge::local_sort(rows, keys.len(), bytes, bytes),
                    charge::merge(rows, 1, bytes, bytes),
                ]),
            }
            None
        }
    };
    // A breaker's output is an area the pipeline above scans again.
    if !root && matches!(plan, Plan::Agg { .. } | Plan::Sort { .. }) {
        let types = plan.schema().data_types();
        let all: Vec<_> = (0..types.len()).map(col).collect();
        let shape = ScanShape::of(None, all.iter(), &types);
        let (rows, cols) = (o.rows, shape.used.len());
        charges.push(charge::scan(
            rows,
            rows,
            cols,
            o.bytes(),
            0,
            shape.projection_weight,
            0.0,
        ));
    }
    out[slot] = charges;
    Flow { est: o, under }
}

/// A selection over `under` rows that keeps the `o.rows` of `o`: gathered
/// when sparse (pipeline's density heuristic), otherwise still one.
fn compact(charges: &mut Vec<Charge>, o: &PlanEst, under: f64) -> Option<f64> {
    if o.rows * SEL_COMPACT_DENOM as f64 >= under {
        return Some(under);
    }
    charges.push(charge::materialize(o.rows, o.cols.len(), 0.0));
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_exec::expr::{col, gt, lit};
    use morsel_numa::{Placement, Topology};
    use morsel_storage::{Batch, Column, DataType, PartitionBy, Relation, Schema};
    use std::sync::Arc;

    fn rel(n: i64) -> Arc<Relation> {
        Arc::new(Relation::partitioned(
            Schema::new(vec![("k", DataType::I64), ("v", DataType::I64)]),
            &Batch::from_columns(vec![
                Column::I64((0..n).collect()),
                Column::I64((0..n).map(|x| x % 97).collect()),
            ]),
            PartitionBy::Hash { column: 0 },
            8,
            Placement::FirstTouch,
            &Topology::nehalem_ex(),
        ))
    }

    fn params() -> CostParams {
        CostParams::for_topology(&Topology::nehalem_ex())
    }

    #[test]
    fn bigger_scans_cost_more() {
        let est = Estimator;
        let small = plan_cost(&params(), &est, &Plan::scan(rel(1_000), None, &["k"]));
        let large = plan_cost(&params(), &est, &Plan::scan(rel(100_000), None, &["k"]));
        assert!(large > 10.0 * small, "small {small}, large {large}");
    }

    #[test]
    fn building_the_small_side_is_cheaper() {
        let est = Estimator;
        let p = params();
        let build_small = Plan::scan(rel(200_000), None, &["k", "v"]).join(
            Plan::scan(rel(500), None, &["k"]),
            &["k"],
            &["k"],
            &[],
        );
        let build_large = Plan::scan(rel(500), None, &["k"]).join(
            Plan::scan(rel(200_000), None, &["k", "v"]),
            &["k"],
            &["k"],
            &["v"],
        );
        let cs = plan_cost(&p, &est, &build_small);
        let cl = plan_cost(&p, &est, &build_large);
        assert!(cs < cl, "build-small {cs} should beat build-large {cl}");
    }

    #[test]
    fn selective_filter_cheapens_downstream_join() {
        let est = Estimator;
        let p = params();
        let unfiltered = Plan::scan(rel(100_000), None, &["k", "v"]).join(
            Plan::scan(rel(100_000), None, &["k"]),
            &["k"],
            &["k"],
            &[],
        );
        let filtered = Plan::scan(rel(100_000), Some(gt(col(0), lit(99_000))), &["k", "v"]).join(
            Plan::scan(rel(100_000), None, &["k"]),
            &["k"],
            &["k"],
            &[],
        );
        // The filtered probe side costs less overall even though the scan
        // itself is identical.
        assert!(plan_cost(&p, &est, &filtered) < plan_cost(&p, &est, &unfiltered));
    }

    #[test]
    fn scans_are_priced_on_the_columns_they_read() {
        // The same keys with a wide string column beside them: a scan that
        // reads only `k` costs the same.
        let n = 10_000;
        let wide = Arc::new(Relation::partitioned(
            Schema::new(vec![("k", DataType::I64), ("note", DataType::Str)]),
            &Batch::from_columns(vec![
                Column::I64((0..n).collect()),
                Column::Str((0..n).map(|i| format!("{i:>200}")).collect()),
            ]),
            PartitionBy::Hash { column: 0 },
            8,
            Placement::FirstTouch,
            &Topology::nehalem_ex(),
        ));
        let narrow = Arc::new(Relation::partitioned(
            Schema::new(vec![("k", DataType::I64)]),
            &Batch::from_columns(vec![Column::I64((0..n).collect())]),
            PartitionBy::Hash { column: 0 },
            8,
            Placement::FirstTouch,
            &Topology::nehalem_ex(),
        ));
        let est = Estimator;
        let cost = |r| plan_cost(&params(), &est, &Plan::scan(r, None, &["k"]));
        assert_eq!(cost(wide), cost(narrow));
    }
}
