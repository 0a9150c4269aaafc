//! A sort's `LIMIT` holds wherever the sort sits in the plan: below a
//! projection or an aggregation, the next pipeline reads only the rows the
//! limit keeps. A limit up to `TOPK_THRESHOLD` runs as the top-k sink, a
//! larger one as the three-stage sort whose merge spreads the sorted order
//! over one segment per worker, so a limit of 2,000 cuts across segments.
//! SQL puts a sort at the root, so only a hand-built plan reaches this.

use std::sync::Arc;

use morsel_exec::expr::{col, lit, mul};
use morsel_exec::plan::{Plan, TOPK_THRESHOLD};
use morsel_exec::sort::SortKey;
use morsel_exec::AggFn;
use morsel_numa::{Placement, Topology};
use morsel_storage::{Batch, Column, DataType, PartitionBy, Relation, Schema, Value};

#[path = "common/run_plans.rs"]
mod run_plans;

use run_plans::{rows, run, Exec};

const ROWS: i64 = 5_000;

/// `t(k)`: `0..ROWS` in a scrambled order, over four partitions.
fn t(topo: &Topology) -> Arc<Relation> {
    let keys: Vec<i64> = (0..ROWS).map(|i| (i * 7_919) % ROWS).collect();
    Arc::new(Relation::partitioned(
        Schema::new(vec![("k", DataType::I64)]),
        &Batch::from_columns(vec![Column::I64(keys)]),
        PartitionBy::Chunks,
        4,
        Placement::FirstTouch,
        topo,
    ))
}

/// `t` sorted on `k` and cut to `limit`, then doubled, and then counted
/// and summed.
fn plans(t: &Arc<Relation>, limit: usize) -> Vec<Plan> {
    let sorted =
        || Plan::scan(Arc::clone(t), None, &["k"]).sort_by(vec![SortKey::asc(0)], Some(limit));
    vec![
        sorted().map(vec![("k2", mul(col(0), lit(2)))]),
        sorted().agg(&[], vec![("n", AggFn::Count), ("s", AggFn::SumI64(0))]),
    ]
}

#[test]
fn a_limit_under_a_map_or_an_aggregation_keeps_its_rows() {
    for limit in [10, 2_000] {
        assert_eq!(limit > TOPK_THRESHOLD, limit == 2_000);
        let n = limit as i64;
        for exec in [Exec::Sim, Exec::Threaded] {
            let t = t(&exec.topology());
            for workers in [1, 4] {
                let got = run(plans(&t, limit), exec, workers, 512);
                let context = format!("limit {limit} on {exec:?} at {workers} worker(s)");
                let mut doubled = got[0].column(0).as_i64().to_vec();
                doubled.sort_unstable();
                assert_eq!(
                    doubled,
                    (0..n).map(|k| 2 * k).collect::<Vec<_>>(),
                    "{context}"
                );
                let counted = [Value::I64(n), Value::I64(n * (n - 1) / 2)];
                assert_eq!(rows(&got[1], true), [format!("{counted:?}")], "{context}");
            }
        }
    }
}
