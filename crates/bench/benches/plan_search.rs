//! Wall-clock cost of query planning itself: statistics lookup,
//! cardinality estimation, DPsize enumeration, and lowering, measured on
//! the deepest TPC-H blocks and on synthetic graphs around the DP
//! budget. Planning a serving-system query must stay microseconds-cheap
//! next to executing it.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion};
use morsel_datagen::{generate_tpch, TpchConfig};
use morsel_numa::Topology;
use morsel_planner::{
    enumerate, CostParams, GraphEdge, GraphNode, JoinGraph, Planner, DP_BUDGET_DEFAULT,
};
use morsel_queries::tpch_sql;
use morsel_sql::plan_sql;
use std::hint::black_box;

fn bench_plan_search(c: &mut Criterion) {
    let topo = Topology::nehalem_ex();
    let db = generate_tpch(TpchConfig::scaled(0.002), &topo);
    let catalog = db.catalog();
    let planner = Planner::new(&topo);
    // Bound once, outside the measurement: the bench times the planner on
    // what the binder hands it, not the front end.
    let bound = [5usize, 8, 9].map(|q| {
        let sql = tpch_sql::text(q).expect("Q5, Q8 and Q9 have SQL fixtures");
        (q, plan_sql(&catalog, sql).expect("the fixture binds"))
    });
    // Warm the per-relation stats caches so the measurement isolates the
    // search itself (stats are computed once per relation lifetime).
    for (_, lp) in &bound {
        black_box(planner.plan(lp));
    }

    let mut g = c.benchmark_group("plan_search");
    g.sample_size(20);
    for (q, lp) in &bound {
        g.bench_function(format!("tpch_q{q}"), |b| {
            b.iter(|| black_box(planner.plan(lp)));
        });
    }

    // Pure enumeration on synthetic chains: DP at the budget edge vs the
    // greedy fallback just past it.
    let params = CostParams::for_topology(&topo);
    for n in [8usize, DP_BUDGET_DEFAULT, 20] {
        let nodes: Vec<GraphNode> = (0..n)
            .map(|i| GraphNode {
                label: format!("r{i}"),
                rows: 1_000.0 * (i + 1) as f64,
                width: 16.0,
                cols: 2,
                key_ndv: HashMap::from([
                    ("l".to_owned(), 500.0 * (i + 1) as f64),
                    ("r".to_owned(), 500.0 * (i + 1) as f64),
                ]),
            })
            .collect();
        let edges: Vec<GraphEdge> = (0..n - 1)
            .map(|i| GraphEdge {
                a: i,
                b: i + 1,
                a_keys: vec!["r".to_owned()],
                b_keys: vec!["l".to_owned()],
            })
            .collect();
        let graph = JoinGraph { nodes, edges };
        let label = if n <= DP_BUDGET_DEFAULT {
            format!("dpsize_chain_{n}")
        } else {
            format!("greedy_chain_{n}")
        };
        g.bench_function(label, |b| {
            b.iter(|| black_box(enumerate(&graph, &params, DP_BUDGET_DEFAULT).cost));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_plan_search);
criterion_main!(benches);
