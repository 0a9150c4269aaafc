//! Wall-clock cost of the front end's two largest layers, binding and
//! planning, for each of the 25 SQL fixtures at SF 0.002 (the scale of
//! the `short_adhoc` workload, which replans every statement), and of
//! join enumeration alone on synthetic graphs around the DP budget.
//!
//! * `bind/<fixture>` — `Binder::bind` on the parsed statement;
//! * `plan/<fixture>` — `Planner::plan_handle` on the bound plan:
//!   leaf estimates, DPccp enumeration and lowering;
//! * `dpccp_chain_N`, `dpccp_star_12`, `greedy_chain_20` — `enumerate`
//!   alone. A chain has few connected subgraph pairs, a star many.

use criterion::{criterion_group, criterion_main, Criterion};
use morsel_datagen::{generate_ssb, generate_tpch, SsbConfig, TpchConfig};
use morsel_numa::Topology;
use morsel_planner::{
    enumerate, CostParams, GraphEdge, GraphNode, JoinGraph, Planner, DP_BUDGET_DEFAULT,
};
use morsel_queries::{ssb_sql, tpch_sql};
use morsel_sql::{parse, Binder};
use std::hint::black_box;

fn bench_plan_search(c: &mut Criterion) {
    let topo = Topology::nehalem_ex();
    let tpch = generate_tpch(TpchConfig::scaled(0.002), &topo).catalog();
    let ssb = generate_ssb(SsbConfig::scaled(0.002), &topo).catalog();
    let planner = Planner::new(&topo);
    let fixtures = (tpch_sql::all().into_iter())
        .map(|(q, sql)| (format!("tpch_q{q}"), &tpch, sql))
        .chain((ssb_sql::all().into_iter()).map(|(q, sql)| (format!("ssb_q{q}"), &ssb, sql)));

    let mut g = c.benchmark_group("plan_search");
    g.sample_size(200);
    for (name, catalog, sql) in fixtures {
        let select = parse(sql).expect("the fixture parses");
        let binder = Binder::new(catalog);
        let bound = binder.bind(&select).expect("the fixture binds");
        // Warm the per-relation statistics (built once per relation
        // lifetime), so the measurement isolates the planner itself.
        black_box(planner.plan_handle(&bound));
        g.bench_function(format!("bind/{name}"), |b| {
            b.iter(|| black_box(binder.bind(&select)));
        });
        g.bench_function(format!("plan/{name}"), |b| {
            b.iter(|| black_box(planner.plan_handle(&bound)));
        });
    }

    // Pure enumeration on synthetic graphs: the DP at the budget edge
    // and the greedy fallback just past it.
    let params = CostParams::for_topology(&topo);
    let node = |i: usize| GraphNode {
        label: format!("r{i}"),
        rows: 1_000.0 * (i + 1) as f64,
        width: 16.0,
        cols: 2,
    };
    let edge = |a: usize, b: usize| GraphEdge {
        a,
        b,
        key_ndvs: vec![(500.0 * (a + 1) as f64, 500.0 * (b + 1) as f64)],
    };
    let chain = |n: usize| JoinGraph {
        nodes: (0..n).map(node).collect(),
        edges: (0..n - 1).map(|i| edge(i, i + 1)).collect(),
    };
    let star = |n: usize| JoinGraph {
        nodes: (0..n).map(node).collect(),
        edges: (1..n).map(|i| edge(0, i)).collect(),
    };
    let graphs = [
        ("dpccp_chain_8".to_owned(), chain(8)),
        (
            format!("dpccp_chain_{DP_BUDGET_DEFAULT}"),
            chain(DP_BUDGET_DEFAULT),
        ),
        (
            format!("dpccp_star_{DP_BUDGET_DEFAULT}"),
            star(DP_BUDGET_DEFAULT),
        ),
        ("greedy_chain_20".to_owned(), chain(20)),
    ];
    g.sample_size(20);
    for (label, graph) in &graphs {
        g.bench_function(label.as_str(), |b| {
            b.iter(|| black_box(enumerate(graph, &params, DP_BUDGET_DEFAULT).cost));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_plan_search);
criterion_main!(benches);
