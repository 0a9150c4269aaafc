//! DPccp against DPsize, the enumerator it replaced
//! (`common/dpsize.rs`), on seeded random join graphs of up to ten
//! vertices: chains, stars, cycles, cliques and random connected graphs,
//! with random rows, widths, key NDVs (some missing, some composite keys)
//! and a few disconnected graphs. Both must agree on the cost within
//! 1e-9 relative, and on the tree — join order, build/probe sides and the
//! edges each join applies. DPccp breaks ties between equal-cost splits
//! as DPsize does, so the trees agree even where the optimum is not
//! unique; `symmetric_graphs_break_ties_like_dpsize` covers those.
//!
//! Run against a DPccp that skips the complements of one connected
//! subgraph (`emit_csg` returning early for every two-vertex subgraph),
//! `random_graphs_match_dpsize` fails on its first chain.

#[path = "common/dpsize.rs"]
mod dpsize;

use std::collections::HashMap;

use morsel_numa::Topology;
use morsel_planner::{enumerate, CostParams, GraphEdge, GraphNode, JoinGraph, JoinTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn params() -> CostParams {
    CostParams::for_topology(&Topology::nehalem_ex())
}

/// Order, sides and applied edges of a tree, as one string.
fn shape(t: &JoinTree) -> String {
    match t {
        JoinTree::Leaf(i) => i.to_string(),
        JoinTree::Node {
            probe,
            build,
            edges,
            ..
        } => format!("({} ⋈{edges:?} {})", shape(probe), shape(build)),
    }
}

fn check(graph: &JoinGraph, what: &str) {
    let n = graph.nodes.len();
    let dp = enumerate(graph, &params(), n);
    let oracle = dpsize::dpsize(graph, &params());
    let rel = (dp.cost - oracle.cost).abs() / oracle.cost.abs().max(f64::MIN_POSITIVE);
    assert!(
        rel <= 1e-9,
        "{what}: DPccp cost {} vs DPsize {}",
        dp.cost,
        oracle.cost
    );
    assert_eq!(shape(&dp.tree), shape(&oracle.tree), "{what}");
    assert_eq!(dp.forced_cross, oracle.forced_cross, "{what}");
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Chain,
    Star,
    Cycle,
    Clique,
    Random,
    Disconnected,
}

/// A random graph of `n` vertices. Each edge joins on one or two key
/// columns named after it; a vertex may have no NDV for a key (the
/// enumerator then assumes its row count).
fn graph(rng: &mut StdRng, kind: Kind, n: usize) -> JoinGraph {
    let mut pairs: Vec<(usize, usize)> = match kind {
        Kind::Chain => (1..n).map(|i| (i - 1, i)).collect(),
        Kind::Star => (1..n).map(|i| (0, i)).collect(),
        Kind::Cycle => (0..n).map(|i| (i, (i + 1) % n)).collect(),
        Kind::Clique => (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect(),
        Kind::Random => {
            let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (rng.gen_range(0..i), i)).collect();
            for _ in 0..rng.gen_range(0..n) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    pairs.push((a.min(b), a.max(b)));
                }
            }
            pairs
        }
        // Two random trees side by side.
        Kind::Disconnected => {
            let half = n / 2;
            let mut pairs: Vec<(usize, usize)> =
                (1..half).map(|i| (rng.gen_range(0..i), i)).collect();
            pairs.extend((half + 1..n).map(|i| (rng.gen_range(half..i), i)));
            pairs
        }
    };
    pairs.sort_unstable();
    pairs.dedup();
    // Shuffle vertex numbers so chains and stars are not always in order.
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut nodes: Vec<GraphNode> = (0..n)
        .map(|i| GraphNode {
            label: format!("r{i}"),
            rows: 10f64.powf(rng.gen_range(0.0..7.0)).floor(),
            width: rng.gen_range(4..64) as f64,
            cols: rng.gen_range(1..8),
            key_ndv: HashMap::new(),
        })
        .collect();
    let mut edges = Vec::new();
    for (k, &(a, b)) in pairs.iter().enumerate() {
        let (a, b) = (perm[a], perm[b]);
        let width = if rng.gen_bool(0.2) { 2 } else { 1 };
        let keys: Vec<String> = (0..width).map(|w| format!("k{k}_{w}")).collect();
        for v in [a, b] {
            for key in &keys {
                if rng.gen_bool(0.85) {
                    let ndv = (nodes[v].rows * rng.gen_range(0.001..1.0)).max(1.0);
                    nodes[v].key_ndv.insert(key.clone(), ndv.floor());
                }
            }
        }
        edges.push(GraphEdge {
            a,
            b,
            a_keys: keys.clone(),
            b_keys: keys,
        });
    }
    JoinGraph { nodes, edges }
}

#[test]
fn random_graphs_match_dpsize() {
    let mut rng = StdRng::seed_from_u64(0x5eed_d9cc);
    for case in 0..240 {
        let kind = [
            Kind::Chain,
            Kind::Star,
            Kind::Cycle,
            Kind::Clique,
            Kind::Random,
            Kind::Disconnected,
        ][case % 6];
        // Cliques past eight vertices make the oracle slow, not harder.
        let max = if matches!(kind, Kind::Clique) { 8 } else { 10 };
        let min = if matches!(kind, Kind::Disconnected) {
            4
        } else {
            2
        };
        let n = rng.gen_range(min..=max);
        let g = graph(&mut rng, kind, n);
        check(&g, &format!("case {case}: {kind:?} of {n}"));
    }
}

#[test]
fn ten_vertex_shapes_match_dpsize() {
    let mut rng = StdRng::seed_from_u64(10);
    for kind in [
        Kind::Chain,
        Kind::Star,
        Kind::Cycle,
        Kind::Clique,
        Kind::Random,
    ] {
        let g = graph(&mut rng, kind, 10);
        check(&g, &format!("{kind:?} of 10"));
    }
}

#[test]
fn symmetric_graphs_break_ties_like_dpsize() {
    // Every vertex and edge alike: many splits of one set cost exactly
    // the same, and DPsize keeps the one it meets first.
    for kind in [Kind::Chain, Kind::Star, Kind::Cycle, Kind::Clique] {
        for n in 2..=7 {
            let mut g = graph(&mut StdRng::seed_from_u64(n as u64), kind, n);
            for node in &mut g.nodes {
                node.rows = 1_000.0;
                node.width = 16.0;
                node.cols = 2;
                for ndv in node.key_ndv.values_mut() {
                    *ndv = 100.0;
                }
            }
            for e in &mut g.edges {
                e.a_keys.truncate(1);
                e.b_keys.truncate(1);
                for (v, k) in [(e.a, &e.a_keys[0]), (e.b, &e.b_keys[0])] {
                    g.nodes[v].key_ndv.insert(k.clone(), 100.0);
                }
            }
            check(&g, &format!("symmetric {kind:?} of {n}"));
        }
    }
}
