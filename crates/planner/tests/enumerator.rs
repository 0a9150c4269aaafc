//! Enumerator behavior on synthetic chain, star, and clique join graphs:
//! the DP never emits a cross product unless the graph forces one, and
//! its chosen cost is at least as good as every left-deep order a human
//! could have written.

use std::collections::HashMap;

use morsel_numa::Topology;
use morsel_planner::{
    enumerate, left_deep_cost, CostParams, GraphEdge, GraphNode, JoinGraph, JoinTree,
    DP_BUDGET_DEFAULT,
};

fn node(label: &str, rows: f64, keys: &[(&str, f64)]) -> GraphNode {
    GraphNode {
        label: label.to_owned(),
        rows,
        width: 16.0,
        cols: 2,
        key_ndv: keys
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect::<HashMap<_, _>>(),
    }
}

fn edge(a: usize, b: usize, ak: &str, bk: &str) -> GraphEdge {
    GraphEdge {
        a,
        b,
        a_keys: vec![ak.to_owned()],
        b_keys: vec![bk.to_owned()],
    }
}

fn params() -> CostParams {
    CostParams::for_topology(&Topology::nehalem_ex())
}

/// Every join node must apply at least one edge (no hidden cross
/// products) unless the enumeration reported a forced cross.
fn assert_no_cross(tree: &JoinTree) {
    if let JoinTree::Node {
        probe,
        build,
        edges,
        ..
    } = tree
    {
        assert!(!edges.is_empty(), "cross product in a connected graph");
        assert_no_cross(probe);
        assert_no_cross(build);
    }
}

fn all_leaves(tree: &JoinTree, n: usize) {
    let mut leaves = Vec::new();
    tree.leaves(&mut leaves);
    leaves.sort_unstable();
    assert_eq!(leaves, (0..n).collect::<Vec<_>>(), "leaf set incomplete");
}

/// Exhaustive left-deep baseline: the DP must not lose to any
/// permutation a human could write down.
fn beats_every_left_deep(graph: &JoinGraph, chosen_cost: f64) {
    let n = graph.nodes.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut best = f64::INFINITY;
    permute(&mut order, 0, &mut |perm| {
        best = best.min(left_deep_cost(graph, &params(), perm));
    });
    assert!(
        chosen_cost <= best * 1.000_001,
        "DP cost {chosen_cost} worse than best left-deep {best}"
    );
}

fn permute(items: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f);
        items.swap(k, i);
    }
}

#[test]
fn chain_orders_through_the_selective_middle() {
    // A(1M) — B(10) — C(1M): every good order goes through B; joining A
    // with C directly would be a cross product.
    let g = JoinGraph {
        nodes: vec![
            node("a", 1_000_000.0, &[("ak", 1_000_000.0)]),
            node("b", 10.0, &[("ak", 10.0), ("ck", 10.0)]),
            node("c", 1_000_000.0, &[("ck", 1_000_000.0)]),
        ],
        edges: vec![edge(0, 1, "ak", "ak"), edge(1, 2, "ck", "ck")],
    };
    let e = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
    assert!(!e.forced_cross);
    assert_no_cross(&e.tree);
    all_leaves(&e.tree, 3);
    beats_every_left_deep(&g, e.cost);
    // The selective middle relation is in the first (deepest) join: the
    // deepest node of the chosen tree must include leaf 1.
    fn deepest_join_leaves(t: &JoinTree) -> Vec<usize> {
        match t {
            JoinTree::Leaf(i) => vec![*i],
            JoinTree::Node { probe, build, .. } => {
                // Find a deepest Node: prefer whichever child is a Node.
                for c in [probe, build] {
                    if matches!(**c, JoinTree::Node { .. }) {
                        return deepest_join_leaves(c);
                    }
                }
                let mut l = Vec::new();
                t.leaves(&mut l);
                l
            }
        }
    }
    let first = deepest_join_leaves(&e.tree);
    assert!(
        first.contains(&1),
        "first join should involve the tiny middle relation, got {first:?}"
    );
}

#[test]
fn long_chain_within_dp_budget_is_optimal_and_cross_free() {
    // 8-relation chain with descending sizes.
    let n = 8;
    let nodes: Vec<GraphNode> = (0..n)
        .map(|i| {
            let rows = 1_000_000.0 / (1 << i) as f64;
            node(&format!("r{i}"), rows, &[("l", rows), ("r", rows)])
        })
        .collect();
    let edges: Vec<GraphEdge> = (0..n - 1).map(|i| edge(i, i + 1, "r", "l")).collect();
    let g = JoinGraph { nodes, edges };
    let e = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
    assert!(!e.forced_cross);
    assert_no_cross(&e.tree);
    all_leaves(&e.tree, n);
}

#[test]
fn star_streams_the_fact_table() {
    // One big fact, four dimensions of varying selectivity — the SSB
    // shape. Optimal plans keep the fact on the probe side throughout.
    let g = JoinGraph {
        nodes: vec![
            node(
                "fact",
                6_000_000.0,
                &[
                    ("d1k", 1_000.0),
                    ("d2k", 30_000.0),
                    ("d3k", 2_000.0),
                    ("d4k", 200_000.0),
                ],
            ),
            node("d1", 1_000.0, &[("d1k", 1_000.0)]),
            node("d2", 30_000.0, &[("d2k", 30_000.0)]),
            node("d3", 100.0, &[("d3k", 100.0)]),
            node("d4", 200_000.0, &[("d4k", 200_000.0)]),
        ],
        edges: vec![
            edge(0, 1, "d1k", "d1k"),
            edge(0, 2, "d2k", "d2k"),
            edge(0, 3, "d3k", "d3k"),
            edge(0, 4, "d4k", "d4k"),
        ],
    };
    let e = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
    assert!(!e.forced_cross);
    assert_no_cross(&e.tree);
    all_leaves(&e.tree, 5);
    beats_every_left_deep(&g, e.cost);
    // The fact table (leaf 0) must sit on the probe side of every join
    // on its path: no plan materializes 6M rows as a build side.
    fn fact_never_built(t: &JoinTree) -> bool {
        match t {
            JoinTree::Leaf(_) => true,
            JoinTree::Node { probe, build, .. } => {
                let mut bl = Vec::new();
                build.leaves(&mut bl);
                !bl.contains(&0) && fact_never_built(probe) && fact_never_built(build)
            }
        }
    }
    assert!(
        fact_never_built(&e.tree),
        "fact table ended up on a build side: {}",
        e.tree.render(&g)
    );
}

#[test]
fn clique_picks_selective_pairs_first() {
    // Four relations, fully connected with uniform key NDVs: optimal
    // cost must match the best left-deep order; no cross products.
    let sizes: [f64; 4] = [500_000.0, 40_000.0, 3_000.0, 800.0];
    let nodes: Vec<GraphNode> = sizes
        .iter()
        .enumerate()
        .map(|(i, &rows)| {
            let keys: Vec<(String, f64)> = (0..4)
                .filter(|&j| j != i)
                .map(|j| (format!("k{}{}", i.min(j), i.max(j)), rows.min(sizes[j])))
                .collect();
            node(
                &format!("r{i}"),
                rows,
                &keys
                    .iter()
                    .map(|(k, v)| (k.as_str(), *v))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut edges = Vec::new();
    for i in 0..4 {
        for j in i + 1..4 {
            let k = format!("k{i}{j}");
            edges.push(edge(i, j, &k, &k));
        }
    }
    let g = JoinGraph { nodes, edges };
    let e = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
    assert!(!e.forced_cross);
    assert_no_cross(&e.tree);
    all_leaves(&e.tree, 4);
    beats_every_left_deep(&g, e.cost);
}

#[test]
fn disconnected_components_force_one_cross_only() {
    // Two connected pairs with no edge between them: exactly one forced
    // cross product at the top, none inside the components.
    let g = JoinGraph {
        nodes: vec![
            node("a", 1_000.0, &[("ab", 1_000.0)]),
            node("b", 100.0, &[("ab", 100.0)]),
            node("c", 2_000.0, &[("cd", 2_000.0)]),
            node("d", 50.0, &[("cd", 50.0)]),
        ],
        edges: vec![edge(0, 1, "ab", "ab"), edge(2, 3, "cd", "cd")],
    };
    let e = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
    assert!(e.forced_cross);
    all_leaves(&e.tree, 4);
    fn count_cross(t: &JoinTree) -> usize {
        match t {
            JoinTree::Leaf(_) => 0,
            JoinTree::Node {
                probe,
                build,
                edges,
                ..
            } => usize::from(edges.is_empty()) + count_cross(probe) + count_cross(build),
        }
    }
    assert_eq!(count_cross(&e.tree), 1, "{}", e.tree.render(&g));
}

#[test]
fn greedy_fallback_matches_leaf_set_and_avoids_crosses() {
    // 20-relation chain: beyond the DP budget, handled greedily.
    let n = 20;
    let nodes: Vec<GraphNode> = (0..n)
        .map(|i| {
            let rows = 10_000.0 + 1_000.0 * i as f64;
            node(
                &format!("r{i}"),
                rows,
                &[("l", rows / 2.0), ("r", rows / 2.0)],
            )
        })
        .collect();
    let edges: Vec<GraphEdge> = (0..n - 1).map(|i| edge(i, i + 1, "r", "l")).collect();
    let g = JoinGraph { nodes, edges };
    let e = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
    assert!(!e.forced_cross);
    assert_no_cross(&e.tree);
    all_leaves(&e.tree, n);
}

#[test]
fn dp_and_greedy_agree_on_small_graphs() {
    // On a small graph the greedy heuristic cannot beat the DP.
    let g = JoinGraph {
        nodes: vec![
            node("a", 100_000.0, &[("x", 100_000.0)]),
            node("b", 2_000.0, &[("x", 2_000.0), ("y", 500.0)]),
            node("c", 30_000.0, &[("y", 30_000.0)]),
        ],
        edges: vec![edge(0, 1, "x", "x"), edge(1, 2, "y", "y")],
    };
    let dp = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
    let greedy = enumerate(&g, &params(), 1); // budget 1 forces greedy
    assert!(dp.cost <= greedy.cost * 1.000_001);
}
