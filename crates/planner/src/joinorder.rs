//! Join-order enumeration: DPsize with a greedy fallback.
//!
//! The lowering pass flattens each maximal run of inner joins into a
//! [`JoinGraph`] — vertices are already-lowered inputs with estimated
//! cardinalities, edges are the equi-join predicates connecting them —
//! and asks this module for the cheapest join tree under the NUMA cost
//! model ([`CostParams::join_step`]).
//!
//! Up to [`DP_BUDGET_DEFAULT`] relations the enumerator runs classic
//! DPsize (Moerkotte & Neumann's terminology: dynamic programming by
//! subplan size over connected subgraphs, cross products only when the
//! graph is disconnected). Past the budget it falls back to greedy
//! operator ordering (repeatedly join the connected pair with the
//! smallest output), which is linear-ish and good enough for the
//! machine-generated many-way joins a serving system sees.
//!
//! Cardinality of a vertex set is order-independent under the
//! containment assumption: the product of vertex cardinalities times the
//! selectivity of every edge internal to the set. That keeps the DP
//! admissible — every split of the same set agrees on the result size.

use std::collections::HashMap;

use crate::cost::CostParams;

/// Relation-count budget beyond which DPsize yields to the greedy
/// heuristic (DPsize explores ~3^n subset splits).
pub const DP_BUDGET_DEFAULT: usize = 12;

/// A vertex: one reorderable input.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// Display label (base table name or operator description).
    pub label: String,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated bytes per output row.
    pub width: f64,
    /// Estimated distinct counts for the columns used as join keys.
    pub key_ndv: HashMap<String, f64>,
}

impl GraphNode {
    fn ndv(&self, key: &str) -> f64 {
        self.key_ndv.get(key).copied().unwrap_or(self.rows).max(1.0)
    }
}

/// An equi-join predicate between two vertices (possibly multi-column).
#[derive(Debug, Clone)]
pub struct GraphEdge {
    pub a: usize,
    pub b: usize,
    pub a_keys: Vec<String>,
    pub b_keys: Vec<String>,
    /// Observed selectivity from runtime feedback
    /// ([`crate::feedback::FeedbackCache`]); when set it replaces the
    /// containment estimate for this edge.
    pub sel_override: Option<f64>,
}

/// The join graph for one inner-join block.
#[derive(Debug, Clone, Default)]
pub struct JoinGraph {
    pub nodes: Vec<GraphNode>,
    pub edges: Vec<GraphEdge>,
}

impl JoinGraph {
    /// Selectivity of one edge: containment of value sets over the
    /// combined (multi-column) key.
    fn edge_selectivity(&self, e: &GraphEdge) -> f64 {
        if let Some(s) = e.sel_override {
            return s.clamp(1e-9, 1.0);
        }
        let na = &self.nodes[e.a];
        let nb = &self.nodes[e.b];
        let ndv_a = e
            .a_keys
            .iter()
            .map(|k| na.ndv(k))
            .product::<f64>()
            .min(na.rows.max(1.0));
        let ndv_b = e
            .b_keys
            .iter()
            .map(|k| nb.ndv(k))
            .product::<f64>()
            .min(nb.rows.max(1.0));
        1.0 / ndv_a.max(ndv_b).max(1.0)
    }

    /// Estimated rows of a vertex subset: product of vertex rows times
    /// every internal edge's selectivity (order-independent).
    fn set_rows(&self, set: u64) -> f64 {
        let mut rows: f64 = 1.0;
        for (i, n) in self.nodes.iter().enumerate() {
            if set & (1 << i) != 0 {
                rows *= n.rows.max(1.0);
            }
        }
        for e in &self.edges {
            if set & (1 << e.a) != 0 && set & (1 << e.b) != 0 {
                rows *= self.edge_selectivity(e);
            }
        }
        rows.max(1.0)
    }

    fn set_width(&self, set: u64) -> f64 {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| set & (1 << i) != 0)
            .map(|(_, n)| n.width)
            .sum::<f64>()
            .max(1.0)
    }

    /// Edge indexes crossing between two disjoint sets.
    fn crossing_edges(&self, s1: u64, s2: u64) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                let (ba, bb) = (1u64 << e.a, 1u64 << e.b);
                (s1 & ba != 0 && s2 & bb != 0) || (s2 & ba != 0 && s1 & bb != 0)
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// A chosen join order.
#[derive(Debug, Clone)]
pub enum JoinTree {
    Leaf(usize),
    Node {
        /// Streaming (probe) side.
        probe: Box<JoinTree>,
        /// Materialized (build) side.
        build: Box<JoinTree>,
        /// Edge indexes applied at this join (≥1 unless forced cross).
        edges: Vec<usize>,
        /// Estimated output rows.
        rows: f64,
    },
}

impl JoinTree {
    /// Leaf indexes in probe-before-build preorder.
    pub fn leaves(&self, out: &mut Vec<usize>) {
        match self {
            JoinTree::Leaf(i) => out.push(*i),
            JoinTree::Node { probe, build, .. } => {
                probe.leaves(out);
                build.leaves(out);
            }
        }
    }

    /// Human-readable order, e.g. `((lineitem ⋈ orders) ⋈ customer)`.
    pub fn render(&self, graph: &JoinGraph) -> String {
        match self {
            JoinTree::Leaf(i) => graph.nodes[*i].label.clone(),
            JoinTree::Node { probe, build, .. } => {
                format!("({} ⋈ {})", probe.render(graph), build.render(graph))
            }
        }
    }
}

/// Result of enumeration.
#[derive(Debug, Clone)]
pub struct Enumerated {
    pub tree: JoinTree,
    /// Estimated cost of the join block (excluding leaf production).
    pub cost: f64,
    /// Whether a cross product had to be forced (disconnected graph).
    pub forced_cross: bool,
}

#[derive(Clone)]
struct Best {
    tree: JoinTree,
    cost: f64,
    set: u64,
}

/// Enumerate the cheapest join tree for `graph`.
///
/// # Panics
/// Panics if the graph is empty or has more than 64 vertices.
pub fn enumerate(graph: &JoinGraph, params: &CostParams, dp_budget: usize) -> Enumerated {
    let n = graph.nodes.len();
    assert!(n >= 1, "empty join graph");
    assert!(n <= 64, "join graph too large for bitset enumeration");
    if n == 1 {
        return Enumerated {
            tree: JoinTree::Leaf(0),
            cost: 0.0,
            forced_cross: false,
        };
    }
    if n <= dp_budget {
        dpsize(graph, params)
    } else {
        greedy(graph, params)
    }
}

/// Cost and orientation of joining two solved subsets; returns the
/// combined tree node.
fn join_sets(graph: &JoinGraph, params: &CostParams, s1: &Best, s2: &Best) -> Best {
    let set = s1.set | s2.set;
    let out_rows = graph.set_rows(set);
    let out_bytes = out_rows * graph.set_width(set);
    let (r1, w1) = (graph.set_rows(s1.set), graph.set_width(s1.set));
    let (r2, w2) = (graph.set_rows(s2.set), graph.set_width(s2.set));
    let edges = graph.crossing_edges(s1.set, s2.set);
    // Orientation: build the smaller side (by bytes), stream the larger.
    let (build, probe, br, bw, pr, pw) = if r1 * w1 <= r2 * w2 {
        (s1, s2, r1, w1, r2, w2)
    } else {
        (s2, s1, r2, w2, r1, w1)
    };
    let step = params.join_step(br, br * bw, pr, pr * pw, out_rows, out_bytes);
    Best {
        tree: JoinTree::Node {
            probe: Box::new(probe.tree.clone()),
            build: Box::new(build.tree.clone()),
            edges,
            rows: out_rows,
        },
        cost: s1.cost + s2.cost + step,
        set,
    }
}

fn leaf_best(i: usize) -> Best {
    Best {
        tree: JoinTree::Leaf(i),
        cost: 0.0,
        set: 1 << i,
    }
}

/// Classic DPsize: solve connected subsets by increasing size; a second
/// pass stitches disconnected components with cross products only if the
/// graph itself is disconnected.
fn dpsize(graph: &JoinGraph, params: &CostParams) -> Enumerated {
    let n = graph.nodes.len();
    let full: u64 = if n == 64 { u64::MAX } else { (1 << n) - 1 };
    let mut best: HashMap<u64, Best> = HashMap::new();
    let mut by_size: Vec<Vec<u64>> = vec![Vec::new(); n + 1];
    for i in 0..n {
        best.insert(1 << i, leaf_best(i));
        by_size[1].push(1 << i);
    }
    for size in 2..=n {
        for s1_size in 1..size {
            let s2_size = size - s1_size;
            if s2_size < s1_size {
                break; // symmetric splits already visited
            }
            let (smaller, larger) = (by_size[s1_size].clone(), by_size[s2_size].clone());
            for &sa in &smaller {
                for &sb in &larger {
                    if sa & sb != 0 || (s1_size == s2_size && sa >= sb) {
                        continue;
                    }
                    if graph.crossing_edges(sa, sb).is_empty() {
                        continue; // no cross products in the DP itself
                    }
                    let (ba, bb) = (best[&sa].clone(), best[&sb].clone());
                    let cand = join_sets(graph, params, &ba, &bb);
                    let set = cand.set;
                    match best.get(&set) {
                        Some(b) if b.cost <= cand.cost => {}
                        _ => {
                            if !best.contains_key(&set) {
                                by_size[size].push(set);
                            }
                            best.insert(set, cand);
                        }
                    }
                }
            }
        }
    }
    if let Some(b) = best.get(&full) {
        return Enumerated {
            tree: b.tree.clone(),
            cost: b.cost,
            forced_cross: false,
        };
    }
    // Disconnected graph: the DP solved each connected component; cross
    // the components smallest-first (the standard forced-cross stitch).
    let mut components: Vec<Best> = connected_components(graph)
        .into_iter()
        .map(|c| best[&c].clone())
        .collect();
    components.sort_by(|a, b| {
        graph
            .set_rows(a.set)
            .partial_cmp(&graph.set_rows(b.set))
            .unwrap()
    });
    let mut acc = components[0].clone();
    for c in &components[1..] {
        acc = join_sets(graph, params, &acc, c);
    }
    Enumerated {
        cost: acc.cost,
        tree: acc.tree,
        forced_cross: true,
    }
}

/// Cost of the left-deep tree that joins the vertices in exactly the
/// given sequence (build/probe orientation still chosen per step). Used
/// by tests and the `plan_quality` baseline as "the order a human wrote".
pub fn left_deep_cost(graph: &JoinGraph, params: &CostParams, order: &[usize]) -> f64 {
    assert!(!order.is_empty());
    let mut acc = leaf_best(order[0]);
    for &i in &order[1..] {
        acc = join_sets(graph, params, &acc, &leaf_best(i));
    }
    acc.cost
}

/// Connected components as bitsets.
fn connected_components(graph: &JoinGraph) -> Vec<u64> {
    let n = graph.nodes.len();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![start];
        let mut set = 0u64;
        while let Some(v) = stack.pop() {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            set |= 1 << v;
            for e in &graph.edges {
                if e.a == v && !seen[e.b] {
                    stack.push(e.b);
                }
                if e.b == v && !seen[e.a] {
                    stack.push(e.a);
                }
            }
        }
        out.push(set);
    }
    out
}

/// Greedy operator ordering: repeatedly merge the connected pair with
/// the smallest estimated output (cross products only when nothing is
/// connected).
fn greedy(graph: &JoinGraph, params: &CostParams) -> Enumerated {
    let mut parts: Vec<Best> = (0..graph.nodes.len()).map(leaf_best).collect();
    let mut forced_cross = false;
    while parts.len() > 1 {
        let mut choice: Option<(usize, usize, f64)> = None;
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                if graph.crossing_edges(parts[i].set, parts[j].set).is_empty() {
                    continue;
                }
                let rows = graph.set_rows(parts[i].set | parts[j].set);
                if choice.is_none_or(|(_, _, r)| rows < r) {
                    choice = Some((i, j, rows));
                }
            }
        }
        let (i, j) = match choice {
            Some((i, j, _)) => (i, j),
            None => {
                // Disconnected: cross the two smallest parts.
                forced_cross = true;
                let mut idx: Vec<usize> = (0..parts.len()).collect();
                idx.sort_by(|&a, &b| {
                    graph
                        .set_rows(parts[a].set)
                        .partial_cmp(&graph.set_rows(parts[b].set))
                        .unwrap()
                });
                (idx[0].min(idx[1]), idx[0].max(idx[1]))
            }
        };
        let b = parts.swap_remove(j);
        let a = parts.swap_remove(i);
        parts.push(join_sets(graph, params, &a, &b));
    }
    let done = parts.pop().unwrap();
    Enumerated {
        cost: done.cost,
        tree: done.tree,
        forced_cross,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_numa::Topology;

    fn node(label: &str, rows: f64, keys: &[(&str, f64)]) -> GraphNode {
        GraphNode {
            label: label.to_owned(),
            rows,
            width: 16.0,
            key_ndv: keys.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    fn edge(a: usize, b: usize, ak: &str, bk: &str) -> GraphEdge {
        GraphEdge {
            a,
            b,
            a_keys: vec![ak.to_owned()],
            b_keys: vec![bk.to_owned()],
            sel_override: None,
        }
    }

    fn params() -> CostParams {
        CostParams::for_topology(&Topology::nehalem_ex())
    }

    #[test]
    fn single_relation_is_a_leaf() {
        let g = JoinGraph {
            nodes: vec![node("r", 100.0, &[])],
            edges: vec![],
        };
        let e = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
        assert!(matches!(e.tree, JoinTree::Leaf(0)));
        assert_eq!(e.cost, 0.0);
    }

    #[test]
    fn two_relations_build_the_small_side() {
        let g = JoinGraph {
            nodes: vec![
                node("big", 1_000_000.0, &[("k", 1_000_000.0)]),
                node("small", 100.0, &[("k", 100.0)]),
            ],
            edges: vec![edge(0, 1, "k", "k")],
        };
        let e = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
        match &e.tree {
            JoinTree::Node { probe, build, .. } => {
                assert!(matches!(**probe, JoinTree::Leaf(0)));
                assert!(matches!(**build, JoinTree::Leaf(1)));
            }
            other => panic!("expected a join node, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_graph_forces_cross_product() {
        let g = JoinGraph {
            nodes: vec![node("a", 10.0, &[]), node("b", 20.0, &[])],
            edges: vec![],
        };
        let e = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
        assert!(e.forced_cross);
        match &e.tree {
            JoinTree::Node { edges, .. } => assert!(edges.is_empty()),
            other => panic!("expected a join node, got {other:?}"),
        }
    }

    #[test]
    fn sel_override_redirects_the_plan() {
        // Without feedback both edges look alike; an override that makes
        // the a–b edge explosive pushes the enumerator to start with b⋈c.
        let mk = |sel: Option<f64>| {
            let mut e0 = edge(0, 1, "k", "k");
            e0.sel_override = sel;
            JoinGraph {
                nodes: vec![
                    node("a", 10_000.0, &[("k", 10_000.0)]),
                    node("b", 10_000.0, &[("k", 10_000.0), ("j", 10_000.0)]),
                    node("c", 10_000.0, &[("j", 10_000.0)]),
                ],
                edges: vec![e0, edge(1, 2, "j", "j")],
            }
        };
        let base = enumerate(&mk(None), &params(), DP_BUDGET_DEFAULT);
        let fed = enumerate(&mk(Some(0.5)), &params(), DP_BUDGET_DEFAULT);
        assert!(
            fed.cost > base.cost,
            "a 0.5-selectivity edge must look far more expensive than 1/ndv"
        );
    }

    #[test]
    fn greedy_handles_many_relations() {
        // 16-relation chain, past the DP budget.
        let n = 16;
        let nodes: Vec<GraphNode> = (0..n)
            .map(|i| node(&format!("r{i}"), 1000.0 * (i + 1) as f64, &[("k", 500.0)]))
            .collect();
        let edges: Vec<GraphEdge> = (0..n - 1).map(|i| edge(i, i + 1, "k", "k")).collect();
        let g = JoinGraph { nodes, edges };
        let e = enumerate(&g, &params(), DP_BUDGET_DEFAULT);
        let mut leaves = Vec::new();
        e.tree.leaves(&mut leaves);
        leaves.sort_unstable();
        assert_eq!(leaves, (0..n).collect::<Vec<_>>());
        assert!(!e.forced_cross, "chain is connected");
    }
}
