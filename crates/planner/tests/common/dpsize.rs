//! DPsize, the join enumerator the planner ran before DPccp, kept as the
//! oracle the DPccp enumerator is checked against
//! (`tests/dpccp_oracle.rs`). It is the old source with three changes:
//! the graph arithmetic is an extension trait, since the oracle lives
//! outside the crate, it calls the public `CostParams::join_step`, and it
//! reads each key pair's NDVs from the edge, where the graph now keeps
//! them.
//!
//! DPsize solves connected subsets by increasing size: it tries every
//! pair of solved subsets whose sizes add up, and rejects overlapping and
//! unconnected pairs only afterwards. Every candidate is a fresh tree.
//! That costs ~3^n, which is why `src` no longer runs it; it shares no
//! enumeration code with DPccp, which is what lets it check DPccp.

use std::collections::HashMap;

use morsel_planner::cost::{CostParams, Side};
use morsel_planner::{Enumerated, GraphEdge, JoinGraph, JoinTree};

/// The graph arithmetic DPsize prices candidates with.
trait GraphMath {
    fn edge_selectivity(&self, e: &GraphEdge) -> f64;
    fn set_rows(&self, set: u64) -> f64;
    fn set_side(&self, set: u64) -> Side;
    fn crossing_edges(&self, s1: u64, s2: u64) -> Vec<usize>;
}

impl GraphMath for JoinGraph {
    /// Selectivity of one edge: containment of value sets over the
    /// combined (multi-column) key.
    fn edge_selectivity(&self, e: &GraphEdge) -> f64 {
        let na = &self.nodes[e.a];
        let nb = &self.nodes[e.b];
        let ndv_a = e
            .key_ndvs
            .iter()
            .map(|k| k.0.max(1.0))
            .product::<f64>()
            .min(na.rows.max(1.0));
        let ndv_b = e
            .key_ndvs
            .iter()
            .map(|k| k.1.max(1.0))
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

    /// A vertex subset as one join input: its rows, and its vertices'
    /// bytes per row and columns together.
    fn set_side(&self, set: u64) -> Side {
        let nodes = (self.nodes.iter().enumerate())
            .filter(|(i, _)| set & (1 << i) != 0)
            .map(|(_, n)| n);
        Side {
            rows: self.set_rows(set),
            width: nodes.clone().map(|n| n.width).sum::<f64>().max(1.0),
            cols: nodes.map(|n| n.cols).sum(),
        }
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

#[derive(Clone)]
struct Best {
    tree: JoinTree,
    cost: f64,
    set: u64,
}

/// Cost and orientation of joining two solved subsets; returns the
/// combined tree node.
fn join_sets(graph: &JoinGraph, params: &CostParams, s1: &Best, s2: &Best) -> Best {
    let set = s1.set | s2.set;
    let out_rows = graph.set_rows(set);
    let (side1, side2) = (graph.set_side(s1.set), graph.set_side(s2.set));
    let edges = graph.crossing_edges(s1.set, s2.set);
    let keys = edges.iter().map(|&e| graph.edges[e].key_ndvs.len()).sum();
    // Orientation: build the smaller side (by bytes), stream the larger.
    let (build, probe, build_side, probe_side) =
        if side1.rows * side1.width <= side2.rows * side2.width {
            (s1, s2, side1, side2)
        } else {
            (s2, s1, side2, side1)
        };
    let step = params.join_step(build_side, probe_side, keys, out_rows);
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
pub fn dpsize(graph: &JoinGraph, params: &CostParams) -> Enumerated {
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
