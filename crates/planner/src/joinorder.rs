//! Join-order enumeration: DPccp with a greedy fallback.
//!
//! The lowering pass flattens each maximal run of inner joins into a
//! [`JoinGraph`] — vertices are already-lowered inputs with estimated
//! cardinalities, edges are the equi-join predicates connecting them —
//! and asks this module for the cheapest join tree, each join priced with
//! the charges its build and probe operators book
//! ([`crate::cost`]).
//!
//! Up to [`DP_BUDGET_DEFAULT`] relations the enumerator runs DPccp
//! (Moerkotte & Neumann, "Analysis of Two Existing and One New Dynamic
//! Programming Algorithm for the Generation of Optimal Bushy Join Trees
//! without Cross Products", VLDB 2006). It emits each pair of a connected
//! subgraph and a connected complement joined by an edge exactly once, in
//! an order that solves both halves before their union, so nothing is
//! generated only to be rejected. The memo is a dense array indexed by
//! vertex bitset (2^n entries); each entry holds the subset's rows, width
//! and columns, computed once when the subset enters it, its best cost
//! and its best split. The [`JoinTree`] is built once, from the splits, at
//! the end. Cross products appear only when the graph is disconnected.
//! Past the budget the enumerator falls back to greedy operator ordering
//! (repeatedly join the connected pair with the smallest output), which
//! is linear-ish and good enough for the machine-generated many-way joins
//! a serving system sees.
//!
//! Cardinality of a vertex set is order-independent under the
//! containment assumption: the product of vertex cardinalities times the
//! selectivity of every edge internal to the set. That keeps the DP
//! admissible — every split of the same set agrees on the result size.
//!
//! Between two splits of equal cost the enumerator keeps the one DPsize
//! (dynamic programming by subplan size, the enumerator this one
//! replaced, kept as the test oracle) would have met first, so both pick
//! the same tree.

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::cost::{CostParams, Side};

/// Relation-count budget beyond which the DP yields to the greedy
/// heuristic (its memo holds 2^n entries).
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
    /// Output columns: what a join gathers per row it emits.
    pub cols: usize,
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
        let mut out = String::new();
        self.render_into(graph, &mut out);
        out
    }

    fn render_into(&self, graph: &JoinGraph, out: &mut String) {
        match self {
            JoinTree::Leaf(i) => out.push_str(&graph.nodes[*i].label),
            JoinTree::Node { probe, build, .. } => {
                out.push('(');
                probe.render_into(graph, out);
                out.push_str(" ⋈ ");
                build.render_into(graph, out);
                out.push(')');
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

/// Enumerate the cheapest join tree for `graph`: by DPccp when it has at
/// most `dp_budget` vertices, greedily past that. The DP's memo holds
/// 2^n entries, so a budget far past [`DP_BUDGET_DEFAULT`] costs memory
/// exponentially.
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
    let graph = Prepared::new(graph, params);
    if n <= dp_budget {
        Dpccp::run(&graph)
    } else {
        greedy(&graph)
    }
}

/// Cost of the left-deep tree that joins the vertices in exactly the
/// given sequence (build/probe orientation still chosen per step). Used
/// by tests and the `plan_quality` baseline as "the order a human wrote".
pub fn left_deep_cost(graph: &JoinGraph, params: &CostParams, order: &[usize]) -> f64 {
    assert!(!order.is_empty());
    let graph = Prepared::new(graph, params);
    let mut acc = Part::leaf(&graph, order[0]);
    for &i in &order[1..] {
        acc = graph.join(acc, Part::leaf(&graph, i));
    }
    acc.cost
}

/// Bit `i` and every bit below it.
fn up_to(i: u32) -> u64 {
    u64::MAX >> (63 - i)
}

/// The non-empty subsets of `set`, in increasing numeric order (so every
/// subset comes before its supersets).
fn subsets(set: u64) -> impl Iterator<Item = u64> {
    let mut sub = 0u64;
    std::iter::from_fn(move || {
        sub = sub.wrapping_sub(set) & set;
        (sub != 0).then_some(sub)
    })
}

/// The vertices of `set`, lowest first.
fn vertices(mut set: u64) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let v = set.trailing_zeros() as usize;
            set &= set - 1;
            v
        })
    })
}

/// One edge as the enumerator reads it.
struct Edge {
    /// Both endpoints, as one bitset.
    ends: u64,
    sel: f64,
    keys: usize,
}

/// The graph with every number a candidate join needs resolved once:
/// vertex rows, neighbour bitsets, and edge selectivities (key NDVs
/// looked up by name here and nowhere else).
struct Prepared<'g> {
    graph: &'g JoinGraph,
    params: &'g CostParams,
    adj: Vec<u64>,
    edges: Vec<Edge>,
}

impl<'g> Prepared<'g> {
    fn new(graph: &'g JoinGraph, params: &'g CostParams) -> Self {
        let mut adj = vec![0u64; graph.nodes.len()];
        for e in &graph.edges {
            adj[e.a] |= 1 << e.b;
            adj[e.b] |= 1 << e.a;
        }
        let edges = (graph.edges.iter())
            .map(|e| Edge {
                ends: (1 << e.a) | (1 << e.b),
                sel: graph.edge_selectivity(e),
                keys: e.a_keys.len(),
            })
            .collect();
        Prepared {
            graph,
            params,
            adj,
            edges,
        }
    }

    fn full(&self) -> u64 {
        up_to(self.graph.nodes.len() as u32 - 1)
    }

    /// Vertices adjacent to `set`, outside it.
    fn neighbours(&self, set: u64) -> u64 {
        vertices(set).fold(0, |acc, v| acc | self.adj[v]) & !set
    }

    fn connected(&self, set: u64) -> bool {
        let mut seen = set & set.wrapping_neg();
        let mut frontier = seen;
        while frontier != 0 {
            let v = frontier.trailing_zeros() as usize;
            frontier &= frontier - 1;
            let new = self.adj[v] & set & !seen;
            seen |= new;
            frontier |= new;
        }
        seen == set
    }

    /// A vertex subset as one join input: its rows (the product of vertex
    /// rows times every internal edge's selectivity), and its vertices'
    /// bytes per row and columns together.
    fn side(&self, set: u64) -> Side {
        let nodes = vertices(set).map(|v| &self.graph.nodes[v]);
        let mut rows: f64 = nodes.clone().map(|n| n.rows.max(1.0)).product();
        for e in &self.edges {
            if set & e.ends == e.ends {
                rows *= e.sel;
            }
        }
        Side {
            rows: rows.max(1.0),
            width: nodes.clone().map(|n| n.width).sum::<f64>().max(1.0),
            cols: nodes.map(|n| n.cols).sum(),
        }
    }

    fn crosses(e: &Edge, s1: u64, s2: u64) -> bool {
        e.ends & s1 != 0 && e.ends & s2 != 0
    }

    /// Edge indexes crossing between two disjoint sets.
    fn crossing(&self, s1: u64, s2: u64) -> Vec<usize> {
        (self.edges.iter().enumerate())
            .filter(|(_, e)| Self::crosses(e, s1, s2))
            .map(|(i, _)| i)
            .collect()
    }

    /// Cost of the join step between `first` and `second`, and whether
    /// `first` builds: the smaller side by bytes builds, `first` on a tie.
    fn step(&self, first: (u64, Side), second: (u64, Side), out_rows: f64) -> (f64, bool) {
        let keys = (self.edges.iter())
            .filter(|e| Self::crosses(e, first.0, second.0))
            .map(|e| e.keys)
            .sum();
        let (s1, s2) = (first.1, second.1);
        let first_builds = s1.rows * s1.width <= s2.rows * s2.width;
        let (build, probe) = if first_builds { (s1, s2) } else { (s2, s1) };
        let step = self.params.join_step(build, probe, keys, out_rows);
        (step, first_builds)
    }

    /// Join two solved parts, `a` named first.
    fn join(&self, a: Part, b: Part) -> Part {
        let set = a.set | b.set;
        let side = self.side(set);
        let (step, a_builds) = self.step((a.set, a.side), (b.set, b.side), side.rows);
        let cost = a.cost + b.cost + step;
        let edges = self.crossing(a.set, b.set);
        let (probe, build) = if a_builds { (b, a) } else { (a, b) };
        Part {
            set,
            side,
            cost,
            tree: JoinTree::Node {
                probe: Box::new(probe.tree),
                build: Box::new(build.tree),
                edges,
                rows: side.rows,
            },
        }
    }
}

/// A solved vertex subset with its tree, for the greedy fallback, the
/// forced-cross stitch and left-deep costing.
struct Part {
    set: u64,
    side: Side,
    cost: f64,
    tree: JoinTree,
}

impl Part {
    fn leaf(graph: &Prepared, i: usize) -> Part {
        Part {
            set: 1 << i,
            side: graph.side(1 << i),
            cost: 0.0,
            tree: JoinTree::Leaf(i),
        }
    }
}

/// One memo entry: a vertex subset.
#[derive(Clone, Copy)]
struct Entry {
    /// Zero rows until the subset enters the memo.
    side: Side,
    cost: f64,
    /// The best split's build side; zero for a leaf or an unsolved set.
    build: u64,
}

struct Dpccp<'a, 'g> {
    graph: &'a Prepared<'g>,
    memo: Vec<Entry>,
}

impl Dpccp<'_, '_> {
    fn run(graph: &Prepared) -> Enumerated {
        let n = graph.graph.nodes.len();
        let empty = Entry {
            side: Side::default(),
            cost: f64::INFINITY,
            build: 0,
        };
        let mut dp = Dpccp {
            graph,
            memo: vec![empty; 1 << n],
        };
        for i in 0..n {
            dp.memo[1 << i] = Entry {
                side: graph.side(1 << i),
                cost: 0.0,
                build: 0,
            };
        }
        // Connected subgraphs by descending lowest vertex; each one's
        // connected complements are emitted as soon as it is.
        for i in (0..n as u32).rev() {
            dp.emit_csg(1 << i);
            dp.csg_rec(1 << i, up_to(i));
        }
        let full = graph.full();
        if dp.memo[full as usize].build != 0 {
            return Enumerated {
                tree: dp.tree(full),
                cost: dp.memo[full as usize].cost,
                forced_cross: false,
            };
        }
        // Disconnected graph: the DP solved each connected component;
        // cross the components smallest-first (the standard forced-cross
        // stitch).
        let mut parts: Vec<Part> = connected_components(graph)
            .into_iter()
            .map(|c| {
                let e = dp.memo[c as usize];
                Part {
                    set: c,
                    side: e.side,
                    cost: e.cost,
                    tree: dp.tree(c),
                }
            })
            .collect();
        parts.sort_by(|a, b| a.side.rows.partial_cmp(&b.side.rows).unwrap());
        let mut parts = parts.into_iter();
        let first = parts.next().expect("a disconnected graph has two parts");
        let acc = parts.fold(first, |acc, c| graph.join(acc, c));
        Enumerated {
            cost: acc.cost,
            tree: acc.tree,
            forced_cross: true,
        }
    }

    /// Grow the connected subgraph `s` by neighbours outside `excluded`.
    fn csg_rec(&mut self, s: u64, excluded: u64) {
        let n = self.graph.neighbours(s) & !excluded;
        for sub in subsets(n) {
            self.emit_csg(s | sub);
        }
        for sub in subsets(n) {
            self.csg_rec(s | sub, excluded | n);
        }
    }

    /// Emit every connected complement of `s1` that starts from a
    /// neighbour above `s1`'s lowest vertex, highest neighbour first.
    fn emit_csg(&mut self, s1: u64) {
        let excluded = s1 | up_to(s1.trailing_zeros());
        let n = self.graph.neighbours(s1) & !excluded;
        let mut rest = n;
        while rest != 0 {
            let i = 63 - rest.leading_zeros();
            rest &= !(1 << i);
            self.pair(s1, 1 << i);
            self.cmp_rec(s1, 1 << i, excluded | (n & up_to(i)));
        }
    }

    /// Grow the complement `s2` of `s1` by neighbours outside `excluded`.
    fn cmp_rec(&mut self, s1: u64, s2: u64, excluded: u64) {
        let n = self.graph.neighbours(s2) & !excluded;
        for sub in subsets(n) {
            self.pair(s1, s2 | sub);
        }
        for sub in subsets(n) {
            self.cmp_rec(s1, s2 | sub, excluded | n);
        }
    }

    /// Price one csg-cmp pair; keep it if it is the best split of its
    /// union so far.
    fn pair(&mut self, a: u64, b: u64) {
        let set = a | b;
        if self.memo[set as usize].side.rows == 0.0 {
            self.memo[set as usize].side = self.graph.side(set);
        }
        let (s1, s2) = first_of(a, b);
        let (e1, e2) = (self.memo[s1 as usize], self.memo[s2 as usize]);
        let best = self.memo[set as usize];
        let (step, s1_builds) = self
            .graph
            .step((s1, e1.side), (s2, e2.side), best.side.rows);
        let cost = e1.cost + e2.cost + step;
        let keep_best = best.build != 0
            && best.cost <= cost
            && (best.cost < cost || self.met_first(set, best.build, s1) != Ordering::Greater);
        if !keep_best {
            let entry = &mut self.memo[set as usize];
            entry.cost = cost;
            entry.build = if s1_builds { s1 } else { s2 };
        }
    }

    /// Which of two splits of `set`, given by one half each, DPsize meets
    /// first: it walks splits by the size of their first half
    /// ([`first_of`]), then by when it first solved that half.
    fn met_first(&self, set: u64, half_a: u64, half_b: u64) -> Ordering {
        let a = first_of(half_a, set ^ half_a).0;
        let b = first_of(half_b, set ^ half_b).0;
        (a.count_ones().cmp(&b.count_ones())).then_with(|| self.solved_first(a, b))
    }

    /// Which of two connected sets of one size DPsize solves first.
    /// DPsize meets a set first through the split that peels off its
    /// lowest vertex whose removal leaves the rest connected; so sets
    /// order by that vertex, then by the rest.
    fn solved_first(&self, a: u64, b: u64) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        if a.count_ones() == 1 {
            return a.trailing_zeros().cmp(&b.trailing_zeros());
        }
        let peel = |s: u64| {
            vertices(s)
                .find(|&v| self.graph.connected(s & !(1 << v)))
                .expect("a connected set has a non-cut vertex")
        };
        let (va, vb) = (peel(a), peel(b));
        va.cmp(&vb)
            .then_with(|| self.solved_first(a & !(1 << va), b & !(1 << vb)))
    }

    /// The best tree for a solved set, from the memo's splits.
    fn tree(&self, set: u64) -> JoinTree {
        let e = self.memo[set as usize];
        if e.build == 0 {
            return JoinTree::Leaf(set.trailing_zeros() as usize);
        }
        let probe = set ^ e.build;
        JoinTree::Node {
            probe: Box::new(self.tree(probe)),
            build: Box::new(self.tree(e.build)),
            edges: self.graph.crossing(probe, e.build),
            rows: e.side.rows,
        }
    }
}

/// The two halves of a split in DPsize's naming: the smaller set first,
/// the numerically smaller on equal sizes.
fn first_of(a: u64, b: u64) -> (u64, u64) {
    if (a.count_ones(), a) <= (b.count_ones(), b) {
        (a, b)
    } else {
        (b, a)
    }
}

/// Connected components as bitsets, by lowest vertex.
fn connected_components(graph: &Prepared) -> Vec<u64> {
    let mut out = Vec::new();
    let mut left = graph.full();
    while left != 0 {
        let mut set = left & left.wrapping_neg();
        loop {
            let grown = set | graph.neighbours(set);
            if grown == set {
                break;
            }
            set = grown;
        }
        out.push(set);
        left &= !set;
    }
    out
}

/// Greedy operator ordering: repeatedly merge the connected pair with
/// the smallest estimated output (cross products only when nothing is
/// connected).
fn greedy(graph: &Prepared) -> Enumerated {
    let n = graph.graph.nodes.len();
    let mut parts: Vec<Part> = (0..n).map(|i| Part::leaf(graph, i)).collect();
    let mut forced_cross = false;
    while parts.len() > 1 {
        let mut choice: Option<(usize, usize, f64)> = None;
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                if graph.neighbours(parts[i].set) & parts[j].set == 0 {
                    continue;
                }
                let rows = graph.side(parts[i].set | parts[j].set).rows;
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
                    (parts[a].side.rows)
                        .partial_cmp(&parts[b].side.rows)
                        .unwrap()
                });
                (idx[0].min(idx[1]), idx[0].max(idx[1]))
            }
        };
        let b = parts.swap_remove(j);
        let a = parts.swap_remove(i);
        parts.push(graph.join(a, b));
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
            cols: 2,
            key_ndv: keys.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
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
