//! Lowering: logical plans to physical `exec` plans.
//!
//! The pass does the optimizer's physical work:
//!
//! * **Join ordering** — each maximal run of adjacent inner joins is
//!   flattened into a [`JoinGraph`] and handed to the enumerator; the
//!   chosen [`JoinTree`] decides both order and build/probe sides.
//! * **Projection pushdown** — a needed-column set flows top-down, so
//!   scans only materialize referenced columns and build sides only
//!   carry payload that someone upstream reads.
//! * **Expression remapping** — logical expressions are written against
//!   canonical schemas; after reordering/pruning the physical layout
//!   differs, so column indices are rewritten by name at every boundary
//!   ([`Expr::remap`]).
//! * **Project into scan** — a projection whose lowered input is a scan
//!   selecting bare columns folds into that scan: its expressions,
//!   composed with the scan's column selection, read the relation
//!   directly, so a single-table query is one scan carrying its computed
//!   projection (Q1, Q6), as a hand-written plan would be.
//!
//! Sorts with a small limit lower to the executor's top-k operator
//! automatically (the executor's compiler keys that off `limit`, see
//! [`morsel_exec::plan::TOPK_THRESHOLD`]).

use std::collections::BTreeSet;

use morsel_exec::expr::Expr;
use morsel_exec::join::JoinKind;
use morsel_exec::plan::Plan;
use morsel_exec::sort::SortKey;
use morsel_numa::Topology;
use morsel_storage::Schema;

use crate::cost::CostParams;
use crate::estimate::Estimator;
use crate::joinorder::{enumerate, GraphEdge, GraphNode, JoinGraph, JoinTree, DP_BUDGET_DEFAULT};
use crate::logical::LogicalPlan;

/// What the planner did to one inner-join block.
#[derive(Debug, Clone)]
pub struct BlockReport {
    /// Chosen order, rendered `((a ⋈ b) ⋈ c)` with probe side first.
    pub order: String,
    /// Leaf labels in graph order.
    pub leaves: Vec<String>,
    /// Estimated cost of the block's joins under the NUMA model.
    pub cost: f64,
    /// Whether a cross product was forced (disconnected join graph).
    pub forced_cross: bool,
}

/// Planning summary returned next to the lowered plan.
#[derive(Debug, Clone, Default)]
pub struct PlanReport {
    pub blocks: Vec<BlockReport>,
}

/// A cacheable planning product: the physical [`Plan`] plus everything a
/// cache needs to replay an execution without re-planning — the output
/// [`Schema`] (for result wiring) and the [`PlanReport`] (so a cache hit
/// can still explain itself). `Plan` is `Clone`, so a handle can be
/// stored once and cloned per execution; only `compile_query` (cheap,
/// per-run) happens on the hit path.
#[derive(Clone)]
pub struct PlanHandle {
    pub plan: Plan,
    pub schema: Schema,
    pub report: PlanReport,
}

/// The cost-based planner.
pub struct Planner {
    pub params: CostParams,
    pub estimator: Estimator,
}

impl Planner {
    /// Planner calibrated for a topology (the cost model the executor
    /// itself would use on that machine).
    pub fn new(topology: &Topology) -> Self {
        Planner {
            params: CostParams::for_topology(topology),
            estimator: Estimator,
        }
    }

    /// Lower a logical plan to a physical plan.
    pub fn plan(&self, lp: &LogicalPlan) -> Plan {
        self.plan_with_report(lp).0
    }

    /// Lower and report the join-order decisions made along the way.
    ///
    /// # Panics
    /// Panics if the logical plan's root does not pin its output layout
    /// (end queries with a `Project`, `Aggregate`, or a `Sort` above one
    /// of those) — the planner refuses to return a plan whose column
    /// order silently differs from the canonical schema.
    pub fn plan_with_report(&self, lp: &LogicalPlan) -> (Plan, PlanReport) {
        let mut report = PlanReport::default();
        let lowered = self.lower(lp, None, &mut report);
        let canonical = lp.schema();
        let actual = lowered.schema();
        assert_eq!(
            canonical.names(),
            actual.names(),
            "planner output layout diverged from the canonical schema; \
             finish the query with a Project or Aggregate to pin column order"
        );
        (lowered, report)
    }

    /// Lower into a self-describing [`PlanHandle`] — the unit a plan
    /// cache stores.
    pub fn plan_handle(&self, lp: &LogicalPlan) -> PlanHandle {
        let (plan, report) = self.plan_with_report(lp);
        let schema = plan.schema();
        PlanHandle {
            plan,
            schema,
            report,
        }
    }

    /// Recursive lowering. `needed` is the set of output column names the
    /// parent requires (`None` = all canonical columns).
    fn lower(
        &self,
        lp: &LogicalPlan,
        needed: Option<&BTreeSet<String>>,
        report: &mut PlanReport,
    ) -> Plan {
        match lp {
            LogicalPlan::Scan {
                relation,
                filter,
                project,
                ..
            } => {
                let mut kept: Vec<(String, Expr)> = project
                    .iter()
                    .filter(|(n, _)| needed.is_none_or(|set| set.contains(n)))
                    .cloned()
                    .collect();
                if kept.is_empty() {
                    // Never emit a zero-column scan: row counts would be
                    // lost. Keep the narrowest declared column.
                    kept.push(project[0].clone());
                }
                Plan::Scan {
                    relation: relation.clone(),
                    filter: filter.clone(),
                    project: kept,
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let canonical = input.schema();
                let child_needed = extend_needed(needed, refs_of(predicate, &canonical));
                let child = self.lower(input, child_needed.as_ref(), report);
                let actual = child.schema();
                Plan::Filter {
                    predicate: remap_expr(predicate, &canonical, &actual),
                    input: Box::new(child),
                }
            }
            LogicalPlan::Project { input, project } => {
                let kept: Vec<&(String, Expr)> = {
                    let all: Vec<&(String, Expr)> = project.iter().collect();
                    let filtered: Vec<&(String, Expr)> = all
                        .iter()
                        .copied()
                        .filter(|(n, _)| needed.is_none_or(|set| set.contains(n)))
                        .collect();
                    if filtered.is_empty() {
                        vec![all[0]]
                    } else {
                        filtered
                    }
                };
                let canonical = input.schema();
                let mut refs = BTreeSet::new();
                for (_, e) in &kept {
                    refs.extend(refs_of(e, &canonical));
                }
                let child = self.lower(input, Some(&refs), report);
                let actual = child.schema();
                let project: Vec<(String, Expr)> = kept
                    .into_iter()
                    .map(|(n, e)| (n.clone(), remap_expr(e, &canonical, &actual)))
                    .collect();
                match child {
                    // A scan that only selects columns takes the
                    // projection over: its entries, composed with the
                    // scan's, read the relation directly.
                    Plan::Scan {
                        relation,
                        filter,
                        project: selected,
                    } if selected.iter().all(|(_, e)| matches!(e, Expr::Col(_))) => {
                        let map: Vec<Option<usize>> = selected
                            .iter()
                            .map(|(_, e)| match e {
                                Expr::Col(c) => Some(*c),
                                _ => None,
                            })
                            .collect();
                        Plan::Scan {
                            relation,
                            filter,
                            project: project
                                .into_iter()
                                .map(|(n, e)| (n, e.remap(&map)))
                                .collect(),
                        }
                    }
                    child => Plan::Map {
                        project,
                        input: Box::new(child),
                    },
                }
            }
            LogicalPlan::Aggregate { input, group, aggs } => {
                let mut refs: BTreeSet<String> = group.iter().cloned().collect();
                for (_, a) in aggs {
                    if let Some(c) = a.input() {
                        refs.insert(c.to_owned());
                    }
                }
                let child = self.lower(input, Some(&refs), report);
                let actual = child.schema();
                Plan::Agg {
                    group_cols: group.iter().map(|g| actual.index_of(g)).collect(),
                    aggs: aggs
                        .iter()
                        .map(|(n, a)| (n.clone(), a.resolve(&actual)))
                        .collect(),
                    input: Box::new(child),
                }
            }
            LogicalPlan::Sort { input, keys, limit } => {
                let child_needed =
                    extend_needed(needed, keys.iter().map(|k| k.column.clone()).collect());
                let child = self.lower(input, child_needed.as_ref(), report);
                let actual = child.schema();
                Plan::Sort {
                    keys: keys
                        .iter()
                        .map(|k| SortKey {
                            col: actual.index_of(&k.column),
                            desc: k.descending,
                        })
                        .collect(),
                    limit: *limit,
                    input: Box::new(child),
                }
            }
            LogicalPlan::Join {
                kind: JoinKind::Inner,
                ..
            } => self.lower_inner_block(lp, needed, report),
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
            } => {
                // Semi/Anti/Count: direction is fixed (left streams,
                // right builds) and the build side carries only its keys.
                let left_names = names_of(&left.schema());
                let mut ln: BTreeSet<String> = match needed {
                    Some(set) => set.intersection(&left_names).cloned().collect(),
                    None => left_names.clone(),
                };
                ln.extend(left_keys.iter().cloned());
                let rn: BTreeSet<String> = right_keys.iter().cloned().collect();
                let probe = self.lower(left, Some(&ln), report);
                let build = self.lower(right, Some(&rn), report);
                let (ps, bs) = (probe.schema(), build.schema());
                Plan::Join {
                    probe_keys: left_keys.iter().map(|k| ps.index_of(k)).collect(),
                    build_keys: right_keys.iter().map(|k| bs.index_of(k)).collect(),
                    probe: Box::new(probe),
                    build: Box::new(build),
                    kind: *kind,
                    build_payload: Vec::new(),
                }
            }
        }
    }

    /// Flatten, enumerate, and emit one inner-join block.
    fn lower_inner_block(
        &self,
        lp: &LogicalPlan,
        needed: Option<&BTreeSet<String>>,
        report: &mut PlanReport,
    ) -> Plan {
        // 1. Flatten the run of inner joins into leaves + key pairs.
        let mut leaves: Vec<&LogicalPlan> = Vec::new();
        let mut pairs: Vec<(String, String)> = Vec::new();
        collect_block(lp, &mut leaves, &mut pairs);

        let leaf_names: Vec<BTreeSet<String>> =
            leaves.iter().map(|l| names_of(&l.schema())).collect();
        let owner = |name: &str| -> usize {
            leaf_names
                .iter()
                .position(|s| s.contains(name))
                .unwrap_or_else(|| panic!("join key {name:?} not found in any join input"))
        };

        // 2. Merge key pairs into per-leaf-pair edges.
        let mut edges: Vec<GraphEdge> = Vec::new();
        for (l, r) in &pairs {
            let (a, b) = (owner(l), owner(r));
            assert_ne!(
                a, b,
                "join predicate {l:?} = {r:?} references a single input"
            );
            let (a, b, ak, bk) = if a < b {
                (a, b, l.clone(), r.clone())
            } else {
                (b, a, r.clone(), l.clone())
            };
            if let Some(e) = edges.iter_mut().find(|e| e.a == a && e.b == b) {
                e.a_keys.push(ak);
                e.b_keys.push(bk);
            } else {
                edges.push(GraphEdge {
                    a,
                    b,
                    a_keys: vec![ak],
                    b_keys: vec![bk],
                });
            }
        }

        // 3. Per-leaf needed set: downstream columns plus every join key.
        let block_needed: BTreeSet<String> = match needed {
            Some(set) => set.clone(),
            None => names_of(&lp.schema()),
        };
        let all_keys: BTreeSet<String> = pairs
            .iter()
            .flat_map(|(l, r)| [l.clone(), r.clone()])
            .collect();
        let lowered: Vec<Plan> = leaves
            .iter()
            .enumerate()
            .map(|(i, leaf)| {
                let mut ln: BTreeSet<String> = block_needed
                    .union(&all_keys)
                    .filter(|n| leaf_names[i].contains(*n))
                    .cloned()
                    .collect();
                if ln.is_empty() {
                    // A leaf nothing references still contributes its
                    // row multiplicity; keep its first column.
                    ln.insert(leaf.schema().name(0).to_owned());
                }
                self.lower(leaf, Some(&ln), report)
            })
            .collect();

        // 4. Build the graph from the lowered leaves' estimates.
        let nodes: Vec<GraphNode> = lowered
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let est = self.estimator.estimate(p);
                let schema = p.schema();
                let key_ndv = all_keys
                    .iter()
                    .filter(|k| leaf_names[i].contains(*k))
                    .map(|k| {
                        let pos = schema.index_of(k);
                        (k.clone(), est.cols[pos].ndv)
                    })
                    .collect();
                GraphNode {
                    label: leaf_label(leaves[i]),
                    rows: est.rows,
                    width: est.row_width(),
                    cols: est.cols.len(),
                    key_ndv,
                }
            })
            .collect();
        let graph = JoinGraph { nodes, edges };

        // 5. Enumerate and emit.
        let chosen = enumerate(&graph, &self.params, DP_BUDGET_DEFAULT);
        report.blocks.push(BlockReport {
            order: chosen.tree.render(&graph),
            leaves: graph.nodes.iter().map(|n| n.label.clone()).collect(),
            cost: chosen.cost,
            forced_cross: chosen.forced_cross,
        });
        let mut slots: Vec<Option<Plan>> = lowered.into_iter().map(Some).collect();
        self.emit(&chosen.tree, &graph, &block_needed, &mut slots)
    }

    /// Emit the physical joins for a chosen tree. `required` is the set
    /// of columns every ancestor still reads.
    fn emit(
        &self,
        tree: &JoinTree,
        graph: &JoinGraph,
        required: &BTreeSet<String>,
        slots: &mut Vec<Option<Plan>>,
    ) -> Plan {
        match tree {
            JoinTree::Leaf(i) => slots[*i].take().expect("leaf emitted twice"),
            JoinTree::Node {
                probe,
                build,
                edges,
                ..
            } => {
                // Which leaves live under the probe subtree?
                let mut probe_leaves = Vec::new();
                probe.leaves(&mut probe_leaves);
                let in_probe = |leaf: usize| probe_leaves.contains(&leaf);

                // Orient every applied edge's key pairs.
                let mut probe_key_names = Vec::new();
                let mut build_key_names = Vec::new();
                for &ei in edges {
                    let e = &graph.edges[ei];
                    if in_probe(e.a) {
                        probe_key_names.extend(e.a_keys.iter().cloned());
                        build_key_names.extend(e.b_keys.iter().cloned());
                    } else {
                        probe_key_names.extend(e.b_keys.iter().cloned());
                        build_key_names.extend(e.a_keys.iter().cloned());
                    }
                }

                let mut child_required = required.clone();
                child_required.extend(probe_key_names.iter().cloned());
                child_required.extend(build_key_names.iter().cloned());
                let p = self.emit(probe, graph, &child_required, slots);
                let b = self.emit(build, graph, &child_required, slots);
                let (ps, bs) = (p.schema(), b.schema());
                // Payload: build columns an ancestor still needs (keys
                // consumed here are dropped unless required above).
                let build_payload: Vec<usize> = (0..bs.len())
                    .filter(|&i| required.contains(bs.name(i)))
                    .collect();
                Plan::Join {
                    probe_keys: probe_key_names.iter().map(|k| ps.index_of(k)).collect(),
                    build_keys: build_key_names.iter().map(|k| bs.index_of(k)).collect(),
                    probe: Box::new(p),
                    build: Box::new(b),
                    kind: JoinKind::Inner,
                    build_payload,
                }
            }
        }
    }
}

/// Flatten a run of inner joins.
fn collect_block<'a>(
    lp: &'a LogicalPlan,
    leaves: &mut Vec<&'a LogicalPlan>,
    pairs: &mut Vec<(String, String)>,
) {
    match lp {
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            kind: JoinKind::Inner,
        } => {
            collect_block(left, leaves, pairs);
            collect_block(right, leaves, pairs);
            for (l, r) in left_keys.iter().zip(right_keys) {
                pairs.push((l.clone(), r.clone()));
            }
        }
        other => leaves.push(other),
    }
}

/// Short label for a join-graph leaf.
fn leaf_label(lp: &LogicalPlan) -> String {
    match lp {
        LogicalPlan::Scan { table, .. } => table.clone(),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => leaf_label(input),
        LogicalPlan::Join { left, kind, .. } => match kind {
            JoinKind::Semi => format!("σ∃({})", leaf_label(left)),
            JoinKind::Anti => format!("σ∄({})", leaf_label(left)),
            JoinKind::Count => format!("cnt({})", leaf_label(left)),
            _ => format!("join({})", leaf_label(left)),
        },
        LogicalPlan::Aggregate { input, .. } => format!("Γ({})", leaf_label(input)),
        LogicalPlan::Sort { input, .. } => leaf_label(input),
    }
}

fn names_of(schema: &Schema) -> BTreeSet<String> {
    schema.names().iter().map(|n| (*n).to_owned()).collect()
}

/// Output column names referenced by an expression, via the canonical
/// schema its indices point into.
fn refs_of(expr: &Expr, canonical: &Schema) -> BTreeSet<String> {
    let mut cols = Vec::new();
    expr.referenced_cols(&mut cols);
    cols.into_iter()
        .map(|i| canonical.name(i).to_owned())
        .collect()
}

/// `needed ∪ extra`, preserving `None` = "all" absorption.
fn extend_needed(
    needed: Option<&BTreeSet<String>>,
    extra: BTreeSet<String>,
) -> Option<BTreeSet<String>> {
    needed.map(|set| set.union(&extra).cloned().collect())
}

/// Rewrite an expression's canonical indices into a physical layout.
fn remap_expr(expr: &Expr, canonical: &Schema, actual: &Schema) -> Expr {
    let actual_names = actual.names();
    let map: Vec<Option<usize>> = canonical
        .names()
        .iter()
        .map(|n| actual_names.iter().position(|m| m == n))
        .collect();
    expr.remap(&map)
}
