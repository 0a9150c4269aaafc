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
//!   differs, so column indices are rewritten at every boundary
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
//!
//! Every node's canonical columns are derived once, bottom-up, before
//! lowering starts (`LogicalPlan::output_fields`). From then on columns
//! are indexes: a needed set is a flag per canonical column, and each
//! lowered subtree carries where each of its canonical columns sits in
//! its physical output. Names are looked up only where the logical plan
//! spells a column by name (join, group and sort keys and aggregate
//! inputs), once each.

use morsel_exec::expr::Expr;
use morsel_exec::join::JoinKind;
use morsel_exec::plan::Plan;
use morsel_exec::sort::SortKey;
use morsel_numa::Topology;
use morsel_storage::Schema;

use crate::cost::CostParams;
use crate::estimate::{Estimator, PlanEst};
use crate::joinorder::{enumerate, GraphEdge, GraphNode, JoinGraph, JoinTree, DP_BUDGET_DEFAULT};
use crate::logical::{fields_of, position, Field, LogicalPlan};

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
        self.plan_handle(lp).plan
    }

    /// Lower and report the join-order decisions made along the way.
    ///
    /// # Panics
    /// Panics if the logical plan's root does not pin its output layout
    /// (end queries with a `Project`, `Aggregate`, or a `Sort` above one
    /// of those) — the planner refuses to return a plan whose column
    /// order silently differs from the canonical schema.
    pub fn plan_with_report(&self, lp: &LogicalPlan) -> (Plan, PlanReport) {
        let handle = self.plan_handle(lp);
        (handle.plan, handle.report)
    }

    /// Lower into a self-describing [`PlanHandle`] — the unit a plan
    /// cache stores.
    ///
    /// # Panics
    /// As [`Planner::plan_with_report`].
    pub fn plan_handle(&self, lp: &LogicalPlan) -> PlanHandle {
        let canon = Canonical::of(lp);
        let mut report = PlanReport::default();
        let lowered = self.lower(&canon, lp, None, &mut report);
        assert!(
            lowered.map.iter().enumerate().all(|(c, at)| *at == Some(c)),
            "planner output layout diverged from the canonical schema; \
             finish the query with a Project or Aggregate to pin column order"
        );
        let schema = Schema::new(canon.get(lp).to_vec());
        debug_assert!(
            lowered.plan.schema() == schema,
            "lowering lost track of a column"
        );
        PlanHandle {
            plan: lowered.plan,
            schema,
            report,
        }
    }

    /// Recursive lowering. `needed` flags the canonical columns of `lp`
    /// the parent reads (`None` = all of them).
    fn lower(
        &self,
        canon: &Canonical<'_>,
        lp: &LogicalPlan,
        needed: Option<&[bool]>,
        report: &mut PlanReport,
    ) -> Lowered {
        match lp {
            LogicalPlan::Scan {
                relation,
                filter,
                project,
                ..
            } => {
                // Never emit a zero-column scan: row counts would be
                // lost. Keep the narrowest declared column.
                let kept = kept(project.len(), needed);
                Lowered {
                    map: positions(project.len(), &kept),
                    plan: Plan::Scan {
                        relation: relation.clone(),
                        filter: filter.clone(),
                        project: kept.iter().map(|&c| project[c].clone()).collect(),
                    },
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let child_needed = needed.map(|set| with_refs(set.to_vec(), [predicate]));
                let child = self.lower(canon, input, child_needed.as_deref(), report);
                Lowered {
                    plan: Plan::Filter {
                        predicate: predicate.remap(&child.map),
                        input: Box::new(child.plan),
                    },
                    map: child.map,
                }
            }
            LogicalPlan::Project { input, project } => {
                let kept = kept(project.len(), needed);
                let refs = with_refs(
                    vec![false; canon.get(input).len()],
                    kept.iter().map(|&c| &project[c].1),
                );
                let child = self.lower(canon, input, Some(&refs), report);
                let entries = |map: &[Option<usize>]| -> Vec<(String, Expr)> {
                    (kept.iter())
                        .map(|&c| (project[c].0.clone(), project[c].1.remap(map)))
                        .collect()
                };
                let plan = match child.plan {
                    // A scan that only selects columns takes the
                    // projection over: its entries, remapped through the
                    // scan's selection, read the relation directly.
                    Plan::Scan {
                        relation,
                        filter,
                        project: selected,
                    } if selected.iter().all(|(_, e)| matches!(e, Expr::Col(_))) => {
                        let through: Vec<Option<usize>> = (child.map.iter())
                            .map(|at| match &selected[(*at)?].1 {
                                Expr::Col(c) => Some(*c),
                                _ => None,
                            })
                            .collect();
                        Plan::Scan {
                            relation,
                            filter,
                            project: entries(&through),
                        }
                    }
                    child_plan => Plan::Map {
                        project: entries(&child.map),
                        input: Box::new(child_plan),
                    },
                };
                Lowered {
                    plan,
                    map: positions(canon.get(lp).len(), &kept),
                }
            }
            LogicalPlan::Aggregate { input, group, aggs } => {
                let schema = canon.get(input);
                let mut refs = vec![false; schema.len()];
                let inputs = aggs.iter().filter_map(|(_, a)| a.input());
                for name in group.iter().map(String::as_str).chain(inputs) {
                    refs[position(schema, name)] = true;
                }
                let child = self.lower(canon, input, Some(&refs), report);
                let at = |name: &str| {
                    let c = position(schema, name);
                    (
                        child.map[c].expect("lowered input keeps its refs"),
                        schema[c].1,
                    )
                };
                Lowered {
                    map: (0..group.len() + aggs.len()).map(Some).collect(),
                    plan: Plan::Agg {
                        group_cols: group.iter().map(|g| at(g).0).collect(),
                        aggs: (aggs.iter())
                            .map(|(n, a)| (n.clone(), a.resolve(at)))
                            .collect(),
                        input: Box::new(child.plan),
                    },
                }
            }
            LogicalPlan::Sort { input, keys, limit } => {
                let schema = canon.get(lp);
                let cols: Vec<usize> = keys.iter().map(|k| position(schema, &k.column)).collect();
                let child_needed = needed.map(|set| {
                    let mut set = set.to_vec();
                    for &c in &cols {
                        set[c] = true;
                    }
                    set
                });
                let child = self.lower(canon, input, child_needed.as_deref(), report);
                Lowered {
                    plan: Plan::Sort {
                        keys: (keys.iter().zip(&cols))
                            .map(|(k, &c)| SortKey {
                                col: child.map[c].expect("lowered input keeps its sort keys"),
                                desc: k.descending,
                            })
                            .collect(),
                        limit: *limit,
                        input: Box::new(child.plan),
                    },
                    map: child.map,
                }
            }
            LogicalPlan::Join {
                kind: JoinKind::Inner,
                ..
            } => self.lower_inner_block(canon, lp, needed, report),
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
            } => {
                // Semi/Anti/Count: direction is fixed (left streams,
                // right builds) and the build side carries only its keys.
                let (ls, rs) = (canon.get(left), canon.get(right));
                let lk: Vec<usize> = left_keys.iter().map(|k| position(ls, k)).collect();
                let rk: Vec<usize> = right_keys.iter().map(|k| position(rs, k)).collect();
                let mut ln: Vec<bool> = (0..ls.len()).map(|c| wants(needed, c)).collect();
                let mut rn = vec![false; rs.len()];
                for &c in &lk {
                    ln[c] = true;
                }
                for &c in &rk {
                    rn[c] = true;
                }
                let probe = self.lower(canon, left, Some(&ln), report);
                let build = self.lower(canon, right, Some(&rn), report);
                let key_at = |map: &[Option<usize>], c: usize| map[c].expect("join keys survive");
                let plan = Plan::Join {
                    probe_keys: lk.iter().map(|&c| key_at(&probe.map, c)).collect(),
                    build_keys: rk.iter().map(|&c| key_at(&build.map, c)).collect(),
                    probe: Box::new(probe.plan),
                    build: Box::new(build.plan),
                    kind: *kind,
                    build_payload: Vec::new(),
                };
                let mut map = probe.map;
                if *kind == JoinKind::Count {
                    map.push(Some(map.iter().flatten().count()));
                }
                Lowered { plan, map }
            }
        }
    }

    /// Flatten, enumerate, and emit one inner-join block. The block's
    /// canonical columns are its leaves', in leaf order.
    fn lower_inner_block(
        &self,
        canon: &Canonical<'_>,
        lp: &LogicalPlan,
        needed: Option<&[bool]>,
        report: &mut PlanReport,
    ) -> Lowered {
        // 1. Flatten the run of inner joins into leaves + key pairs.
        let mut leaves: Vec<&LogicalPlan> = Vec::new();
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        collect_block(lp, &mut leaves, &mut pairs);
        let mut offsets = vec![0];
        for leaf in &leaves {
            offsets.push(offsets[offsets.len() - 1] + canon.get(leaf).len());
        }
        let width = offsets[leaves.len()];
        let owner = |name: &str| -> (usize, usize) {
            (leaves.iter().enumerate())
                .find_map(|(i, leaf)| {
                    let j = canon.get(leaf).iter().position(|&(n, _)| n == name)?;
                    Some((i, offsets[i] + j))
                })
                .unwrap_or_else(|| panic!("join key {name:?} not found in any join input"))
        };

        // 2. Merge key pairs into per-leaf-pair edges. `keys` lists each
        // pair as (edge, a-side column, b-side column) in block columns;
        // step 4 gives each edge its pairs' NDVs, in this order.
        let mut edges: Vec<GraphEdge> = Vec::new();
        let mut keys: Vec<(usize, usize, usize)> = Vec::new();
        let mut is_key = vec![false; width];
        for &(l, r) in &pairs {
            let ((a, ac), (b, bc)) = (owner(l), owner(r));
            assert_ne!(
                a, b,
                "join predicate {l:?} = {r:?} references a single input"
            );
            let (a, b, ac, bc) = if a < b {
                (a, b, ac, bc)
            } else {
                (b, a, bc, ac)
            };
            let e = match edges.iter().position(|e| e.a == a && e.b == b) {
                Some(e) => e,
                None => {
                    edges.push(GraphEdge {
                        a,
                        b,
                        key_ndvs: Vec::new(),
                    });
                    edges.len() - 1
                }
            };
            keys.push((e, ac, bc));
            is_key[ac] = true;
            is_key[bc] = true;
        }

        // 3. Per-leaf needed set: downstream columns plus every join key.
        let block_needed: Vec<bool> = (0..width).map(|c| wants(needed, c)).collect();
        let lowered: Vec<Lowered> = (leaves.iter().enumerate())
            .map(|(i, leaf)| {
                let mut ln: Vec<bool> = (offsets[i]..offsets[i + 1])
                    .map(|c| block_needed[c] || is_key[c])
                    .collect();
                if !ln.contains(&true) {
                    // A leaf nothing references still contributes its
                    // row multiplicity; keep its first column.
                    ln[0] = true;
                }
                self.lower(canon, leaf, Some(&ln), report)
            })
            .collect();

        // 4. Build the graph from the lowered leaves' estimates.
        let ests: Vec<PlanEst> = (lowered.iter())
            .map(|leaf| self.estimator.estimate(&leaf.plan))
            .collect();
        let ndv = |leaf: usize, c: usize| {
            let at = lowered[leaf].map[c - offsets[leaf]].expect("join keys survive lowering");
            ests[leaf].cols[at].ndv
        };
        for &(e, ac, bc) in &keys {
            let (a, b) = (edges[e].a, edges[e].b);
            edges[e].key_ndvs.push((ndv(a, ac), ndv(b, bc)));
        }
        let nodes: Vec<GraphNode> = (ests.iter().zip(&leaves))
            .map(|(est, leaf)| GraphNode {
                label: leaf_label(leaf),
                rows: est.rows,
                width: est.row_width(),
                cols: est.cols.len(),
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
        let mut slots: Vec<Option<Emitted>> = (lowered.into_iter().zip(&offsets))
            .map(|(leaf, &offset)| {
                let mut cols = vec![0; leaf.map.iter().flatten().count()];
                for (j, at) in leaf.map.iter().enumerate() {
                    if let Some(at) = at {
                        cols[*at] = offset + j;
                    }
                }
                Some(Emitted {
                    plan: leaf.plan,
                    cols,
                })
            })
            .collect();
        let out = self.emit(&chosen.tree, &graph, &keys, &block_needed, &mut slots);
        let mut map = vec![None; width];
        for (at, &c) in out.cols.iter().enumerate() {
            map[c] = Some(at);
        }
        Lowered {
            plan: out.plan,
            map,
        }
    }

    /// Emit the physical joins for a chosen tree. `required` flags the
    /// block columns every ancestor still reads.
    fn emit(
        &self,
        tree: &JoinTree,
        graph: &JoinGraph,
        keys: &[(usize, usize, usize)],
        required: &[bool],
        slots: &mut Vec<Option<Emitted>>,
    ) -> Emitted {
        match tree {
            JoinTree::Leaf(i) => slots[*i].take().expect("leaf emitted twice"),
            JoinTree::Node {
                probe,
                build,
                edges,
                ..
            } => {
                // Orient every applied edge's key pairs, probe side first.
                let probe_leaves = leaf_set(probe);
                let mut pairs = Vec::new();
                for &ei in edges {
                    let a_probes = probe_leaves & (1 << graph.edges[ei].a) != 0;
                    for &(_, ac, bc) in keys.iter().filter(|k| k.0 == ei) {
                        pairs.push(if a_probes { (ac, bc) } else { (bc, ac) });
                    }
                }

                let mut child_required = required.to_vec();
                for &(pc, bc) in &pairs {
                    child_required[pc] = true;
                    child_required[bc] = true;
                }
                let p = self.emit(probe, graph, keys, &child_required, slots);
                let b = self.emit(build, graph, keys, &child_required, slots);
                let at = |cols: &[usize], c: usize| {
                    cols.iter()
                        .position(|&x| x == c)
                        .expect("join keys survive")
                };
                let probe_keys = pairs.iter().map(|&(c, _)| at(&p.cols, c)).collect();
                let build_keys = pairs.iter().map(|&(_, c)| at(&b.cols, c)).collect();
                // Payload: build columns an ancestor still needs (keys
                // consumed here are dropped unless required above).
                let build_payload: Vec<usize> =
                    (0..b.cols.len()).filter(|&k| required[b.cols[k]]).collect();
                let mut cols = p.cols;
                cols.extend(build_payload.iter().map(|&k| b.cols[k]));
                Emitted {
                    plan: Plan::Join {
                        probe_keys,
                        build_keys,
                        probe: Box::new(p.plan),
                        build: Box::new(b.plan),
                        kind: JoinKind::Inner,
                        build_payload,
                    },
                    cols,
                }
            }
        }
    }
}

/// Canonical columns of a logical plan's nodes, derived once, bottom-up,
/// with names borrowed from the plan, and keyed by node address (a plan
/// has tens of nodes, so a list searches as fast as a hash map). A block
/// of inner joins gets them once, at its top, from its leaves': lowering
/// never asks for the joins inside a block.
struct Canonical<'a>(Vec<(*const LogicalPlan, Vec<Field<'a>>)>);

impl<'a> Canonical<'a> {
    fn of(root: &'a LogicalPlan) -> Self {
        let mut canon = Canonical(Vec::new());
        canon.derive(root);
        canon
    }

    fn derive(&mut self, lp: &'a LogicalPlan) {
        let fields = match lp {
            LogicalPlan::Scan { relation, .. } => {
                lp.output_fields(&[&fields_of(relation.schema())])
            }
            LogicalPlan::Join {
                kind: JoinKind::Inner,
                ..
            } => {
                let (mut leaves, mut pairs) = (Vec::new(), Vec::new());
                collect_block(lp, &mut leaves, &mut pairs);
                for leaf in &leaves {
                    self.derive(leaf);
                }
                let inputs: Vec<&[Field<'a>]> = leaves.iter().map(|leaf| self.get(leaf)).collect();
                lp.output_fields(&inputs)
            }
            LogicalPlan::Join { left, right, .. } => {
                self.derive(left);
                self.derive(right);
                lp.output_fields(&[self.get(left), self.get(right)])
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. } => {
                self.derive(input);
                lp.output_fields(&[self.get(input)])
            }
        };
        self.0.push((lp, fields));
    }

    fn get(&self, lp: &LogicalPlan) -> &[Field<'a>] {
        let node = lp as *const LogicalPlan;
        let (_, fields) = (self.0.iter())
            .find(|(at, _)| *at == node)
            .expect("every node's columns are derived before lowering");
        fields
    }
}

/// A lowered subtree: the physical plan, and where each column of the
/// logical node's canonical schema sits in the plan's output (`None` once
/// pruned).
struct Lowered {
    plan: Plan,
    map: Vec<Option<usize>>,
}

/// An emitted part of an inner-join block: the plan, and the block
/// column each of its output columns carries.
struct Emitted {
    plan: Plan,
    cols: Vec<usize>,
}

fn wants(needed: Option<&[bool]>, c: usize) -> bool {
    needed.is_none_or(|set| set[c])
}

/// The columns of `len` a node keeps: the needed ones, or its first when
/// nothing is needed.
fn kept(len: usize, needed: Option<&[bool]>) -> Vec<usize> {
    let kept: Vec<usize> = (0..len).filter(|&c| wants(needed, c)).collect();
    if kept.is_empty() {
        vec![0]
    } else {
        kept
    }
}

/// Where each of `len` canonical columns sits when only `kept` are
/// emitted, in order.
fn positions(len: usize, kept: &[usize]) -> Vec<Option<usize>> {
    let mut map = vec![None; len];
    for (at, &c) in kept.iter().enumerate() {
        map[c] = Some(at);
    }
    map
}

/// `set` with every column the expressions reference flagged.
fn with_refs<'e>(mut set: Vec<bool>, exprs: impl IntoIterator<Item = &'e Expr>) -> Vec<bool> {
    let mut cols = Vec::new();
    for e in exprs {
        e.referenced_cols(&mut cols);
    }
    for c in cols {
        set[c] = true;
    }
    set
}

/// The leaves of a join tree, as a bitset.
fn leaf_set(tree: &JoinTree) -> u64 {
    match tree {
        JoinTree::Leaf(i) => 1 << i,
        JoinTree::Node { probe, build, .. } => leaf_set(probe) | leaf_set(build),
    }
}

/// Flatten a run of inner joins.
fn collect_block<'a>(
    lp: &'a LogicalPlan,
    leaves: &mut Vec<&'a LogicalPlan>,
    pairs: &mut Vec<(&'a str, &'a str)>,
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
                pairs.push((l, r));
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
