//! Physical plans and their compilation into morsel-driven stage lists.
//!
//! A [`Plan`] is the cost-based optimizer's output (we hand-author plans
//! for the benchmark queries, as the paper's focus is execution, not
//! optimization). [`compile_query`] lowers a plan to the sequence of
//! pipeline stages the QEP state machine feeds to the dispatcher: build
//! sides become materialize + hash-insert stage pairs, aggregations become
//! pre-aggregate + partition-merge pairs, sorts become materialize +
//! local-sort + merge triples, and everything in between is fused into
//! pipelines (scan/filter/project/probe chains), exactly as Figure 2 of
//! the paper decomposes its example plan.

// File layout keeps the plan-tree tests next to the Plan type, with the
// compiler below them.
#![allow(clippy::items_after_test_module)]

use std::sync::Arc;

use morsel_core::{result_slot, BuiltJob, ExecEnv, QuerySpec, ResultSlot, Stage};
use morsel_storage::{DataType, Encoding, Relation, Schema};

use crate::agg::{agg_slot, AggFn, AggMergeJob, AggPartialSink};
use crate::expr::{col, Expr};
use crate::ht::TaggedHashTable;
use crate::join::{join_slot, HtInsertJob, JoinKind, ProbeOp};
use crate::pipeline::{ExecPipeline, FilterOp, MapOp, PipeOp};
use crate::sink::{area_slot, AreaSlot, MaterializeSink, Sink};
use crate::sort::{runs_slot, LocalSortJob, MergeJob, MergePlan, SortKey, TopKSink};
use crate::source::InputSource;
use crate::variant::SystemVariant;

/// Sort queries with `limit <= TOPK_THRESHOLD` use the heap-based top-k
/// operator instead of a full three-stage sort.
pub const TOPK_THRESHOLD: usize = 1024;

/// A physical query plan.
#[derive(Clone)]
pub enum Plan {
    /// Scan a base relation: filter on the relation schema, project into
    /// the working schema with `names`.
    Scan {
        relation: Arc<Relation>,
        filter: Option<Expr>,
        project: Vec<(String, Expr)>,
    },
    /// Filter on the current working schema.
    Filter { input: Box<Plan>, predicate: Expr },
    /// Replace the working schema by projected expressions.
    Map {
        input: Box<Plan>,
        project: Vec<(String, Expr)>,
    },
    /// Hash join: `build` is materialized and hashed on `build_keys`;
    /// `probe` streams through, matching on `probe_keys`. Inner joins
    /// append `build_payload` columns to the working schema.
    Join {
        build: Box<Plan>,
        probe: Box<Plan>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        kind: JoinKind,
        build_payload: Vec<usize>,
    },
    /// Grouped (or scalar, when `group_cols` is empty) aggregation.
    Agg {
        input: Box<Plan>,
        group_cols: Vec<usize>,
        aggs: Vec<(String, AggFn)>,
    },
    /// Order by, with optional limit.
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
        limit: Option<usize>,
    },
}

impl Plan {
    /// Output schema of the plan.
    pub fn schema(&self) -> Schema {
        match self {
            Plan::Scan { relation, .. } => self.output_schema(&[relation.schema()]),
            Plan::Join { build, probe, .. } => {
                self.output_schema(&[&probe.schema(), &build.schema()])
            }
            Plan::Filter { input, .. }
            | Plan::Map { input, .. }
            | Plan::Agg { input, .. }
            | Plan::Sort { input, .. } => self.output_schema(&[&input.schema()]),
        }
    }

    /// This node's output schema from its inputs' schemas: the scanned
    /// relation's for a scan, `[probe, build]` for a join, the child's
    /// otherwise. [`Plan::schema`] and the compiler (which already holds
    /// its inputs' schemas) both derive a node's schema here.
    fn output_schema(&self, inputs: &[&Schema]) -> Schema {
        let input = inputs[0];
        let fields: Vec<(&str, DataType)> = match self {
            Plan::Filter { .. } | Plan::Sort { .. } => return input.clone(),
            Plan::Scan { project, .. } | Plan::Map { project, .. } => {
                let src = input.data_types();
                project
                    .iter()
                    .map(|(n, e)| (n.as_str(), e.result_type(&src)))
                    .collect()
            }
            Plan::Join {
                kind,
                build_payload,
                ..
            } => {
                let mut fields: Vec<_> = (0..input.len())
                    .map(|i| (input.name(i), input.dtype(i)))
                    .collect();
                match kind {
                    JoinKind::Inner => {
                        let build = inputs[1];
                        fields.extend(
                            build_payload
                                .iter()
                                .map(|&c| (build.name(c), build.dtype(c))),
                        );
                    }
                    JoinKind::Semi | JoinKind::Anti => {}
                    JoinKind::Count => fields.push(("match_count", DataType::I64)),
                }
                fields
            }
            Plan::Agg {
                group_cols, aggs, ..
            } => group_cols
                .iter()
                .map(|&c| (input.name(c), input.dtype(c)))
                .chain(aggs.iter().map(|(n, f)| (n.as_str(), f.output_type())))
                .collect(),
        };
        Schema::new(fields)
    }

    /// This node's output encodings from its inputs', as
    /// [`Plan::output_schema`] derives its schema: a bare column reference
    /// keeps its input's encoding, every other expression is plain.
    fn output_encodings(&self, inputs: &[&[Encoding]]) -> Vec<Encoding> {
        let (input, plain) = (inputs[0], || Encoding::Plain);
        let keep = |e: &Expr| match e {
            Expr::Col(c) => input[*c].clone(),
            _ => plain(),
        };
        match self {
            Plan::Scan { project, .. } | Plan::Map { project, .. } => {
                project.iter().map(|(_, e)| keep(e)).collect()
            }
            Plan::Join {
                kind: JoinKind::Inner,
                build_payload,
                ..
            } => (input.iter().cloned())
                .chain(build_payload.iter().map(|&c| inputs[1][c].clone()))
                .collect(),
            Plan::Join {
                kind: JoinKind::Count,
                ..
            } => input.iter().cloned().chain([plain()]).collect(),
            Plan::Agg {
                group_cols, aggs, ..
            } => (group_cols.iter().map(|&c| input[c].clone()))
                .chain(aggs.iter().map(|_| plain()))
                .collect(),
            Plan::Filter { .. } | Plan::Sort { .. } | Plan::Join { .. } => input.to_vec(),
        }
    }

    // Convenience constructors ------------------------------------------

    pub fn scan(relation: Arc<Relation>, filter: Option<Expr>, cols: &[&str]) -> Plan {
        let project = cols
            .iter()
            .map(|&c| (c.to_owned(), col(relation.schema().index_of(c))))
            .collect();
        Plan::Scan {
            relation,
            filter,
            project,
        }
    }

    pub fn scan_project(
        relation: Arc<Relation>,
        filter: Option<Expr>,
        project: Vec<(&str, Expr)>,
    ) -> Plan {
        Plan::Scan {
            relation,
            filter,
            project: project
                .into_iter()
                .map(|(n, e)| (n.to_owned(), e))
                .collect(),
        }
    }

    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    pub fn map(self, project: Vec<(&str, Expr)>) -> Plan {
        Plan::Map {
            input: Box::new(self),
            project: project
                .into_iter()
                .map(|(n, e)| (n.to_owned(), e))
                .collect(),
        }
    }

    /// Inner-join `self` (probe side) against `build`, by column names.
    pub fn join(
        self,
        build: Plan,
        probe_keys: &[&str],
        build_keys: &[&str],
        payload: &[&str],
    ) -> Plan {
        self.join_kind(build, probe_keys, build_keys, payload, JoinKind::Inner)
    }

    pub fn join_kind(
        self,
        build: Plan,
        probe_keys: &[&str],
        build_keys: &[&str],
        payload: &[&str],
        kind: JoinKind,
    ) -> Plan {
        let ps = self.schema();
        let bs = build.schema();
        Plan::Join {
            probe_keys: probe_keys.iter().map(|k| ps.index_of(k)).collect(),
            build_keys: build_keys.iter().map(|k| bs.index_of(k)).collect(),
            build_payload: payload.iter().map(|k| bs.index_of(k)).collect(),
            build: Box::new(build),
            probe: Box::new(self),
            kind,
        }
    }

    pub fn agg(self, group: &[&str], aggs: Vec<(&str, AggFn)>) -> Plan {
        let s = self.schema();
        Plan::Agg {
            group_cols: group.iter().map(|g| s.index_of(g)).collect(),
            input: Box::new(self),
            aggs: aggs.into_iter().map(|(n, f)| (n.to_owned(), f)).collect(),
        }
    }

    pub fn sort_by(self, keys: Vec<SortKey>, limit: Option<usize>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            keys,
            limit,
        }
    }

    /// Resolve a named column index in this plan's output schema.
    pub fn col_index(&self, name: &str) -> usize {
        self.schema().index_of(name)
    }

    /// Every node with its depth, in the one order the plan's nodes are
    /// numbered by: pre-order, a join's probe subtree before its build
    /// subtree (the probe side continues the pipeline, Figure 2). Entry
    /// `i` is the node behind `QueryProfile::ops[i]`, EXPLAIN line `i`
    /// and the planner's `plan_charges(..)[i]`.
    pub fn preorder(&self) -> Vec<(usize, &Plan)> {
        let mut out = Vec::new();
        let mut stack = vec![(0, self)];
        while let Some((depth, node)) = stack.pop() {
            out.push((depth, node));
            match node {
                Plan::Scan { .. } => {}
                Plan::Filter { input, .. }
                | Plan::Map { input, .. }
                | Plan::Agg { input, .. }
                | Plan::Sort { input, .. } => stack.push((depth + 1, input)),
                Plan::Join { build, probe, .. } => {
                    stack.push((depth + 1, build));
                    stack.push((depth + 1, probe));
                }
            }
        }
        out
    }

    /// This node's operator name, as profiles, EXPLAIN and the service's
    /// execution totals show it. The first word (`scan`, `filter`, `map`,
    /// `join`, `agg`, `sort`) is the operator kind.
    pub fn label(&self) -> String {
        match self {
            Plan::Scan { filter: None, .. } => "scan".to_owned(),
            Plan::Scan { .. } => "scan(filtered)".to_owned(),
            Plan::Filter { .. } => "filter".to_owned(),
            Plan::Map { project, .. } => format!("map({} cols)", project.len()),
            Plan::Join { kind, .. } => format!("join({kind:?})"),
            Plan::Agg {
                group_cols, aggs, ..
            } => format!("agg({} keys, {} fns)", group_cols.len(), aggs.len()),
            Plan::Sort { limit: None, .. } => "sort".to_owned(),
            Plan::Sort { limit: Some(k), .. } => format!("sort(limit={k})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, gt, lit};
    use morsel_numa::{Placement, Topology};
    use morsel_storage::{Batch, Column, PartitionBy};

    fn rel(n: i64) -> Arc<Relation> {
        Arc::new(Relation::partitioned(
            Schema::new(vec![("k", DataType::I64), ("v", DataType::I64)]),
            &Batch::from_columns(vec![
                Column::I64((0..n).collect()),
                Column::I64((0..n).collect()),
            ]),
            PartitionBy::Hash { column: 0 },
            4,
            Placement::FirstTouch,
            &Topology::laptop(),
        ))
    }

    #[test]
    fn schema_tracking_through_combinators() {
        let p = Plan::scan(rel(10), None, &["k", "v"])
            .join(Plan::scan(rel(5), None, &["k"]), &["k"], &["k"], &[])
            .agg(&["k"], vec![("cnt", AggFn::Count)])
            .sort_by(vec![SortKey::asc(1)], Some(3));
        let s = p.schema();
        assert_eq!(s.names(), vec!["k", "cnt"]);
        assert_eq!(p.col_index("cnt"), 1);
    }

    #[test]
    fn preorder_visits_probe_before_build_with_depths() {
        let leaf = |v: i64| Plan::scan(rel(v), None, &["k"]);
        // join A: probe = join B (probe scan 1, build scan 2),
        //         build = join C (probe filter(scan 3), build scan 4).
        let probe = leaf(1).join(leaf(2), &["k"], &["k"], &[]);
        let build = leaf(3)
            .filter(gt(col(0), lit(0)))
            .join(leaf(4), &["k"], &["k"], &[]);
        let plan = probe
            .join_kind(build, &["k"], &["k"], &[], JoinKind::Semi)
            .map(vec![("k", col(0))])
            .agg(&["k"], vec![("cnt", AggFn::Count)])
            .sort_by(vec![SortKey::asc(1)], Some(10));
        let order: Vec<(usize, String, usize)> = plan
            .preorder()
            .into_iter()
            .map(|(depth, node)| {
                let rows = match node {
                    Plan::Scan { relation, .. } => relation.total_rows(),
                    _ => 0,
                };
                (depth, node.label(), rows)
            })
            .collect();
        let want: Vec<(usize, &str, usize)> = vec![
            (0, "sort(limit=10)", 0),
            (1, "agg(1 keys, 1 fns)", 0),
            (2, "map(1 cols)", 0),
            (3, "join(Semi)", 0),
            (4, "join(Inner)", 0),
            (5, "scan", 1),
            (5, "scan", 2),
            (4, "join(Inner)", 0),
            (5, "filter", 0),
            (6, "scan", 3),
            (5, "scan", 4),
        ];
        let got: Vec<(usize, &str, usize)> =
            order.iter().map(|(d, l, r)| (*d, l.as_str(), *r)).collect();
        assert_eq!(got, want);
        for (_, label, _) in &order {
            let kind = label.split('(').next().unwrap();
            assert!(
                ["scan", "filter", "map", "join", "agg", "sort"].contains(&kind),
                "{label}: the first word names the operator kind"
            );
        }
        let filtered = Plan::scan(rel(5), Some(gt(col(0), lit(1))), &["k"]);
        assert_eq!(filtered.label(), "scan(filtered)");
        assert_eq!(
            filtered.sort_by(vec![SortKey::asc(0)], None).label(),
            "sort"
        );
    }
}

/// Where a pipeline under construction reads from.
enum Source {
    Rel(Arc<Relation>),
    Slot(AreaSlot),
}

impl Source {
    fn resolve(&self) -> Arc<dyn InputSource> {
        match self {
            Source::Rel(r) => Arc::clone(r) as Arc<dyn InputSource>,
            Source::Slot(s) => {
                let set = s
                    .lock()
                    .clone()
                    .expect("upstream pipeline not materialized");
                set as Arc<dyn InputSource>
            }
        }
    }
}

/// A pipeline under construction during compilation.
struct PipeUnder {
    source: Source,
    filter: Option<Expr>,
    projection: Vec<Expr>,
    ops: Vec<Box<dyn PipeOp>>,
    schema: Schema,
    /// The encoding of each column of `schema` (DESIGN.md §14).
    encodings: Vec<Encoding>,
    /// Profile slot of the pipeline's scan node (`None` when the source
    /// is an already-profiled breaker's output).
    scan_slot: Option<u32>,
    /// Profile slot per entry of `ops` (parallel vector).
    op_slots: Vec<Option<u32>>,
}

impl PipeUnder {
    /// The identity pipeline over a breaker's output slot. The breaker's
    /// own jobs record its counters; re-scanning its output is not a plan
    /// node, so the scan is unprofiled.
    fn over_slot(out: AreaSlot, schema: Schema, encodings: Vec<Encoding>) -> Self {
        PipeUnder {
            source: Source::Slot(out),
            filter: None,
            projection: (0..schema.len()).map(col).collect(),
            ops: Vec::new(),
            schema,
            encodings,
            scan_slot: None,
            op_slots: Vec::new(),
        }
    }
}

/// Compiles one plan into its stage sequence.
struct Compiler {
    variant: SystemVariant,
    stages: Vec<Stage>,
    counter: usize,
}

impl Compiler {
    fn label(&mut self, kind: &str) -> String {
        self.counter += 1;
        format!("{kind}#{}", self.counter)
    }

    /// Compile the root: a breaker root delivers the result from its
    /// final stage, any other root through a closing materialize
    /// pipeline.
    fn compile_root(&mut self, plan: &Plan, result: ResultSlot) {
        if let Plan::Agg { .. } | Plan::Sort { .. } = plan {
            self.compile_breaker(plan, 0, Some(result));
        } else {
            let u = self.compile(plan, 0);
            self.emit_materialize("materialize", u, None, Some(result));
        }
    }

    /// Compile a plan subtree whose root occupies profile slot `slot`,
    /// its index in [`Plan::preorder`]: a unary child sits at `slot + 1`,
    /// a join's probe subtree at `slot + 1` and its build subtree after
    /// the whole probe subtree.
    fn compile(&mut self, plan: &Plan, slot: u32) -> PipeUnder {
        match plan {
            Plan::Scan {
                relation,
                filter,
                project,
            } => PipeUnder {
                source: Source::Rel(Arc::clone(relation)),
                filter: filter.clone(),
                projection: project.iter().map(|(_, e)| e.clone()).collect(),
                ops: Vec::new(),
                schema: plan.output_schema(&[relation.schema()]),
                encodings: plan.output_encodings(&[relation.encodings()]),
                scan_slot: Some(slot),
                op_slots: Vec::new(),
            },
            Plan::Filter { input, predicate } => {
                let mut u = self.compile(input, slot + 1);
                let types = u.schema.data_types();
                u.ops.push(Box::new(FilterOp::new(
                    predicate.clone(),
                    &types,
                    &u.encodings,
                )));
                u.op_slots.push(Some(slot));
                u
            }
            Plan::Map { input, project } => {
                let mut u = self.compile(input, slot + 1);
                u.schema = plan.output_schema(&[&u.schema]);
                u.encodings = plan.output_encodings(&[&u.encodings]);
                u.ops.push(Box::new(MapOp {
                    exprs: project.iter().map(|(_, e)| e.clone()).collect(),
                }));
                u.op_slots.push(Some(slot));
                u
            }
            Plan::Join {
                build,
                probe,
                build_keys,
                probe_keys,
                kind,
                build_payload,
            } => {
                // Build side: two stages (Figure 3's phases).
                let build_slot = slot + 1 + probe.preorder().len() as u32;
                let bu = self.compile(build, build_slot);
                let (build_schema, build_enc) = (bu.schema.clone(), bu.encodings.clone());
                let built_slot = self.emit_materialize("build-materialize", bu, None, None);
                let jslot = join_slot();
                let label = self.label("build-insert");
                let out = jslot.clone();
                let keys = build_keys.clone();
                let tagging = self.variant.tagging;
                self.stages
                    .push(Stage::new(label.clone(), move |env, _workers| {
                        let set = built_slot
                            .lock()
                            .clone()
                            .expect("build side not materialized");
                        let chunks = set.chunk_meta();
                        let rows: usize = chunks.iter().map(|c| c.rows).sum();
                        let job =
                            HtInsertJob::new(set, keys, env.topology().sockets(), out, tagging)
                                .with_prof_slot(Some(slot));
                        // Declare the hash table's footprint so the
                        // dispatcher charges the query's budget before the
                        // build pipeline runs.
                        BuiltJob::new(label, Arc::new(job), chunks)
                            .with_reserve_bytes(TaggedHashTable::estimate_bytes(rows))
                    }));

                // Probe side: continue its pipeline with the probe op.
                let mut pu = self.compile(probe, slot + 1);
                let op = ProbeOp::new(
                    jslot,
                    probe_keys.clone(),
                    build_keys.clone(),
                    *kind,
                    build_payload.clone(),
                    &pu.encodings,
                    &build_enc,
                );
                pu.schema = plan.output_schema(&[&pu.schema, &build_schema]);
                pu.encodings = plan.output_encodings(&[&pu.encodings, &build_enc]);
                pu.ops.push(Box::new(op));
                pu.op_slots.push(Some(slot));
                pu
            }
            Plan::Agg { .. } | Plan::Sort { .. } => self.compile_breaker(plan, slot, None),
        }
    }

    /// Compile an aggregation or a sort: its input pipeline ends in the
    /// breaker's first stage, and its output is delivered into `result`
    /// at the root or else re-scanned by the returned pipeline.
    fn compile_breaker(&mut self, plan: &Plan, slot: u32, result: Option<ResultSlot>) -> PipeUnder {
        let prof = Some(slot);
        let out = area_slot();
        match plan {
            Plan::Agg {
                input,
                group_cols,
                aggs,
            } => {
                let u = self.compile(input, slot + 1);
                let schema = plan.output_schema(&[&u.schema]);
                let encodings = plan.output_encodings(&[&u.encodings]);
                let next = PipeUnder::over_slot(out.clone(), schema.clone(), encodings.clone());
                let fns: Vec<AggFn> = aggs.iter().map(|(_, f)| *f).collect();
                let parts = agg_slot();
                {
                    let (group_cols, fns, parts) = (group_cols.clone(), fns.clone(), parts.clone());
                    let (types, encodings) = (u.schema.data_types(), u.encodings.clone());
                    self.emit_pipeline("agg-partial", u, prof, move |env, workers| {
                        Box::new(
                            AggPartialSink::new(
                                group_cols,
                                fns,
                                &types,
                                &encodings,
                                &env.worker_sockets(workers),
                                parts,
                            )
                            .with_prof_slot(prof),
                        )
                    });
                }
                let label = self.label("agg-merge");
                self.stages
                    .push(Stage::new(label.clone(), move |env, workers| {
                        let parts = parts.lock().clone().expect("phase 1 not finished");
                        let chunks = AggMergeJob::chunk_meta(&parts, env.topology().sockets());
                        let job = AggMergeJob::new(
                            parts,
                            fns,
                            schema,
                            &env.worker_sockets(workers),
                            out,
                            result,
                        )
                        .with_sql_default_row()
                        .with_prof_slot(prof);
                        BuiltJob::new(label, Arc::new(job), chunks).with_atomic_chunks()
                    }));
                next
            }
            Plan::Sort { input, keys, limit } => {
                let u = self.compile(input, slot + 1);
                let schema = u.schema.clone();
                let next = PipeUnder::over_slot(out.clone(), schema.clone(), u.encodings.clone());
                let (keys, limit) = (keys.clone(), *limit);
                if let Some(k) = limit.filter(|&k| k <= TOPK_THRESHOLD) {
                    // Single pipeline with a per-worker heap.
                    self.emit_pipeline("topk", u, prof, move |_env, workers| {
                        Box::new(
                            TopKSink::new(keys, k, schema, workers, out, result)
                                .with_prof_slot(prof),
                        )
                    });
                } else {
                    // Materialize, sort locally, merge.
                    let sorted = self.emit_materialize("sort-materialize", u, prof, None);
                    let runs = runs_slot();
                    let label = self.label("sort-local");
                    let local_runs = runs.clone();
                    self.stages
                        .push(Stage::new(label.clone(), move |_env, _workers| {
                            let input = sorted.lock().clone().expect("sort input not materialized");
                            let chunks = input.chunk_meta();
                            let job =
                                LocalSortJob::new(input, keys, local_runs).with_prof_slot(prof);
                            BuiltJob::new(label, Arc::new(job), chunks).with_atomic_chunks()
                        }));
                    let label = self.label("sort-merge");
                    self.stages
                        .push(Stage::new(label.clone(), move |env, workers| {
                            let runs = runs.lock().clone().expect("local sort not finished");
                            let plan = Arc::new(MergePlan::compute(runs, workers.max(1)));
                            let chunks = MergeJob::chunk_meta(&plan, env.topology().sockets());
                            let job = MergeJob::new(plan, schema, out, result, limit)
                                .with_prof_slot(prof);
                            BuiltJob::new(label, Arc::new(job), chunks).with_atomic_chunks()
                        }));
                }
                next
            }
            _ => unreachable!("{} is not a pipeline breaker", plan.label()),
        }
    }

    /// Emit one pipeline stage: `u` runs into the sink `make_sink` builds
    /// when the stage starts, with `sink_slot` credited for the rows the
    /// sink consumes.
    fn emit_pipeline(
        &mut self,
        kind: &str,
        u: PipeUnder,
        sink_slot: Option<u32>,
        make_sink: impl FnOnce(&ExecEnv, usize) -> Box<dyn Sink> + Send + 'static,
    ) {
        let label = self.label(kind);
        let exchange_ns = self.variant.exchange_ns;
        self.stages
            .push(Stage::new(label.clone(), move |env, workers| {
                let source = u.source.resolve();
                let chunks = source.chunk_meta();
                let sink = make_sink(env, workers);
                let pipe = ExecPipeline::new(source, u.filter, u.projection, u.ops, sink)
                    .with_extra_scan_ns(exchange_ns)
                    .with_profile(u.scan_slot, u.op_slots, sink_slot);
                BuiltJob::new(label, Arc::new(pipe), chunks)
            }));
    }

    /// Emit a pipeline that materializes `u` into worker-local areas;
    /// returns the slot they are published in.
    fn emit_materialize(
        &mut self,
        kind: &str,
        u: PipeUnder,
        sink_slot: Option<u32>,
        result: Option<ResultSlot>,
    ) -> AreaSlot {
        let out = area_slot();
        let (schema, encodings, slot) = (u.schema.clone(), u.encodings.clone(), out.clone());
        self.emit_pipeline(kind, u, sink_slot, move |env, workers| {
            Box::new(MaterializeSink::new(
                schema,
                &encodings,
                &env.worker_sockets(workers),
                slot,
                result,
            ))
        });
        out
    }
}

/// Compile a plan under a variant into the query spec the dispatcher
/// runs. The result slot receives the final batch.
///
/// The spec carries one profile slot per plan node, labelled
/// [`Plan::label`] in [`Plan::preorder`] order, and every compiled
/// pipeline and breaker job records its counters into the matching slot.
pub fn compile_query(
    name: impl Into<String>,
    plan: Plan,
    variant: SystemVariant,
) -> (QuerySpec, ResultSlot) {
    let labels = plan
        .preorder()
        .into_iter()
        .map(|(_, p)| p.label())
        .collect();
    let mut compiler = Compiler {
        variant,
        stages: Vec::new(),
        counter: 0,
    };
    let result = result_slot();
    compiler.compile_root(&plan, result.clone());
    let spec = QuerySpec::new(name, compiler.stages, result.clone()).with_profile_ops(labels);
    (spec, result)
}
