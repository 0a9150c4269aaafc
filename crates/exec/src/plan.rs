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

use morsel_core::{result_slot, BuiltJob, FnStage, QuerySpec, ResultSlot, Stage};
use morsel_storage::{DataType, Relation, Schema};

use crate::agg::{agg_slot, AggFn, AggMergeJob, AggPartialSink};
use crate::expr::{col, Expr};
use crate::ht::TaggedHashTable;
use crate::join::{join_slot, HtInsertJob, JoinKind, ProbeOp};
use crate::pipeline::{ExecPipeline, FilterOp, MapOp, PipeOp};
use crate::sink::{area_slot, AreaSlot, MaterializeSink};
use crate::sort::{runs_slot, LocalSortJob, MergeJob, MergePlan, SortKey, TopKSink};
use crate::source::InputSource;
use crate::variant::SystemVariant;

/// Sort queries with `limit <= TOPK_THRESHOLD` use the heap-based top-k
/// operator instead of a full three-stage sort.
pub const TOPK_THRESHOLD: usize = 1024;

/// A physical query plan.
///
/// `Clone` is part of the plan-introspection surface: the planner's
/// `repro explain` support clones subtrees to execute them individually
/// when reporting estimated-vs-actual cardinalities.
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
            Plan::Scan {
                relation, project, ..
            } => {
                let src = relation.schema().data_types();
                Schema::new(
                    project
                        .iter()
                        .map(|(n, e)| (n.as_str(), e.result_type(&src)))
                        .collect(),
                )
            }
            Plan::Filter { input, .. } => input.schema(),
            Plan::Map { input, project } => {
                let src = input.schema().data_types();
                Schema::new(
                    project
                        .iter()
                        .map(|(n, e)| (n.as_str(), e.result_type(&src)))
                        .collect(),
                )
            }
            Plan::Join {
                build,
                probe,
                kind,
                build_payload,
                ..
            } => {
                let mut fields: Vec<(String, DataType)> = {
                    let p = probe.schema();
                    (0..p.len())
                        .map(|i| (p.name(i).to_owned(), p.dtype(i)))
                        .collect()
                };
                match kind {
                    JoinKind::Inner | JoinKind::InnerMark => {
                        let b = build.schema();
                        for &c in build_payload {
                            fields.push((b.name(c).to_owned(), b.dtype(c)));
                        }
                    }
                    JoinKind::Semi | JoinKind::Anti => {}
                    JoinKind::Count => fields.push(("match_count".to_owned(), DataType::I64)),
                }
                Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect())
            }
            Plan::Agg {
                input,
                group_cols,
                aggs,
            } => {
                let src = input.schema();
                let mut fields: Vec<(String, DataType)> = group_cols
                    .iter()
                    .map(|&c| (src.name(c).to_owned(), src.dtype(c)))
                    .collect();
                for (n, f) in aggs {
                    fields.push((n.clone(), f.output_type()));
                }
                Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect())
            }
            Plan::Sort { input, .. } => input.schema(),
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

    /// Render the plan tree (EXPLAIN-style). Build sides are indented
    /// under their joins; the probe side continues the pipeline, mirroring
    /// how the compiler decomposes the plan into pipelines (Figure 2).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan {
                relation,
                filter,
                project,
            } => {
                out.push_str(&format!(
                    "{pad}Scan [{} rows, {} partitions]",
                    relation.total_rows(),
                    relation.partitions().len()
                ));
                if filter.is_some() {
                    out.push_str(" filtered");
                }
                out.push_str(&format!(" -> {} cols\n", project.len()));
            }
            Plan::Filter { input, .. } => {
                out.push_str(&format!("{pad}Filter\n"));
                input.explain_into(out, depth + 1);
            }
            Plan::Map { input, project } => {
                out.push_str(&format!("{pad}Map -> {} cols\n", project.len()));
                input.explain_into(out, depth + 1);
            }
            Plan::Join {
                build,
                probe,
                kind,
                probe_keys,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}HashJoin {kind:?} on {} key(s)\n{pad}  build:\n",
                    probe_keys.len()
                ));
                build.explain_into(out, depth + 2);
                out.push_str(&format!("{pad}  probe:\n"));
                probe.explain_into(out, depth + 2);
            }
            Plan::Agg {
                input,
                group_cols,
                aggs,
            } => {
                out.push_str(&format!(
                    "{pad}Aggregate [{} group col(s), {} aggregate(s)]\n",
                    group_cols.len(),
                    aggs.len()
                ));
                input.explain_into(out, depth + 1);
            }
            Plan::Sort { input, keys, limit } => {
                out.push_str(&format!("{pad}Sort [{} key(s)", keys.len()));
                if let Some(k) = limit {
                    out.push_str(&format!(", limit {k}"));
                }
                out.push_str("]\n");
                input.explain_into(out, depth + 1);
            }
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
    fn explain_renders_tree() {
        let p = Plan::scan(rel(100), Some(gt(col(0), lit(5))), &["k", "v"])
            .join(Plan::scan(rel(5), None, &["k"]), &["k"], &["k"], &[])
            .agg(&["k"], vec![("cnt", AggFn::Count)])
            .sort_by(vec![SortKey::asc(1)], Some(3));
        let text = p.explain();
        assert!(text.contains("Sort [1 key(s), limit 3]"));
        assert!(text.contains("Aggregate [1 group col(s), 1 aggregate(s)]"));
        assert!(text.contains("HashJoin Inner"));
        assert!(text.contains("build:"));
        assert!(text.contains("probe:"));
        assert!(text.contains("filtered"));
        // Tree shape: sort is outermost (column 0), scan deepest.
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("Sort"));
    }

    #[test]
    fn explain_shows_partition_counts() {
        let text = Plan::scan(rel(100), None, &["k"]).explain();
        assert!(text.contains("[100 rows, 4 partitions]"));
    }
}

/// A pipeline under construction during compilation.
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

struct PipeUnder {
    source: Source,
    filter: Option<Expr>,
    projection: Vec<Expr>,
    ops: Vec<Box<dyn PipeOp>>,
    schema: Schema,
    /// Profile slot of the pipeline's scan node (`None` when the source
    /// is an already-profiled breaker's output).
    scan_slot: Option<u32>,
    /// Profile slot per entry of `ops` (parallel vector).
    op_slots: Vec<Option<u32>>,
}

/// Compiles plans into stage sequences.
pub struct Compiler {
    variant: SystemVariant,
    stages: Vec<Box<dyn Stage>>,
    counter: usize,
}

impl Compiler {
    pub fn new(variant: SystemVariant) -> Self {
        Compiler {
            variant,
            stages: Vec::new(),
            counter: 0,
        }
    }

    fn label(&mut self, kind: &str) -> String {
        self.counter += 1;
        format!("{kind}#{}", self.counter)
    }

    /// Compile a full query. The result slot receives the final batch.
    ///
    /// The spec carries one profile label per plan node in
    /// [`profile_labels`] order (pre-order, probe subtree before build
    /// subtree), and every compiled pipeline and breaker job records its
    /// counters into the matching slot.
    pub fn compile_query(mut self, name: impl Into<String>, plan: Plan) -> (QuerySpec, ResultSlot) {
        let labels = profile_labels(&plan);
        let result = result_slot();
        self.compile_root(plan, result.clone());
        let spec = QuerySpec::new(name, self.stages, result.clone()).with_profile_ops(labels);
        (spec, result)
    }

    fn compile_root(&mut self, plan: Plan, result: ResultSlot) {
        match plan {
            Plan::Agg {
                input,
                group_cols,
                aggs,
            } => {
                let u = self.compile(*input, 1);
                self.emit_agg(u, group_cols, aggs, Some(result), 0);
            }
            Plan::Sort { input, keys, limit } => {
                let u = self.compile(*input, 1);
                self.emit_sort(u, keys, limit, Some(result), 0);
            }
            other => {
                let u = self.compile(other, 0);
                let schema = u.schema.clone();
                let label = self.label("materialize");
                let variant = self.variant;
                let out = area_slot();
                self.stages.push(Box::new(FnStage::new(
                    label.clone(),
                    move |env, workers| {
                        let source = u.source.resolve();
                        let chunks = source.chunk_meta();
                        let sink = MaterializeSink::new(
                            schema,
                            &env.worker_sockets(workers),
                            out,
                            Some(result),
                        );
                        let pipe = ExecPipeline::new(
                            source,
                            u.filter,
                            u.projection,
                            u.ops,
                            Box::new(sink),
                        )
                        .with_extra_scan_ns(variant.exchange_ns)
                        .with_profile(u.scan_slot, u.op_slots, None);
                        BuiltJob::new(label, Arc::new(pipe), chunks)
                    },
                )));
            }
        }
    }

    /// Compile a plan subtree whose root occupies profile slot `slot`
    /// (structural numbering: a unary child sits at `slot + 1`; a join's
    /// probe subtree at `slot + 1`, its build subtree after the whole
    /// probe subtree — exactly [`profile_labels`]' pre-order).
    fn compile(&mut self, plan: Plan, slot: u32) -> PipeUnder {
        match plan {
            Plan::Scan {
                relation,
                filter,
                project,
            } => {
                let src_types = relation.schema().data_types();
                let schema = Schema::new(
                    project
                        .iter()
                        .map(|(n, e)| (n.as_str(), e.result_type(&src_types)))
                        .collect(),
                );
                PipeUnder {
                    source: Source::Rel(relation),
                    filter,
                    projection: project.into_iter().map(|(_, e)| e).collect(),
                    ops: Vec::new(),
                    schema,
                    scan_slot: Some(slot),
                    op_slots: Vec::new(),
                }
            }
            Plan::Filter { input, predicate } => {
                let mut u = self.compile(*input, slot + 1);
                u.ops.push(Box::new(FilterOp::new(predicate)));
                u.op_slots.push(Some(slot));
                u
            }
            Plan::Map { input, project } => {
                let mut u = self.compile(*input, slot + 1);
                let in_types = u.schema.data_types();
                let schema = Schema::new(
                    project
                        .iter()
                        .map(|(n, e)| (n.as_str(), e.result_type(&in_types)))
                        .collect(),
                );
                u.ops.push(Box::new(MapOp {
                    exprs: project.into_iter().map(|(_, e)| e).collect(),
                }));
                u.op_slots.push(Some(slot));
                u.schema = schema;
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
                let probe_slot = slot + 1;
                let build_slot = slot + 1 + plan_size(&probe) as u32;
                let join_prof = Some(slot);
                let build_schema = build.schema();
                let bu = self.compile(*build, build_slot);
                let built_slot = area_slot();
                {
                    let label = self.label("build-materialize");
                    let schema = bu.schema.clone();
                    let out = built_slot.clone();
                    let variant = self.variant;
                    self.stages.push(Box::new(FnStage::new(
                        label.clone(),
                        move |env, workers| {
                            let source = bu.source.resolve();
                            let chunks = source.chunk_meta();
                            let sink = MaterializeSink::new(
                                schema,
                                &env.worker_sockets(workers),
                                out,
                                None,
                            );
                            let pipe = ExecPipeline::new(
                                source,
                                bu.filter,
                                bu.projection,
                                bu.ops,
                                Box::new(sink),
                            )
                            .with_extra_scan_ns(variant.exchange_ns)
                            .with_profile(
                                bu.scan_slot,
                                bu.op_slots,
                                None,
                            );
                            BuiltJob::new(label, Arc::new(pipe), chunks)
                        },
                    )));
                }
                let jslot = join_slot();
                {
                    let label = self.label("build-insert");
                    let slot = built_slot;
                    let out = jslot.clone();
                    let keys = build_keys;
                    let tagging = self.variant.tagging;
                    self.stages.push(Box::new(FnStage::new(
                        label.clone(),
                        move |env, _workers| {
                            let set = slot.lock().clone().expect("build side not materialized");
                            let chunks = set.chunk_meta();
                            let rows: usize = chunks.iter().map(|c| c.rows).sum();
                            let job = HtInsertJob::with_tagging(
                                set,
                                keys,
                                env.topology().sockets(),
                                out,
                                tagging,
                            )
                            .with_prof_slot(join_prof);
                            // Declare the hash table's footprint so the
                            // dispatcher charges the query's budget
                            // before the build pipeline runs.
                            BuiltJob::new(label, Arc::new(job), chunks)
                                .with_reserve_bytes(TaggedHashTable::estimate_bytes(rows))
                        },
                    )));
                }

                // Probe side: continue its pipeline with the probe op.
                let mut pu = self.compile(*probe, probe_slot);
                let probe_schema = pu.schema.clone();
                let mut fields: Vec<(String, DataType)> = (0..probe_schema.len())
                    .map(|i| (probe_schema.name(i).to_owned(), probe_schema.dtype(i)))
                    .collect();
                match kind {
                    JoinKind::Inner | JoinKind::InnerMark => {
                        for &c in &build_payload {
                            fields.push((build_schema.name(c).to_owned(), build_schema.dtype(c)));
                        }
                    }
                    JoinKind::Semi | JoinKind::Anti => {}
                    JoinKind::Count => fields.push(("match_count".to_owned(), DataType::I64)),
                }
                pu.schema = Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect());
                pu.ops.push(Box::new(ProbeOp {
                    table: jslot,
                    probe_keys,
                    kind,
                    build_cols: build_payload,
                }));
                pu.op_slots.push(Some(slot));
                pu
            }
            Plan::Agg {
                input,
                group_cols,
                aggs,
            } => {
                let u = self.compile(*input, slot + 1);
                self.emit_agg(u, group_cols, aggs, None, slot)
            }
            Plan::Sort { input, keys, limit } => {
                let u = self.compile(*input, slot + 1);
                self.emit_sort(u, keys, limit, None, slot)
            }
        }
    }

    /// Emit the two aggregation stages; returns the follow-up pipeline
    /// over the aggregated output (identity) for non-root use.
    fn emit_agg(
        &mut self,
        u: PipeUnder,
        group_cols: Vec<usize>,
        aggs: Vec<(String, AggFn)>,
        result: Option<ResultSlot>,
        slot: u32,
    ) -> PipeUnder {
        let prof = Some(slot);
        let in_schema = u.schema.clone();
        let mut fields: Vec<(String, DataType)> = group_cols
            .iter()
            .map(|&c| (in_schema.name(c).to_owned(), in_schema.dtype(c)))
            .collect();
        for (n, f) in &aggs {
            fields.push((n.clone(), f.output_type()));
        }
        let out_schema = Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect());
        let agg_fns: Vec<AggFn> = aggs.iter().map(|(_, f)| *f).collect();
        let parts_slot = agg_slot();
        {
            let label = self.label("agg-partial");
            let slot = parts_slot.clone();
            let fns = agg_fns.clone();
            let variant = self.variant;
            self.stages.push(Box::new(FnStage::new(
                label.clone(),
                move |env, workers| {
                    let source = u.source.resolve();
                    let chunks = source.chunk_meta();
                    let sink =
                        AggPartialSink::new(group_cols, fns, &env.worker_sockets(workers), slot)
                            .with_prof_slot(prof);
                    let pipe =
                        ExecPipeline::new(source, u.filter, u.projection, u.ops, Box::new(sink))
                            .with_extra_scan_ns(variant.exchange_ns)
                            .with_profile(u.scan_slot, u.op_slots, prof);
                    BuiltJob::new(label, Arc::new(pipe), chunks)
                },
            )));
        }
        let out = area_slot();
        {
            let label = self.label("agg-merge");
            let slot = parts_slot;
            let out = out.clone();
            let schema = out_schema.clone();
            let scalar = fields.len() == aggs.len();
            let fns = agg_fns;
            let aggs_for_default = aggs.clone();
            self.stages.push(Box::new(FnStage::new(
                label.clone(),
                move |env, workers| {
                    let parts = slot.lock().clone().expect("phase 1 not finished");
                    let chunks = AggMergeJob::chunk_meta(&parts, env.topology().sockets());
                    let job = AggMergeJob::new(
                        parts,
                        fns,
                        schema,
                        &env.worker_sockets(workers),
                        out,
                        result,
                    )
                    .with_scalar_default(scalar, aggs_for_default.iter().map(|(_, f)| *f).collect())
                    .with_prof_slot(prof);
                    BuiltJob::new(label, Arc::new(job), chunks).with_atomic_chunks()
                },
            )));
        }
        PipeUnder {
            source: Source::Slot(out),
            filter: None,
            projection: (0..out_schema.len()).map(col).collect(),
            ops: Vec::new(),
            schema: out_schema,
            // The aggregation's own counters are recorded by its breaker
            // jobs; re-scanning its output is not a plan node.
            scan_slot: None,
            op_slots: Vec::new(),
        }
    }

    /// Emit the three sort stages (or a single top-k pipeline).
    fn emit_sort(
        &mut self,
        u: PipeUnder,
        keys: Vec<SortKey>,
        limit: Option<usize>,
        result: Option<ResultSlot>,
        slot: u32,
    ) -> PipeUnder {
        let prof = Some(slot);
        let schema = u.schema.clone();
        let out = area_slot();
        if let Some(k) = limit {
            if k <= TOPK_THRESHOLD {
                // Single pipeline with a per-worker heap.
                let label = self.label("topk");
                let out2 = out.clone();
                let schema2 = schema.clone();
                let variant = self.variant;
                self.stages.push(Box::new(FnStage::new(
                    label.clone(),
                    move |env, workers| {
                        let _ = env;
                        let source = u.source.resolve();
                        let chunks = source.chunk_meta();
                        let sink = TopKSink::new(keys, k, schema2, workers, out2, result)
                            .with_prof_slot(prof);
                        let pipe = ExecPipeline::new(
                            source,
                            u.filter,
                            u.projection,
                            u.ops,
                            Box::new(sink),
                        )
                        .with_extra_scan_ns(variant.exchange_ns)
                        .with_profile(u.scan_slot, u.op_slots, prof);
                        BuiltJob::new(label, Arc::new(pipe), chunks)
                    },
                )));
                return PipeUnder {
                    source: Source::Slot(out),
                    filter: None,
                    projection: (0..schema.len()).map(col).collect(),
                    ops: Vec::new(),
                    schema,
                    scan_slot: None,
                    op_slots: Vec::new(),
                };
            }
        }
        // Stage 1: materialize.
        let mat_slot = area_slot();
        {
            let label = self.label("sort-materialize");
            let slot = mat_slot.clone();
            let schema2 = schema.clone();
            let variant = self.variant;
            self.stages.push(Box::new(FnStage::new(
                label.clone(),
                move |env, workers| {
                    let source = u.source.resolve();
                    let chunks = source.chunk_meta();
                    let sink =
                        MaterializeSink::new(schema2, &env.worker_sockets(workers), slot, None);
                    let pipe =
                        ExecPipeline::new(source, u.filter, u.projection, u.ops, Box::new(sink))
                            .with_extra_scan_ns(variant.exchange_ns)
                            .with_profile(u.scan_slot, u.op_slots, prof);
                    BuiltJob::new(label, Arc::new(pipe), chunks)
                },
            )));
        }
        // Stage 2: local sort.
        let runs = runs_slot();
        {
            let label = self.label("sort-local");
            let slot = mat_slot;
            let runs = runs.clone();
            let keys = keys.clone();
            self.stages.push(Box::new(FnStage::new(
                label.clone(),
                move |_env, _workers| {
                    let input = slot.lock().clone().expect("sort input not materialized");
                    let chunks = input.chunk_meta();
                    let job = LocalSortJob::new(input, keys, runs).with_prof_slot(prof);
                    BuiltJob::new(label, Arc::new(job), chunks).with_atomic_chunks()
                },
            )));
        }
        // Stage 3: merge.
        {
            let label = self.label("sort-merge");
            let out = out.clone();
            let schema2 = schema.clone();
            self.stages.push(Box::new(FnStage::new(
                label.clone(),
                move |env, workers| {
                    let runs = runs.lock().clone().expect("local sort not finished");
                    let plan = Arc::new(MergePlan::compute(runs, workers.max(1)));
                    let chunks = MergeJob::chunk_meta(&plan, env.topology().sockets());
                    let job = MergeJob::new(plan, schema2, out, result, limit).with_prof_slot(prof);
                    BuiltJob::new(label, Arc::new(job), chunks).with_atomic_chunks()
                },
            )));
        }
        PipeUnder {
            source: Source::Slot(out),
            filter: None,
            projection: (0..schema.len()).map(col).collect(),
            ops: Vec::new(),
            schema,
            scan_slot: None,
            op_slots: Vec::new(),
        }
    }
}

/// Number of operator nodes in a plan tree.
pub fn plan_size(plan: &Plan) -> usize {
    1 + match plan {
        Plan::Scan { .. } => 0,
        Plan::Filter { input, .. }
        | Plan::Map { input, .. }
        | Plan::Agg { input, .. }
        | Plan::Sort { input, .. } => plan_size(input),
        Plan::Join { build, probe, .. } => plan_size(build) + plan_size(probe),
    }
}

/// Per-node profile labels in profile-slot order: pre-order, with a
/// join's probe subtree before its build subtree. This is the same order
/// the planner's EXPLAIN uses, so `QueryProfile::ops[i]` lines up with
/// explain line `i`.
pub fn profile_labels(plan: &Plan) -> Vec<String> {
    fn walk(p: &Plan, out: &mut Vec<String>) {
        match p {
            Plan::Scan { filter, .. } => out.push(
                if filter.is_some() {
                    "scan(filtered)"
                } else {
                    "scan"
                }
                .to_owned(),
            ),
            Plan::Filter { input, .. } => {
                out.push("filter".to_owned());
                walk(input, out);
            }
            Plan::Map { input, project } => {
                out.push(format!("map({} cols)", project.len()));
                walk(input, out);
            }
            Plan::Join {
                build, probe, kind, ..
            } => {
                out.push(format!("join({kind:?})"));
                walk(probe, out);
                walk(build, out);
            }
            Plan::Agg {
                input,
                group_cols,
                aggs,
            } => {
                out.push(format!(
                    "agg({} keys, {} fns)",
                    group_cols.len(),
                    aggs.len()
                ));
                walk(input, out);
            }
            Plan::Sort { input, limit, .. } => {
                out.push(match limit {
                    Some(k) => format!("sort(limit={k})"),
                    None => "sort".to_owned(),
                });
                walk(input, out);
            }
        }
    }
    let mut out = Vec::with_capacity(plan_size(plan));
    walk(plan, &mut out);
    out
}

/// One-call helper: compile under a variant and return the spec.
pub fn compile_query(
    name: impl Into<String>,
    plan: Plan,
    variant: SystemVariant,
) -> (QuerySpec, ResultSlot) {
    Compiler::new(variant).compile_query(name, plan)
}
