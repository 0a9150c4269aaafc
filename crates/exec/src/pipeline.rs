//! The vectorized pipeline job: scan/filter source morsels, apply a chain
//! of operators, feed a sink. One `ExecPipeline` instance is shared by all
//! workers executing the pipeline; all per-worker state lives in the sink.
//!
//! Operators exchange a [`SelBatch`] — a batch plus an optional selection
//! vector — instead of materializing a fresh batch after every predicate.
//! Filters are compiled once per operator ([`Predicate`]) and only start
//! or narrow the selection; the copy is deferred to whoever genuinely
//! needs compact data (the probe gather, a projection, the sink), or
//! forced early by a density heuristic when the selection drops below
//! `1/`[`SEL_COMPACT_DENOM`] of the underlying rows (at that point the
//! gather is cheap and every later pass would otherwise keep streaming
//! the sparse underlying columns). The scan gathers each column its
//! projection reads once, through the filter's selection. Policy details
//! in DESIGN.md §4.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use morsel_core::{Morsel, PipelineJob, TaskContext};
use morsel_storage::{Batch, Column, DataType};

use crate::charge::{self, ScanShape};
use crate::expr::Expr;
use crate::key::Rows;
use crate::predicate::Predicate;
use crate::sink::Sink;
use crate::source::InputSource;

/// Compact a selection when fewer than `1/SEL_COMPACT_DENOM` of the
/// underlying rows survive.
pub const SEL_COMPACT_DENOM: usize = 8;

/// A batch with an optional selection vector of surviving row indexes
/// (sorted ascending). `sel: None` means every row is live ("dense").
#[derive(Debug, Clone)]
pub struct SelBatch {
    pub batch: Batch,
    pub sel: Option<Vec<u32>>,
}

impl SelBatch {
    /// A fully dense batch.
    pub fn dense(batch: Batch) -> Self {
        SelBatch { batch, sel: None }
    }

    /// Number of *selected* rows.
    pub fn rows(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.batch.rows(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Kernel view of the live rows.
    pub fn rows_ref(&self) -> Rows<'_> {
        match &self.sel {
            Some(sel) => Rows::Sel(sel),
            None => Rows::Range(0, self.batch.rows()),
        }
    }

    /// Compact copy of the live rows, charging the gather. No-op (and no
    /// charge) when already dense.
    pub fn materialize(self, ctx: &mut TaskContext<'_>) -> Batch {
        match self.sel {
            None => self.batch,
            Some(sel) => {
                charge::materialize(sel.len() as f64, self.batch.width(), 0.0).book(ctx, &[]);
                self.batch.gather(&sel)
            }
        }
    }

    /// Apply the density heuristic: gather now if the selection became
    /// sparse, otherwise keep carrying the selection vector.
    pub fn compact_if_sparse(self, ctx: &mut TaskContext<'_>) -> SelBatch {
        match &self.sel {
            Some(sel) if sel.len() * SEL_COMPACT_DENOM < self.batch.rows() => {
                SelBatch::dense(self.materialize(ctx))
            }
            _ => self,
        }
    }
}

/// A batch-to-batch operator in a pipeline (probe, filter, map).
pub trait PipeOp: Send + Sync {
    fn apply(&self, ctx: &mut TaskContext<'_>, input: SelBatch) -> SelBatch;
    fn out_types(&self, input: &[DataType]) -> Vec<DataType>;
}

/// Filter rows of the working batch by a predicate: starts a selection
/// over a dense input, narrows the one it is given otherwise. No column is
/// copied unless the density heuristic decides the survivors are sparse
/// enough to gather.
pub struct FilterOp {
    predicate: Expr,
    /// The predicate compiled against the operator's input types, which
    /// the first batch brings.
    compiled: OnceLock<Predicate>,
}

impl FilterOp {
    pub fn new(predicate: Expr) -> Self {
        FilterOp {
            predicate,
            compiled: OnceLock::new(),
        }
    }
}

impl PipeOp for FilterOp {
    fn apply(&self, ctx: &mut TaskContext<'_>, input: SelBatch) -> SelBatch {
        let predicate = self.compiled.get_or_init(|| {
            let types: Vec<DataType> = input
                .batch
                .columns()
                .iter()
                .map(Column::data_type)
                .collect();
            Predicate::compile(&self.predicate, &types)
        });
        let underlying = input.batch.rows();
        let selected = input.sel.as_ref().map(|sel| sel.len() as f64);
        charge::filter(underlying as f64, selected, predicate.weight()).book(ctx, &[]);
        let sel = match input.sel {
            None => predicate.select(&input.batch, 0..underlying),
            Some(sel) => predicate.narrow(&input.batch, sel),
        };
        SelBatch {
            batch: input.batch,
            sel: Some(sel),
        }
        .compact_if_sparse(ctx)
    }

    fn out_types(&self, input: &[DataType]) -> Vec<DataType> {
        input.to_vec()
    }
}

/// Replace the working batch by evaluated expressions (projection).
/// Projections produce fresh dense columns, so the input is materialized
/// first (this is one of the deferred-gather points).
pub struct MapOp {
    pub exprs: Vec<Expr>,
}

impl PipeOp for MapOp {
    fn apply(&self, ctx: &mut TaskContext<'_>, input: SelBatch) -> SelBatch {
        let input = input.materialize(ctx);
        let weight: u32 = self.exprs.iter().map(Expr::weight).sum();
        charge::map(input.rows() as f64, weight).book(ctx, &[]);
        let cols: Vec<Column> = self
            .exprs
            .iter()
            .map(|e| e.eval(&input, 0..input.rows()).into_column())
            .collect();
        SelBatch::dense(Batch::from_columns(cols))
    }

    fn out_types(&self, input: &[DataType]) -> Vec<DataType> {
        self.exprs.iter().map(|e| e.result_type(input)).collect()
    }
}

/// How the scan produces one column of the working batch.
enum Project {
    /// Evaluate the expression (rewritten against the gathered columns).
    Eval(Expr),
    /// A bare reference: the gathered column itself, by move.
    Take(usize),
}

/// A complete executable pipeline.
pub struct ExecPipeline {
    source: Arc<dyn InputSource>,
    /// Filter over the *source* schema, applied during the scan.
    filter: Option<Predicate>,
    /// Projection over the source schema building the working batch.
    projection: Vec<Expr>,
    /// What the scan is charged for reading, gathering and evaluating.
    shape: ScanShape,
    /// Source columns the projection reads (sorted): what the scan
    /// gathers. The filter runs against the source batch in place.
    gathered: Vec<usize>,
    /// One step per projected column, over the gathered columns.
    steps: Vec<Project>,
    ops: Vec<Box<dyn PipeOp>>,
    sink: Box<dyn Sink>,
    /// Extra per-tuple CPU charged at the scan (Volcano exchange
    /// emulation; 0 for the morsel-driven engine).
    extra_scan_ns: f64,
    /// Profile slot of the scan's plan node (`None`: not profiled, e.g.
    /// a re-scan of an already-profiled breaker's output).
    scan_slot: Option<u32>,
    /// Profile slot per entry of `ops` (parallel vector).
    op_slots: Vec<Option<u32>>,
    /// Profile slot credited with the rows entering the sink and the time
    /// it spends consuming them (the breaker plan node the sink feeds:
    /// aggregation, sort, top-k).
    sink_slot: Option<u32>,
}

impl ExecPipeline {
    pub fn new(
        source: Arc<dyn InputSource>,
        filter: Option<Expr>,
        projection: Vec<Expr>,
        ops: Vec<Box<dyn PipeOp>>,
        sink: Box<dyn Sink>,
    ) -> Self {
        let src_types = source.types();
        let mut gathered = Vec::new();
        for p in &projection {
            p.referenced_cols(&mut gathered);
        }
        gathered.sort_unstable();
        let shape = ScanShape::of(filter.as_ref(), projection.iter(), &src_types);
        let mut map = vec![None; src_types.len()];
        for (new, &old) in gathered.iter().enumerate() {
            map[old] = Some(new);
        }
        // A bare reference takes its gathered column by move — unless it
        // is `I32` (evaluation widens it) or a later bare reference wants
        // the same column. Computed expressions are no obstacle: they are
        // all evaluated before any column moves.
        let steps = projection
            .iter()
            .enumerate()
            .map(|(i, p)| match p {
                Expr::Col(c)
                    if src_types[*c] != DataType::I32
                        && !projection[i + 1..]
                            .iter()
                            .any(|later| matches!(later, Expr::Col(l) if l == c)) =>
                {
                    Project::Take(map[*c].expect("projected column is gathered"))
                }
                computed => Project::Eval(computed.remap(&map)),
            })
            .collect();
        ExecPipeline {
            source,
            filter: filter.map(|f| Predicate::compile(&f, &src_types)),
            projection,
            shape,
            gathered,
            steps,
            ops,
            sink,
            extra_scan_ns: 0.0,
            scan_slot: None,
            op_slots: Vec::new(),
            sink_slot: None,
        }
    }

    /// Charge `ns` extra CPU per scanned tuple (baseline emulation knob).
    pub fn with_extra_scan_ns(mut self, ns: f64) -> Self {
        self.extra_scan_ns = ns;
        self
    }

    /// Attach per-operator profile slots (see [`morsel_core::ProfileSlots`]):
    /// one for the scan, one per pipeline op, and optionally one credited
    /// with the rows delivered to the sink. Recording is skipped entirely
    /// when the task's query carries no profile.
    pub fn with_profile(
        mut self,
        scan_slot: Option<u32>,
        op_slots: Vec<Option<u32>>,
        sink_slot: Option<u32>,
    ) -> Self {
        debug_assert_eq!(op_slots.len(), self.ops.len());
        self.scan_slot = scan_slot;
        self.op_slots = op_slots;
        self.sink_slot = sink_slot;
        self
    }

    /// Output types of the working batch after projection and all ops.
    pub fn output_types(&self) -> Vec<DataType> {
        let src = self.source.types();
        let mut t: Vec<DataType> = self
            .projection
            .iter()
            .map(|p| p.result_type(&src))
            .collect();
        for op in &self.ops {
            t = op.out_types(&t);
        }
        t
    }

    fn scan(&self, ctx: &mut TaskContext<'_>, chunk: usize, range: Range<usize>) -> Batch {
        let rows = range.len();
        let (node, pieces) = self.source.pieces(chunk, range);
        let shape = &self.shape;
        // Streaming read of the referenced columns from the chunk's node.
        let bytes: u64 = (pieces.iter())
            .flat_map(|(batch, r)| {
                (shape.used.iter()).map(|&c| batch.column(c).byte_size(r.start, r.end))
            })
            .sum();

        // The filter runs over each piece's source columns where they lie
        // and yields the selection every projected column is gathered
        // through, once, into the one working batch. A selection that
        // keeps every row of its piece (or no filter at all) takes the
        // contiguous memcpy path instead of an indexed gather.
        let sels: Vec<Option<Vec<u32>>> = (pieces.iter())
            .map(|(batch, r)| {
                let sel = self.filter.as_ref().map(|f| f.select(batch, r.clone()));
                sel.filter(|s| s.len() < r.len())
            })
            .collect();
        let kept: usize = (pieces.iter().zip(&sels))
            .map(|((_, r), sel)| sel.as_ref().map_or(r.len(), Vec::len))
            .sum();
        charge::scan(
            rows as f64,
            kept as f64,
            shape.used.len(),
            bytes as f64,
            shape.filter_weight,
            shape.projection_weight,
            self.extra_scan_ns,
        )
        .book(ctx, &[(node, bytes)]);
        let gather_one = |c: usize| -> Column {
            // `with_capacity_like` keeps dictionary columns encoded: the
            // scan moves 4-byte codes, never strings. A piece whose column
            // is plain or carries another dictionary decodes the column
            // as it is appended.
            let mut col = Column::with_capacity_like(pieces[0].0.column(c), kept);
            for ((batch, r), sel) in pieces.iter().zip(&sels) {
                let src = batch.column(c);
                match sel {
                    Some(sel) => col.extend_selected(src, sel),
                    None => col.extend_range(src, r.start, r.end),
                }
            }
            col
        };
        let compact = Batch::from_columns(self.gathered.iter().map(|&c| gather_one(c)).collect());

        // Projection to the working batch: evaluate what is computed
        // against the intact gathered batch, then move the bare column
        // references out of it.
        let mut computed = self
            .steps
            .iter()
            .filter_map(|step| match step {
                Project::Eval(e) => Some(e.eval(&compact, 0..kept).into_column()),
                Project::Take(_) => None,
            })
            .collect::<Vec<_>>()
            .into_iter();
        let mut gathered: Vec<Option<Column>> =
            compact.into_columns().into_iter().map(Some).collect();
        let out_cols = self
            .steps
            .iter()
            .map(|step| match step {
                Project::Eval(_) => computed.next().expect("one result per computed column"),
                Project::Take(g) => gathered[*g].take().expect("a column moves once"),
            })
            .collect();
        Batch::from_columns(out_cols)
    }

    /// Whether a scan filter is configured (diagnostics).
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }
}

impl PipelineJob for ExecPipeline {
    fn run_morsel(&self, ctx: &mut TaskContext<'_>, morsel: Morsel) {
        // Profiling is recorded at morsel boundaries into worker-local
        // slots; when the query carries no profile every call below is a
        // no-op and no clock is read.
        let profiling = ctx.profiling();
        let rows_in = morsel.range.len() as u64;
        let t0 = (profiling && self.scan_slot.is_some()).then(std::time::Instant::now);
        let mut working = SelBatch::dense(self.scan(ctx, morsel.chunk, morsel.range));
        if let (Some(slot), Some(t0)) = (self.scan_slot, t0) {
            ctx.prof_morsel(
                slot,
                rows_in,
                working.rows() as u64,
                t0.elapsed().as_nanos() as u64,
            );
        }
        for (i, op) in self.ops.iter().enumerate() {
            if working.is_empty() {
                break;
            }
            let slot = if profiling {
                self.op_slots.get(i).copied().flatten()
            } else {
                None
            };
            let t = slot.map(|_| std::time::Instant::now());
            let op_in = working.rows() as u64;
            working = op.apply(ctx, working);
            if let (Some(slot), Some(t)) = (slot, t) {
                ctx.prof_rows(
                    slot,
                    op_in,
                    working.rows() as u64,
                    t.elapsed().as_nanos() as u64,
                );
            }
        }
        // The sink's share of the morsel (pre-aggregation, run building,
        // the top-k heap) is credited to the breaker it feeds; a
        // build-side materialisation has no slot and stays uncredited.
        match self.sink_slot.filter(|_| profiling) {
            Some(slot) => {
                ctx.prof_rows_in(slot, working.rows() as u64);
                let t = std::time::Instant::now();
                self.sink.consume(ctx, working);
                ctx.prof_wall_ns(slot, t.elapsed().as_nanos() as u64);
            }
            None => self.sink.consume(ctx, working),
        }
    }

    fn finish(&self, ctx: &mut TaskContext<'_>) {
        self.sink.finish(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, gt, lit, mul};
    use crate::sink::{area_slot, MaterializeSink};
    use morsel_core::{result_slot, ExecEnv};
    use morsel_numa::{Placement, Topology};
    use morsel_storage::{PartitionBy, Relation, Schema};

    fn relation(n: i64) -> Arc<Relation> {
        let t = Topology::nehalem_ex();
        let data = Batch::from_columns(vec![
            Column::I64((0..n).collect()),
            Column::I64((0..n).map(|x| x * 2).collect()),
        ]);
        Arc::new(Relation::partitioned(
            Schema::new(vec![("a", DataType::I64), ("b", DataType::I64)]),
            &data,
            PartitionBy::Chunks,
            4,
            Placement::FirstTouch,
            &t,
        ))
    }

    #[test]
    fn scan_filter_project_materialize() {
        let env = ExecEnv::new(Topology::nehalem_ex());
        let rel = relation(100);
        let out = area_slot();
        let result = result_slot();
        let sink = MaterializeSink::new(
            Schema::new(vec![("a3", DataType::I64)]),
            &env.worker_sockets(1),
            out.clone(),
            Some(result.clone()),
        );
        let pipe = ExecPipeline::new(
            rel,
            Some(gt(col(0), lit(89))),
            vec![mul(col(0), lit(3))],
            vec![],
            Box::new(sink),
        );
        let mut ctx = TaskContext::new(&env, 0);
        // Run over all 4 partitions as whole-chunk morsels.
        for chunk in 0..4 {
            pipe.run_morsel(
                &mut ctx,
                Morsel {
                    chunk,
                    range: 0..25,
                },
            );
        }
        pipe.finish(&mut ctx);
        let mut got = result.lock().take().unwrap().column(0).as_i64().to_vec();
        got.sort_unstable();
        assert_eq!(got, (90..100).map(|x| x * 3).collect::<Vec<_>>());
        assert!(pipe.has_filter());
        // Only column "a" is referenced: 25 rows * 8 bytes per chunk read.
        let snap = env.counters().snapshot();
        assert_eq!(snap.total_read(), 4 * 25 * 8);
    }

    /// Run `projection` (under `filter`) over one 8-row chunk of
    /// `a: I64 = 0..8`, `d: I32 = 10·a`, `b: I64 = 2·a`.
    fn scan_once(filter: Option<Expr>, projection: Vec<Expr>) -> Batch {
        let t = Topology::laptop();
        let data = Batch::from_columns(vec![
            Column::I64((0..8).collect()),
            Column::I32((0..8).map(|x| x * 10).collect()),
            Column::I64((0..8).map(|x| x * 2).collect()),
        ]);
        let rel = Arc::new(Relation::partitioned(
            Schema::new(vec![
                ("a", DataType::I64),
                ("d", DataType::I32),
                ("b", DataType::I64),
            ]),
            &data,
            PartitionBy::Chunks,
            1,
            Placement::FirstTouch,
            &t,
        ));
        let env = ExecEnv::new(t);
        let pipe = ExecPipeline::new(rel, filter, projection, vec![], Box::new(NullSink));
        pipe.scan(&mut TaskContext::new(&env, 0), 0, 0..8)
    }

    #[test]
    fn scan_moves_a_column_only_after_its_last_reader() {
        use crate::expr::add;
        // A repeated column: the computed sibling and the earlier bare
        // reference both still see it; only the last bare one moves it.
        for filter in [None, Some(gt(col(0), lit(2)))] {
            let kept: Vec<i64> = if filter.is_some() {
                (3..8).collect()
            } else {
                (0..8).collect()
            };
            let out = scan_once(
                filter,
                vec![col(0), add(col(0), lit(1)), col(0), mul(col(2), col(0))],
            );
            assert_eq!(out.width(), 4);
            assert_eq!(out.column(0).as_i64(), &kept[..]);
            let plus_one: Vec<i64> = kept.iter().map(|x| x + 1).collect();
            assert_eq!(out.column(1).as_i64(), &plus_one[..]);
            assert_eq!(out.column(2).as_i64(), &kept[..]);
            let squares: Vec<i64> = kept.iter().map(|x| 2 * x * x).collect();
            assert_eq!(out.column(3).as_i64(), &squares[..]);
        }
    }

    #[test]
    fn scan_mixing_i32_and_i64_columns_widens_the_i32_ones() {
        // The filter reads a column the projection does not: it is not
        // gathered, and the projected ones come out in projection order.
        let out = scan_once(Some(gt(col(2), lit(9))), vec![col(1), col(0), col(1)]);
        assert_eq!(out.column(0).as_i64(), &[50, 60, 70]);
        assert_eq!(out.column(1).as_i64(), &[5, 6, 7]);
        assert_eq!(out.column(2).as_i64(), &[50, 60, 70]);
        // A projection of constants alone keeps the row count.
        let ones = scan_once(Some(gt(col(2), lit(9))), vec![lit(1)]);
        assert_eq!(ones.column(0).as_i64(), &[1, 1, 1]);
    }

    #[test]
    fn scan_charges_follow_the_referenced_columns_not_the_gathered_ones() {
        // Filter on `b`, project `a`: the model reads and gathers both
        // (16 bytes a row in, 2 gathers a kept row), charges the
        // predicate's three nodes per row and the projection's one node
        // per kept row — although only `a` is physically gathered.
        let env = ExecEnv::new(Topology::nehalem_ex());
        let rel = relation(100);
        let pipe = ExecPipeline::new(
            rel,
            Some(gt(col(1), lit(149))),
            vec![col(0)],
            vec![],
            Box::new(NullSink),
        );
        let mut ctx = TaskContext::new(&env, 0);
        let out = pipe.scan(&mut ctx, 3, 0..25);
        assert_eq!(out.column(0).as_i64(), &(75..100).collect::<Vec<_>>()[..]);
        let want = 25.0 * 3.0 * charge::EXPR_NODE_NS
            + 25.0 * 2.0 * charge::GATHER_NS
            + 25.0 * charge::EXPR_NODE_NS;
        let got = ctx.profile().cpu_ns;
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        assert_eq!(env.counters().snapshot().total_read(), 25 * 16);
    }

    /// `rel`'s scan of chunk `chunk`, rows `range`, under `filter` and
    /// `projection`: the working batch, the CPU it was charged and the
    /// bytes it read.
    fn scan_of(
        rel: Arc<Relation>,
        filter: Option<Expr>,
        projection: Vec<Expr>,
        chunk: usize,
        range: Range<usize>,
    ) -> (Batch, f64, u64) {
        let env = ExecEnv::new(Topology::nehalem_ex());
        let pipe = ExecPipeline::new(rel, filter, projection, vec![], Box::new(NullSink));
        let mut ctx = TaskContext::new(&env, 0);
        let out = pipe.scan(&mut ctx, chunk, range);
        let cpu_ns = ctx.profile().cpu_ns;
        (out, cpu_ns, env.counters().snapshot().total_read())
    }

    #[test]
    fn a_one_partition_chunk_scans_as_its_partition() {
        // Four partitions on four nodes: every chunk of the grouped view
        // is one partition, and scanning it is scanning that partition.
        let rel = relation(100);
        let grouped = Arc::new(rel.grouped());
        assert_eq!(grouped.chunk_count(), 4);
        let filter = || Some(gt(col(1), lit(90)));
        let projection = || vec![col(0), mul(col(1), lit(3))];
        for chunk in 0..4 {
            let (got, want) = (
                scan_of(Arc::clone(&grouped), filter(), projection(), chunk, 3..22),
                scan_of(Arc::clone(&rel), filter(), projection(), chunk, 3..22),
            );
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    #[test]
    fn a_grouped_chunk_gathers_every_piece_into_one_working_batch() {
        // Four 25-row partitions on one node: one chunk of 100 rows. A
        // range straddling all four filters each piece in place and
        // charges what scanning the pieces one by one charges.
        let data = Batch::from_columns(vec![
            Column::I64((0..100).collect()),
            Column::I64((0..100).map(|x| x * 2).collect()),
        ]);
        let rel = Arc::new(Relation::partitioned(
            Schema::new(vec![("a", DataType::I64), ("b", DataType::I64)]),
            &data,
            PartitionBy::Chunks,
            4,
            Placement::FirstTouch,
            &Topology::laptop(),
        ));
        let grouped = Arc::new(rel.grouped());
        assert_eq!(grouped.chunk_meta().len(), 1);
        let filter = || Some(gt(col(1), lit(40)));
        let projection = || vec![mul(col(0), lit(3)), col(1)];
        let (out, cpu_ns, read) = scan_of(grouped, filter(), projection(), 0, 10..90);
        assert_eq!(
            out.column(0).as_i64(),
            &(21..90).map(|x| 3 * x).collect::<Vec<_>>()[..]
        );
        assert_eq!(
            out.column(1).as_i64(),
            &(21..90).map(|x| 2 * x).collect::<Vec<_>>()[..]
        );
        let pieces = [(0, 10..25), (1, 0..25), (2, 0..25), (3, 0..15)];
        let (mut want_ns, mut want_read) = (0.0, 0);
        for (chunk, range) in pieces {
            let (_, ns, read) = scan_of(Arc::clone(&rel), filter(), projection(), chunk, range);
            want_ns += ns;
            want_read += read;
        }
        assert!((cpu_ns - want_ns).abs() < 1e-6, "{cpu_ns} vs {want_ns}");
        assert_eq!(read, want_read);
    }

    #[test]
    fn a_grouped_chunk_decodes_pieces_of_other_dictionaries_and_plain_pieces() {
        use morsel_numa::SocketId;
        use morsel_storage::{encode_fragments, Partition};
        let strs = |v: &[&str]| Column::Str(v.iter().copied().collect());
        let encoded = |v: &[&str]| encode_fragments(&[&strs(v)]).unwrap().1.remove(0);
        let schema = Schema::new(vec![("k", DataType::I64), ("s", DataType::Str)]);
        let part = |from: i64, s: Column| {
            let k = Column::I64((from..from + s.len() as i64).collect());
            Partition::new(SocketId(0), Batch::from_columns(vec![k, s]))
        };
        // Each string column in its own dictionary, then a plain one among
        // dictionary ones, then a plain one first.
        let layouts = [
            vec![
                encoded(&["x", "y"]),
                encoded(&["z", "y"]),
                encoded(&["w", "x"]),
            ],
            vec![
                encoded(&["x", "y"]),
                strs(&["z", "y"]),
                encoded(&["w", "x"]),
            ],
            vec![
                strs(&["x", "y"]),
                encoded(&["z", "y"]),
                encoded(&["w", "x"]),
            ],
        ];
        for columns in layouts {
            let parts = (columns.into_iter().enumerate())
                .map(|(i, s)| part(2 * i as i64, s))
                .collect();
            let rel = Relation::from_partitions(schema.clone(), parts).grouped();
            assert_eq!(rel.chunk_count(), 1);
            for (filter, want) in [
                (None, &["y", "z", "y", "w", "x"][..]),
                (Some(gt(col(0), lit(2))), &["y", "w", "x"][..]),
            ] {
                let (out, _, _) = scan_of(Arc::new(rel.clone()), filter, vec![col(1)], 0, 1..6);
                assert_eq!(out.decoded().column(0), &strs(want));
            }
        }
    }

    #[test]
    fn filter_op_and_map_op_chain() {
        let env = ExecEnv::new(Topology::laptop());
        let mut ctx = TaskContext::new(&env, 0);
        let input = SelBatch::dense(Batch::from_columns(vec![Column::I64(vec![1, 2, 3, 4])]));
        let f = FilterOp::new(gt(col(0), lit(2)));
        let out = f.apply(&mut ctx, input);
        // Half the rows survive: dense enough to stay a selection vector.
        assert_eq!(out.sel.as_deref(), Some(&[2u32, 3][..]));
        assert_eq!(out.rows(), 2);
        let m = MapOp {
            exprs: vec![mul(col(0), lit(10))],
        };
        let out2 = m.apply(&mut ctx, out);
        assert!(out2.sel.is_none());
        assert_eq!(out2.batch.column(0).as_i64(), &[30, 40]);
        assert_eq!(m.out_types(&[DataType::I64]), vec![DataType::I64]);
        assert_eq!(f.out_types(&[DataType::I64]), vec![DataType::I64]);
    }

    #[test]
    fn filter_charge_depends_on_the_density_of_its_input() {
        // The model's three cases (no selection, dense-ish, sparse); the
        // kernels run the same cascade in all of them.
        let env = ExecEnv::new(Topology::laptop());
        let batch = Batch::from_columns(vec![Column::I64((0..100).collect())]);
        let f = FilterOp::new(gt(col(0), lit(-1)));
        let per_row = 3.0 * charge::EXPR_NODE_NS;
        for (sel, want) in [
            (None, 100.0 * per_row),
            (Some((0..50).collect::<Vec<u32>>()), 100.0 * per_row),
            (
                Some((0..49).collect::<Vec<u32>>()),
                49.0 * (per_row + charge::GATHER_NS),
            ),
        ] {
            let mut ctx = TaskContext::new(&env, 0);
            let rows = sel.as_ref().map_or(100, Vec::len);
            let out = f.apply(
                &mut ctx,
                SelBatch {
                    batch: batch.clone(),
                    sel,
                },
            );
            assert_eq!(out.rows(), rows);
            let got = ctx.profile().cpu_ns;
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn chained_filters_intersect_selections() {
        let env = ExecEnv::new(Topology::laptop());
        let mut ctx = TaskContext::new(&env, 0);
        let input = SelBatch::dense(Batch::from_columns(vec![Column::I64((0..16).collect())]));
        let f1 = FilterOp::new(gt(col(0), lit(3)));
        let f2 = FilterOp::new(gt(col(0), lit(11)));
        let mid = f1.apply(&mut ctx, input);
        let out = f2.apply(&mut ctx, mid);
        // 4/16 survivors sits above the 1/8 compaction bound: stays a
        // selection vector.
        assert_eq!(out.sel.as_deref(), Some(&[12u32, 13, 14, 15][..]));
        let got = out.materialize(&mut ctx);
        assert_eq!(got.column(0).as_i64(), &[12, 13, 14, 15]);
    }

    #[test]
    fn sparse_selection_compacts_eagerly() {
        let env = ExecEnv::new(Topology::laptop());
        let mut ctx = TaskContext::new(&env, 0);
        let input = SelBatch::dense(Batch::from_columns(vec![Column::I64((0..100).collect())]));
        let f = FilterOp::new(gt(col(0), lit(95)));
        let out = f.apply(&mut ctx, input);
        // 4/100 < 1/8: the heuristic gathers immediately.
        assert!(out.sel.is_none());
        assert_eq!(out.batch.column(0).as_i64(), &[96, 97, 98, 99]);
    }

    #[test]
    fn output_types_through_chain() {
        let rel = relation(10);
        let pipe = ExecPipeline::new(
            rel,
            None,
            vec![col(0), mul(col(1), lit(2))],
            vec![Box::new(FilterOp::new(gt(col(0), lit(0))))],
            Box::new(NullSink),
        );
        assert_eq!(pipe.output_types(), vec![DataType::I64, DataType::I64]);
    }

    struct NullSink;
    impl Sink for NullSink {
        fn consume(&self, _ctx: &mut TaskContext<'_>, _b: SelBatch) {}
        fn finish(&self, _ctx: &mut TaskContext<'_>) {}
    }
}
