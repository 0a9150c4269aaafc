//! Two-phase parallel aggregation (paper Section 4.4, Figure 8).
//!
//! Phase 1 runs as a pipeline sink: each worker pre-aggregates heavy
//! hitters in a small fixed-size thread-local table; when the table fills
//! up on a new key, it is flushed to hash-partitioned overflow buffers
//! (partitioned by the *high* bits of the group hash). Phase 2 is a
//! separate pipeline job whose chunks are the partitions: each worker
//! exclusively aggregates whole partitions into a local table and emits
//! result tuples immediately (cache-friendly handoff).
//!
//! Unlike the join, aggregation only produces output after consuming all
//! input, so partitioning costs nothing in pipelining (Section 4.4's
//! closing remark).

use std::sync::Arc;

use morsel_core::{Morsel, PipelineJob, ResultSlot, TaskContext};
use morsel_numa::SocketId;
use morsel_storage::{AreaSet, Batch, Column, DataType, Encoding, Schema, StorageArea};
use parking_lot::Mutex;

use crate::charge;
use crate::key::{for_each_row, FxHashSet, KeyLayout, Keys, Rows};
use crate::pipeline::SelBatch;
use crate::sink::{AreaSlot, Sink};

/// Number of overflow partitions ("more partitions than worker threads",
/// Section 4.4 — 64 matches the paper's largest thread count).
pub const N_PARTITIONS: usize = 64;

/// Pre-aggregation table capacity per worker (fits in L2).
pub const PREAGG_CAPACITY: usize = 4096;

/// An aggregate function over the working batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// `count(*)`.
    Count,
    /// `sum` of an integer (fixed-point) column.
    SumI64(usize),
    /// `sum` of a float column.
    SumF64(usize),
    MinI64(usize),
    MaxI64(usize),
    /// `avg` of an integer column, emitted as `f64`.
    AvgI64(usize),
    /// `count(distinct col)` of an integer column.
    CountDistinctI64(usize),
}

impl AggFn {
    pub fn output_type(&self) -> DataType {
        match self {
            AggFn::Count | AggFn::SumI64(_) | AggFn::MinI64(_) | AggFn::MaxI64(_) => DataType::I64,
            AggFn::SumF64(_) | AggFn::AvgI64(_) => DataType::F64,
            AggFn::CountDistinctI64(_) => DataType::I64,
        }
    }
}

/// What one lane of aggregate state accumulates. An aggregate reads one
/// lane — `avg` a sum lane and a count lane — and aggregates that
/// accumulate the same thing share it: `sum(x)`, `avg(x)`, `avg(y)` and
/// `count(*)` are four lanes, not six.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneOp {
    Count,
    Sum(usize),
    SumF64(usize),
    Min(usize),
    Max(usize),
    Distinct(usize),
}

/// The distinct lanes `aggs` need and, per aggregate, the two lanes it
/// reads (the second is the count of an `avg`, else the first again).
fn lane_ops(aggs: &[AggFn]) -> (Vec<LaneOp>, Vec<(usize, usize)>) {
    let mut ops = Vec::with_capacity(aggs.len() + 1);
    let mut lane = |op: LaneOp| {
        ops.iter().position(|o| *o == op).unwrap_or_else(|| {
            ops.push(op);
            ops.len() - 1
        })
    };
    let of_agg = aggs
        .iter()
        .map(|f| {
            let first = lane(match *f {
                AggFn::Count => LaneOp::Count,
                AggFn::SumI64(c) | AggFn::AvgI64(c) => LaneOp::Sum(c),
                AggFn::SumF64(c) => LaneOp::SumF64(c),
                AggFn::MinI64(c) => LaneOp::Min(c),
                AggFn::MaxI64(c) => LaneOp::Max(c),
                AggFn::CountDistinctI64(c) => LaneOp::Distinct(c),
            });
            match f {
                AggFn::AvgI64(_) => (first, lane(LaneOp::Count)),
                _ => (first, first),
            }
        })
        .collect();
    (ops, of_agg)
}

/// The state of one [`LaneOp`] for a run of groups, indexed by group.
enum Lane {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Set(Vec<FxHashSet<i64>>),
}

impl Lane {
    fn new(op: LaneOp) -> Lane {
        match op {
            LaneOp::SumF64(_) => Lane::F64(Vec::new()),
            LaneOp::Distinct(_) => Lane::Set(Vec::new()),
            _ => Lane::I64(Vec::new()),
        }
    }

    /// Give every group up to `n` a state, new ones the identity of `op`.
    fn grow(&mut self, op: LaneOp, n: usize) {
        match (self, op) {
            (Lane::I64(v), LaneOp::Min(_)) => v.resize(n, i64::MAX),
            (Lane::I64(v), LaneOp::Max(_)) => v.resize(n, i64::MIN),
            (Lane::I64(v), _) => v.resize(n, 0),
            (Lane::F64(v), _) => v.resize(n, 0.0),
            (Lane::Set(v), _) => v.resize_with(n, FxHashSet::default),
        }
    }
}

/// Run `f(group, value)` over an integer column's rows: the column is
/// matched once, the loop body is `f` inlined.
#[inline(always)]
fn fold_ints(col: &Column, rows: Rows<'_>, group_of: &[u32], mut f: impl FnMut(usize, i64)) {
    match col {
        Column::I64(v) => for_each_row!(rows, i, r, f(group_of[i] as usize, v[r])),
        Column::I32(v) => for_each_row!(rows, i, r, f(group_of[i] as usize, i64::from(v[r]))),
        other => panic!("expected integer column, got {:?}", other.data_type()),
    }
}

/// Phase-1 update: one typed pass per lane over `rows` of `batch`, whose
/// `i`-th row belongs to group `group_of[i]`.
fn update_lanes(
    ops: &[LaneOp],
    lanes: &mut [Lane],
    batch: &Batch,
    rows: Rows<'_>,
    group_of: &[u32],
) {
    debug_assert_eq!(rows.len(), group_of.len());
    // Sums over `i64` columns, the common case, share one pass: a row's
    // position and group are read once and the lanes' read-modify-write
    // chains overlap instead of queueing up behind one another.
    let mut sums: Vec<(&mut [i64], &[i64])> = Vec::new();
    for (op, lane) in ops.iter().zip(lanes) {
        match (*op, lane) {
            (LaneOp::Count, Lane::I64(s)) => {
                for &g in group_of {
                    s[g as usize] += 1;
                }
            }
            (LaneOp::Sum(c), Lane::I64(s)) => match batch.column(c) {
                Column::I64(v) => sums.push((s, v)),
                col => fold_ints(col, rows, group_of, |g, x| s[g] += x),
            },
            (LaneOp::Min(c), Lane::I64(s)) => {
                fold_ints(batch.column(c), rows, group_of, |g, x| s[g] = s[g].min(x))
            }
            (LaneOp::Max(c), Lane::I64(s)) => {
                fold_ints(batch.column(c), rows, group_of, |g, x| s[g] = s[g].max(x))
            }
            (LaneOp::SumF64(c), Lane::F64(s)) => {
                let v = batch.column(c).as_f64();
                for_each_row!(rows, i, r, s[group_of[i] as usize] += v[r]);
            }
            (LaneOp::Distinct(c), Lane::Set(s)) => {
                fold_ints(batch.column(c), rows, group_of, |g, x| {
                    s[g].insert(x);
                })
            }
            _ => unreachable!("a lane is built from its op"),
        }
    }
    if !sums.is_empty() {
        for_each_row!(rows, i, r, {
            let g = group_of[i] as usize;
            for (s, v) in &mut sums {
                s[g] += v[r];
            }
        });
    }
}

/// Phase-2 merge: fold the partial states `src` (entry `i` belongs to
/// group `group_of[i]`) into `dst`, one typed pass per lane.
fn merge_lanes(ops: &[LaneOp], dst: &mut [Lane], src: Vec<Lane>, group_of: &[u32]) {
    for ((op, dst), src) in ops.iter().zip(dst).zip(src) {
        let groups = group_of.iter().map(|&g| g as usize);
        match (*op, dst, src) {
            (LaneOp::Count | LaneOp::Sum(_), Lane::I64(d), Lane::I64(s)) => {
                groups.zip(s).for_each(|(g, x)| d[g] += x)
            }
            (LaneOp::Min(_), Lane::I64(d), Lane::I64(s)) => {
                groups.zip(s).for_each(|(g, x)| d[g] = d[g].min(x))
            }
            (LaneOp::Max(_), Lane::I64(d), Lane::I64(s)) => {
                groups.zip(s).for_each(|(g, x)| d[g] = d[g].max(x))
            }
            (LaneOp::SumF64(_), Lane::F64(d), Lane::F64(s)) => {
                groups.zip(s).for_each(|(g, x)| d[g] += x)
            }
            (LaneOp::Distinct(_), Lane::Set(d), Lane::Set(s)) => {
                groups.zip(s).for_each(|(g, set)| {
                    if d[g].is_empty() {
                        d[g] = set;
                    } else {
                        d[g].extend(set);
                    }
                })
            }
            _ => unreachable!("a lane is built from its op"),
        }
    }
}

/// The result columns of `aggs`, each from the lanes `of_agg` names.
fn emit_lanes(aggs: &[AggFn], of_agg: &[(usize, usize)], lanes: &[Lane]) -> Vec<Column> {
    let avg = |(s, c): (&i64, &i64)| if *c == 0 { 0.0 } else { *s as f64 / *c as f64 };
    let columns = aggs.iter().zip(of_agg);
    let columns = columns.map(|(f, &(a, b))| match (f, &lanes[a], &lanes[b]) {
        (AggFn::AvgI64(_), Lane::I64(sums), Lane::I64(counts)) => {
            Column::F64(sums.iter().zip(counts).map(avg).collect())
        }
        (AggFn::CountDistinctI64(_), Lane::Set(sets), _) => {
            Column::I64(sets.iter().map(|s| s.len() as i64).collect())
        }
        (AggFn::SumF64(_), Lane::F64(v), _) => Column::F64(v.clone()),
        (_, Lane::I64(v), _) => Column::I64(v.clone()),
        _ => unreachable!("{f:?} reads the lanes it was given"),
    });
    columns.collect()
}

/// A columnar run of groups — the contents of a pre-aggregation table, a
/// spill fragment, or a merged partition: group `i` has hash `hashes[i]`,
/// key `i` of `keys` and state `i` of every lane.
#[derive(Default)]
struct Groups {
    hashes: Vec<u64>,
    keys: Keys,
    lanes: Vec<Lane>,
}

impl Groups {
    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Approximate bytes of the entries (keys + one 16-byte state per
    /// aggregate), for traffic accounting.
    fn entry_bytes(&self, layout: &KeyLayout, n_aggs: usize) -> u64 {
        layout.charged_bytes(&self.keys, self.len(), n_aggs)
    }
}

/// The spill partition of a group: the high bits of its hash (the table
/// directories index with the low bits).
#[inline]
fn partition_of(hash: u64) -> usize {
    (hash >> (64 - N_PARTITIONS.trailing_zeros())) as usize
}

/// Groups in a table before a batch is worth testing for clustered keys.
const CLUSTER_MIN_GROUPS: usize = 64;

/// High half of a directory word: the hash bits a probe compares before
/// it looks at a key.
const TAG: u64 = 0xffff_ffff_0000_0000;

/// The one group table: an open-addressing directory over a dense run of
/// groups, probed with precomputed hashes. Phase 1 bounds it at the
/// pre-aggregation capacity and spills it when a new key arrives at a
/// full table; phase 2 sizes it for a whole partition.
struct GroupTable {
    /// 0 = empty, else `hash & TAG | group index + 1`; at most half full.
    dir: Vec<u64>,
    groups: Groups,
    /// Distinct keys before a spill is forced.
    capacity: usize,
    /// The group of every key of the last [`Self::upsert`].
    group_of: Vec<u32>,
}

impl GroupTable {
    fn new(expected: usize, capacity: usize, ops: &[LaneOp]) -> Self {
        GroupTable {
            dir: vec![0; (expected.max(1) * 2).next_power_of_two()],
            groups: Groups {
                lanes: ops.iter().map(|&op| Lane::new(op)).collect(),
                ..Groups::default()
            },
            capacity,
            group_of: Vec::new(),
        }
    }

    /// Find or insert keys `from..` of a run, leaving each one's group in
    /// `group_of`, and give new groups their identity states. Stops early
    /// — returning the position — at a new key that finds the table full;
    /// the caller spills and resumes from there. `clustered`: try a row
    /// against the key of the row before it first.
    fn upsert(
        &mut self,
        layout: &KeyLayout,
        ops: &[LaneOp],
        hashes: &[u64],
        keys: &Keys,
        from: usize,
        clustered: bool,
    ) -> usize {
        self.group_of.clear();
        let stop = if layout.inline {
            self.probe::<true>(hashes, keys, from, clustered)
        } else {
            self.probe::<false>(hashes, keys, from, clustered)
        };
        let n = self.groups.len();
        for (lane, &op) in self.groups.lanes.iter_mut().zip(ops) {
            lane.grow(op, n);
        }
        stop
    }

    /// The probe loop of [`Self::upsert`], once per key representation.
    fn probe<const INLINE: bool>(
        &mut self,
        hashes: &[u64],
        keys: &Keys,
        from: usize,
        clustered: bool,
    ) -> usize {
        let mask = self.dir.len() - 1;
        let (groups, group_of) = (&mut self.groups, &mut self.group_of);
        let mut group = 0;
        for i in from..hashes.len() {
            let h = hashes[i];
            if clustered && i > from && h == hashes[i - 1] && keys.eq_at::<INLINE>(i, keys, i - 1) {
                group_of.push(group);
                continue;
            }
            let mut slot = h as usize & mask;
            group = loop {
                let word = self.dir[slot];
                if word == 0 {
                    if groups.len() >= self.capacity {
                        return i;
                    }
                    let g = groups.len() as u32;
                    self.dir[slot] = h & TAG | u64::from(g + 1);
                    groups.hashes.push(h);
                    groups.keys.push_from(keys, i);
                    break g;
                }
                let g = word as u32 - 1;
                if word & TAG == h & TAG && groups.keys.eq_at::<INLINE>(g as usize, keys, i) {
                    break g;
                }
                slot = (slot + 1) & mask;
            };
            group_of.push(group);
        }
        hashes.len()
    }

    /// Move every group into its partition's fragment, column by column,
    /// and empty the table; returns the bytes the model charges.
    fn spill(
        &mut self,
        layout: &KeyLayout,
        ops: &[LaneOp],
        n_aggs: usize,
        fragments: &mut [Groups],
    ) -> u64 {
        if self.groups.len() == 0 {
            return 0;
        }
        let bytes = self.groups.entry_bytes(layout, n_aggs);
        let Groups {
            hashes,
            keys,
            lanes,
        } = &mut self.groups;
        for (i, &h) in hashes.iter().enumerate() {
            let f = &mut fragments[partition_of(h)];
            if f.lanes.is_empty() {
                f.lanes = ops.iter().map(|&op| Lane::new(op)).collect();
            }
            f.hashes.push(h);
            f.keys.push_from(keys, i);
        }
        for (l, lane) in lanes.iter_mut().enumerate() {
            macro_rules! scatter {
                ($kind:ident, $v:ident) => {
                    for (x, &h) in $v.drain(..).zip(hashes.iter()) {
                        match &mut fragments[partition_of(h)].lanes[l] {
                            Lane::$kind(to) => to.push(x),
                            _ => unreachable!("fragments share the table's lanes"),
                        }
                    }
                };
            }
            match lane {
                Lane::I64(v) => scatter!(I64, v),
                Lane::F64(v) => scatter!(F64, v),
                Lane::Set(v) => scatter!(Set, v),
            }
        }
        hashes.clear();
        keys.clear();
        self.dir.fill(0);
        bytes
    }
}

/// Per-worker phase-1 state, allocated on the worker's first batch: the
/// pre-aggregation table, one spill fragment per partition, and the
/// scratch columns every morsel reuses.
struct WorkerAgg {
    table: GroupTable,
    spill: Vec<Groups>,
    hashes: Vec<u64>,
    keys: Keys,
}

/// Output of phase 1: per partition, fragments tagged with the node of
/// the worker that produced them. Each partition is consumed exclusively
/// by one phase-2 morsel, which *takes* the fragments (no entry cloning);
/// the mutex only guards that single handoff.
pub struct AggPartitions {
    /// `parts[p]` = list of (node, fragment).
    parts: Vec<Vec<(SocketId, Mutex<Groups>)>>,
    /// Entries per partition, counted at the handoff.
    rows: Vec<usize>,
    /// The key layout phase 1 compiled.
    layout: Arc<KeyLayout>,
}

impl AggPartitions {
    pub fn partition_rows(&self, p: usize) -> usize {
        self.rows[p]
    }
}

/// Shared slot between phase 1 and phase 2.
pub type AggSlot = Arc<Mutex<Option<Arc<AggPartitions>>>>;

pub fn agg_slot() -> AggSlot {
    Arc::new(Mutex::new(None))
}

/// Phase-1 sink: thread-local pre-aggregation with overflow partitioning.
pub struct AggPartialSink {
    group_cols: Vec<usize>,
    aggs: Vec<AggFn>,
    ops: Vec<LaneOp>,
    workers: Vec<Mutex<Option<WorkerAgg>>>,
    worker_nodes: Vec<SocketId>,
    out: AggSlot,
    capacity: usize,
    /// Compiled from the group columns' types and encodings.
    layout: Arc<KeyLayout>,
    /// Profile slot of the aggregation plan node (credited with spill
    /// fragments and the final flush).
    prof_slot: Option<u32>,
}

impl AggPartialSink {
    /// Group the input, whose columns are of `types` stored in
    /// `encodings`, by `group_cols`: the group key is compiled here, from
    /// the group columns' types and encodings.
    pub fn new(
        group_cols: Vec<usize>,
        aggs: Vec<AggFn>,
        types: &[DataType],
        encodings: &[Encoding],
        worker_nodes: &[SocketId],
        out: AggSlot,
    ) -> Self {
        assert_eq!(types.len(), encodings.len(), "one encoding per column");
        let (key_types, key_encodings): (Vec<DataType>, Vec<Encoding>) = (group_cols.iter())
            .map(|&c| (types[c], encodings[c].clone()))
            .unzip();
        AggPartialSink {
            layout: Arc::new(KeyLayout::new(&key_types, &key_encodings)),
            group_cols,
            ops: lane_ops(&aggs).0,
            aggs,
            workers: worker_nodes.iter().map(|_| Mutex::new(None)).collect(),
            worker_nodes: worker_nodes.to_vec(),
            out,
            capacity: PREAGG_CAPACITY,
            prof_slot: None,
        }
    }

    /// Hold at most `capacity` groups per worker before spilling (tests
    /// force spills with a small one).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Credit spill fragments and the final flush to the given profile
    /// slot.
    pub fn with_prof_slot(mut self, slot: Option<u32>) -> Self {
        self.prof_slot = slot;
        self
    }

    /// Aggregate one batch into the worker's table: keys and hashes
    /// column-at-a-time, then per flush-free segment one probe pass and
    /// one typed update pass per lane. Returns the bytes spilled.
    fn absorb(&self, w: &mut WorkerAgg, input: &SelBatch) -> u64 {
        let (layout, batch, rows) = (&*self.layout, &input.batch, input.rows_ref());
        let (ops, n_aggs) = (self.ops.as_slice(), self.aggs.len());
        layout.extract(batch, &self.group_cols, rows, &mut w.hashes, &mut w.keys);
        // Clustered input (TPC-H Q18's `l_orderkey`): a row with the key of
        // the row before it skips the probe. Tried where at least half the
        // neighbours share their hash — otherwise the test is a coin flip
        // the branch predictor loses — and the table has outgrown a handful
        // of cache lines, below which a probe costs no more than the
        // mispredictions the test brings even then (Q1's six groups).
        let same = w.hashes.windows(2).filter(|p| p[0] == p[1]).count();
        let clustered = w.table.groups.len() >= CLUSTER_MIN_GROUPS && same * 2 >= rows.len();
        let (mut seg, mut spilled) = (0, 0);
        loop {
            let table = &mut w.table;
            let stop = table.upsert(layout, ops, &w.hashes, &w.keys, seg, clustered);
            let (lanes, segment) = (&mut table.groups.lanes, rows.slice(seg..stop));
            update_lanes(ops, lanes, batch, segment, &table.group_of);
            if stop == rows.len() {
                return spilled;
            }
            // Full on a new key (paper Figure 8, "spill when ht becomes
            // full"): the segment's updates are in, so the whole table
            // goes to the overflow partitions and the key starts afresh.
            spilled += w.table.spill(layout, ops, n_aggs, &mut w.spill);
            seg = stop;
        }
    }
}

impl Sink for AggPartialSink {
    fn consume(&self, ctx: &mut TaskContext<'_>, input: SelBatch) {
        if input.is_empty() {
            return;
        }
        let mut w = self.workers[ctx.worker].lock();
        let w = w.get_or_insert_with(|| WorkerAgg {
            table: GroupTable::new(self.capacity, self.capacity, &self.ops),
            spill: (0..N_PARTITIONS).map(|_| Groups::default()).collect(),
            hashes: Vec::new(),
            keys: Keys::default(),
        });
        let spilled_bytes = self.absorb(w, &input);
        if spilled_bytes > 0 {
            if let Some(slot) = self.prof_slot {
                ctx.prof_fragments(slot, 1);
            }
            // Spill fragments are the unbounded part of pre-aggregation
            // state (the pre-agg tables themselves are capacity-bounded):
            // charge them to the query's budget. Accounting trails the
            // append by one morsel at most — refusal fails the query and
            // execution stops at this morsel boundary.
            let _ = ctx.try_reserve(spilled_bytes);
        }
        charge::agg_update(input.rows() as f64, self.aggs.len(), spilled_bytes as f64)
            .book(ctx, &[]);
    }

    fn finish(&self, ctx: &mut TaskContext<'_>) {
        let prof = self.prof_slot.filter(|_| ctx.profiling());
        let t0 = prof.map(|_| std::time::Instant::now());
        let layout = &self.layout;
        let mut parts: Vec<Vec<(SocketId, Mutex<Groups>)>> =
            (0..N_PARTITIONS).map(|_| Vec::new()).collect();
        let mut rows = vec![0; N_PARTITIONS];
        let mut bytes = 0;
        for (w, &node) in self.workers.iter().zip(&self.worker_nodes) {
            let Some(mut w) = w.lock().take() else {
                continue;
            };
            bytes += w
                .table
                .spill(layout, &self.ops, self.aggs.len(), &mut w.spill);
            for (p, frag) in w.spill.into_iter().enumerate() {
                if frag.len() > 0 {
                    rows[p] += frag.len();
                    parts[p].push((node, Mutex::new(frag)));
                }
            }
        }
        // The final flush converts bounded pre-agg tables into spill
        // fragments that outlive this pipeline; account for them. It is a
        // spill of every table, with no rows of its own.
        let _ = ctx.try_reserve(bytes);
        charge::agg_update(0.0, self.aggs.len(), bytes as f64).book(ctx, &[]);
        *self.out.lock() = Some(Arc::new(AggPartitions {
            parts,
            rows,
            layout: Arc::clone(layout),
        }));
        if let (Some(slot), Some(t0)) = (prof, t0) {
            ctx.prof_wall_ns(slot, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Phase-2 job: aggregate partitions exclusively, emit result tuples.
pub struct AggMergeJob {
    input: Arc<AggPartitions>,
    aggs: Vec<AggFn>,
    ops: Vec<LaneOp>,
    /// Per aggregate, the lanes of `ops` it is emitted from.
    of_agg: Vec<(usize, usize)>,
    /// Output schema: group columns then aggregate columns.
    schema: Schema,
    areas: Vec<Mutex<StorageArea>>,
    out: AreaSlot,
    result: Option<ResultSlot>,
    /// SQL semantics for a scalar aggregation (see
    /// [`AggMergeJob::with_sql_default_row`]).
    sql_default_row: bool,
    /// Profile slot of the aggregation plan node (credited with emitted
    /// groups and the wall time of merging and emitting them).
    prof_slot: Option<u32>,
}

impl AggMergeJob {
    pub fn new(
        input: Arc<AggPartitions>,
        aggs: Vec<AggFn>,
        schema: Schema,
        worker_nodes: &[SocketId],
        out: AreaSlot,
        result: Option<ResultSlot>,
    ) -> Self {
        let types = schema.data_types();
        let (ops, of_agg) = lane_ops(&aggs);
        AggMergeJob {
            input,
            ops,
            of_agg,
            aggs,
            schema,
            areas: worker_nodes
                .iter()
                .map(|&n| Mutex::new(StorageArea::new(n, &types)))
                .collect(),
            out,
            result,
            sql_default_row: false,
            prof_slot: None,
        }
    }

    /// Credit emitted groups and merge wall time to the given profile
    /// slot.
    pub fn with_prof_slot(mut self, slot: Option<u32>) -> Self {
        self.prof_slot = slot;
        self
    }

    /// SQL semantics: a scalar aggregation — no group columns, so the
    /// output schema is the aggregate columns alone — that merged no
    /// groups still emits one row, [`scalar_default_row`] (count = 0,
    /// sum = 0, ...). Without it the job is a plain `GROUP BY ()` and
    /// empty input yields no rows.
    pub fn with_sql_default_row(mut self) -> Self {
        self.sql_default_row = true;
        self
    }

    /// Chunk metadata for the dispatcher: one chunk per partition.
    pub fn chunk_meta(input: &AggPartitions, sockets: u16) -> Vec<morsel_core::ChunkMeta> {
        (0..N_PARTITIONS)
            .map(|p| morsel_core::ChunkMeta {
                node: SocketId((p % sockets as usize) as u16),
                rows: input.partition_rows(p),
            })
            .collect()
    }

    /// Merge partition `p`'s fragments into one table sized for them,
    /// probing with the hashes phase 1 stored, and emit its groups — key
    /// columns then aggregate columns, in bulk — into the worker's local
    /// area. Returns the number of groups.
    fn merge_and_emit(&self, ctx: &mut TaskContext<'_>, p: usize) -> usize {
        let layout = &self.input.layout;
        let entries = self.input.rows[p];
        let mut table = GroupTable::new(entries, usize::MAX, &self.ops);
        let mut reads = Vec::with_capacity(self.input.parts[p].len());
        for (node, frag) in &self.input.parts[p] {
            // Exclusive consumption: take the fragment, its sets and all.
            let frag = std::mem::take(&mut *frag.lock());
            reads.push((*node, frag.entry_bytes(layout, self.aggs.len())));
            // A fragment holds each key once per spill: never clustered.
            table.upsert(layout, &self.ops, &frag.hashes, &frag.keys, 0, false);
            merge_lanes(
                &self.ops,
                &mut table.groups.lanes,
                frag.lanes,
                &table.group_of,
            );
        }
        let groups = table.groups;
        let n_groups = groups.len();
        let mut written = 0;
        if n_groups > 0 {
            let types = self.schema.data_types();
            let mut cols = layout.emit(
                &groups.keys,
                n_groups,
                &types[..types.len() - self.aggs.len()],
            );
            cols.extend(emit_lanes(&self.aggs, &self.of_agg, &groups.lanes));
            let batch = Batch::from_columns(cols);
            // The merged partition's result rows are retained in the worker
            // area until the next stage consumes them.
            if ctx.try_reserve(batch.total_bytes()).is_ok() {
                written = batch.total_bytes();
                self.areas[ctx.worker].lock().data_mut().append(batch);
            }
        }
        let read: u64 = reads.iter().map(|&(_, bytes)| bytes).sum();
        charge::agg_merge(entries as f64, self.aggs.len(), read as f64, written as f64)
            .book(ctx, &reads);
        n_groups
    }
}

impl PipelineJob for AggMergeJob {
    fn run_morsel(&self, ctx: &mut TaskContext<'_>, morsel: Morsel) {
        // One morsel = one whole partition (the dispatcher is configured
        // with an unbounded morsel size for this job).
        let prof = self.prof_slot.filter(|_| ctx.profiling());
        let t0 = prof.map(|_| std::time::Instant::now());
        let n_groups = self.merge_and_emit(ctx, morsel.chunk);
        if let (Some(slot), Some(t0)) = (prof, t0) {
            // The merged groups of this partition are the aggregation's
            // output rows (each partition is consumed exactly once);
            // `rows_in` is credited at the phase-1 sink, not here.
            ctx.prof_rows_out(slot, n_groups as u64);
            ctx.prof_wall_ns(slot, t0.elapsed().as_nanos() as u64);
        }
    }

    fn finish(&self, ctx: &mut TaskContext<'_>) {
        let areas: Vec<StorageArea> = self
            .areas
            .iter()
            .map(|a| {
                let mut guard = a.lock();
                let node = guard.node();
                std::mem::replace(&mut *guard, StorageArea::new(node, &[]))
            })
            .collect();
        let mut set = AreaSet::new(self.schema.clone(), areas).prune_empty();
        if self.sql_default_row && set.total_rows() == 0 && self.schema.len() == self.aggs.len() {
            let types = self.schema.data_types();
            let mut area = StorageArea::new(SocketId(0), &types);
            area.data_mut().push_row(scalar_default_row(&self.aggs));
            set = AreaSet::new(self.schema.clone(), vec![area]);
            // The synthesized default row is an output row too.
            if let Some(slot) = self.prof_slot {
                ctx.prof_rows_out(slot, 1);
            }
        }
        if let Some(result) = &self.result {
            // Late materialization: group-key codes decode to strings only
            // at the query-result boundary.
            *result.lock() = Some(set.gather().decoded());
        }
        *self.out.lock() = Some(Arc::new(set));
    }
}

/// A scalar (no GROUP BY) aggregation always produces exactly one row,
/// even over empty input (SQL semantics: `select count(*) from empty`
/// returns 0); see [`AggMergeJob::with_sql_default_row`].
pub fn scalar_default_row(aggs: &[AggFn]) -> Vec<morsel_storage::Value> {
    aggs.iter()
        .map(|f| match f {
            AggFn::Count | AggFn::CountDistinctI64(_) => morsel_storage::Value::I64(0),
            AggFn::SumI64(_) => morsel_storage::Value::I64(0),
            AggFn::MinI64(_) => morsel_storage::Value::I64(i64::MAX),
            AggFn::MaxI64(_) => morsel_storage::Value::I64(i64::MIN),
            AggFn::SumF64(_) | AggFn::AvgI64(_) => morsel_storage::Value::F64(0.0),
        })
        .collect()
}

/// The row-at-a-time oracle the equivalence suites share.
#[cfg(test)]
#[path = "../tests/common/agg_reference.rs"]
mod agg_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::area_slot;
    use morsel_core::{result_slot, ExecEnv};
    use morsel_numa::Topology;

    fn env() -> ExecEnv {
        ExecEnv::new(Topology::nehalem_ex())
    }

    /// Run both phases single-threaded over the given batches.
    fn run_agg(
        group_cols: Vec<usize>,
        aggs: Vec<AggFn>,
        schema: Schema,
        batches: Vec<Batch>,
        capacity: usize,
    ) -> Batch {
        let env = env();
        let nodes = env.worker_sockets(2);
        let slot = agg_slot();
        // The input's columns as its first batch holds them; with no
        // batch, the output's.
        let like = (batches.first().cloned()).unwrap_or_else(|| Batch::empty(&schema.data_types()));
        let (types, encodings) = descriptors(&like);
        let sink = AggPartialSink::new(
            group_cols,
            aggs.clone(),
            &types,
            &encodings,
            &nodes,
            slot.clone(),
        )
        .with_capacity(capacity);
        let mut ctx = TaskContext::new(&env, 0);
        for b in batches {
            sink.consume(&mut ctx, crate::pipeline::SelBatch::dense(b));
        }
        sink.finish(&mut ctx);
        let parts = slot.lock().take().unwrap();
        let out = area_slot();
        let result = result_slot();
        let job = AggMergeJob::new(
            parts.clone(),
            aggs,
            schema,
            &nodes,
            out,
            Some(result.clone()),
        );
        for p in 0..N_PARTITIONS {
            if parts.partition_rows(p) > 0 {
                job.run_morsel(
                    &mut ctx,
                    Morsel {
                        chunk: p,
                        range: 0..parts.partition_rows(p),
                    },
                );
            }
        }
        job.finish(&mut ctx);
        let batch = result.lock().take().unwrap();
        batch
    }

    /// The types and encodings of `b`'s columns.
    fn descriptors(b: &Batch) -> (Vec<DataType>, Vec<Encoding>) {
        (b.columns().iter())
            .map(|c| (c.data_type(), Encoding::of(c)))
            .unzip()
    }

    fn sorted_by_key(b: &Batch) -> Vec<Vec<morsel_storage::Value>> {
        let mut rows: Vec<Vec<morsel_storage::Value>> = (0..b.rows()).map(|i| b.row(i)).collect();
        rows.sort_by_key(|r| r[0].as_i64());
        rows
    }

    #[test]
    fn grouped_sum_count_min_max_avg() {
        let batch = Batch::from_columns(vec![
            Column::I64(vec![1, 2, 1, 2, 1]),
            Column::I64(vec![10, 20, 30, 40, 50]),
        ]);
        let schema = Schema::new(vec![
            ("g", DataType::I64),
            ("cnt", DataType::I64),
            ("sum", DataType::I64),
            ("min", DataType::I64),
            ("max", DataType::I64),
            ("avg", DataType::F64),
        ]);
        let out = run_agg(
            vec![0],
            vec![
                AggFn::Count,
                AggFn::SumI64(1),
                AggFn::MinI64(1),
                AggFn::MaxI64(1),
                AggFn::AvgI64(1),
            ],
            schema,
            vec![batch],
            PREAGG_CAPACITY,
        );
        let rows = sorted_by_key(&out);
        assert_eq!(rows.len(), 2);
        use morsel_storage::Value as V;
        assert_eq!(
            rows[0],
            vec![
                V::I64(1),
                V::I64(3),
                V::I64(90),
                V::I64(10),
                V::I64(50),
                V::F64(30.0)
            ]
        );
        assert_eq!(
            rows[1],
            vec![
                V::I64(2),
                V::I64(2),
                V::I64(60),
                V::I64(20),
                V::I64(40),
                V::F64(30.0)
            ]
        );
    }

    #[test]
    fn spilling_matches_in_cache_results() {
        // Many distinct groups with a tiny pre-agg capacity: the result
        // must be identical to the roomy-capacity run.
        let n = 10_000i64;
        let batch = Batch::from_columns(vec![
            Column::I64((0..n).map(|x| x % 1000).collect()),
            Column::I64((0..n).collect()),
        ]);
        let schema = Schema::new(vec![("g", DataType::I64), ("sum", DataType::I64)]);
        let roomy = run_agg(
            vec![0],
            vec![AggFn::SumI64(1)],
            schema.clone(),
            vec![batch.clone()],
            PREAGG_CAPACITY,
        );
        let tiny = run_agg(vec![0], vec![AggFn::SumI64(1)], schema, vec![batch], 16);
        assert_eq!(sorted_by_key(&roomy), sorted_by_key(&tiny));
        assert_eq!(roomy.rows(), 1000);
    }

    #[test]
    fn scalar_aggregation_single_group() {
        let batch = Batch::from_columns(vec![Column::I64(vec![5, 7, 9])]);
        let schema = Schema::new(vec![("cnt", DataType::I64), ("sum", DataType::I64)]);
        let out = run_agg(
            vec![],
            vec![AggFn::Count, AggFn::SumI64(0)],
            schema,
            vec![batch],
            PREAGG_CAPACITY,
        );
        assert_eq!(out.rows(), 1);
        assert_eq!(
            out.row(0),
            vec![
                morsel_storage::Value::I64(3),
                morsel_storage::Value::I64(21)
            ]
        );
    }

    #[test]
    fn count_distinct() {
        let batch = Batch::from_columns(vec![
            Column::I64(vec![1, 1, 1, 2]),
            Column::I64(vec![7, 7, 8, 9]),
        ]);
        let schema = Schema::new(vec![("g", DataType::I64), ("d", DataType::I64)]);
        let out = run_agg(
            vec![0],
            vec![AggFn::CountDistinctI64(1)],
            schema,
            vec![batch],
            2, // force spills to also exercise distinct-set merging
        );
        let rows = sorted_by_key(&out);
        assert_eq!(rows[0][1].as_i64(), 2); // group 1: {7, 8}
        assert_eq!(rows[1][1].as_i64(), 1); // group 2: {9}
    }

    #[test]
    fn string_group_keys() {
        let batch = Batch::from_columns(vec![
            Column::Str(["x", "y", "x"].into_iter().collect()),
            Column::I64(vec![1, 2, 3]),
        ]);
        let schema = Schema::new(vec![("g", DataType::Str), ("sum", DataType::I64)]);
        let out = run_agg(
            vec![0],
            vec![AggFn::SumI64(1)],
            schema,
            vec![batch],
            PREAGG_CAPACITY,
        );
        let mut rows: Vec<(String, i64)> = (0..out.rows())
            .map(|i| {
                (
                    out.column(0).str_at(i).to_owned(),
                    out.column(1).as_i64()[i],
                )
            })
            .collect();
        rows.sort();
        assert_eq!(rows, vec![("x".into(), 4), ("y".into(), 2)]);
    }

    #[test]
    fn empty_input_produces_no_groups() {
        let schema = Schema::new(vec![("g", DataType::I64), ("sum", DataType::I64)]);
        let out = run_agg(
            vec![0],
            vec![AggFn::SumI64(1)],
            schema,
            vec![],
            PREAGG_CAPACITY,
        );
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn scalar_default_row_values() {
        let row = scalar_default_row(&[AggFn::Count, AggFn::SumF64(0)]);
        assert_eq!(row[0], morsel_storage::Value::I64(0));
        assert_eq!(row[1], morsel_storage::Value::F64(0.0));
    }

    #[test]
    fn fast_path_matches_scalar_path() {
        // Single i64 key (an inline key), all aggregate kinds, through
        // spills (capacity 8), against the row-at-a-time oracle.
        let n = 5_000i64;
        let batch = Batch::from_columns(vec![
            Column::I64((0..n).map(|x| (x * 7) % 400).collect()),
            Column::I64((0..n).map(|x| (x % 91) - 45).collect()),
        ]);
        let schema = Schema::new(vec![
            ("g", DataType::I64),
            ("cnt", DataType::I64),
            ("sum", DataType::I64),
            ("min", DataType::I64),
            ("max", DataType::I64),
            ("avg", DataType::F64),
            ("dist", DataType::I64),
        ]);
        let aggs = vec![
            AggFn::Count,
            AggFn::SumI64(1),
            AggFn::MinI64(1),
            AggFn::MaxI64(1),
            AggFn::AvgI64(1),
            AggFn::CountDistinctI64(1),
        ];
        let want = agg_reference::group_by(&[(batch.clone(), None)], &[0], &aggs);
        let got = run_agg(vec![0], aggs, schema, vec![batch], 8);
        assert_eq!(agg_reference::sorted_atoms(&got), want);
        assert_eq!(got.rows(), 400);
    }

    #[test]
    fn fast_path_two_int_keys_matches_scalar() {
        let n = 3_000i64;
        let batch = Batch::from_columns(vec![
            Column::I64((0..n).map(|x| x % 13).collect()),
            Column::I32((0..n).map(|x| (x % 7) as i32).collect()),
            Column::I64((0..n).collect()),
        ]);
        let schema = Schema::new(vec![
            ("a", DataType::I64),
            ("b", DataType::I32),
            ("sum", DataType::I64),
        ]);
        let aggs = vec![AggFn::SumI64(2)];
        let want = agg_reference::group_by(&[(batch.clone(), None)], &[0, 1], &aggs);
        let got = run_agg(vec![0, 1], aggs, schema, vec![batch], 16);
        assert_eq!(agg_reference::sorted_atoms(&got), want);
        assert_eq!(got.rows(), 13 * 7);
    }

    #[test]
    fn float_group_keys_group_by_value() {
        // -0.0 groups with 0.0 and every NaN with every other NaN.
        let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
        let batch = Batch::from_columns(vec![
            Column::F64(vec![0.0, -0.0, 1.5, f64::NAN, other_nan, 1.5, -0.0]),
            Column::I64(vec![1, 2, 4, 8, 16, 32, 64]),
        ]);
        let schema = Schema::new(vec![("g", DataType::F64), ("sum", DataType::I64)]);
        let aggs = vec![AggFn::SumI64(1)];
        let want = agg_reference::group_by(&[(batch.clone(), None)], &[0], &aggs);
        let got = run_agg(vec![0], aggs, schema, vec![batch], 2);
        assert_eq!(agg_reference::sorted_atoms(&got), want);
        let mut sums = got.column(1).as_i64().to_vec();
        sums.sort_unstable();
        assert_eq!(sums, vec![8 + 16, 4 + 32, 1 + 2 + 64]);
    }

    #[test]
    fn selection_vector_input_aggregates_selected_rows_only() {
        let batch = Batch::from_columns(vec![
            Column::I64(vec![1, 1, 2, 2, 3]),
            Column::I64(vec![10, 20, 30, 40, 50]),
        ]);
        let env = env();
        let nodes = env.worker_sockets(1);
        let slot = agg_slot();
        let aggs = vec![AggFn::SumI64(1)];
        let (types, encodings) = descriptors(&batch);
        let sink = AggPartialSink::new(
            vec![0],
            aggs.clone(),
            &types,
            &encodings,
            &nodes,
            slot.clone(),
        );
        let mut ctx = TaskContext::new(&env, 0);
        sink.consume(
            &mut ctx,
            crate::pipeline::SelBatch {
                batch,
                sel: Some(vec![0, 2, 3]),
            },
        );
        sink.finish(&mut ctx);
        let parts = slot.lock().take().unwrap();
        let out = area_slot();
        let result = result_slot();
        let schema = Schema::new(vec![("g", DataType::I64), ("sum", DataType::I64)]);
        let job = AggMergeJob::new(
            parts.clone(),
            aggs,
            schema,
            &nodes,
            out,
            Some(result.clone()),
        );
        for p in 0..N_PARTITIONS {
            if parts.partition_rows(p) > 0 {
                job.run_morsel(
                    &mut ctx,
                    Morsel {
                        chunk: p,
                        range: 0..parts.partition_rows(p),
                    },
                );
            }
        }
        job.finish(&mut ctx);
        let got = sorted_by_key(&result.lock().take().unwrap());
        use morsel_storage::Value as V;
        assert_eq!(
            got,
            vec![vec![V::I64(1), V::I64(10)], vec![V::I64(2), V::I64(70)]]
        );
    }

    #[test]
    fn partition_routing_is_stable() {
        // Routing is the top bits of the per-part hash fold the model was
        // calibrated with: `hash_i64` of an integer, a dictionary code or
        // a float's canonical bits, `hash_bytes` of a plain string,
        // combined left to right; a key of no columns hashes as integer 0.
        // The partitions are pinned too, so a change to any of those hashes
        // shows here.
        use morsel_storage::{hash_bytes, hash_combine, hash_i64, DictColumn, Dictionary};
        let dict = Dictionary::from_values(["x", "y", "z"]);
        let batch = Batch::from_columns(vec![
            Column::I64(vec![42]),
            Column::Str(["ab"].into_iter().collect()),
            Column::Dict(DictColumn::new(dict, vec![2])),
            Column::I32(vec![-7]),
            Column::F64(vec![-0.0]),
        ]);
        let fold = |parts: &[u64]| {
            parts
                .iter()
                .copied()
                .reduce(hash_combine)
                .unwrap_or(hash_i64(0))
        };
        let (i, s, d, n, f) = (
            hash_i64(42),
            hash_bytes(b"ab"),
            hash_i64(2),
            hash_i64(-7),
            hash_i64(0f64.to_bits() as i64),
        );
        let cases: [(&[usize], u64, usize); 6] = [
            (&[], fold(&[]), 56),
            (&[0], fold(&[i]), 47),
            (&[1], fold(&[s]), 0),
            (&[2, 0], fold(&[d, i]), 32),
            (&[0, 1, 2, 3, 4], fold(&[i, s, d, n, f]), 33),
            (&[4, 3], fold(&[f, n]), 11),
        ];
        let env = env();
        let nodes = env.worker_sockets(1);
        let (types, encodings) = descriptors(&batch);
        for (cols, hash, pinned) in cases {
            let slot = agg_slot();
            let sink = AggPartialSink::new(
                cols.to_vec(),
                vec![AggFn::Count],
                &types,
                &encodings,
                &nodes,
                slot.clone(),
            );
            let mut ctx = TaskContext::new(&env, 0);
            sink.consume(&mut ctx, SelBatch::dense(batch.clone()));
            sink.finish(&mut ctx);
            let parts = slot.lock().take().unwrap();
            let routed: Vec<usize> = (0..N_PARTITIONS)
                .filter(|&p| parts.partition_rows(p) > 0)
                .collect();
            assert_eq!(
                routed,
                vec![(hash >> 58) as usize],
                "group columns {cols:?}"
            );
            assert_eq!(partition_of(hash), routed[0]);
            assert_eq!(routed[0], pinned, "group columns {cols:?}: routing moved");
        }
    }
}
