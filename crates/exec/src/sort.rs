//! Parallel merge sort and top-k (paper Section 4.5, Figure 9).
//!
//! Sorting runs as three stages: (1) materialize the input into per-worker
//! areas (reusing [`crate::sink::MaterializeSink`]); (2) sort each area
//! locally, in parallel; (3) compute global separator keys from the local
//! runs' equidistant samples (median-of-medians style), locate them in
//! every run by binary search, and merge the resulting independent
//! segments in parallel without synchronization.
//!
//! Top-k queries never materialize the full input: each worker maintains a
//! bounded heap (paper: "each thread directly maintains a heap of k
//! tuples").

use std::cmp::Ordering;
use std::sync::Arc;

use morsel_core::{Morsel, PipelineJob, ResultSlot, TaskContext};
use morsel_numa::SocketId;
use morsel_storage::{AreaSet, Batch, Column, Schema, StorageArea};
use parking_lot::Mutex;

use crate::charge;
use crate::pipeline::SelBatch;
use crate::sink::{AreaSlot, Sink};

/// One sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub col: usize,
    pub desc: bool,
}

impl SortKey {
    pub fn asc(col: usize) -> Self {
        SortKey { col, desc: false }
    }

    pub fn desc(col: usize) -> Self {
        SortKey { col, desc: true }
    }
}

/// Compare two rows (possibly of different batches) under the sort keys.
pub fn cmp_rows(a: &Batch, ra: usize, b: &Batch, rb: usize, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let ord = match (a.column(k.col), b.column(k.col)) {
            (Column::I64(x), Column::I64(y)) => x[ra].cmp(&y[rb]),
            (Column::I32(x), Column::I32(y)) => x[ra].cmp(&y[rb]),
            (Column::F64(x), Column::F64(y)) => x[ra].total_cmp(&y[rb]),
            (Column::Str(x), Column::Str(y)) => x.get(ra).cmp(y.get(rb)),
            // Sorted dictionaries preserve order, and the rows of one sort
            // share their column's dictionary (DESIGN.md §14): comparisons
            // are integer compares on the codes.
            (Column::Dict(x), Column::Dict(y)) => x.codes()[ra].cmp(&y.codes()[rb]),
            (x, y) => panic!(
                "incomparable sort columns {:?} vs {:?}",
                x.data_type(),
                y.data_type()
            ),
        };
        let ord = if k.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Sort a batch, returning the reordered copy.
pub fn sort_batch(batch: &Batch, keys: &[SortKey]) -> Batch {
    let mut perm: Vec<u32> = (0..batch.rows() as u32).collect();
    perm.sort_by(|&x, &y| cmp_rows(batch, x as usize, batch, y as usize, keys));
    batch.reordered(&perm)
}

/// Output of the local-sort stage: one sorted run per input area.
pub struct SortedRuns {
    pub runs: Vec<(SocketId, Batch)>,
    pub keys: Vec<SortKey>,
}

pub type RunsSlot = Arc<Mutex<Option<Arc<SortedRuns>>>>;

pub fn runs_slot() -> RunsSlot {
    Arc::new(Mutex::new(None))
}

/// Stage-2 job: sort each materialized area locally (one morsel per area).
pub struct LocalSortJob {
    input: Arc<AreaSet>,
    keys: Vec<SortKey>,
    sorted: Vec<Mutex<Option<Batch>>>,
    out: RunsSlot,
    /// Profile slot of the sort plan node (credited with one fragment
    /// per sorted run and the local-sort wall time).
    prof_slot: Option<u32>,
}

impl LocalSortJob {
    pub fn new(input: Arc<AreaSet>, keys: Vec<SortKey>, out: RunsSlot) -> Self {
        let n = input.areas().len();
        LocalSortJob {
            input,
            keys,
            sorted: (0..n).map(|_| Mutex::new(None)).collect(),
            out,
            prof_slot: None,
        }
    }

    /// Credit sorted-run fragments to the given profile slot.
    pub fn with_prof_slot(mut self, slot: Option<u32>) -> Self {
        self.prof_slot = slot;
        self
    }
}

impl PipelineJob for LocalSortJob {
    fn run_morsel(&self, ctx: &mut TaskContext<'_>, morsel: Morsel) {
        let area = self.input.area(morsel.chunk);
        let batch = area.data();
        let n = batch.rows();
        // The sorted copy of this area is retained until the merge:
        // charge it before doing the n log n work.
        let bytes = batch.total_bytes();
        if ctx.try_reserve(bytes).is_err() {
            return;
        }
        let t0 = (ctx.profiling() && self.prof_slot.is_some()).then(std::time::Instant::now);
        let sorted = sort_batch(batch, &self.keys);
        if let (Some(slot), Some(t0)) = (self.prof_slot, t0) {
            ctx.prof_fragments(slot, 1);
            ctx.prof_wall_ns(slot, t0.elapsed().as_nanos() as u64);
        }
        let out = sorted.total_bytes() as f64;
        charge::local_sort(n as f64, self.keys.len(), bytes as f64, out)
            .book(ctx, &[(area.node(), bytes)]);
        *self.sorted[morsel.chunk].lock() = Some(sorted);
    }

    fn finish(&self, _ctx: &mut TaskContext<'_>) {
        let runs: Vec<(SocketId, Batch)> = self
            .sorted
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    self.input.area(i).node(),
                    s.lock().take().expect("area not sorted"),
                )
            })
            .collect();
        *self.out.lock() = Some(Arc::new(SortedRuns {
            runs,
            keys: self.keys.clone(),
        }));
    }
}

/// The merge plan: for each of `segments` output segments, the slice of
/// every run that belongs to it (computed from global separators).
pub struct MergePlan {
    pub runs: Arc<SortedRuns>,
    /// `bounds[r]` has `segments+1` cut points into run `r`.
    pub bounds: Vec<Vec<usize>>,
    pub segments: usize,
}

impl MergePlan {
    /// Compute global separators from equidistant local samples
    /// (median-of-medians style, Section 4.5) and locate them in each run.
    pub fn compute(runs: Arc<SortedRuns>, segments: usize) -> Self {
        assert!(segments > 0);
        let keys = runs.keys.clone();
        // Collect samples: `segments - 1` equidistant keys per run, kept
        // as (run, row) references.
        let mut samples: Vec<(usize, usize)> = Vec::new();
        for (r, (_, run)) in runs.runs.iter().enumerate() {
            let n = run.rows();
            for s in 1..segments {
                if n > 0 {
                    let row = (s * n / segments).min(n - 1);
                    samples.push((r, row));
                }
            }
        }
        samples.sort_by(|&(ra, ia), &(rb, ib)| {
            cmp_rows(&runs.runs[ra].1, ia, &runs.runs[rb].1, ib, &keys)
        });
        // Global separators: equidistant picks from the sorted samples.
        let mut separators: Vec<(usize, usize)> = Vec::new();
        if !samples.is_empty() {
            for s in 1..segments {
                let idx = (s * samples.len() / segments).min(samples.len() - 1);
                separators.push(samples[idx]);
            }
        }
        // Locate separators in every run by binary search
        // (partition_point).
        let mut bounds: Vec<Vec<usize>> = Vec::with_capacity(runs.runs.len());
        for (_, run) in &runs.runs {
            let n = run.rows();
            let mut cuts = Vec::with_capacity(segments + 1);
            cuts.push(0);
            for &(sr, si) in &separators {
                let sep_run = &runs.runs[sr].1;
                // First position in `run` whose row is > separator.
                let mut lo = *cuts.last().unwrap();
                let mut hi = n;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if cmp_rows(run, mid, sep_run, si, &keys) == Ordering::Greater {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                cuts.push(lo);
            }
            cuts.push(n);
            bounds.push(cuts);
        }
        MergePlan {
            runs,
            bounds,
            segments,
        }
    }

    pub fn segment_rows(&self, seg: usize) -> usize {
        self.bounds
            .iter()
            .map(|cuts| cuts[seg + 1] - cuts[seg])
            .sum()
    }
}

/// Stage-3 job: merge each segment independently (one morsel per segment).
pub struct MergeJob {
    plan: Arc<MergePlan>,
    schema: Schema,
    /// Per segment, the merged rows and the node of the worker that
    /// merged (and wrote) them.
    segments_out: Vec<Mutex<Option<(SocketId, Batch)>>>,
    out: AreaSlot,
    result: Option<ResultSlot>,
    limit: Option<usize>,
    /// Profile slot of the sort plan node (credited with the final
    /// output rows at finish).
    prof_slot: Option<u32>,
}

impl MergeJob {
    pub fn new(
        plan: Arc<MergePlan>,
        schema: Schema,
        out: AreaSlot,
        result: Option<ResultSlot>,
        limit: Option<usize>,
    ) -> Self {
        let n = plan.segments;
        MergeJob {
            plan,
            schema,
            segments_out: (0..n).map(|_| Mutex::new(None)).collect(),
            out,
            result,
            limit,
            prof_slot: None,
        }
    }

    /// Credit final output rows to the given profile slot.
    pub fn with_prof_slot(mut self, slot: Option<u32>) -> Self {
        self.prof_slot = slot;
        self
    }

    pub fn chunk_meta(plan: &MergePlan, sockets: u16) -> Vec<morsel_core::ChunkMeta> {
        (0..plan.segments)
            .map(|s| morsel_core::ChunkMeta {
                node: SocketId((s % sockets as usize) as u16),
                rows: plan.segment_rows(s).max(1),
            })
            .collect()
    }
}

impl PipelineJob for MergeJob {
    fn run_morsel(&self, ctx: &mut TaskContext<'_>, morsel: Morsel) {
        let seg = morsel.chunk;
        let runs = &self.plan.runs;
        let keys = &runs.keys;
        // Cursor per run within this segment.
        let mut cursors: Vec<(usize, usize, usize)> = self
            .plan
            .bounds
            .iter()
            .enumerate()
            .map(|(r, cuts)| (r, cuts[seg], cuts[seg + 1]))
            .filter(|&(_, lo, hi)| lo < hi)
            .collect();
        let total: usize = cursors.iter().map(|&(_, lo, hi)| hi - lo).sum();
        // Reads come from each run's node; the merged segment retains the
        // same bytes, so reserve them before merging.
        let reads: Vec<(SocketId, u64)> = (cursors.iter())
            .map(|&(r, lo, hi)| (runs.runs[r].0, runs.runs[r].1.byte_size(lo, hi)))
            .collect();
        let seg_bytes: u64 = reads.iter().map(|&(_, bytes)| bytes).sum();
        let n_runs = cursors.len();
        if ctx.try_reserve(seg_bytes).is_err() {
            // Refused: the runs were read, nothing was merged.
            charge::merge(0.0, n_runs, seg_bytes as f64, 0.0).book(ctx, &reads);
            return;
        }

        let types = self.schema.data_types();
        let mut out = Batch::empty(&types);
        // K-way merge by repeated min scan (k is the worker count — small).
        while !cursors.is_empty() {
            let mut best = 0;
            for i in 1..cursors.len() {
                let (rb, lb, _) = cursors[best];
                let (ri, li, _) = cursors[i];
                if cmp_rows(&runs.runs[ri].1, li, &runs.runs[rb].1, lb, keys) == Ordering::Less {
                    best = i;
                }
            }
            let (r, lo, hi) = &mut cursors[best];
            out.push_from(&runs.runs[*r].1, *lo);
            *lo += 1;
            if lo >= hi {
                cursors.swap_remove(best);
            }
        }
        let written = out.total_bytes() as f64;
        charge::merge(total as f64, n_runs, seg_bytes as f64, written).book(ctx, &reads);
        *self.segments_out[seg].lock() = Some((ctx.socket, out));
    }

    fn finish(&self, ctx: &mut TaskContext<'_>) {
        // The segments hold consecutive stretches of the sorted order: a
        // limit keeps their first `limit` rows, and each kept row is
        // copied once, by the merge, into the area handed on.
        let mut left = self.limit.unwrap_or(usize::MAX);
        let mut areas = Vec::new();
        for s in &self.segments_out {
            let Some((node, mut merged)) = s.lock().take() else {
                continue;
            };
            if merged.rows() > left {
                merged = merged.gather(&(0..left as u32).collect::<Vec<u32>>());
            }
            left -= merged.rows();
            areas.push(StorageArea::holding(node, merged));
        }
        let set = AreaSet::new(self.schema.clone(), areas).prune_empty();
        if let Some(slot) = self.prof_slot {
            ctx.prof_rows_out(slot, set.total_rows() as u64);
        }
        if let Some(result) = &self.result {
            // Late materialization: dictionary codes decode to strings
            // only here, at the query-result boundary.
            *result.lock() = Some(set.gather().decoded());
        }
        *self.out.lock() = Some(Arc::new(set));
    }
}

/// Top-k sink: per-worker bounded selection, merged at finish.
pub struct TopKSink {
    keys: Vec<SortKey>,
    k: usize,
    schema: Schema,
    /// Per-worker current best rows (kept sorted, at most k).
    workers: Vec<Mutex<Batch>>,
    result: Option<ResultSlot>,
    out: AreaSlot,
    /// Profile slot of the sort plan node (credited with the kept rows
    /// at finish).
    prof_slot: Option<u32>,
}

impl TopKSink {
    pub fn new(
        keys: Vec<SortKey>,
        k: usize,
        schema: Schema,
        workers: usize,
        out: AreaSlot,
        result: Option<ResultSlot>,
    ) -> Self {
        let types = schema.data_types();
        TopKSink {
            keys,
            k,
            schema,
            workers: (0..workers)
                .map(|_| Mutex::new(Batch::empty(&types)))
                .collect(),
            result,
            out,
            prof_slot: None,
        }
    }

    /// Credit kept rows to the given profile slot.
    pub fn with_prof_slot(mut self, slot: Option<u32>) -> Self {
        self.prof_slot = slot;
        self
    }
}

/// The `k` smallest of `rows` under `cmp`, sorted: a selection first, so
/// that only the survivors are sorted. `cmp` must be a total order.
fn k_smallest<T>(mut rows: Vec<T>, k: usize, cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    if rows.len() > k {
        rows.select_nth_unstable_by(k, &cmp);
        rows.truncate(k);
    }
    rows.sort_unstable_by(cmp);
    rows
}

impl Sink for TopKSink {
    fn consume(&self, ctx: &mut TaskContext<'_>, input: SelBatch) {
        // `LIMIT 0` keeps nothing.
        if input.is_empty() || self.k == 0 {
            return;
        }
        let mut best = self.workers[ctx.worker].lock();
        charge::top_k(input.rows() as f64, self.k).book(ctx, &[]);
        let (batch, keys) = (&input.batch, self.keys.as_slice());
        // Select before copying: an incoming row can only enter a full
        // held set by beating its last row, and of those that do, only the
        // `k` best survive. Ties go to the held row, then to the earlier
        // incoming one — the order a stable sort of held ++ incoming gives.
        let bar = (best.rows() == self.k).then(|| self.k - 1);
        let mut entering: Vec<u32> = Vec::new();
        crate::key::for_each_row!(input.rows_ref(), _i, r, {
            if bar.is_none_or(|last| cmp_rows(batch, r, &best, last, keys) == Ordering::Less) {
                entering.push(r as u32);
            }
        });
        if entering.is_empty() {
            return;
        }
        let entering = k_smallest(entering, self.k, |&x, &y| {
            cmp_rows(batch, x as usize, batch, y as usize, keys).then(x.cmp(&y))
        });
        // Merge the sorted held rows with the sorted survivors, gathering
        // only the `k` rows that stay.
        let keep = (best.rows() + entering.len()).min(self.k);
        let mut merged = Batch::empty(&self.schema.data_types());
        let (mut h, mut e) = (0, 0);
        while h + e < keep {
            let take_held = h < best.rows()
                && (e == entering.len()
                    || cmp_rows(batch, entering[e] as usize, &best, h, keys) != Ordering::Less);
            if take_held {
                merged.push_from(&best, h);
                h += 1;
            } else {
                merged.push_from(batch, entering[e] as usize);
                e += 1;
            }
        }
        // Delta-account the held set (bounded at k rows per worker, but
        // row width is data-dependent): grow the reservation when the
        // trimmed set grows, shrink it when heavier rows are evicted.
        let held_before = best.total_bytes();
        let held_after = merged.total_bytes();
        if held_after > held_before {
            if ctx.try_reserve(held_after - held_before).is_err() {
                return;
            }
        } else {
            ctx.release_reserved(held_before - held_after);
        }
        *best = merged;
    }

    fn finish(&self, ctx: &mut TaskContext<'_>) {
        let prof = self.prof_slot.filter(|_| ctx.profiling());
        let t0 = prof.map(|_| std::time::Instant::now());
        let held: Vec<_> = self.workers.iter().map(|w| w.lock()).collect();
        // (worker, row) of every held row; ties go to the earlier worker.
        let all: Vec<(usize, usize)> = held
            .iter()
            .enumerate()
            .flat_map(|(w, b)| (0..b.rows()).map(move |r| (w, r)))
            .collect();
        let top = k_smallest(all, self.k, |&(wa, ra), &(wb, rb)| {
            cmp_rows(&held[wa], ra, &held[wb], rb, &self.keys).then((wa, ra).cmp(&(wb, rb)))
        });
        if let Some(slot) = self.prof_slot {
            ctx.prof_rows_out(slot, top.len() as u64);
        }
        let mut area = StorageArea::new(ctx.socket, &self.schema.data_types());
        for &(w, r) in &top {
            area.data_mut().push_from(&held[w], r);
        }
        if let Some(result) = &self.result {
            *result.lock() = Some(area.data().decoded());
        }
        *self.out.lock() = Some(Arc::new(
            AreaSet::new(self.schema.clone(), vec![area]).prune_empty(),
        ));
        if let (Some(slot), Some(t0)) = (prof, t0) {
            ctx.prof_wall_ns(slot, t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_core::ExecEnv;
    use morsel_numa::Topology;
    use morsel_storage::{DataType, StorageArea};

    fn env() -> ExecEnv {
        ExecEnv::new(Topology::nehalem_ex())
    }

    /// Fully sort a set of areas via the three-stage machinery,
    /// single-threaded.
    fn sort_area_set(
        input: Arc<AreaSet>,
        keys: Vec<SortKey>,
        segments: usize,
        env: &ExecEnv,
        limit: Option<usize>,
    ) -> Batch {
        let runs = runs_slot();
        let local = LocalSortJob::new(Arc::clone(&input), keys, runs.clone());
        let mut ctx = TaskContext::new(env, 0);
        for (i, a) in input.areas().iter().enumerate() {
            let range = 0..a.rows();
            local.run_morsel(&mut ctx, Morsel { chunk: i, range });
        }
        local.finish(&mut ctx);
        let runs = runs.lock().take().unwrap();
        let plan = Arc::new(MergePlan::compute(runs, segments));
        let out = crate::sink::area_slot();
        let result = morsel_core::result_slot();
        let schema = input.schema().clone();
        let merge = MergeJob::new(Arc::clone(&plan), schema, out, Some(result.clone()), limit);
        for seg in 0..plan.segments {
            merge.run_morsel(
                &mut ctx,
                Morsel {
                    chunk: seg,
                    range: 0..plan.segment_rows(seg).max(1),
                },
            );
        }
        merge.finish(&mut ctx);
        let batch = result.lock().take().unwrap();
        batch
    }

    /// Check a batch is sorted under `keys`.
    fn is_sorted(batch: &Batch, keys: &[SortKey]) -> bool {
        (1..batch.rows()).all(|i| cmp_rows(batch, i - 1, batch, i, keys) != Ordering::Greater)
    }

    fn area_set_of(chunks: Vec<Vec<i64>>) -> Arc<AreaSet> {
        let schema = Schema::new(vec![("k", DataType::I64)]);
        let areas = chunks
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let mut a = StorageArea::new(SocketId((i % 4) as u16), &schema.data_types());
                a.data_mut()
                    .extend_from(&Batch::from_columns(vec![Column::I64(v)]));
                a
            })
            .collect();
        Arc::new(AreaSet::new(schema, areas))
    }

    #[test]
    fn cmp_and_sort_batch() {
        let b = Batch::from_columns(vec![
            Column::I64(vec![3, 1, 2, 1]),
            Column::Str(["c", "b", "a", "a"].into_iter().collect()),
        ]);
        let keys = vec![SortKey::asc(0), SortKey::desc(1)];
        let s = sort_batch(&b, &keys);
        assert_eq!(s.column(0).as_i64(), &[1, 1, 2, 3]);
        assert_eq!(
            s.column(1).as_str().iter().collect::<Vec<_>>(),
            ["b", "a", "a", "c"]
        );
        assert!(is_sorted(&s, &keys));
    }

    #[test]
    fn parallel_sort_equals_serial_sort() {
        let env = env();
        let mut all: Vec<i64> = Vec::new();
        let chunks: Vec<Vec<i64>> = (0..4)
            .map(|c| {
                let v: Vec<i64> = (0..1000)
                    .map(|i| ((i * 37 + c * 13) % 500) as i64)
                    .collect();
                all.extend(&v);
                v
            })
            .collect();
        let input = area_set_of(chunks);
        let keys = vec![SortKey::asc(0)];
        let out = sort_area_set(input, keys.clone(), 8, &env, None);
        all.sort_unstable();
        assert_eq!(out.column(0).as_i64(), all.as_slice());
    }

    #[test]
    fn descending_sort() {
        let env = env();
        let input = area_set_of(vec![vec![5, 1, 9], vec![3, 7]]);
        let out = sort_area_set(input, vec![SortKey::desc(0)], 4, &env, None);
        assert_eq!(out.column(0).as_i64(), &[9, 7, 5, 3, 1]);
    }

    #[test]
    fn skewed_runs_still_sort() {
        // One run holds all the small values, the other all the large:
        // separator computation must still split work validly.
        let env = env();
        let input = area_set_of(vec![(0..1000).collect(), (1000..2000).collect()]);
        let out = sort_area_set(input, vec![SortKey::asc(0)], 8, &env, None);
        assert_eq!(
            out.column(0).as_i64(),
            (0..2000).collect::<Vec<_>>().as_slice()
        );
    }

    #[test]
    fn limit_truncates() {
        let env = env();
        let input = area_set_of(vec![vec![5, 1, 9, 3, 7]]);
        let out = sort_area_set(input, vec![SortKey::asc(0)], 4, &env, Some(3));
        assert_eq!(out.column(0).as_i64(), &[1, 3, 5]);
    }

    #[test]
    fn merge_plan_covers_all_rows_disjointly() {
        let runs = Arc::new(SortedRuns {
            runs: vec![
                (
                    SocketId(0),
                    sort_batch(
                        &Batch::from_columns(vec![Column::I64(vec![1, 5, 9, 12])]),
                        &[SortKey::asc(0)],
                    ),
                ),
                (
                    SocketId(1),
                    sort_batch(
                        &Batch::from_columns(vec![Column::I64(vec![2, 3, 4, 20])]),
                        &[SortKey::asc(0)],
                    ),
                ),
            ],
            keys: vec![SortKey::asc(0)],
        });
        let plan = MergePlan::compute(runs, 3);
        let total: usize = (0..3).map(|s| plan.segment_rows(s)).sum();
        assert_eq!(total, 8);
        for cuts in &plan.bounds {
            for w in cuts.windows(2) {
                assert!(w[0] <= w[1]);
            }
            assert_eq!(*cuts.first().unwrap(), 0);
        }
    }

    #[test]
    fn topk_sink_keeps_k_best() {
        let env = env();
        let schema = Schema::new(vec![("k", DataType::I64)]);
        let out = crate::sink::area_slot();
        let result = morsel_core::result_slot();
        let sink = TopKSink::new(
            vec![SortKey::asc(0)],
            3,
            schema,
            2,
            out,
            Some(result.clone()),
        );
        let mut ctx0 = TaskContext::new(&env, 0);
        let mut ctx1 = TaskContext::new(&env, 1);
        sink.consume(
            &mut ctx0,
            SelBatch::dense(Batch::from_columns(vec![Column::I64(vec![9, 2, 7])])),
        );
        sink.consume(
            &mut ctx1,
            SelBatch::dense(Batch::from_columns(vec![Column::I64(vec![1, 8, 3])])),
        );
        sink.consume(
            &mut ctx0,
            SelBatch::dense(Batch::from_columns(vec![Column::I64(vec![4])])),
        );
        sink.finish(&mut ctx0);
        let b = result.lock().take().unwrap();
        assert_eq!(b.column(0).as_i64(), &[1, 2, 3]);
        topk_ties_selections_and_spare_room();
    }

    /// A morsel of string keys for `topk_of`: the worker that consumes it,
    /// the keys, and the rows of it that count (`None`: all).
    type KeyMorsel = (usize, Vec<&'static str>, Option<Vec<u32>>);

    /// Feed morsels of `(key, running tag)` rows to a top-`k` sink over
    /// two workers and return what it keeps.
    fn topk_of(key: SortKey, k: usize, morsels: Vec<KeyMorsel>) -> Vec<(String, i64)> {
        let env = env();
        let schema = Schema::new(vec![("s", DataType::Str), ("tag", DataType::I64)]);
        let result = morsel_core::result_slot();
        let sink = TopKSink::new(
            vec![key],
            k,
            schema,
            2,
            crate::sink::area_slot(),
            Some(result.clone()),
        );
        let mut tag = 0;
        for (worker, strs, sel) in morsels {
            let tags = (tag..tag + strs.len() as i64).collect();
            tag += strs.len() as i64;
            let batch = Batch::from_columns(vec![
                Column::Str(strs.into_iter().collect()),
                Column::I64(tags),
            ]);
            sink.consume(&mut TaskContext::new(&env, worker), SelBatch { batch, sel });
        }
        sink.finish(&mut TaskContext::new(&env, 0));
        let b = result.lock().take().unwrap();
        (0..b.rows())
            .map(|i| (b.column(0).str_at(i).to_owned(), b.column(1).as_i64()[i]))
            .collect()
    }

    /// The rest of `topk_sink_keeps_k_best`: string keys with ties, a
    /// selection-vector input, `k` above the row count, and `k` = 0.
    fn topk_ties_selections_and_spare_room() {
        let own = |v: Vec<(&str, i64)>| -> Vec<(String, i64)> {
            v.into_iter().map(|(s, t)| (s.to_owned(), t)).collect()
        };
        // Descending string key with ties: among equals, a held row beats
        // an incoming one, an earlier row a later one, worker 0 worker 1.
        let got = topk_of(
            SortKey::desc(0),
            3,
            vec![
                (0, vec!["m", "z", "m"], None),      // tags 0 1 2
                (1, vec!["z", "a", "m"], None),      // tags 3 4 5
                (0, vec!["z", "z", "b", "y"], None), // tags 6 7 8 9
            ],
        );
        assert_eq!(got, own(vec![("z", 1), ("z", 6), ("z", 7)]));
        // Only selected rows count, whatever the unselected ones hold.
        let got = topk_of(
            SortKey::asc(0),
            2,
            vec![
                (0, vec!["a", "q", "a", "c"], Some(vec![1, 3])), // tags 0..4
                (1, vec!["a", "b", "a"], Some(vec![1])),         // tags 4..7
                (0, vec!["a", "d"], Some(vec![])),
            ],
        );
        assert_eq!(got, own(vec![("b", 5), ("c", 3)]));
        // More room than rows: everything, sorted, ties in arrival order.
        let got = topk_of(
            SortKey::asc(0),
            10,
            vec![(1, vec!["b", "a"], None), (0, vec!["b", "c"], None)],
        );
        assert_eq!(got, own(vec![("a", 1), ("b", 2), ("b", 0), ("c", 3)]));
        // `LIMIT 0`: nothing is held and nothing comes out.
        let got = topk_of(
            SortKey::asc(0),
            0,
            vec![(0, vec!["b", "a"], None), (1, vec!["c"], Some(vec![0]))],
        );
        assert_eq!(got, own(vec![]));
    }

    #[test]
    fn topk_with_fewer_rows_than_k() {
        let env = env();
        let schema = Schema::new(vec![("k", DataType::I64)]);
        let out = crate::sink::area_slot();
        let result = morsel_core::result_slot();
        let sink = TopKSink::new(
            vec![SortKey::desc(0)],
            10,
            schema,
            1,
            out,
            Some(result.clone()),
        );
        let mut ctx = TaskContext::new(&env, 0);
        sink.consume(
            &mut ctx,
            SelBatch::dense(Batch::from_columns(vec![Column::I64(vec![1, 2])])),
        );
        sink.finish(&mut ctx);
        assert_eq!(result.lock().take().unwrap().column(0).as_i64(), &[2, 1]);
    }
}
