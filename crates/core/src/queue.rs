//! Lock-free morsel queues with NUMA-aware work stealing.
//!
//! Section 3.2: the dispatcher does not keep per-morsel list nodes; it
//! keeps *storage area boundaries* per socket and "cuts out" the next
//! morsel on demand. We implement each per-socket queue as a prefix-sum
//! over its chunks plus one cache-line-padded atomic cursor; cutting a
//! morsel is a single CAS loop (bounded retries under contention), and a
//! worker whose local queue is drained steals from the closest socket
//! first.

use std::sync::atomic::{AtomicU64, Ordering};

use morsel_numa::Topology;

use crate::task::{ChunkMeta, Morsel};

/// How work is divided and claimed. Mirrors the paper's compared systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Full morsel-driven scheduling: per-socket queues, NUMA-local
    /// preference, stealing from closest sockets ("HyPer full-fledged").
    NumaAware,
    /// One global queue; locality is ignored ("HyPer not NUMA aware").
    NumaOblivious,
    /// Static division: the input is split into one fixed range per worker
    /// at "plan time"; no stealing (the Volcano emulation of Section 5.4,
    /// morsel size = n/t). With `align: true` chunks are laid out
    /// node-ascending before splitting so shares keep rough NUMA locality
    /// (the paper's own static emulation); with `align: false` shares
    /// ignore placement entirely (a NUMA-oblivious plan-driven engine).
    Static { workers: usize, align: bool },
}

/// A queue's cursor on cache lines of its own (128 bytes: the 64-byte
/// line plus the adjacent-line prefetcher), so workers cutting morsels
/// from neighbouring queues do not false-share.
#[derive(Debug)]
#[repr(align(128))]
struct Cursor(AtomicU64);

/// One queue: an ordered set of chunk slices plus an atomic row cursor.
#[derive(Debug)]
struct RangeQueue {
    /// (chunk index, chunk-local start, chunk-local end), concatenated.
    pieces: Vec<(usize, usize, usize)>,
    /// Prefix sums of piece lengths; `prefix[i]` = rows before piece `i`.
    prefix: Vec<u64>,
    total: u64,
    cursor: Cursor,
}

impl RangeQueue {
    fn new(pieces: Vec<(usize, usize, usize)>) -> Self {
        let mut prefix = Vec::with_capacity(pieces.len());
        let mut total = 0u64;
        for &(_, s, e) in &pieces {
            prefix.push(total);
            total += (e - s) as u64;
        }
        RangeQueue {
            pieces,
            prefix,
            total,
            cursor: Cursor(AtomicU64::new(0)),
        }
    }

    /// Cut out up to `morsel_size` rows. The morsel never crosses a chunk
    /// boundary, so a successful cut may be smaller than `morsel_size`.
    /// How large a chunk is is its source's choice: a grouped relation's
    /// chunk runs over several partitions, so its morsels may too.
    fn next(&self, morsel_size: usize) -> Option<Morsel> {
        debug_assert!(morsel_size > 0);
        let mut cur = self.cursor.0.load(Ordering::Relaxed);
        loop {
            if cur >= self.total {
                return None;
            }
            // Find the piece containing global row `cur`.
            let idx = match self.prefix.binary_search(&cur) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            let (chunk, start, end) = self.pieces[idx];
            let off = (cur - self.prefix[idx]) as usize;
            let begin = start + off;
            let take = morsel_size.min(end - begin);
            match self.cursor.0.compare_exchange_weak(
                cur,
                cur + take as u64,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(Morsel {
                        chunk,
                        range: begin..begin + take,
                    });
                }
                Err(actual) => cur = actual,
            }
        }
    }

    fn remaining(&self) -> u64 {
        self.total
            .saturating_sub(self.cursor.0.load(Ordering::Relaxed))
    }
}

/// The set of morsel queues for one pipeline job.
#[derive(Debug)]
pub struct MorselQueues {
    queues: Vec<RangeQueue>,
    mode: SchedulingMode,
    /// For each worker, the queue indexes to try in order.
    plans: Vec<Vec<usize>>,
    morsel_size: usize,
    total_rows: u64,
}

impl MorselQueues {
    /// Build queues for `chunks` under the given scheduling mode.
    ///
    /// `workers` is the number of worker threads that may request morsels;
    /// `topology` provides socket distances for the steal order.
    pub fn build(
        chunks: &[ChunkMeta],
        mode: SchedulingMode,
        morsel_size: usize,
        workers: usize,
        topology: &Topology,
    ) -> Self {
        Self::build_inner(chunks, mode, morsel_size, workers, topology, false)
    }

    /// Like [`Self::build`], but every chunk is an indivisible unit of
    /// work (one morsel per chunk). Used by jobs whose chunks are
    /// exclusive partitions or merge segments (aggregation phase 2,
    /// sort-merge): a worker must own a whole chunk. Under static
    /// division, whole chunks are distributed round-robin.
    pub fn build_atomic(
        chunks: &[ChunkMeta],
        mode: SchedulingMode,
        workers: usize,
        topology: &Topology,
    ) -> Self {
        Self::build_inner(chunks, mode, usize::MAX, workers, topology, true)
    }

    fn build_inner(
        chunks: &[ChunkMeta],
        mode: SchedulingMode,
        morsel_size: usize,
        workers: usize,
        topology: &Topology,
        atomic: bool,
    ) -> Self {
        assert!(workers > 0);
        let total_rows: u64 = chunks.iter().map(|c| c.rows as u64).sum();
        if atomic {
            if let SchedulingMode::Static { workers: w, .. } = mode {
                // Whole chunks round-robin across the static workers.
                let w = w.max(1);
                let mut per: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); w];
                for (i, c) in chunks.iter().enumerate().filter(|(_, c)| c.rows > 0) {
                    per[i % w].push((i, 0, c.rows));
                }
                let queues: Vec<RangeQueue> = per.into_iter().map(RangeQueue::new).collect();
                let plans = (0..workers).map(|wk| vec![wk % w]).collect();
                return MorselQueues {
                    queues,
                    mode,
                    plans,
                    morsel_size,
                    total_rows,
                };
            }
        }
        let (queues, plans) = match mode {
            SchedulingMode::NumaAware => {
                let sockets = topology.sockets() as usize;
                let mut per_socket: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); sockets];
                for (i, c) in chunks.iter().enumerate() {
                    if c.rows > 0 {
                        per_socket[c.node.0 as usize].push((i, 0, c.rows));
                    }
                }
                let queues: Vec<RangeQueue> = per_socket.into_iter().map(RangeQueue::new).collect();
                let plans = (0..workers)
                    .map(|w| {
                        let home = topology.socket_of(morsel_numa::CoreId(w as u32));
                        let mut plan = vec![home.0 as usize];
                        plan.extend(topology.steal_order(home).into_iter().map(|s| s.0 as usize));
                        plan
                    })
                    .collect();
                (queues, plans)
            }
            SchedulingMode::NumaOblivious => {
                let pieces = chunks
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.rows > 0)
                    .map(|(i, c)| (i, 0, c.rows))
                    .collect();
                (vec![RangeQueue::new(pieces)], vec![vec![0]; workers])
            }
            SchedulingMode::Static { workers: w, align } => {
                // Split total rows into w equal shares. Chunks are laid
                // out node-ascending first, so with workers pinned
                // socket-block-wise the shares keep rough NUMA locality —
                // matching the paper's Section 5.4 emulation, which only
                // changed the morsel size to n/t (static division's
                // weakness is rigidity, not placement).
                let w = w.max(1);
                let share = (total_rows as usize).div_ceil(w);
                let mut queues = Vec::with_capacity(w);
                let mut ordered: Vec<(usize, usize, usize)> = chunks
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.rows > 0)
                    .map(|(i, c)| (i, 0usize, c.rows))
                    .collect();
                if align {
                    ordered.sort_by_key(|&(i, _, _)| (chunks[i].node.0, i));
                } else {
                    // Deterministic shuffle: a NUMA-oblivious planner
                    // assigns ranges with no relation to placement. (A
                    // plain chunk-order split can *accidentally* align
                    // when chunk and worker round-robin periods match.)
                    ordered
                        .sort_by_key(|&(i, _, _)| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
                let mut chunk_iter = ordered.into_iter();
                let mut current = chunk_iter.next();
                for _ in 0..w {
                    let mut pieces = Vec::new();
                    let mut need = share;
                    while need > 0 {
                        match current.take() {
                            None => break,
                            Some((ci, s, e)) => {
                                let avail = e - s;
                                if avail <= need {
                                    pieces.push((ci, s, e));
                                    need -= avail;
                                    current = chunk_iter.next();
                                } else {
                                    pieces.push((ci, s, s + need));
                                    current = Some((ci, s + need, e));
                                    need = 0;
                                }
                            }
                        }
                    }
                    queues.push(RangeQueue::new(pieces));
                }
                let plans = (0..workers).map(|wk| vec![wk % w]).collect();
                (queues, plans)
            }
        };
        MorselQueues {
            queues,
            mode,
            plans,
            morsel_size: morsel_size.max(1),
            total_rows,
        }
    }

    /// Cut the next morsel for `worker`. Returns the morsel and whether it
    /// was stolen from a non-preferred queue.
    pub fn next_for(&self, worker: usize) -> Option<(Morsel, bool)> {
        let plan = &self.plans[worker % self.plans.len()];
        for (i, &q) in plan.iter().enumerate() {
            if let Some(m) = self.queues[q].next(self.morsel_size) {
                return Some((m, i > 0));
            }
        }
        None
    }

    /// Preferred queue's socket still has work for `worker`?
    pub fn has_local_work(&self, worker: usize) -> bool {
        let plan = &self.plans[worker % self.plans.len()];
        self.queues[plan[0]].remaining() > 0
    }

    pub fn remaining_rows(&self) -> u64 {
        self.queues.iter().map(RangeQueue::remaining).sum()
    }

    pub fn is_exhausted(&self) -> bool {
        self.remaining_rows() == 0
    }

    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    pub fn mode(&self) -> SchedulingMode {
        self.mode
    }

    pub fn morsel_size(&self) -> usize {
        self.morsel_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_numa::SocketId;

    fn chunks_on(nodes: &[(u16, usize)]) -> Vec<ChunkMeta> {
        nodes
            .iter()
            .map(|&(n, rows)| ChunkMeta {
                node: SocketId(n),
                rows,
            })
            .collect()
    }

    #[test]
    fn cursor_is_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<Cursor>(), 128);
        let queues = [RangeQueue::new(vec![]), RangeQueue::new(vec![])];
        let at = |q: &RangeQueue| std::ptr::from_ref(&q.cursor) as usize;
        assert!(at(&queues[0]).abs_diff(at(&queues[1])) >= 128);
    }

    fn drain(q: &MorselQueues, worker: usize) -> Vec<Morsel> {
        let mut out = Vec::new();
        while let Some((m, _)) = q.next_for(worker) {
            out.push(m);
        }
        out
    }

    #[test]
    fn cuts_cover_all_rows_exactly_once() {
        let t = Topology::nehalem_ex();
        let chunks = chunks_on(&[(0, 1000), (1, 500), (2, 700), (3, 300)]);
        let q = MorselQueues::build(&chunks, SchedulingMode::NumaAware, 128, 8, &t);
        assert_eq!(q.total_rows(), 2500);
        let morsels = drain(&q, 0);
        let mut covered = [
            vec![false; 1000],
            vec![false; 500],
            vec![false; 700],
            vec![false; 300],
        ];
        for m in &morsels {
            for r in m.range.clone() {
                assert!(!covered[m.chunk][r], "row covered twice");
                covered[m.chunk][r] = true;
            }
        }
        assert!(covered.iter().flatten().all(|&b| b), "rows missed");
        assert!(q.is_exhausted());
    }

    #[test]
    fn morsels_do_not_cross_chunks() {
        let t = Topology::nehalem_ex();
        let chunks = chunks_on(&[(0, 100), (0, 100)]);
        let q = MorselQueues::build(&chunks, SchedulingMode::NumaAware, 64, 1, &t);
        for m in drain(&q, 0) {
            assert!(m.range.end <= 100);
        }
    }

    #[test]
    fn local_first_then_steal() {
        let t = Topology::nehalem_ex();
        let chunks = chunks_on(&[(0, 100), (1, 100)]);
        let q = MorselQueues::build(&chunks, SchedulingMode::NumaAware, 50, 16, &t);
        // Worker 0 (socket 0): first two cuts are local, next two stolen.
        let (m1, stolen1) = q.next_for(0).unwrap();
        let (_m2, stolen2) = q.next_for(0).unwrap();
        assert!(!stolen1 && !stolen2);
        assert_eq!(m1.chunk, 0);
        let (m3, stolen3) = q.next_for(0).unwrap();
        assert!(stolen3);
        assert_eq!(m3.chunk, 1);
    }

    #[test]
    fn numa_oblivious_single_queue_in_order() {
        let t = Topology::nehalem_ex();
        let chunks = chunks_on(&[(2, 10), (3, 10)]);
        let q = MorselQueues::build(&chunks, SchedulingMode::NumaOblivious, 100, 4, &t);
        let (m, stolen) = q.next_for(3).unwrap();
        assert_eq!(m.chunk, 0);
        assert!(!stolen);
    }

    #[test]
    fn static_division_gives_disjoint_fixed_shares() {
        let t = Topology::nehalem_ex();
        let chunks = chunks_on(&[(0, 100), (1, 100)]);
        let q = MorselQueues::build(
            &chunks,
            SchedulingMode::Static {
                workers: 4,
                align: true,
            },
            1_000_000,
            4,
            &t,
        );
        // Each worker gets exactly its 50-row share and nothing else.
        let mut all: Vec<Morsel> = Vec::new();
        for w in 0..4 {
            let ms = drain(&q, w);
            let rows: usize = ms.iter().map(Morsel::rows).sum();
            assert_eq!(rows, 50, "worker {w} share");
            all.extend(ms);
        }
        let total: usize = all.iter().map(Morsel::rows).sum();
        assert_eq!(total, 200);
        // Worker 0 exhausted its share; it gets nothing more (no stealing).
        assert!(q.next_for(0).is_none());
    }

    #[test]
    fn concurrent_cutting_is_exact() {
        let t = Topology::laptop();
        let chunks = chunks_on(&[(0, 100_000)]);
        let q = std::sync::Arc::new(MorselQueues::build(
            &chunks,
            SchedulingMode::NumaAware,
            97,
            8,
            &t,
        ));
        let mut handles = Vec::new();
        for w in 0..8 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut rows = 0usize;
                while let Some((m, _)) = q.next_for(w) {
                    rows += m.rows();
                }
                rows
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100_000);
    }

    #[test]
    fn empty_chunks_are_skipped() {
        let t = Topology::nehalem_ex();
        let chunks = chunks_on(&[(0, 0), (1, 10), (2, 0)]);
        let q = MorselQueues::build(&chunks, SchedulingMode::NumaAware, 4, 1, &t);
        let morsels = drain(&q, 0);
        assert!(morsels.iter().all(|m| m.chunk == 1));
        let rows: usize = morsels.iter().map(Morsel::rows).sum();
        assert_eq!(rows, 10);
    }

    #[test]
    fn atomic_chunks_never_split() {
        let t = Topology::nehalem_ex();
        let chunks = chunks_on(&[(0, 100), (1, 250), (2, 50)]);
        for mode in [
            SchedulingMode::NumaAware,
            SchedulingMode::NumaOblivious,
            SchedulingMode::Static {
                workers: 2,
                align: true,
            },
        ] {
            let q = MorselQueues::build_atomic(&chunks, mode, 4, &t);
            let mut morsels = Vec::new();
            for w in 0..4 {
                while let Some((m, _)) = q.next_for(w) {
                    morsels.push(m);
                }
            }
            assert_eq!(morsels.len(), 3, "mode {mode:?}");
            for m in &morsels {
                assert_eq!(m.range, 0..chunks[m.chunk].rows, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn has_local_work_tracks_home_socket() {
        let t = Topology::nehalem_ex();
        let chunks = chunks_on(&[(1, 10)]);
        let q = MorselQueues::build(&chunks, SchedulingMode::NumaAware, 100, 16, &t);
        assert!(!q.has_local_work(0)); // worker 0 on socket 0
        assert!(q.has_local_work(1)); // worker 1 on socket 1
    }
}
