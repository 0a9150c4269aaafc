//! Pipeline jobs: the unit of work the dispatcher schedules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use morsel_numa::Topology;

use crate::queue::{MorselQueues, SchedulingMode};
use crate::task::{ChunkMeta, Morsel, TaskContext};

/// A fully parallelizable pipeline. Implementations live in `morsel-exec`;
/// the scheduler only needs these two entry points.
///
/// `run_morsel` is called concurrently from many workers; implementations
/// synchronize their shared state themselves (per the paper: operators are
/// aware of parallelism, using lock-free structures where it matters).
/// `finish` is called exactly once, by the worker that completed the last
/// morsel, before the query's next pipeline is constructed.
pub trait PipelineJob: Send + Sync {
    fn run_morsel(&self, ctx: &mut TaskContext<'_>, morsel: Morsel);
    fn finish(&self, _ctx: &mut TaskContext<'_>) {}
}

/// What a query stage hands to the dispatcher.
pub struct BuiltJob {
    pub job: Arc<dyn PipelineJob>,
    pub chunks: Vec<ChunkMeta>,
    /// Override the dispatcher's morsel size (e.g. merge stages want one
    /// morsel per merge segment).
    pub morsel_size: Option<usize>,
    /// Chunks are indivisible units (partitions/segments): one morsel per
    /// chunk, even under static division.
    pub atomic_chunks: bool,
    pub label: String,
    /// Bytes of operator state this job allocated (or will allocate) at
    /// build time — e.g. a join's hash-table directory and tuple
    /// storage. The dispatcher charges this against the query's memory
    /// budget right after the stage builds; if the budget refuses, the
    /// query fails with `ResourceExhausted` before any morsel runs.
    pub reserve_bytes: u64,
}

impl BuiltJob {
    pub fn new(
        label: impl Into<String>,
        job: Arc<dyn PipelineJob>,
        chunks: Vec<ChunkMeta>,
    ) -> Self {
        BuiltJob {
            job,
            chunks,
            morsel_size: None,
            atomic_chunks: false,
            label: label.into(),
            reserve_bytes: 0,
        }
    }

    pub fn with_morsel_size(mut self, size: usize) -> Self {
        self.morsel_size = Some(size);
        self
    }

    /// Declare build-time operator state for the query's memory budget
    /// (see [`BuiltJob::reserve_bytes`]).
    pub fn with_reserve_bytes(mut self, bytes: u64) -> Self {
        self.reserve_bytes = bytes;
        self
    }

    /// Mark chunks as indivisible (aggregation partitions, merge segments).
    pub fn with_atomic_chunks(mut self) -> Self {
        self.atomic_chunks = true;
        self
    }

    pub fn total_rows(&self) -> u64 {
        self.chunks.iter().map(|c| c.rows as u64).sum()
    }
}

/// Set in [`JobExec::state`] once a finisher has been chosen; the low
/// bits count claims in flight.
const CLOSED: u64 = 1 << 63;

/// Dispatcher-internal state of an executing pipeline job.
///
/// Exactly one caller finishes a job, and only after every morsel that
/// was handed out has completed. `rows_left` counts the rows of morsels
/// not yet completed, so the completion that brings it to zero is by
/// construction the last one — no other morsel can be running or still
/// be cut — and that caller alone is told to finish. A cancelled query
/// never hands out its remaining morsels; its job is instead closed by
/// [`JobExec::reap`], which succeeds only at an instant when no claim is
/// in flight. `state` makes the two exclusive: a completer that finishes
/// sets [`CLOSED`] in the same atomic step that drops its claim, `reap`
/// swings `0 → CLOSED`, and a claim that finds `CLOSED` backs out.
pub(crate) struct JobExec {
    pub job: Arc<dyn PipelineJob>,
    pub queues: MorselQueues,
    pub label: String,
    /// Claims in flight (being cut or executing), plus [`CLOSED`].
    state: AtomicU64,
    /// Rows of morsels that have not completed yet.
    rows_left: AtomicU64,
    /// Statistics.
    pub morsels_dispatched: AtomicU64,
    pub morsels_stolen: AtomicU64,
}

impl JobExec {
    pub fn new(
        built: BuiltJob,
        mode: SchedulingMode,
        default_morsel_size: usize,
        workers: usize,
        topology: &Topology,
    ) -> Self {
        let queues = if built.atomic_chunks {
            MorselQueues::build_atomic(&built.chunks, mode, workers, topology)
        } else {
            let morsel_size = built.morsel_size.unwrap_or(default_morsel_size);
            MorselQueues::build(&built.chunks, mode, morsel_size, workers, topology)
        };
        JobExec {
            job: built.job,
            rows_left: AtomicU64::new(queues.total_rows()),
            queues,
            label: built.label,
            state: AtomicU64::new(0),
            morsels_dispatched: AtomicU64::new(0),
            morsels_stolen: AtomicU64::new(0),
        }
    }

    /// Try to claim a morsel for `worker`. The claim is registered *before*
    /// cutting, so [`Self::reap`] can never close the job while a morsel
    /// is being handed out; the caller owes one [`Self::complete`] per
    /// morsel it gets.
    pub fn try_claim(&self, worker: usize) -> Option<Morsel> {
        let claimed = if self.state.fetch_add(1, Ordering::SeqCst) & CLOSED == 0 {
            self.queues.next_for(worker)
        } else {
            None
        };
        match claimed {
            Some((_, stolen)) => {
                self.morsels_dispatched.fetch_add(1, Ordering::Relaxed);
                if stolen {
                    self.morsels_stolen.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.state.fetch_sub(1, Ordering::SeqCst);
            }
        }
        claimed.map(|(morsel, _)| morsel)
    }

    /// Report a claimed morsel of `rows` rows as executed and drop its
    /// claim. Returns `true` to exactly one caller, the one whose morsel
    /// was the last of the job to complete: it must run `job.finish` and
    /// advance the query.
    pub fn complete(&self, rows: usize) -> bool {
        let rows = rows as u64;
        let before = self.rows_left.fetch_sub(rows, Ordering::SeqCst);
        debug_assert!(before >= rows, "completed more rows than the job has");
        let last = before == rows;
        // The last completer closes the job as it leaves; everyone else
        // just drops the claim.
        let state = if last {
            self.state.fetch_add(CLOSED - 1, Ordering::SeqCst)
        } else {
            self.state.fetch_sub(1, Ordering::SeqCst)
        };
        // A completer that was not the last may drop its claim after the
        // last one closed the job: the two counters are separate atomics.
        debug_assert!(state & !CLOSED > 0, "completion without a claim");
        debug_assert!(!last || state & CLOSED == 0, "job closed twice");
        last
    }

    /// Close the job of a cancelled query, whose remaining morsels will
    /// never be handed out. Succeeds — once — only while no claim is in
    /// flight; morsels that are still running complete normally and a
    /// later call reaps.
    pub fn reap(&self) -> bool {
        self.state
            .compare_exchange(0, CLOSED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_numa::SocketId;

    struct NopJob;
    impl PipelineJob for NopJob {
        fn run_morsel(&self, _ctx: &mut TaskContext<'_>, _m: Morsel) {}
    }

    fn job(rows: usize) -> JobExec {
        let built = BuiltJob::new(
            "t",
            Arc::new(NopJob),
            vec![ChunkMeta {
                node: SocketId(0),
                rows,
            }],
        );
        JobExec::new(built, SchedulingMode::NumaAware, 10, 2, &Topology::laptop())
    }

    fn expect_task(c: Option<Morsel>) -> Morsel {
        c.expect("expected a task")
    }

    #[test]
    fn claim_and_release_lifecycle() {
        let j = job(15);
        let m1 = expect_task(j.try_claim(0));
        assert_eq!(m1.rows(), 10);
        let m2 = expect_task(j.try_claim(0));
        assert_eq!(m2.rows(), 5);
        // Queue exhausted, two morsels in flight: nothing to claim, and
        // a failed claim never finishes anything.
        assert!(j.try_claim(0).is_none());
        // Two in flight; the first completion is not the last.
        assert!(!j.complete(m1.rows()));
        // The second completes the job and is the finisher.
        assert!(j.complete(m2.rows()));
        // Nothing further can win it, or claim from it.
        assert!(!j.reap());
        assert!(j.try_claim(0).is_none());
    }

    #[test]
    fn completion_racing_the_last_claim_must_not_finish() {
        // The finish race of the two-step `release` this replaced
        // (`in_flight.fetch_sub(1) == 1`, then `queues.is_exhausted()`):
        // A completes the second-to-last morsel and drops the in-flight
        // count to zero; before A looks at the queue, B claims and cuts
        // the *last* morsel; A then sees an exhausted queue and runs
        // `finish` while B's morsel is still executing.
        let j = job(15);
        let a = expect_task(j.try_claim(0));
        // A's completion: with B's morsel not yet cut, A is not last …
        assert!(!j.complete(a.rows()));
        // … B claims and cuts the last morsel …
        let b = expect_task(j.try_claim(1));
        // … which is the state A's exhaustion check used to observe:
        // A saw `in_flight` 1 → 0, and the queue is empty now.
        assert!(j.queues.is_exhausted());
        // No one may finish while B runs: not a failed claim, not a reap.
        assert!(j.try_claim(0).is_none());
        assert!(!j.reap());
        // B's completion is the one and only finisher.
        assert!(j.complete(b.rows()));
        assert!(!j.reap());
    }

    #[test]
    fn failed_claim_around_the_last_completion_leaves_it_the_finisher() {
        // The liveness side of the same seam: B's failed claim is in
        // flight around A's completion of the only morsel. A is still the
        // finisher (the old protocol had to hand the duty to B here),
        // and B's claim finishes nothing.
        let j = job(10);
        let a = expect_task(j.try_claim(0));
        j.state.fetch_add(1, Ordering::SeqCst); // B registers its claim
        assert!(j.complete(a.rows()));
        j.state.fetch_sub(1, Ordering::SeqCst); // B found nothing, backs out
        assert_eq!(j.state.load(Ordering::SeqCst), CLOSED);
    }

    #[test]
    fn release_before_exhaustion_does_not_finish() {
        let j = job(100);
        let m = expect_task(j.try_claim(0));
        assert!(!j.complete(m.rows())); // queue still has rows
    }

    #[test]
    fn reap_waits_for_claims_in_flight_and_closes_the_job() {
        // A cancelled query: one morsel is running, the rest will never
        // be handed out.
        let j = job(100);
        let m = expect_task(j.try_claim(0));
        assert!(!j.reap(), "a morsel is still executing");
        assert!(!j.complete(m.rows()));
        assert!(j.reap());
        assert!(!j.reap(), "reaped once");
        // A straggler that still holds the job cannot cut from it.
        assert!(j.try_claim(1).is_none());
        assert_eq!(j.queues.remaining_rows(), 90);
    }

    #[test]
    fn built_job_total_rows() {
        let b = BuiltJob::new(
            "x",
            Arc::new(NopJob),
            vec![
                ChunkMeta {
                    node: SocketId(0),
                    rows: 5,
                },
                ChunkMeta {
                    node: SocketId(0),
                    rows: 7,
                },
            ],
        )
        .with_morsel_size(3);
        assert_eq!(b.total_rows(), 12);
        assert_eq!(b.morsel_size, Some(3));
    }
}
