//! Admission control: bounded in-flight queries with a prioritized,
//! aging wait queue.
//!
//! The dispatcher itself accepts any number of concurrent queries, but a
//! serving system must not: each admitted query pins pipeline state and
//! fragments every worker's share, so past a point adding queries only
//! adds latency. [`AdmissionQueue`] enforces a hard bound on concurrently
//! *dispatched* queries (`max_in_flight`), queues up to `max_queue`
//! submissions beyond it, and rejects the rest.
//!
//! Queued queries are admitted in order of *effective* priority — base
//! priority plus the [`AgingPolicy`] boost for time spent waiting — with
//! FIFO tie-breaking. Aging is what makes the queue starvation-free: under
//! sustained high-priority arrivals, a waiting low-priority query's
//! effective priority keeps growing until it outranks fresh traffic.
//!
//! The queue is deliberately executor-agnostic and clock-agnostic: every
//! method takes `now_ns` explicitly, so the same code runs under the
//! wall-clock service and under deterministic virtual-time tests.

use morsel_core::AgingPolicy;

/// What happened to a submission.
pub enum AdmissionDecision<T> {
    /// Capacity was available: dispatch the payload now (the queue has
    /// already counted it in flight).
    Admitted(T),
    /// Parked in the wait queue; it will come back from
    /// [`AdmissionQueue::complete`] once admitted.
    Queued,
    /// Both the in-flight bound and the wait queue are full; the payload
    /// is returned so the caller can fail the query.
    Rejected(T),
}

struct Waiting<T> {
    payload: T,
    priority: u32,
    submitted_ns: u64,
    /// `u64::MAX` when the query has no deadline.
    deadline_ns: u64,
    /// FIFO tie-break among equal effective priorities.
    seq: u64,
}

/// A bounded admission queue over arbitrary payloads.
///
/// Not thread-safe by itself; the service wraps it in a mutex. See the
/// [module docs](self) for semantics.
pub struct AdmissionQueue<T> {
    /// Maximum queries dispatched concurrently.
    max_in_flight: usize,
    /// Maximum queries waiting beyond the in-flight bound; further
    /// submissions are rejected.
    max_queue: usize,
    /// Aging applied to waiting queries' admission order.
    aging: AgingPolicy,
    waiting: Vec<Waiting<T>>,
    in_flight: usize,
    seq: u64,
}

impl<T> AdmissionQueue<T> {
    pub fn new(max_in_flight: usize, max_queue: usize, aging: AgingPolicy) -> Self {
        assert!(max_in_flight > 0, "in-flight bound must be positive");
        AdmissionQueue {
            max_in_flight,
            max_queue,
            aging,
            waiting: Vec::new(),
            in_flight: 0,
            seq: 0,
        }
    }

    /// Queries currently dispatched (admitted and not yet completed).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Queries waiting for admission.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }

    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.waiting.is_empty()
    }

    /// Offer a query for admission at time `now_ns`.
    pub fn submit(
        &mut self,
        payload: T,
        priority: u32,
        now_ns: u64,
        deadline_ns: Option<u64>,
    ) -> AdmissionDecision<T> {
        if self.in_flight < self.max_in_flight {
            self.in_flight += 1;
            AdmissionDecision::Admitted(payload)
        } else if self.waiting.len() < self.max_queue {
            self.seq += 1;
            self.waiting.push(Waiting {
                payload,
                priority,
                submitted_ns: now_ns,
                deadline_ns: deadline_ns.unwrap_or(u64::MAX),
                seq: self.seq,
            });
            AdmissionDecision::Queued
        } else {
            AdmissionDecision::Rejected(payload)
        }
    }

    /// Report one in-flight query finished (completed, cancelled, or
    /// failed). Returns the payloads admitted into the freed capacity,
    /// in admission order — the caller must dispatch each.
    pub fn complete(&mut self, now_ns: u64) -> Vec<T> {
        assert!(self.in_flight > 0, "complete() without an in-flight query");
        self.in_flight -= 1;
        let mut admitted = Vec::new();
        while self.in_flight < self.max_in_flight {
            // Never admit an already-overdue waiter (its aged priority
            // may even outrank live ones): it would waste the freed slot
            // and a pipeline build just to be cancelled by the
            // dispatcher. Overdue entries stay queued for the caller's
            // `expire_overdue` pass.
            let best = self
                .waiting
                .iter()
                .enumerate()
                .filter(|(_, w)| now_ns < w.deadline_ns)
                .max_by_key(|(_, w)| {
                    let waited = now_ns.saturating_sub(w.submitted_ns);
                    // Highest effective priority wins; among equals, the
                    // earliest submission (smallest seq, negated for max).
                    (
                        self.aging.effective_priority(w.priority, waited),
                        std::cmp::Reverse(w.seq),
                    )
                })
                .map(|(i, _)| i);
            let Some(best) = best else { break };
            let w = self.waiting.swap_remove(best);
            self.in_flight += 1;
            admitted.push(w.payload);
        }
        admitted
    }

    /// Remove and return every waiting query whose deadline has passed
    /// (they consume no in-flight capacity; the caller reports them
    /// cancelled).
    pub fn expire_overdue(&mut self, now_ns: u64) -> Vec<T> {
        let mut expired = Vec::new();
        let mut i = 0;
        while i < self.waiting.len() {
            if now_ns >= self.waiting[i].deadline_ns {
                expired.push(self.waiting.swap_remove(i).payload);
            } else {
                i += 1;
            }
        }
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(max_in_flight: usize, max_queue: usize) -> AdmissionQueue<&'static str> {
        AdmissionQueue::new(max_in_flight, max_queue, AgingPolicy::none())
    }

    fn admitted<T>(d: AdmissionDecision<T>) -> T {
        match d {
            AdmissionDecision::Admitted(t) => t,
            _ => panic!("expected admission"),
        }
    }

    #[test]
    fn bounds_are_enforced() {
        let mut q = queue(2, 2);
        assert_eq!(admitted(q.submit("a", 1, 0, None)), "a");
        assert_eq!(admitted(q.submit("b", 1, 0, None)), "b");
        assert!(matches!(
            q.submit("c", 1, 0, None),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("d", 1, 0, None),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("e", 1, 0, None),
            AdmissionDecision::Rejected("e")
        ));
        assert_eq!(q.in_flight(), 2);
        assert_eq!(q.queued(), 2);
        // Completion admits exactly one, FIFO among equal priorities.
        assert_eq!(q.complete(1), vec!["c"]);
        assert_eq!(q.complete(2), vec!["d"]);
        assert_eq!(q.complete(3), Vec::<&str>::new());
        assert_eq!(q.complete(4), Vec::<&str>::new());
        assert!(q.is_idle());
    }

    #[test]
    fn higher_priority_admitted_first() {
        let mut q = queue(1, 8);
        let _ = admitted(q.submit("running", 1, 0, None));
        assert!(matches!(
            q.submit("lo", 1, 0, None),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("hi", 8, 1, None),
            AdmissionDecision::Queued
        ));
        assert_eq!(q.complete(2), vec!["hi"]);
        assert_eq!(q.complete(3), vec!["lo"]);
    }

    #[test]
    fn aging_outranks_fresh_high_priority() {
        let aging = AgingPolicy::every(100).with_max_boost(32);
        let mut q: AdmissionQueue<&str> = AdmissionQueue::new(1, 8, aging);
        let _ = admitted(q.submit("running", 8, 0, None));
        assert!(matches!(
            q.submit("lo", 1, 0, None),
            AdmissionDecision::Queued
        ));
        // A fresh priority-8 query arrives much later; by then the
        // priority-1 query has aged past it (1 + 10 > 8).
        assert!(matches!(
            q.submit("hi", 8, 1_000, None),
            AdmissionDecision::Queued
        ));
        assert_eq!(q.complete(1_000), vec!["lo"]);
        assert_eq!(q.complete(1_001), vec!["hi"]);
    }

    #[test]
    fn overdue_waiters_expire() {
        let mut q = queue(1, 8);
        let _ = admitted(q.submit("running", 1, 0, None));
        assert!(matches!(
            q.submit("patient", 1, 0, None),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("hurried", 1, 0, Some(50)),
            AdmissionDecision::Queued
        ));
        assert!(q.expire_overdue(49).is_empty());
        assert_eq!(q.expire_overdue(50), vec!["hurried"]);
        assert_eq!(q.queued(), 1);
        assert_eq!(q.complete(60), vec!["patient"]);
    }

    #[test]
    fn overdue_waiters_never_admitted() {
        let mut q = queue(1, 8);
        let _ = admitted(q.submit("running", 1, 0, None));
        // Overdue high-priority waiter vs live low-priority waiter: the
        // freed slot must go to the live one; the overdue entry stays
        // queued for expire_overdue.
        assert!(matches!(
            q.submit("overdue-hi", 8, 0, Some(50)),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("live-lo", 1, 0, None),
            AdmissionDecision::Queued
        ));
        assert_eq!(q.complete(100), vec!["live-lo"]);
        assert_eq!(q.expire_overdue(100), vec!["overdue-hi"]);
        // Only overdue waiters queued: the freed slot stays free.
        assert!(matches!(
            q.submit("overdue-2", 1, 0, Some(10)),
            AdmissionDecision::Queued
        ));
        assert!(q.complete(200).is_empty());
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.expire_overdue(200), vec!["overdue-2"]);
    }

    #[test]
    #[should_panic(expected = "in-flight bound must be positive")]
    fn zero_bound_rejected() {
        let _ = queue(0, 8);
    }
}
