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

/// Admission-control configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum queries dispatched concurrently.
    pub max_in_flight: usize,
    /// Maximum queries waiting beyond the in-flight bound; further
    /// submissions are rejected.
    pub max_queue: usize,
    /// Aging applied to waiting queries' admission order.
    pub aging: AgingPolicy,
}

impl AdmissionConfig {
    pub fn new(max_in_flight: usize) -> Self {
        assert!(max_in_flight > 0, "in-flight bound must be positive");
        AdmissionConfig {
            max_in_flight,
            max_queue: 64,
            aging: AgingPolicy::none(),
        }
    }

    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    pub fn with_aging(mut self, aging: AgingPolicy) -> Self {
        self.aging = aging;
        self
    }
}

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
    config: AdmissionConfig,
    waiting: Vec<Waiting<T>>,
    in_flight: usize,
    seq: u64,
}

impl<T> AdmissionQueue<T> {
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionQueue {
            config,
            waiting: Vec::new(),
            in_flight: 0,
            seq: 0,
        }
    }

    pub fn config(&self) -> AdmissionConfig {
        self.config
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

    /// Offer a query for admission at time `now_ns`, through an external
    /// admission gate. When `admit` is false (the service sees memory
    /// pressure), the immediate-dispatch fast path is skipped: the query
    /// is parked in the wait queue even if in-flight capacity is free, so
    /// it is only dispatched once a later housekeeping pass observes
    /// headroom. The queue-full bound still applies.
    pub fn submit(
        &mut self,
        payload: T,
        priority: u32,
        now_ns: u64,
        deadline_ns: Option<u64>,
        admit: bool,
    ) -> AdmissionDecision<T> {
        if admit && self.in_flight < self.config.max_in_flight {
            self.in_flight += 1;
            AdmissionDecision::Admitted(payload)
        } else if self.waiting.len() < self.config.max_queue {
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
    /// in admission order — the caller must dispatch each. Through the
    /// same gate as [`submit`](Self::submit): when `admit` is false the
    /// freed capacity is recorded but nothing is admitted into it —
    /// waiters stay parked until a later
    /// [`poll_admit`](Self::poll_admit) observes headroom.
    pub fn complete(&mut self, now_ns: u64, admit: bool) -> Vec<T> {
        assert!(self.in_flight > 0, "complete() without an in-flight query");
        self.in_flight -= 1;
        if admit {
            self.poll_admit(now_ns)
        } else {
            Vec::new()
        }
    }

    /// Remove and return up to `count` waiters, lowest effective
    /// priority first (newest submission breaks ties, so the query that
    /// has invested the least waiting is shed first). Used for load
    /// shedding under memory pressure; the caller rejects the payloads.
    pub fn shed_lowest(&mut self, now_ns: u64, count: usize) -> Vec<T> {
        let mut shed = Vec::new();
        let aging = self.config.aging;
        for _ in 0..count {
            let worst = self
                .waiting
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| {
                    let waited = now_ns.saturating_sub(w.submitted_ns);
                    (
                        aging.effective_priority(w.priority, waited),
                        std::cmp::Reverse(w.seq),
                    )
                })
                .map(|(i, _)| i);
            let Some(worst) = worst else { break };
            shed.push(self.waiting.swap_remove(worst).payload);
        }
        shed
    }

    /// Admit waiters into any free in-flight capacity right now. A no-op
    /// when the bound is saturated; used by the service to resume
    /// admission after a pressure episode gated it off.
    pub fn poll_admit(&mut self, now_ns: u64) -> Vec<T> {
        let mut admitted = Vec::new();
        while self.in_flight < self.config.max_in_flight {
            let aging = self.config.aging;
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
                        aging.effective_priority(w.priority, waited),
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
        AdmissionQueue::new(AdmissionConfig::new(max_in_flight).with_max_queue(max_queue))
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
        assert_eq!(admitted(q.submit("a", 1, 0, None, true)), "a");
        assert_eq!(admitted(q.submit("b", 1, 0, None, true)), "b");
        assert!(matches!(
            q.submit("c", 1, 0, None, true),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("d", 1, 0, None, true),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("e", 1, 0, None, true),
            AdmissionDecision::Rejected("e")
        ));
        assert_eq!(q.in_flight(), 2);
        assert_eq!(q.queued(), 2);
        // Completion admits exactly one, FIFO among equal priorities.
        assert_eq!(q.complete(1, true), vec!["c"]);
        assert_eq!(q.complete(2, true), vec!["d"]);
        assert_eq!(q.complete(3, true), Vec::<&str>::new());
        assert_eq!(q.complete(4, true), Vec::<&str>::new());
        assert!(q.is_idle());
    }

    #[test]
    fn higher_priority_admitted_first() {
        let mut q = queue(1, 8);
        let _ = admitted(q.submit("running", 1, 0, None, true));
        assert!(matches!(
            q.submit("lo", 1, 0, None, true),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("hi", 8, 1, None, true),
            AdmissionDecision::Queued
        ));
        assert_eq!(q.complete(2, true), vec!["hi"]);
        assert_eq!(q.complete(3, true), vec!["lo"]);
    }

    #[test]
    fn aging_outranks_fresh_high_priority() {
        let aging = AgingPolicy::every(100).with_max_boost(32);
        let mut q: AdmissionQueue<&str> =
            AdmissionQueue::new(AdmissionConfig::new(1).with_max_queue(8).with_aging(aging));
        let _ = admitted(q.submit("running", 8, 0, None, true));
        assert!(matches!(
            q.submit("lo", 1, 0, None, true),
            AdmissionDecision::Queued
        ));
        // A fresh priority-8 query arrives much later; by then the
        // priority-1 query has aged past it (1 + 10 > 8).
        assert!(matches!(
            q.submit("hi", 8, 1_000, None, true),
            AdmissionDecision::Queued
        ));
        assert_eq!(q.complete(1_000, true), vec!["lo"]);
        assert_eq!(q.complete(1_001, true), vec!["hi"]);
    }

    #[test]
    fn overdue_waiters_expire() {
        let mut q = queue(1, 8);
        let _ = admitted(q.submit("running", 1, 0, None, true));
        assert!(matches!(
            q.submit("patient", 1, 0, None, true),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("hurried", 1, 0, Some(50), true),
            AdmissionDecision::Queued
        ));
        assert!(q.expire_overdue(49).is_empty());
        assert_eq!(q.expire_overdue(50), vec!["hurried"]);
        assert_eq!(q.queued(), 1);
        assert_eq!(q.complete(60, true), vec!["patient"]);
    }

    #[test]
    fn overdue_waiters_never_admitted() {
        let mut q = queue(1, 8);
        let _ = admitted(q.submit("running", 1, 0, None, true));
        // Overdue high-priority waiter vs live low-priority waiter: the
        // freed slot must go to the live one; the overdue entry stays
        // queued for expire_overdue.
        assert!(matches!(
            q.submit("overdue-hi", 8, 0, Some(50), true),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("live-lo", 1, 0, None, true),
            AdmissionDecision::Queued
        ));
        assert_eq!(q.complete(100, true), vec!["live-lo"]);
        assert_eq!(q.expire_overdue(100), vec!["overdue-hi"]);
        // Only overdue waiters queued: the freed slot stays free.
        assert!(matches!(
            q.submit("overdue-2", 1, 0, Some(10), true),
            AdmissionDecision::Queued
        ));
        assert!(q.complete(200, true).is_empty());
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.expire_overdue(200), vec!["overdue-2"]);
    }

    #[test]
    #[should_panic(expected = "in-flight bound must be positive")]
    fn zero_bound_rejected() {
        let _ = AdmissionConfig::new(0);
    }

    #[test]
    fn gated_submit_queues_despite_free_capacity() {
        let mut q = queue(2, 2);
        assert!(matches!(
            q.submit("a", 1, 0, None, false),
            AdmissionDecision::Queued
        ));
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.queued(), 1);
        // Pressure clears: a poll admits the parked query.
        assert_eq!(q.poll_admit(1), vec!["a"]);
        assert_eq!(q.in_flight(), 1);
        // The queue-full bound still rejects when gated.
        assert!(matches!(
            q.submit("b", 1, 2, None, false),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("c", 1, 2, None, false),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("d", 1, 2, None, false),
            AdmissionDecision::Rejected("d")
        ));
    }

    #[test]
    fn gated_complete_frees_capacity_without_admitting() {
        let mut q = queue(1, 4);
        let _ = admitted(q.submit("running", 1, 0, None, true));
        assert!(matches!(
            q.submit("waiter", 1, 0, None, true),
            AdmissionDecision::Queued
        ));
        assert!(q.complete(1, false).is_empty());
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.queued(), 1);
        assert_eq!(q.poll_admit(2), vec!["waiter"]);
        assert!(q.poll_admit(3).is_empty());
    }

    #[test]
    fn shed_lowest_drops_lowest_priority_newest_first() {
        let mut q = queue(1, 8);
        let _ = admitted(q.submit("running", 5, 0, None, true));
        for (name, prio) in [("lo-old", 1u32), ("lo-new", 1), ("hi", 8)] {
            assert!(matches!(
                q.submit(name, prio, 1, None, true),
                AdmissionDecision::Queued
            ));
        }
        // Lowest priority goes first; among equals, the newest.
        assert_eq!(q.shed_lowest(2, 1), vec!["lo-new"]);
        assert_eq!(q.shed_lowest(2, 5), vec!["lo-old", "hi"]);
        assert!(q.shed_lowest(2, 1).is_empty());
        assert_eq!(q.queued(), 0);
        assert_eq!(q.in_flight(), 1);
    }

    #[test]
    fn shed_lowest_respects_aging() {
        let aging = AgingPolicy::every(100).with_max_boost(32);
        let mut q: AdmissionQueue<&str> =
            AdmissionQueue::new(AdmissionConfig::new(1).with_max_queue(8).with_aging(aging));
        let _ = admitted(q.submit("running", 8, 0, None, true));
        assert!(matches!(
            q.submit("aged-lo", 1, 0, None, true),
            AdmissionDecision::Queued
        ));
        assert!(matches!(
            q.submit("fresh-mid", 5, 1_000, None, true),
            AdmissionDecision::Queued
        ));
        // By t=1000 the priority-1 waiter has aged to 11 > 5: the fresh
        // mid-priority query is the effective-lowest and is shed first.
        assert_eq!(q.shed_lowest(1_000, 1), vec!["fresh-mid"]);
    }
}
