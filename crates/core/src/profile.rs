//! Per-operator runtime profiles: the observability substrate for
//! `EXPLAIN ANALYZE` (`repro explain`, `repro sql --analyze`).
//!
//! A [`ProfileSlots`] table is allocated once per query at submit time
//! (one row of atomic counters per worker × operator) and shared through
//! [`crate::query::QueryShared`]. Operators record rows/batches/wall time
//! at morsel boundaries into *their own worker's* row with `Relaxed`
//! `fetch_add`s — no locks, no cross-worker cache-line contention beyond
//! the unavoidable sharing of one allocation. At query completion (or any
//! time a reader asks) the rows are merged into a [`QueryProfile`]
//! snapshot.
//!
//! Operator slots are numbered by `morsel-exec`'s `Plan::preorder`, the
//! one definition of a plan node's number (pre-order, a join's probe
//! subtree before its build subtree). `morsel-planner`'s `explain` lists
//! its lines by the same walk, so `profile.ops[i]` is the actual for
//! explain line `i` without any mapping table.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counter fields per (worker, operator) row. Order is load-bearing for
/// the flat index math only; readers go through the typed accessors.
const F_ROWS_IN: usize = 0;
const F_ROWS_OUT: usize = 1;
const F_BATCHES: usize = 2;
const F_MORSELS: usize = 3;
const F_WALL_NS: usize = 4;
const F_BUILD_ROWS: usize = 5;
const F_FRAGMENTS: usize = 6;
const FIELDS: usize = 7;

/// Merged counters for one operator of one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator label, `morsel-exec`'s `Plan::label` (e.g.
    /// `scan(filtered)`, `join(Inner)`).
    pub label: String,
    /// Tuples entering the operator (pre-filter for scans, probe-side
    /// input for joins, build input for pipeline breakers).
    pub rows_in: u64,
    /// Tuples the operator produced — the "actual" of est-vs-actual.
    pub rows_out: u64,
    /// Batches processed (one per morsel for scans; one per `apply` for
    /// in-pipeline operators, which skip emptied batches).
    pub batches: u64,
    /// Morsels that entered the pipeline this operator leads.
    pub morsels: u64,
    /// Wall-clock nanoseconds attributed to this operator, summed over
    /// workers (so it can exceed elapsed time under parallelism).
    pub wall_ns: u64,
    /// Rows inserted into a hash-table build, if this is a join.
    pub build_rows: u64,
    /// Spill fragments / sort runs emitted, if any.
    pub fragments: u64,
}

/// A merged, immutable profile of one executed query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// One entry per plan operator, in `Plan::preorder` order (the order
    /// explain lines are listed in).
    pub ops: Vec<OpProfile>,
    /// High-water mark of the query's memory reservations, in bytes.
    pub peak_reserved_bytes: u64,
}

impl QueryProfile {
    /// The per-operator actual row counts, aligned with explain lines.
    pub fn actual_rows(&self) -> Vec<u64> {
        self.ops.iter().map(|o| o.rows_out).collect()
    }

    /// Total wall nanoseconds across all operators and workers.
    pub fn total_wall_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.wall_ns).sum()
    }

    /// Render one line per operator: `label rows_in->rows_out ...`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str(&format!(
                "#{i} {}: in={} out={} batches={} morsels={} wall={:.3}ms",
                op.label,
                op.rows_in,
                op.rows_out,
                op.batches,
                op.morsels,
                op.wall_ns as f64 / 1e6,
            ));
            if op.build_rows > 0 {
                out.push_str(&format!(" build_rows={}", op.build_rows));
            }
            if op.fragments > 0 {
                out.push_str(&format!(" fragments={}", op.fragments));
            }
            out.push('\n');
        }
        out.push_str(&format!("peak reserved: {} B\n", self.peak_reserved_bytes));
        out
    }
}

/// Worker-local profile counter table for one in-flight query.
///
/// Layout: `counters[(worker * ops + op) * FIELDS + field]`, so one
/// worker's counters for one operator share a contiguous run and
/// different workers never write the same line concurrently.
#[derive(Debug)]
pub struct ProfileSlots {
    labels: Vec<String>,
    workers: usize,
    counters: Vec<AtomicU64>,
}

impl ProfileSlots {
    pub fn new(labels: Vec<String>, workers: usize) -> Self {
        let workers = workers.max(1);
        let n = labels.len() * workers * FIELDS;
        ProfileSlots {
            labels,
            workers,
            counters: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of operator slots.
    pub fn ops(&self) -> usize {
        self.labels.len()
    }

    #[inline]
    fn add(&self, worker: usize, op: u32, field: usize, n: u64) {
        let op = op as usize;
        if op >= self.labels.len() {
            debug_assert!(false, "profile slot {op} out of range");
            return;
        }
        let w = worker % self.workers;
        let idx = (w * self.labels.len() + op) * FIELDS + field;
        self.counters[idx].fetch_add(n, Ordering::Relaxed);
    }

    /// Record a morsel entering the pipeline led by `op` (a scan):
    /// `rows_in` raw tuples in, `rows_out` surviving the scan's filter
    /// and projection.
    pub fn record_morsel(&self, worker: usize, op: u32, rows_in: u64, rows_out: u64, wall_ns: u64) {
        self.add(worker, op, F_ROWS_IN, rows_in);
        self.add(worker, op, F_ROWS_OUT, rows_out);
        self.add(worker, op, F_BATCHES, 1);
        self.add(worker, op, F_MORSELS, 1);
        self.add(worker, op, F_WALL_NS, wall_ns);
    }

    /// Record one batch through an in-pipeline operator.
    pub fn record_batch(&self, worker: usize, op: u32, rows_in: u64, rows_out: u64, wall_ns: u64) {
        self.add(worker, op, F_ROWS_IN, rows_in);
        self.add(worker, op, F_ROWS_OUT, rows_out);
        self.add(worker, op, F_BATCHES, 1);
        self.add(worker, op, F_WALL_NS, wall_ns);
    }

    /// Rows flowing *into* a pipeline breaker (aggregation or sort input).
    pub fn add_rows_in(&self, worker: usize, op: u32, n: u64) {
        self.add(worker, op, F_ROWS_IN, n);
    }

    /// Rows a breaker *produced* (group count, merged sort output).
    pub fn add_rows_out(&self, worker: usize, op: u32, n: u64) {
        self.add(worker, op, F_ROWS_OUT, n);
    }

    /// Rows inserted into a join's hash-table build.
    pub fn add_build_rows(&self, worker: usize, op: u32, n: u64) {
        self.add(worker, op, F_BUILD_ROWS, n);
    }

    /// Spill fragments or sort runs emitted.
    pub fn add_fragments(&self, worker: usize, op: u32, n: u64) {
        self.add(worker, op, F_FRAGMENTS, n);
    }

    /// Wall time charged to a breaker's build/merge work.
    pub fn add_wall_ns(&self, worker: usize, op: u32, n: u64) {
        self.add(worker, op, F_WALL_NS, n);
    }

    /// Merge every worker's rows into one [`QueryProfile`]. Safe to call
    /// while the query still runs (the snapshot is then a lower bound).
    pub fn snapshot(&self) -> QueryProfile {
        let ops = self.labels.len();
        let mut merged: Vec<OpProfile> = self
            .labels
            .iter()
            .map(|l| OpProfile {
                label: l.clone(),
                ..OpProfile::default()
            })
            .collect();
        for w in 0..self.workers {
            for (op, m) in merged.iter_mut().enumerate() {
                let base = (w * ops + op) * FIELDS;
                let f = |i: usize| self.counters[base + i].load(Ordering::Relaxed);
                m.rows_in += f(F_ROWS_IN);
                m.rows_out += f(F_ROWS_OUT);
                m.batches += f(F_BATCHES);
                m.morsels += f(F_MORSELS);
                m.wall_ns += f(F_WALL_NS);
                m.build_rows += f(F_BUILD_ROWS);
                m.fragments += f(F_FRAGMENTS);
            }
        }
        QueryProfile {
            ops: merged,
            peak_reserved_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots() -> ProfileSlots {
        ProfileSlots::new(vec!["scan(t)".into(), "filter".into()], 4)
    }

    #[test]
    fn per_worker_rows_merge_in_snapshot() {
        let s = slots();
        s.record_morsel(0, 0, 100, 80, 10);
        s.record_morsel(1, 0, 50, 40, 5);
        s.record_batch(2, 1, 80, 30, 7);
        s.record_batch(3, 1, 40, 10, 3);
        let p = s.snapshot();
        assert_eq!(p.ops.len(), 2);
        assert_eq!(p.ops[0].label, "scan(t)");
        assert_eq!(p.ops[0].rows_in, 150);
        assert_eq!(p.ops[0].rows_out, 120);
        assert_eq!(p.ops[0].morsels, 2);
        assert_eq!(p.ops[0].batches, 2);
        assert_eq!(p.ops[0].wall_ns, 15);
        assert_eq!(p.ops[1].rows_out, 40);
        assert_eq!(p.ops[1].morsels, 0, "in-pipeline ops count batches only");
        assert_eq!(p.actual_rows(), vec![120, 40]);
        assert_eq!(p.total_wall_ns(), 25);
    }

    #[test]
    fn breaker_counters_accumulate() {
        let s = slots();
        s.add_rows_in(0, 1, 7);
        s.add_rows_out(1, 1, 3);
        s.add_build_rows(2, 0, 11);
        s.add_fragments(3, 0, 2);
        s.add_wall_ns(0, 1, 9);
        let p = s.snapshot();
        assert_eq!(p.ops[1].rows_in, 7);
        assert_eq!(p.ops[1].rows_out, 3);
        assert_eq!(p.ops[1].wall_ns, 9);
        assert_eq!(p.ops[0].build_rows, 11);
        assert_eq!(p.ops[0].fragments, 2);
    }

    #[test]
    fn out_of_range_workers_fold_into_valid_rows() {
        let s = ProfileSlots::new(vec!["op".into()], 2);
        s.add_rows_out(0, 0, 1);
        s.add_rows_out(5, 0, 1); // worker 5 folds to row 1
        assert_eq!(s.snapshot().ops[0].rows_out, 2);
    }

    #[test]
    fn render_mentions_every_operator_and_extras() {
        let s = slots();
        s.record_morsel(0, 0, 10, 10, 1_000_000);
        s.add_build_rows(0, 0, 4);
        s.add_fragments(0, 1, 3);
        let mut p = s.snapshot();
        p.peak_reserved_bytes = 512;
        let text = p.render();
        assert!(text.contains("#0 scan(t): in=10 out=10"));
        assert!(text.contains("wall=1.000ms"));
        assert!(text.contains("build_rows=4"));
        assert!(text.contains("fragments=3"));
        assert!(text.contains("peak reserved: 512 B"));
    }
}
