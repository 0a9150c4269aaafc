//! Morsels, task contexts, and per-morsel cost profiles.

use std::ops::Range;

use morsel_numa::{AccessCounters, SocketId};

use crate::env::ExecEnv;
use crate::govern::EngineError;
use crate::profile::ProfileSlots;
use crate::query::QueryShared;

/// The paper's experimentally determined default morsel size is ~100,000
/// tuples (Section 3). Our default is smaller because the reproduction runs
/// at a smaller scale factor; Figure 6's sweep regenerates the tradeoff.
pub const DEFAULT_MORSEL_SIZE: usize = 16_384;

/// A morsel: a row range within one input chunk. A chunk is a base
/// relation's partition, a run of same-node partitions of a grouped
/// relation (`Relation::grouped`), or a storage area; a morsel never spans
/// chunks, but one of a grouped relation may span partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Morsel {
    pub chunk: usize,
    pub range: Range<usize>,
}

impl Morsel {
    pub fn rows(&self) -> usize {
        self.range.len()
    }
}

/// What the dispatcher needs to know about one input chunk.
#[derive(Debug, Clone, Copy)]
pub struct ChunkMeta {
    pub node: SocketId,
    pub rows: usize,
}

/// Per-morsel memory/compute profile, consumed by the cost model.
#[derive(Debug, Clone, Default)]
pub struct MorselProfile {
    /// Pure compute time in virtual nanoseconds.
    pub cpu_ns: f64,
    /// Bytes streamed (read+write) per memory node.
    pub node_bytes: Vec<u64>,
    /// Dependent random accesses (cache misses) by hop distance `[0,1,2]`.
    pub random_by_hops: [u64; 3],
}

impl MorselProfile {
    pub fn new(sockets: u16) -> Self {
        MorselProfile {
            cpu_ns: 0.0,
            node_bytes: vec![0; sockets as usize],
            random_by_hops: [0; 3],
        }
    }

    pub fn clear(&mut self) {
        self.cpu_ns = 0.0;
        self.node_bytes.iter_mut().for_each(|b| *b = 0);
        self.random_by_hops = [0; 3];
    }

    pub fn total_bytes(&self) -> u64 {
        self.node_bytes.iter().sum()
    }
}

/// Handed to a pipeline job for each morsel execution. Carries the worker's
/// identity and collects the traffic/cost bookkeeping that operators report.
pub struct TaskContext<'a> {
    env: &'a ExecEnv,
    /// Per-query counters (for Table 1-style per-query statistics), if any.
    query_counters: Option<&'a AccessCounters>,
    /// The query this context is executing a morsel of, if any. Gives
    /// operators access to the per-query memory budget.
    query: Option<&'a QueryShared>,
    pub worker: usize,
    pub socket: SocketId,
    profile: MorselProfile,
}

impl<'a> TaskContext<'a> {
    pub fn new(env: &'a ExecEnv, worker: usize) -> Self {
        let socket = env.socket_of_worker(worker);
        let profile = MorselProfile::new(env.topology().sockets());
        TaskContext {
            env,
            query_counters: None,
            query: None,
            worker,
            socket,
            profile,
        }
    }

    /// Bind this context to a query: traffic is charged to its counters
    /// and reservations to its memory budget.
    pub fn with_query(mut self, query: &'a QueryShared) -> Self {
        self.query_counters = Some(&query.counters);
        self.query = Some(query);
        self
    }

    /// Reserve `bytes` of operator state against the bound query's
    /// memory budget. `Err` means the budget (or the shared pool) is
    /// exhausted — the query has already been marked failed and will
    /// unwind at the next morsel boundary; the operator should abandon
    /// its current unit of work and return. Contexts without a bound
    /// query (unit tests, standalone jobs) always succeed.
    pub fn try_reserve(&self, bytes: u64) -> Result<(), EngineError> {
        match self.query {
            Some(q) => q.try_reserve(bytes, self.env.faults()),
            None => Ok(()),
        }
    }

    /// Return `bytes` previously reserved via [`TaskContext::try_reserve`]
    /// (for operators whose footprint shrinks, e.g. TopK trimming).
    pub fn release_reserved(&self, bytes: u64) {
        if let Some(q) = self.query {
            q.budget.release(bytes);
        }
    }

    pub fn env(&self) -> &ExecEnv {
        self.env
    }

    pub fn sockets(&self) -> u16 {
        self.env.topology().sockets()
    }

    /// Reset the per-morsel profile (called by the executor between
    /// morsels) and return the previous one by clone-free swap.
    pub fn take_profile(&mut self) -> MorselProfile {
        let fresh = MorselProfile::new(self.sockets());
        std::mem::replace(&mut self.profile, fresh)
    }

    pub fn profile(&self) -> &MorselProfile {
        &self.profile
    }

    // ---- recording API used by operators -------------------------------

    /// Record a streaming read of `bytes` from memory on `node`.
    pub fn read(&mut self, node: SocketId, bytes: u64) {
        self.env.counters().record_read(self.socket, node, bytes);
        if let Some(qc) = self.query_counters {
            qc.record_read(self.socket, node, bytes);
        }
        self.profile.node_bytes[node.0 as usize] += bytes;
    }

    /// Record a streaming write of `bytes` to memory on `node`.
    pub fn write(&mut self, node: SocketId, bytes: u64) {
        self.env.counters().record_write(self.socket, node, bytes);
        if let Some(qc) = self.query_counters {
            qc.record_write(self.socket, node, bytes);
        }
        self.profile.node_bytes[node.0 as usize] += bytes;
    }

    /// Record a streaming read spread uniformly over all nodes (used for
    /// structures that are interleaved page-wise, like the global hash
    /// table's entry storage).
    pub fn read_spread(&mut self, bytes: u64) {
        let k = u64::from(self.sockets());
        for n in 0..k {
            self.read(SocketId(n as u16), bytes / k);
        }
        self.read(self.socket, bytes % k);
    }

    /// Record a streaming write spread uniformly over all nodes.
    pub fn write_spread(&mut self, bytes: u64) {
        let k = u64::from(self.sockets());
        for n in 0..k {
            self.write(SocketId(n as u16), bytes / k);
        }
        self.write(self.socket, bytes % k);
    }

    /// Record `count` dependent random accesses (hash-table probes or
    /// inserts) touching memory on `node`. Bytes are charged separately via
    /// `read`/`write` by the caller if they are significant.
    pub fn random_access(&mut self, node: SocketId, count: u64) {
        let hops = self.env.topology().hops(self.socket, node);
        self.profile.random_by_hops[usize::from(hops.min(2))] += count;
    }

    /// Random accesses against an interleaved structure: splits `count`
    /// uniformly over all nodes.
    pub fn random_access_interleaved(&mut self, count: u64) {
        let sockets = self.sockets() as u64;
        for n in 0..sockets {
            self.random_access(SocketId(n as u16), count / sockets);
        }
        // Remainder goes to the local node (cheap and deterministic).
        self.random_access(self.socket, count % sockets);
    }

    /// Record pure compute: `tuples` processed at `ns_per_tuple`.
    pub fn cpu(&mut self, tuples: u64, ns_per_tuple: f64) {
        self.profile.cpu_ns += tuples as f64 * ns_per_tuple;
    }

    // ---- per-operator runtime profiling --------------------------------
    //
    // All methods take `&self`: the counters live in the bound query's
    // `ProfileSlots` (per-worker atomic rows), not in this context. Every
    // call is a no-op when the context has no bound query or the query
    // was submitted without profile labels (`QuerySpec::with_profile_ops`),
    // so operators record unconditionally and the submitter decides
    // whether profiling costs anything.

    /// True when per-operator profiling is live for the bound query.
    pub fn profiling(&self) -> bool {
        self.prof_slots().is_some()
    }

    #[inline]
    fn prof_slots(&self) -> Option<&ProfileSlots> {
        self.query.and_then(|q| q.profile.as_deref())
    }

    /// A morsel entered the pipeline led by operator `op` (its scan):
    /// `rows_in` raw tuples, `rows_out` after the scan's filter+project.
    pub fn prof_morsel(&self, op: u32, rows_in: u64, rows_out: u64, wall_ns: u64) {
        if let Some(s) = self.prof_slots() {
            s.record_morsel(self.worker, op, rows_in, rows_out, wall_ns);
        }
    }

    /// One batch flowed through in-pipeline operator `op`.
    pub fn prof_rows(&self, op: u32, rows_in: u64, rows_out: u64, wall_ns: u64) {
        if let Some(s) = self.prof_slots() {
            s.record_batch(self.worker, op, rows_in, rows_out, wall_ns);
        }
    }

    /// Rows flowing into pipeline breaker `op` (agg/sort input).
    pub fn prof_rows_in(&self, op: u32, n: u64) {
        if let Some(s) = self.prof_slots() {
            s.add_rows_in(self.worker, op, n);
        }
    }

    /// Rows breaker `op` produced (groups, merged sort output).
    pub fn prof_rows_out(&self, op: u32, n: u64) {
        if let Some(s) = self.prof_slots() {
            s.add_rows_out(self.worker, op, n);
        }
    }

    /// Rows inserted into join `op`'s hash-table build.
    pub fn prof_build_rows(&self, op: u32, n: u64) {
        if let Some(s) = self.prof_slots() {
            s.add_build_rows(self.worker, op, n);
        }
    }

    /// Spill fragments / sort runs emitted by operator `op`.
    pub fn prof_fragments(&self, op: u32, n: u64) {
        if let Some(s) = self.prof_slots() {
            s.add_fragments(self.worker, op, n);
        }
    }

    /// Wall time charged to breaker `op`'s build/merge work.
    pub fn prof_wall_ns(&self, op: u32, n: u64) {
        if let Some(s) = self.prof_slots() {
            s.add_wall_ns(self.worker, op, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_numa::Topology;

    fn env() -> ExecEnv {
        ExecEnv::new(Topology::nehalem_ex())
    }

    #[test]
    fn morsel_rows() {
        let m = Morsel {
            chunk: 3,
            range: 100..250,
        };
        assert_eq!(m.rows(), 150);
    }

    #[test]
    fn context_records_traffic_and_profile() {
        let env = env();
        let mut ctx = TaskContext::new(&env, 0); // socket 0
        ctx.read(SocketId(0), 100);
        ctx.write(SocketId(1), 40);
        ctx.cpu(10, 2.0);
        ctx.random_access(SocketId(0), 5);
        ctx.random_access(SocketId(2), 7);

        let snap = env.counters().snapshot();
        assert_eq!(snap.read_local, 100);
        assert_eq!(snap.write_remote, 40);

        let p = ctx.profile();
        assert_eq!(p.node_bytes[0], 100);
        assert_eq!(p.node_bytes[1], 40);
        assert_eq!(p.total_bytes(), 140);
        assert_eq!(p.cpu_ns, 20.0);
        assert_eq!(p.random_by_hops, [5, 7, 0]);
    }

    #[test]
    fn take_profile_resets() {
        let env = env();
        let mut ctx = TaskContext::new(&env, 0);
        ctx.cpu(1, 5.0);
        let p = ctx.take_profile();
        assert_eq!(p.cpu_ns, 5.0);
        assert_eq!(ctx.profile().cpu_ns, 0.0);
    }

    #[test]
    fn interleaved_random_access_spreads() {
        let env = env();
        let mut ctx = TaskContext::new(&env, 0);
        ctx.random_access_interleaved(9);
        // 9 accesses over 4 nodes: 2 each + 1 local remainder.
        // Local node (0) gets 2+1=3 at hop 0; nodes 1..3 get 2 each at hop 1.
        assert_eq!(ctx.profile().random_by_hops[0], 3);
        assert_eq!(ctx.profile().random_by_hops[1], 6);
    }

    #[test]
    fn query_counters_mirror_global() {
        let env = env();
        let query = QueryShared {
            name: "q".into(),
            priority: 1,
            cancelled: Default::default(),
            done: Default::default(),
            result: crate::query::result_slot(),
            counters: AccessCounters::new(env.topology()),
            stats: Default::default(),
            submitted_ns: 0,
            deadline_ns: u64::MAX,
            budget: crate::govern::MemBudget::unlimited(),
            failure: Default::default(),
            profile: None,
        };
        let mut ctx = TaskContext::new(&env, 9).with_query(&query);
        // worker 9 is on socket 1
        assert_eq!(ctx.socket, SocketId(1));
        ctx.read(SocketId(1), 10);
        ctx.read(SocketId(0), 20);
        let qc = query.counters.snapshot();
        assert_eq!(qc.read_local, 10);
        assert_eq!(qc.read_remote, 20);
        assert_eq!(env.counters().snapshot().read_remote, 20);
    }
}
