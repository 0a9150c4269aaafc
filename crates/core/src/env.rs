//! Shared execution environment.

use std::sync::Arc;

use morsel_numa::{AccessCounters, CostModel, SocketId, Topology};

use crate::fault::{FaultInjector, FaultPlan};
use crate::govern::MemPool;
use crate::trace::TraceRecorder;

/// Everything the engine needs to know about the (simulated) machine.
#[derive(Debug, Clone)]
pub struct ExecEnv {
    topology: Arc<Topology>,
    cost: Arc<CostModel>,
    /// Machine-wide traffic counters (the "Intel PCM" substitute).
    counters: Arc<AccessCounters>,
    /// Fault-injection hook (empty plan by default: hooks are inert).
    faults: Arc<FaultInjector>,
    /// Service-wide memory pool backing per-query budgets, if governed.
    mem_pool: Option<Arc<MemPool>>,
    /// Span recorder both executors write into, if tracing.
    trace: Option<Arc<TraceRecorder>>,
}

impl ExecEnv {
    pub fn new(topology: Topology) -> Self {
        let cost = CostModel::for_topology(&topology);
        // Honor `MORSEL_FAULT_PLAN` from the environment so any binary
        // (examples, `repro`, tests) can be fault-injected without code
        // changes; `with_fault_plan` still overrides. A malformed plan
        // aborts loudly — silently dropping a chaos schedule would make
        // every "fault survived" result meaningless.
        let faults = match FaultPlan::from_env() {
            Ok(Some(plan)) => FaultInjector::new(plan),
            Ok(None) => FaultInjector::default(),
            Err(e) => panic!("malformed {}: {e}", crate::fault::FAULT_PLAN_ENV),
        };
        let counters = AccessCounters::new(&topology);
        ExecEnv {
            topology: Arc::new(topology),
            cost: Arc::new(cost),
            counters: Arc::new(counters),
            faults: Arc::new(faults),
            mem_pool: None,
            trace: None,
        }
    }

    /// Attach a fault-injection plan; both executors honor it at the
    /// morsel boundary and in the budget reservation path.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Arc::new(FaultInjector::new(plan));
        self
    }

    /// Attach a service-wide memory pool; per-query [`crate::MemBudget`]s
    /// created at submit time draw from it.
    pub fn with_mem_pool(mut self, pool: Arc<MemPool>) -> Self {
        self.mem_pool = Some(pool);
        self
    }

    /// Record execution spans into `recorder` (see [`crate::trace`]):
    /// both executors and every `QueryService` started on this
    /// environment write their morsel, pipeline and query spans there.
    pub fn with_trace(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.trace = Some(recorder);
        self
    }

    pub fn trace(&self) -> Option<&Arc<TraceRecorder>> {
        self.trace.as_ref()
    }

    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    pub fn mem_pool(&self) -> Option<&Arc<MemPool>> {
        self.mem_pool.as_ref()
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    pub fn counters(&self) -> &Arc<AccessCounters> {
        &self.counters
    }

    /// Socket of worker `w` when `workers` hardware threads are in use.
    ///
    /// Workers are pinned to hardware threads 0..workers in topology order
    /// (Section 3: "permanently bind each worker").
    pub fn socket_of_worker(&self, worker: usize) -> SocketId {
        self.topology.socket_of(morsel_numa::CoreId(worker as u32))
    }

    /// Sockets for all of `workers` worker threads.
    pub fn worker_sockets(&self, workers: usize) -> Vec<SocketId> {
        (0..workers).map(|w| self.socket_of_worker(w)).collect()
    }

    /// Number of workers sharing worker `w`'s physical core when `workers`
    /// threads are active (for the SMT penalty).
    pub fn threads_on_core(&self, worker: usize, workers: usize) -> u32 {
        let phys = self.topology.physical_cores() as usize;
        let my_core = worker % phys;
        let mut n = 0;
        let mut w = my_core;
        while w < workers {
            n += 1;
            w += phys;
        }
        n.max(1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_socket_mapping() {
        let env = ExecEnv::new(Topology::nehalem_ex());
        assert_eq!(env.socket_of_worker(0), SocketId(0));
        assert_eq!(env.socket_of_worker(1), SocketId(1));
        assert_eq!(env.socket_of_worker(8), SocketId(0)); // round-robin wrap
        assert_eq!(env.socket_of_worker(33), SocketId(1)); // SMT sibling
        assert_eq!(
            env.worker_sockets(3),
            vec![SocketId(0), SocketId(1), SocketId(2)]
        );
    }

    #[test]
    fn smt_occupancy() {
        let env = ExecEnv::new(Topology::nehalem_ex());
        // 64 workers on 32 physical cores: every core hosts 2.
        assert_eq!(env.threads_on_core(0, 64), 2);
        assert_eq!(env.threads_on_core(63, 64), 2);
        // 32 workers: one each.
        assert_eq!(env.threads_on_core(0, 32), 1);
        // 40 workers: cores 0..8 host 2.
        assert_eq!(env.threads_on_core(0, 40), 2);
        assert_eq!(env.threads_on_core(8, 40), 1);
    }
}
