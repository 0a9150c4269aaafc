//! Discrete-event many-core executor.
//!
//! The paper's scalability experiments need 64 hardware threads on a
//! 4-socket box. This executor reproduces them on any host: it runs the
//! *real* pipeline code over the real data (results are identical to the
//! threaded executor), but executes morsels one at a time in virtual-time
//! order. Each virtual worker owns a clock; a morsel's duration is derived
//! from the operator-reported [`crate::task::MorselProfile`] via the
//! calibrated [`morsel_numa::CostModel`], including memory-node and
//! interconnect bandwidth contention and the SMT penalty.
//!
//! Determinism: events are ordered by (time, kind, index); all dispatcher
//! tie-breaks are by arrival order; therefore traces, counters, and
//! virtual makespans are exactly reproducible run to run.
//!
//! Approximations (documented in DESIGN.md): bandwidth contention uses the
//! stream counts at morsel start (later arrivals do not retroactively slow
//! a running morsel — morsels are small, so the error is bounded by one
//! morsel), and pipeline `finish` work is not charged virtual time (the
//! framework keeps all heavy work morsel-parallel by construction).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dispatcher::{DispatchConfig, Dispatcher, Task};
use crate::env::ExecEnv;
use crate::query::{QueryHandle, QuerySpec};
use crate::task::TaskContext;
use crate::trace::{SpanKind, TraceEvent};

/// A scheduled control action.
enum Action {
    Submit(QuerySpec),
    Cancel(String),
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum EventKey {
    /// Actions sort before worker events at the same instant so that a
    /// newly arrived query is visible to workers waking at that time.
    Action(usize),
    Worker(usize),
}

struct WorkerState {
    busy: bool,
    has_pending: bool,
    running: Option<RunningTask>,
}

struct RunningTask {
    task: Task,
    /// Congestion registrations to undo at completion.
    nodes: Vec<usize>,
    links: Vec<usize>,
}

/// Report of a completed simulation.
pub struct SimReport {
    pub handles: Vec<QueryHandle>,
    /// Virtual time at which the simulation went quiescent.
    pub makespan_ns: u64,
}

impl SimReport {
    pub fn handle(&self, name: &str) -> &QueryHandle {
        self.handles
            .iter()
            .find(|h| h.name() == name)
            .unwrap_or_else(|| panic!("no query named {name:?} in simulation"))
    }

    pub fn makespan_secs(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }
}

/// The discrete-event executor. Configure, add queries/actions, `run()`.
pub struct SimExecutor {
    env: ExecEnv,
    config: DispatchConfig,
    actions: Vec<(u64, Option<Action>)>,
    cpu_slowdown: Vec<f64>,
}

impl SimExecutor {
    pub fn new(env: ExecEnv, config: DispatchConfig) -> Self {
        let workers = config.workers;
        SimExecutor {
            env,
            config,
            actions: Vec::new(),
            cpu_slowdown: vec![1.0; workers],
        }
    }

    /// Submit a query arriving at virtual time 0.
    pub fn submit(&mut self, spec: QuerySpec) -> &mut Self {
        self.submit_at(0, spec)
    }

    /// Submit a query arriving at virtual time `at_ns` (Figure 13's
    /// mid-flight arrival).
    pub fn submit_at(&mut self, at_ns: u64, spec: QuerySpec) -> &mut Self {
        self.actions.push((at_ns, Some(Action::Submit(spec))));
        self
    }

    /// Cancel the named query at virtual time `at_ns`.
    pub fn cancel_at(&mut self, at_ns: u64, name: &str) -> &mut Self {
        self.actions
            .push((at_ns, Some(Action::Cancel(name.to_owned()))));
        self
    }

    /// Slow worker `w`'s compute by `factor` (Section 5.4's interference
    /// experiment: an unrelated process time-sharing one core).
    pub fn set_cpu_slowdown(&mut self, worker: usize, factor: f64) -> &mut Self {
        assert!(factor >= 1.0, "slowdown must be >= 1");
        self.cpu_slowdown[worker] = factor;
        self
    }

    /// Run the simulation until quiescence and return the report. On a
    /// traced environment ([`ExecEnv::with_trace`]) every morsel is
    /// recorded as a virtual-time [`SpanKind::Morsel`] span — the
    /// Figure 13 trace.
    ///
    /// # Panics
    /// Panics if the event queue drains while queries remain unfinished
    /// (which would indicate a scheduler bug).
    pub fn run(mut self) -> SimReport {
        let workers = self.config.workers;
        let env = self.env.clone();
        let dispatcher = Dispatcher::new(env.clone(), self.config);
        let sockets = env.topology().sockets() as usize;

        // Stable order: earlier insertion wins at equal times.
        let mut order: Vec<usize> = (0..self.actions.len()).collect();
        order.sort_by_key(|&i| self.actions[i].0);

        let mut heap: BinaryHeap<Reverse<(u64, EventKey)>> = BinaryHeap::new();
        for (rank, &i) in order.iter().enumerate() {
            // Re-rank so EventKey ordering matches time-stable order.
            let _ = rank;
            heap.push(Reverse((self.actions[i].0, EventKey::Action(i))));
        }

        let mut states: Vec<WorkerState> = (0..workers)
            .map(|_| WorkerState {
                busy: false,
                has_pending: false,
                running: None,
            })
            .collect();
        let mut node_streams = vec![0u32; sockets];
        let mut link_streams = vec![0u32; sockets * sockets];
        let mut handles: Vec<QueryHandle> = Vec::new();
        let mut makespan = 0u64;

        while let Some(Reverse((t, key))) = heap.pop() {
            makespan = makespan.max(t);
            match key {
                EventKey::Action(i) => {
                    let action = self.actions[i].1.take().expect("action fired twice");
                    match action {
                        Action::Submit(spec) => {
                            handles.push(dispatcher.submit(spec, t));
                        }
                        Action::Cancel(name) => {
                            if let Some(h) = handles.iter().find(|h| h.name() == name) {
                                h.cancel();
                            }
                        }
                    }
                    Self::wake_idle(&mut states, &mut heap, t, None);
                }
                EventKey::Worker(w) => {
                    states[w].has_pending = false;
                    // Phase 1: complete the running task, if any.
                    if let Some(rt) = states[w].running.take() {
                        for &n in &rt.nodes {
                            node_streams[n] -= 1;
                        }
                        for &l in &rt.links {
                            link_streams[l] -= 1;
                        }
                        states[w].busy = false;
                        let qs = rt.task.query_counters();
                        let mut ctx = TaskContext::new(&env, w).with_query(&qs);
                        dispatcher.complete_task(&mut ctx, rt.task, t);
                        // A pipeline may have completed and a new one been
                        // installed: give idle workers a chance.
                        Self::wake_idle(&mut states, &mut heap, t, Some(w));
                    }
                    // Phase 2: request the next task.
                    if let Some(task) = dispatcher.next_task(w, t) {
                        let qs = task.query_counters();
                        let mut ctx = TaskContext::new(&env, w).with_query(&qs);
                        task.run(&mut ctx);
                        let profile = ctx.take_profile();

                        // Convert the profile to virtual nanoseconds under
                        // the current congestion.
                        let my_socket = env.socket_of_worker(w);
                        let smt = env.cost().smt_penalty(env.threads_on_core(w, workers));
                        let cpu = profile.cpu_ns * smt;
                        let mut stream = 0.0;
                        let mut nodes = Vec::new();
                        let mut links = Vec::new();
                        for (n, &bytes) in profile.node_bytes.iter().enumerate() {
                            if bytes == 0 {
                                continue;
                            }
                            let node = morsel_numa::SocketId(n as u16);
                            let hops = env.topology().hops(my_socket, node);
                            let li = n * sockets + my_socket.0 as usize;
                            let on_node = node_streams[n] + 1;
                            let on_link = if hops > 0 { link_streams[li] + 1 } else { 0 };
                            stream += env.cost().stream_ns(bytes, hops, on_node, on_link);
                            node_streams[n] += 1;
                            nodes.push(n);
                            if hops > 0 {
                                link_streams[li] += 1;
                                links.push(li);
                            }
                        }
                        let stall: f64 = (0..3u8)
                            .map(|h| env.cost().random_ns(profile.random_by_hops[h as usize], h))
                            .sum();
                        // An interfering process time-shares the whole
                        // core, so the slowdown scales the entire morsel
                        // (Section 5.4's experiment).
                        let duration = ((env.cost().combine(cpu, stream, stall)
                            + env.cost().dispatch_ns)
                            * self.cpu_slowdown[w])
                            .ceil()
                            .max(1.0) as u64;

                        if let Some(rec) = env.trace() {
                            rec.record(TraceEvent {
                                worker: w,
                                start_ns: t,
                                end_ns: t + duration,
                                query: task.query_name().to_owned(),
                                job: task.job_label().to_owned(),
                                kind: SpanKind::Morsel,
                            });
                        }
                        states[w].busy = true;
                        states[w].has_pending = true;
                        states[w].running = Some(RunningTask { task, nodes, links });
                        heap.push(Reverse((t + duration, EventKey::Worker(w))));
                    }
                    // else: stay idle until woken.
                }
            }
        }

        assert!(
            dispatcher.all_done(),
            "simulation went quiescent with {} unfinished queries",
            dispatcher.remaining_queries()
        );
        SimReport {
            handles,
            makespan_ns: makespan,
        }
    }

    fn wake_idle(
        states: &mut [WorkerState],
        heap: &mut BinaryHeap<Reverse<(u64, EventKey)>>,
        t: u64,
        except: Option<usize>,
    ) {
        for (w, st) in states.iter_mut().enumerate() {
            if Some(w) != except && !st.busy && !st.has_pending {
                st.has_pending = true;
                heap.push(Reverse((t, EventKey::Worker(w))));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{BuiltJob, PipelineJob};
    use crate::query::{result_slot, Stage};
    use crate::task::{ChunkMeta, Morsel};
    use morsel_numa::{SocketId, Topology};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A synthetic pipeline: every tuple costs fixed CPU and streams fixed
    /// bytes from its chunk's node.
    struct SyntheticScan {
        nodes: Vec<SocketId>,
        ns_per_tuple: f64,
        bytes_per_tuple: u64,
        rows_seen: AtomicU64,
    }

    impl PipelineJob for SyntheticScan {
        fn run_morsel(&self, ctx: &mut TaskContext<'_>, m: Morsel) {
            let node = self.nodes[m.chunk];
            ctx.read(node, m.rows() as u64 * self.bytes_per_tuple);
            ctx.cpu(m.rows() as u64, self.ns_per_tuple);
            self.rows_seen.fetch_add(m.rows() as u64, Ordering::Relaxed);
        }
    }

    fn scan_query(
        name: &str,
        rows_per_node: usize,
        topo: &Topology,
        job: Arc<SyntheticScan>,
    ) -> QuerySpec {
        let chunks: Vec<ChunkMeta> = job
            .nodes
            .iter()
            .map(|&n| ChunkMeta {
                node: n,
                rows: rows_per_node,
            })
            .collect();
        let stage: Stage = Stage::new("scan", move |_env, _w| {
            BuiltJob::new("scan", job.clone(), chunks.clone())
        });
        let _ = topo;
        QuerySpec::new(name, vec![stage], result_slot())
    }

    fn run_scan(workers: usize, rows_per_node: usize) -> u64 {
        let topo = Topology::nehalem_ex();
        let env = ExecEnv::new(topo.clone());
        let job = Arc::new(SyntheticScan {
            nodes: topo.socket_ids().collect(),
            // Compute-heavy enough that 32 streaming workers stay below
            // the node bandwidth limit (the paper's queries are mostly
            // compute-bound; bandwidth-bound scaling is tested separately).
            ns_per_tuple: 4.0,
            bytes_per_tuple: 8,
            rows_seen: AtomicU64::new(0),
        });
        let mut sim = SimExecutor::new(env, DispatchConfig::new(workers).with_morsel_size(10_000));
        sim.submit(scan_query("q", rows_per_node, &topo, Arc::clone(&job)));
        let report = sim.run();
        assert_eq!(
            job.rows_seen.load(Ordering::Relaxed),
            rows_per_node as u64 * 4
        );
        report.handle("q").stats().elapsed_ns()
    }

    #[test]
    fn more_workers_is_faster() {
        let t1 = run_scan(1, 250_000);
        let t8 = run_scan(8, 250_000);
        let t32 = run_scan(32, 250_000);
        assert!(t8 < t1, "8 workers ({t8}) not faster than 1 ({t1})");
        assert!(t32 < t8, "32 workers ({t32}) not faster than 8 ({t8})");
        // Near-linear at this compute-bound setting: speedup at 32 within
        // a reasonable band.
        let speedup = t1 as f64 / t32 as f64;
        assert!(speedup > 16.0, "speedup {speedup} too low");
        assert!(speedup <= 33.0, "speedup {speedup} impossibly high");
    }

    #[test]
    fn determinism() {
        let a = run_scan(16, 100_000);
        let b = run_scan(16, 100_000);
        assert_eq!(a, b);
    }

    #[test]
    fn smt_gives_diminishing_returns() {
        let t32 = run_scan(32, 250_000);
        let t64 = run_scan(64, 250_000);
        // 64 hardware threads on 32 physical cores: faster than 32, but
        // far from 2x.
        assert!(t64 < t32);
        let gain = t32 as f64 / t64 as f64;
        assert!(gain > 1.05 && gain < 1.5, "SMT gain {gain} out of band");
    }

    #[test]
    fn trace_records_morsels() {
        let topo = Topology::nehalem_ex();
        let recorder = Arc::new(crate::trace::TraceRecorder::new());
        let env = ExecEnv::new(topo.clone()).with_trace(Arc::clone(&recorder));
        let job = Arc::new(SyntheticScan {
            nodes: topo.socket_ids().collect(),
            ns_per_tuple: 1.0,
            bytes_per_tuple: 8,
            rows_seen: AtomicU64::new(0),
        });
        let mut sim = SimExecutor::new(env, DispatchConfig::new(4).with_morsel_size(10_000));
        sim.submit(scan_query("q", 50_000, &topo, job));
        let report = sim.run();
        let (morsels, rest): (Vec<_>, Vec<_>) = recorder
            .take()
            .into_iter()
            .partition(|e| e.kind == SpanKind::Morsel);
        // 200k rows / 10k morsel size = 20 morsels.
        assert_eq!(morsels.len(), 20);
        assert!(morsels.iter().all(|e| e.end_ns > e.start_ns));
        // Plus the query's own span, recorded when it retired.
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].kind, SpanKind::Query);
        assert_eq!(rest[0].end_ns, report.handle("q").stats().finished_ns);
        assert!(report.makespan_ns > 0);
    }

    #[test]
    fn late_arrival_starts_at_its_time() {
        let topo = Topology::nehalem_ex();
        let env = ExecEnv::new(topo.clone());
        let j1 = Arc::new(SyntheticScan {
            nodes: topo.socket_ids().collect(),
            ns_per_tuple: 2.0,
            bytes_per_tuple: 8,
            rows_seen: AtomicU64::new(0),
        });
        let j2 = Arc::new(SyntheticScan {
            nodes: topo.socket_ids().collect(),
            ns_per_tuple: 2.0,
            bytes_per_tuple: 8,
            rows_seen: AtomicU64::new(0),
        });
        let mut sim = SimExecutor::new(env, DispatchConfig::new(4).with_morsel_size(5_000));
        sim.submit(scan_query("long", 100_000, &topo, j1));
        sim.submit_at(1_000_000, scan_query("late", 10_000, &topo, j2));
        let report = sim.run();
        let late = report.handle("late").stats();
        assert_eq!(late.started_ns, 1_000_000);
        assert!(late.finished_ns > 1_000_000);
        assert!(report.handle("long").is_done());
    }

    #[test]
    fn cancel_mid_flight_stops_early() {
        let topo = Topology::nehalem_ex();
        let env = ExecEnv::new(topo.clone());
        let job = Arc::new(SyntheticScan {
            nodes: topo.socket_ids().collect(),
            ns_per_tuple: 10.0,
            bytes_per_tuple: 8,
            rows_seen: AtomicU64::new(0),
        });
        let mut sim = SimExecutor::new(env, DispatchConfig::new(2).with_morsel_size(1_000));
        sim.submit(scan_query("victim", 1_000_000, &topo, Arc::clone(&job)));
        sim.cancel_at(100_000, "victim");
        let report = sim.run();
        assert!(report.handle("victim").is_done());
        assert!(report.handle("victim").is_cancelled());
        assert!(job.rows_seen.load(Ordering::Relaxed) < 4_000_000);
    }

    #[test]
    fn cpu_slowdown_hurts_static_more_than_dynamic() {
        // Section 5.4's experiment in miniature: one slowed worker barely
        // affects morsel-driven scheduling but stalls static division.
        let run = |mode, slow: bool| {
            let topo = Topology::nehalem_ex();
            let env = ExecEnv::new(topo.clone());
            let job = Arc::new(SyntheticScan {
                nodes: topo.socket_ids().collect(),
                ns_per_tuple: 2.0,
                bytes_per_tuple: 8,
                rows_seen: AtomicU64::new(0),
            });
            let cfg = DispatchConfig::new(8)
                .with_morsel_size(2_000)
                .with_mode(mode);
            let mut sim = SimExecutor::new(env, cfg);
            if slow {
                sim.set_cpu_slowdown(0, 2.0);
            }
            sim.submit(scan_query("q", 100_000, &topo, job));
            sim.run().handle("q").stats().elapsed_ns()
        };
        use crate::queue::SchedulingMode;
        let dyn_base = run(SchedulingMode::NumaAware, false);
        let dyn_slow = run(SchedulingMode::NumaAware, true);
        let static_base = run(
            SchedulingMode::Static {
                workers: 8,
                align: true,
            },
            false,
        );
        let static_slow = run(
            SchedulingMode::Static {
                workers: 8,
                align: true,
            },
            true,
        );
        let dyn_penalty = dyn_slow as f64 / dyn_base as f64;
        let static_penalty = static_slow as f64 / static_base as f64;
        assert!(
            static_penalty > dyn_penalty + 0.2,
            "static {static_penalty} vs dynamic {dyn_penalty}"
        );
        // The paper reports ~36.8% vs ~4.7%.
        assert!(
            dyn_penalty < 1.25,
            "dynamic penalty too high: {dyn_penalty}"
        );
        assert!(
            static_penalty > 1.5,
            "static penalty too low: {static_penalty}"
        );
    }
}
