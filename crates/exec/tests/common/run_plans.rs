//! Compile plans with `compile_query` and run them together on the
//! simulator or on real threads; shared by the encoding tests.

use morsel_core::{DispatchConfig, ExecEnv, SimExecutor, ThreadedExecutor};
use morsel_exec::plan::{compile_query, Plan};
use morsel_exec::SystemVariant;
use morsel_numa::Topology;
use morsel_storage::Batch;

#[derive(Debug, Clone, Copy)]
pub enum Exec {
    Sim,
    Threaded,
}

impl Exec {
    /// The topology `self` runs on.
    pub fn topology(self) -> Topology {
        match self {
            Exec::Sim => Topology::nehalem_ex(),
            Exec::Threaded => Topology::laptop(),
        }
    }
}

/// Run `plans` together; every result, decoded.
pub fn run(plans: Vec<Plan>, exec: Exec, workers: usize, morsel: usize) -> Vec<Batch> {
    let config = DispatchConfig::new(workers).with_morsel_size(morsel);
    let (specs, results): (Vec<_>, Vec<_>) = (plans.into_iter().enumerate())
        .map(|(i, plan)| compile_query(format!("q{i}"), plan, SystemVariant::full()))
        .unzip();
    let env = ExecEnv::new(exec.topology());
    match exec {
        Exec::Sim => {
            let mut sim = SimExecutor::new(env, config);
            for spec in specs {
                sim.submit(spec);
            }
            let report = sim.run();
            for i in 0..results.len() {
                assert!(report.handle(&format!("q{i}")).is_done(), "q{i}");
            }
        }
        Exec::Threaded => {
            let threaded = ThreadedExecutor::new(env, config);
            for (i, handle) in threaded.run(specs).iter().enumerate() {
                assert!(handle.is_done(), "q{i}");
            }
        }
    }
    (results.iter())
        .map(|r| r.lock().take().expect("a completed query has rows"))
        .collect()
}

/// The rows of `batch` as strings, sorted unless its order is the answer.
pub fn rows(batch: &Batch, ordered: bool) -> Vec<String> {
    let mut out: Vec<String> = (0..batch.rows())
        .map(|r| format!("{:?}", batch.row(r)))
        .collect();
    if !ordered {
        out.sort_unstable();
    }
    out
}
