//! Convenience runners used by tests, examples, and the bench harness.

use morsel_core::{
    DispatchConfig, ExecEnv, QueryHandle, QueryOutcome, QueryProfile, QueryStats, ResultSlot,
    SimExecutor, ThreadedExecutor,
};
use morsel_exec::plan::{compile_query, Plan};
use morsel_exec::SystemVariant;
use morsel_numa::TrafficSnapshot;
use morsel_storage::Batch;

/// Outcome of one query run.
pub struct RunOutcome {
    pub name: String,
    /// Terminal state. Anything but `Completed` (a fault-injected panic,
    /// a blown memory cap, a deadline) means `result` is empty, not the
    /// query's answer; the runners also warn on stderr so a governed
    /// failure is never mistaken for an empty result set.
    pub outcome: QueryOutcome,
    pub result: Batch,
    pub stats: QueryStats,
    pub traffic: TrafficSnapshot,
    /// Per-operator runtime profile, present when the variant compiled
    /// with profiling enabled (one entry per plan node, explain order).
    pub profile: Option<QueryProfile>,
}

impl RunOutcome {
    /// Virtual (sim) or wall (threaded) seconds.
    pub fn seconds(&self) -> f64 {
        self.stats.elapsed_secs()
    }
}

/// Run one plan in the deterministic simulator.
pub fn run_sim(
    env: &ExecEnv,
    name: &str,
    plan: Plan,
    variant: SystemVariant,
    workers: usize,
    morsel_size: usize,
) -> RunOutcome {
    let (spec, result) = compile_query(name, plan, variant);
    let mut sim = SimExecutor::new(env.clone(), config(variant, workers, morsel_size));
    sim.submit(spec);
    run_outcome(name, sim.run().handle(name), result)
}

/// Run one plan on real threads.
pub fn run_threaded(
    env: &ExecEnv,
    name: &str,
    plan: Plan,
    variant: SystemVariant,
    workers: usize,
    morsel_size: usize,
) -> RunOutcome {
    let (spec, result) = compile_query(name, plan, variant);
    let exec = ThreadedExecutor::new(env.clone(), config(variant, workers, morsel_size));
    run_outcome(name, &exec.run(vec![spec])[0], result)
}

fn config(variant: SystemVariant, workers: usize, morsel_size: usize) -> DispatchConfig {
    DispatchConfig::new(workers)
        .with_mode(variant.mode(workers))
        .with_morsel_size(morsel_size)
}

/// The outcome of a finished run, warning on stderr when the query did
/// not complete.
fn run_outcome(name: &str, handle: &QueryHandle, result: ResultSlot) -> RunOutcome {
    let outcome = handle
        .outcome()
        .expect("both executors run every query to a terminal state");
    if outcome != QueryOutcome::Completed {
        eprintln!("warning: query '{name}' did not complete: {outcome:?}");
    }
    let rows = result.lock().take().unwrap_or_default();
    RunOutcome {
        name: name.to_owned(),
        outcome,
        result: rows,
        stats: handle.stats(),
        traffic: handle.traffic(),
        profile: handle.profile(),
    }
}

/// Render a batch as rows of strings (tests, examples, harness output).
pub fn format_rows(batch: &Batch, limit: usize) -> Vec<String> {
    (0..batch.rows().min(limit))
        .map(|i| {
            batch
                .row(i)
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" | ")
        })
        .collect()
}
