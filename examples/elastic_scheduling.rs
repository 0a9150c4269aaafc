//! Elasticity demo (paper Section 3.1 / Figure 13): a long-running query
//! donates workers to a short high-priority query arriving mid-flight,
//! and a cancelled query stops at the next morsel boundary.
//!
//! ```sh
//! cargo run --release --example elastic_scheduling
//! ```

use std::sync::Arc;

use morsel_repro::core::{render_ascii, TraceRecorder};
use morsel_repro::prelude::*;
use morsel_repro::queries::tpch_queries;

fn main() {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let db = generate_tpch(
        TpchConfig {
            scale: 0.003,
            ..Default::default()
        },
        &topo,
    );
    let workers = 4;

    // Measure the long query alone to time the arrival.
    let solo = run_sim(
        &env,
        "Q13",
        tpch_queries::query(&db, 13),
        SystemVariant::full(),
        workers,
        2048,
    )
    .seconds();
    println!("Q13 alone on {workers} workers: {:.3} ms", solo * 1e3);

    // Now: Q13 starts, a high-priority Q14 arrives at 30%.
    let config = DispatchConfig::new(workers).with_morsel_size(2048);
    let recorder = Arc::new(TraceRecorder::new());
    let traced = env.clone().with_trace(Arc::clone(&recorder));
    let mut sim = SimExecutor::new(traced, config);
    let (q13, _) = compile_query(
        "Q13-long",
        tpch_queries::query(&db, 13),
        SystemVariant::full(),
    );
    let (q14, _) = compile_query(
        "Q14-interactive",
        tpch_queries::query(&db, 14),
        SystemVariant::full(),
    );
    let q14 = q14.with_priority(8); // interactive query gets 8x the share
    let arrival = (solo * 0.3 * 1e9) as u64;
    sim.submit(q13);
    sim.submit_at(arrival, q14);
    let report = sim.run();

    let s13 = report.handle("Q13-long").stats();
    let s14 = report.handle("Q14-interactive").stats();
    println!(
        "Q13: 0 .. {:.3} ms  (stretched by the intruder, as it should be)",
        s13.finished_ns as f64 / 1e6
    );
    println!(
        "Q14: {:.3} .. {:.3} ms (latency {:.3} ms)",
        s14.started_ns as f64 / 1e6,
        s14.finished_ns as f64 / 1e6,
        s14.elapsed_ns() as f64 / 1e6
    );
    println!("\nmorsel trace (A = Q13, B = Q14):");
    print!("{}", render_ascii(&recorder.take(), workers, 100));

    // Cancellation: workers stop at the next morsel boundary.
    let mut sim = SimExecutor::new(env, DispatchConfig::new(workers).with_morsel_size(2048));
    let (victim, _) = compile_query("victim", tpch_queries::query(&db, 9), SystemVariant::full());
    sim.submit(victim);
    sim.cancel_at((solo * 0.1 * 1e9) as u64, "victim");
    let report = sim.run();
    println!(
        "\ncancelled Q9: marked at {:.3} ms of virtual time; workers stopped at the \
         next morsel boundary and the query produced no result",
        solo * 0.1 * 1e3
    );
    assert!(report.handle("victim").is_cancelled());
    assert!(report.handle("victim").is_done());
}
