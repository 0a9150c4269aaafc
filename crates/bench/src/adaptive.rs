//! The `repro adaptive` experiment: close the cardinality-feedback
//! loop over a replayed workload.
//!
//! Every SQL fixture (25 queries: the TPC-H slice plus all of SSB) is
//! run three times through a feedback-enabled [`Session`] and once
//! through an identically configured baseline session with feedback
//! off:
//!
//! - **run 1** executes the same plan as the baseline — the feedback
//!   cache is cold, so the estimates (and therefore the join order and
//!   the result bytes) are identical by construction; the run's
//!   per-operator actuals are then harvested into the cache.
//! - **runs 2–3** re-plan with learned scan selectivities and join-edge
//!   selectivities. A fixture counts as *improved* when the warm join
//!   order differs from the cold one AND simulated time strictly drops.
//!
//! One `RESULT` line per fixture plus a summary line make the outcome
//! machine-checkable (CI greps for converged improvements); `--json`
//! routes the report to `BENCH_adaptive.json`.

use morsel_core::{ExecEnv, QueryProfile};
use morsel_exec::plan::Plan;
use morsel_exec::SystemVariant;
use morsel_numa::Topology;
use morsel_queries::{run_sim, ssb_sql, tpch_sql};
use morsel_service::Session;
use morsel_storage::{Batch, Catalog};

use crate::experiments::ExpConfig;
use crate::plan_quality::widest_order;
use crate::report::Table;

fn count_joins(plan: &Plan) -> usize {
    match plan {
        Plan::Scan { .. } => 0,
        Plan::Filter { input, .. }
        | Plan::Map { input, .. }
        | Plan::Agg { input, .. }
        | Plan::Sort { input, .. } => count_joins(input),
        Plan::Join { build, probe, .. } => 1 + count_joins(build) + count_joins(probe),
    }
}

struct FixtureRun {
    name: String,
    joins: usize,
    order: [String; 3],
    secs: [f64; 3],
    identical: bool,
    improved: bool,
}

/// Replay `fixtures` against `catalog`: one cold baseline run plus three
/// feedback-warm runs each, comparing join orders and simulated time.
fn replay(
    env: &ExecEnv,
    topo: &Topology,
    cfg: &ExpConfig,
    catalog: &Catalog,
    fixtures: &[(String, &str)],
) -> Vec<FixtureRun> {
    let baseline = Session::builder()
        .catalog(catalog.clone())
        .topology(topo)
        .build();
    let adaptive = Session::builder()
        .catalog(catalog.clone())
        .topology(topo)
        .feedback(true)
        .build();
    // Pass 0 is the cold replay; harvesting happens only at pass
    // boundaries, so every fixture's first run sees the same (empty)
    // cache as the baseline session and plans identically. Passes 1–2
    // replay the whole workload against the learned selectivities.
    let baselines: Vec<Batch> = fixtures
        .iter()
        .map(|(name, sql)| {
            let (handle, _) = baseline
                .resolve(sql)
                .unwrap_or_else(|e| panic!("{name}: {}", e.render(sql)));
            run_sim(
                env,
                &format!("{name}-base"),
                handle.plan.clone(),
                SystemVariant::full(),
                16,
                cfg.morsel_size,
            )
            .result
        })
        .collect();

    let mut runs: Vec<FixtureRun> = fixtures
        .iter()
        .map(|(name, _)| FixtureRun {
            name: name.clone(),
            joins: 0,
            order: Default::default(),
            secs: [0.0; 3],
            identical: true,
            improved: false,
        })
        .collect();
    for pass in 0..3 {
        let mut harvest: Vec<(Plan, QueryProfile)> = Vec::new();
        for (i, (name, sql)) in fixtures.iter().enumerate() {
            let (handle, _) = adaptive
                .resolve(sql)
                .unwrap_or_else(|e| panic!("{name}: {}", e.render(sql)));
            if pass == 0 {
                runs[i].joins = count_joins(&handle.plan);
            }
            runs[i].order[pass] = widest_order(&handle.report);
            let outcome = run_sim(
                env,
                &format!("{name}-pass{pass}"),
                handle.plan.clone(),
                SystemVariant::full(),
                16,
                cfg.morsel_size,
            );
            runs[i].secs[pass] = outcome.seconds();
            if pass == 0 {
                assert_eq!(
                    outcome.result, baselines[i],
                    "{name}: the cold replay must match the baseline byte-for-byte"
                );
            } else if outcome.result != baselines[i] {
                runs[i].identical = false;
            }
            harvest.push((
                handle.plan.clone(),
                outcome
                    .profile
                    .expect("SystemVariant::full() compiles with profiling on"),
            ));
        }
        for (plan, profile) in &harvest {
            adaptive.observe(plan, profile);
        }
    }
    for r in &mut runs {
        r.improved = r.joins >= 2 && r.order[1] != r.order[0] && r.secs[1] < r.secs[0];
    }
    runs
}

/// The `adaptive` experiment (see the module docs).
pub fn adaptive(cfg: &ExpConfig) -> String {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let tpch = morsel_datagen::generate_tpch(morsel_datagen::TpchConfig::scaled(cfg.scale), &topo);
    let ssb = morsel_datagen::generate_ssb(morsel_datagen::SsbConfig::scaled(cfg.ssb_scale), &topo);
    let tpch_fixtures: Vec<(String, &str)> = tpch_sql::all()
        .into_iter()
        .map(|(q, sql)| (format!("Q{q}"), sql))
        .collect();
    let ssb_fixtures: Vec<(String, &str)> = ssb_sql::all()
        .into_iter()
        .map(|(id, sql)| (format!("SSB{id}"), sql))
        .collect();

    let mut runs = replay(&env, &topo, cfg, &tpch.catalog(), &tpch_fixtures);
    runs.extend(replay(&env, &topo, cfg, &ssb.catalog(), &ssb_fixtures));

    let mut out = format!(
        "adaptive: cardinality-feedback replay, TPC-H SF {} / SSB SF {}\n\
         (each fixture: 1 baseline run, then 3 runs with the feedback cache \
         learning scan and join-edge selectivities; times are simulated \
         virtual seconds, 16 workers)\n\n",
        cfg.scale, cfg.ssb_scale
    );
    let mut table = Table::new(&[
        "fixture",
        "joins",
        "t run1",
        "t run2",
        "t run3",
        "order changed",
        "improved",
    ]);
    let total = runs.len();
    let mut identical = 0usize;
    let mut multi = 0usize;
    let mut improved = 0usize;
    let mut result_lines = String::new();
    for r in &runs {
        if r.identical {
            identical += 1;
        }
        if r.joins >= 2 {
            multi += 1;
        }
        if r.improved {
            improved += 1;
        }
        table.row(vec![
            r.name.clone(),
            r.joins.to_string(),
            format!("{:.4}", r.secs[0]),
            format!("{:.4}", r.secs[1]),
            format!("{:.4}", r.secs[2]),
            (r.order[1] != r.order[0]).to_string(),
            r.improved.to_string(),
        ]);
        result_lines.push_str(&format!(
            "RESULT fixture={} joins={} t1={:.6} t2={:.6} t3={:.6} identical={} \
             order_changed={} improved={}\n",
            r.name,
            r.joins,
            r.secs[0],
            r.secs[1],
            r.secs[2],
            r.identical,
            r.order[1] != r.order[0],
            r.improved,
        ));
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str("re-chosen join orders (run 1 -> run 2):\n");
    for r in runs.iter().filter(|r| r.order[1] != r.order[0]) {
        out.push_str(&format!(
            "  {:>7}: {}\n        -> {}{}\n",
            r.name,
            r.order[0],
            r.order[1],
            if r.improved { "  (cheaper)" } else { "" }
        ));
    }
    out.push('\n');
    out.push_str(&result_lines);
    out.push_str(&format!(
        "RESULT summary fixtures={total} identical={identical} multi_join={multi} \
         improved={improved}\n"
    ));
    assert_eq!(identical, total, "feedback must never change query results");
    out
}
