//! The planner's oracle gate: every query that exists as SQL *text* must
//! return exactly what its hand-authored `exec::Plan` returns — planned
//! cold, served from the plan cache, and re-planned with learned
//! selectivities. The hand plan is the oracle and shares nothing with the
//! path it checks: the text goes through the complete front end (lex →
//! parse → bind → plan → execute), the hand plan through none of it.
//!
//! Result comparison accounts for what each query actually pins down:
//! un-limited queries compare full results (normalized by sorting on all
//! columns — join order changes row arrival order, which an order-less
//! aggregate output does not promise); top-k queries compare the sort-key
//! columns, which the limit boundary determines uniquely even when
//! payload columns tie.

use morsel_repro::exec::plan::Plan;
use morsel_repro::exec::sort::{sort_batch, SortKey};
use morsel_repro::planner::{plan_cost, LogicalPlan, Planner};
use morsel_repro::prelude::*;
use morsel_repro::queries::{run_sim, ssb_queries, ssb_sql, tpch_queries, tpch_sql, RunOutcome};
use morsel_repro::service::{CacheDisposition, Session};
use morsel_repro::storage::Batch;

/// One SQL fixture and the hand plan it is held to.
struct Fixture {
    name: String,
    sql: &'static str,
    oracle: Plan,
}

/// The twelve TPC-H fixtures at `scale`, and the catalog they bind against.
fn tpch_fixtures(topo: &Topology, scale: f64) -> (Catalog, Vec<Fixture>) {
    let db = generate_tpch(TpchConfig::scaled(scale), topo);
    let fixtures = tpch_sql::all()
        .into_iter()
        .map(|(q, sql)| Fixture {
            name: format!("Q{q}"),
            sql,
            oracle: tpch_queries::query(&db, q),
        })
        .collect();
    (db.catalog(), fixtures)
}

/// The thirteen SSB fixtures at `scale`, and the catalog they bind against.
fn ssb_fixtures(topo: &Topology, scale: f64) -> (Catalog, Vec<Fixture>) {
    let db = generate_ssb(SsbConfig::scaled(scale), topo);
    let fixtures = ssb_sql::all()
        .into_iter()
        .map(|(id, sql)| Fixture {
            name: format!("SSB{id}"),
            sql,
            oracle: ssb_queries::query(&db, id),
        })
        .collect();
    (db.catalog(), fixtures)
}

/// `plan` on the simulator: 16 workers, 512-row morsels.
fn run(env: &ExecEnv, name: &str, leg: &str, plan: Plan) -> RunOutcome {
    let name = format!("{name}-{leg}");
    run_sim(env, &name, plan, SystemVariant::full(), 16, 512)
}

fn normalized(batch: &Batch) -> Batch {
    let keys: Vec<SortKey> = (0..batch.width()).map(SortKey::asc).collect();
    sort_batch(batch, &keys)
}

/// Columns a `Sort { limit }` plan pins down exactly: its sort keys.
fn sort_key_cols(plan: &Plan) -> Option<(Vec<usize>, usize)> {
    match plan {
        Plan::Sort {
            keys,
            limit: Some(k),
            ..
        } => Some((keys.iter().map(|s| s.col).collect(), *k)),
        _ => None,
    }
}

fn assert_equivalent(env: &ExecEnv, name: &str, oracle: Plan, lowered: Plan) {
    // The cheap structural gate first: the text names and types its
    // output columns as the hand plan does.
    let (want, got) = (oracle.schema(), lowered.schema());
    assert_eq!(got.names(), want.names(), "{name}: output columns");
    assert_eq!(got.data_types(), want.data_types(), "{name}: output types");
    let keyed = sort_key_cols(&oracle);
    let want = run(env, name, "oracle", oracle);
    let got = run(env, name, "planned", lowered);
    match keyed {
        None => {
            assert_eq!(
                normalized(&want.result),
                normalized(&got.result),
                "{name}: planned result differs from oracle"
            );
        }
        Some((key_cols, _limit)) => {
            // Top-k with ties at the boundary: the kept key tuples are
            // deterministic, payload columns of boundary ties are not.
            assert_eq!(
                want.result.rows(),
                got.result.rows(),
                "{name}: planned row count differs"
            );
            for (label, c) in key_cols.iter().enumerate() {
                assert_eq!(
                    want.result.column(*c),
                    got.result.column(*c),
                    "{name}: sort key column #{label} differs"
                );
            }
        }
    }
}

/// Bind a fixture, failing with the rendered caret diagnostic.
fn bind_fixture(catalog: &Catalog, name: &str, sql: &str) -> LogicalPlan {
    match plan_sql(catalog, sql) {
        Ok(plan) => plan,
        Err(e) => panic!("{name}: SQL fixture failed to bind\n{}", e.render(sql)),
    }
}

/// First leg: bind, plan cold, run — against the hand plan.
fn check_cold(topo: &Topology, (catalog, fixtures): (Catalog, Vec<Fixture>)) {
    let env = ExecEnv::new(topo.clone());
    let planner = Planner::new(topo);
    for f in fixtures {
        let planned = planner.plan(&bind_fixture(&catalog, &f.name, f.sql));
        assert_equivalent(&env, &f.name, f.oracle, planned);
    }
}

#[test]
fn tpch_sql_fixtures_match_oracle_plans() {
    let topo = Topology::nehalem_ex();
    check_cold(&topo, tpch_fixtures(&topo, 0.01));
}

#[test]
fn ssb_sql_fixtures_match_oracle_plans() {
    let topo = Topology::nehalem_ex();
    check_cold(&topo, ssb_fixtures(&topo, 0.01));
}

/// Second leg: the plan-cache path. For every SQL fixture, plan cold (a
/// miss), plan again (a hit), and run both physical plans — the results
/// must be *exactly* equal (the cache may never change what a query
/// returns), and the warm plan must still pass the hand-authored oracle
/// gate from [`assert_equivalent`].
#[test]
fn cached_plans_are_byte_identical_to_cold_plans() {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    for (catalog, fixtures) in [tpch_fixtures(&topo, 0.002), ssb_fixtures(&topo, 0.002)] {
        let session = Session::builder().catalog(catalog).topology(&topo).build();
        let n = fixtures.len() as u64;
        for Fixture { name, sql, oracle } in fixtures {
            let (cold, first) = session
                .resolve(sql)
                .unwrap_or_else(|e| panic!("{name}: fixture failed to plan\n{}", e.render(sql)));
            assert_eq!(first, CacheDisposition::Miss, "{name}: cold lookup");
            let (warm, second) = session.resolve(sql).unwrap();
            assert_eq!(second, CacheDisposition::Hit, "{name}: warm lookup");
            assert_eq!(
                run(&env, &name, "cold", cold.plan).result,
                run(&env, &name, "warm", warm.plan.clone()).result,
                "{name}: cached plan result differs from the cold-planned result"
            );
            assert_equivalent(&env, &format!("{name}-cached"), oracle, warm.plan);
        }
        let stats = session.stats();
        assert_eq!(stats.plan_misses, n, "one cold plan per fixture");
        assert_eq!(stats.plan_hits, n, "one warm hit per fixture");
    }
}

/// Third leg: the feedback-warm path. Every SQL fixture is run once cold
/// through a feedback-enabled session (identical to the non-adaptive plan
/// by construction — the cache is empty), the whole workload's actuals
/// are harvested, and the replay with learned selectivities must return
/// byte-identical results — re-chosen join orders may only change *how* a
/// result is computed, never the result — and still pass the
/// hand-authored oracle gate.
#[test]
fn feedback_warm_plans_are_byte_identical_to_cold_plans() {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    for (catalog, fixtures) in [tpch_fixtures(&topo, 0.002), ssb_fixtures(&topo, 0.002)] {
        let session = Session::builder()
            .catalog(catalog)
            .topology(&topo)
            .feedback(true)
            .build();
        let fb = session.feedback().expect("feedback-enabled session");
        assert!(fb.is_empty(), "the first pass must be cold");
        // Cold pass: run, record, and only then harvest (mirrors a
        // workload replay — within one pass nothing is learned yet).
        let mut cold_results = Vec::new();
        let mut harvest = Vec::new();
        for Fixture { name, sql, .. } in &fixtures {
            let (handle, _) = session
                .resolve(sql)
                .unwrap_or_else(|e| panic!("{name}: {}", e.render(sql)));
            let out = run(&env, name, "fb-cold", handle.plan.clone());
            let profile = out.profile.expect("compiled plans are profiled");
            cold_results.push(out.result);
            harvest.push((handle.plan, profile));
        }
        for (plan, profile) in &harvest {
            session.observe(plan, profile);
        }
        assert!(!fb.is_empty(), "the workload harvest populated the cache");
        // Warm pass: learned selectivities may re-choose join orders.
        for (Fixture { name, sql, oracle }, cold) in fixtures.into_iter().zip(&cold_results) {
            let (handle, _) = session.resolve(sql).unwrap();
            let out = run(&env, &name, "fb-warm", handle.plan.clone());
            assert_eq!(
                &out.result, cold,
                "{name}: feedback-warm result differs from the cold result"
            );
            assert_equivalent(&env, &format!("{name}-fb"), oracle, handle.plan);
        }
    }
}

/// The EXPLAIN ANALYZE oracle: the per-operator actuals reported by ONE
/// profiled execution (what `repro explain` / `repro sql --analyze`
/// print) must equal the old quadratic oracle — re-executing every
/// explain line's subtree in isolation and counting its result rows —
/// on every TPC-H and SSB fixture.
#[test]
fn analyze_profile_matches_subtree_oracle_on_all_fixtures() {
    use morsel_repro::planner::explain;

    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let planner = Planner::new(&topo);
    let mut checked = 0usize;
    for (catalog, fixtures) in [tpch_fixtures(&topo, 0.002), ssb_fixtures(&topo, 0.002)] {
        for Fixture { name, sql, .. } in fixtures {
            let plan = planner.plan(&bind_fixture(&catalog, &name, sql));
            let lines = explain::collect(&plan, &planner.estimator);
            let profile = run(&env, &name, "analyze", plan.clone())
                .profile
                .unwrap_or_else(|| panic!("{name}: no profile attached"));
            assert_eq!(
                profile.ops.len(),
                lines.len(),
                "{name}: profile slot count diverges from explain lines"
            );
            for (i, line) in lines.iter().enumerate() {
                let subtree = run(&env, &name, &format!("sub{i}"), line.subplan.clone());
                let oracle = subtree.result.rows();
                assert_eq!(
                    profile.ops[i].rows_out as usize, oracle,
                    "{name} line {i} ({}): profiled actual diverges from the \
                     subtree re-execution oracle",
                    line.label
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 25, "the full TPC-H + SSB fixture set");
}

/// The write path compiled in but quiescent. Every SQL fixture must
/// return byte-identical results whether planned against the generated
/// catalog directly or against a [`TxnDb`] snapshot of the same tables
/// with empty delta stores — the read side may not pay (or change)
/// anything for durability it isn't using. With no committed deltas the
/// snapshot hands back the *same* `Arc<Relation>` pointers, which the
/// test also pins down directly.
#[test]
fn empty_delta_snapshots_are_byte_identical_for_all_fixtures() {
    use morsel_repro::txn::TxnDb;
    use std::sync::Arc;

    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let planner = Planner::new(&topo);
    let mut checked = 0usize;
    let workloads = [
        ("tpch", tpch_fixtures(&topo, 0.002)),
        ("ssb", ssb_fixtures(&topo, 0.002)),
    ];
    for (tag, (direct, fixtures)) in workloads {
        let dir =
            std::env::temp_dir().join(format!("morsel-empty-delta-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tables: Vec<(&str, Arc<Relation>)> = direct
            .iter()
            .map(|(name, rel)| (name, Arc::clone(rel)))
            .collect();
        let db = TxnDb::create(&dir, tables).expect("txn db over the generated tables");
        let snap = db.snapshot_catalog();
        for (name, rel) in direct.iter() {
            assert!(
                Arc::ptr_eq(rel, snap.get(name).expect("table survives the snapshot")),
                "{tag}.{name}: an empty delta store must hand back the base relation"
            );
        }
        for Fixture { name, sql, .. } in fixtures {
            let result = |leg: &str, catalog: &Catalog| {
                let plan = planner.plan(&bind_fixture(catalog, &name, sql));
                run(&env, &name, leg, plan).result
            };
            assert_eq!(
                result("direct", &direct),
                result("empty-delta", &snap),
                "{name}: empty-delta snapshot result differs from the direct catalog"
            );
            checked += 1;
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(checked, 25, "the full TPC-H + SSB fixture set");
}

/// `sql` planned, with the order of its widest join block.
fn planned_block(planner: &Planner, catalog: &Catalog, name: &str, sql: &str) -> (Plan, String) {
    let (plan, report) = planner.plan_with_report(&bind_fixture(catalog, name, sql));
    let widest = report
        .blocks
        .iter()
        .max_by_key(|b| b.leaves.len())
        .unwrap_or_else(|| panic!("{name}: no join block"));
    assert!(!widest.forced_cross, "{name}: join graph is connected");
    (plan, widest.order.clone())
}

/// The scan of `relation` in `plan`.
fn scan_of<'p>(plan: &'p Plan, relation: &std::sync::Arc<Relation>) -> Option<&'p Plan> {
    match plan {
        Plan::Scan { relation: r, .. } => std::sync::Arc::ptr_eq(r, relation).then_some(plan),
        Plan::Filter { input, .. }
        | Plan::Map { input, .. }
        | Plan::Agg { input, .. }
        | Plan::Sort { input, .. } => scan_of(input, relation),
        Plan::Join { build, probe, .. } => {
            scan_of(probe, relation).or_else(|| scan_of(build, relation))
        }
    }
}

/// The planner's cost gate, on the input the system runs: the SQL text
/// of the six multi-join fixtures at SF 0.01 must get the join orders
/// pinned here — the ones the cost model prefers when a date window is
/// priced as one range — at a plan cost within 10 % of the hand plan's
/// and, on Q10, no higher. The gap that remains on Q3/Q5/Q8/Q9 is not
/// the order (it is the hand plan's): the binder computes aggregate
/// inputs in a `Map` above the join block, the hand plans in the scan's
/// projection, so one more column flows through the joins.
///
/// The gate's teeth: with the estimator multiplying the two sides of
/// `o_orderdate >= DATE … AND o_orderdate < DATE …` as independent
/// predicates (what it did before it priced fused ranges), Q5 and Q10
/// over-estimate `orders` six-fold, pick other orders, and fail both the
/// order pin and the cost bound (Q5: 1.13 × hand, Q10: 1.15 ×).
#[test]
fn planner_cost_beats_or_matches_hand_orders_on_multi_join_queries() {
    let topo = Topology::nehalem_ex();
    let db = generate_tpch(TpchConfig::scaled(0.01), &topo);
    let catalog = db.catalog();
    let planner = Planner::new(&topo);
    let pinned = [
        (3usize, "(lineitem ⋈ (orders ⋈ customer))"),
        (
            5,
            "(((lineitem ⋈ orders) ⋈ (supplier ⋈ (nation ⋈ region))) ⋈ customer)",
        ),
        (
            8,
            "((((customer ⋈ (orders ⋈ (lineitem ⋈ part))) ⋈ (n2 ⋈ region)) ⋈ supplier) ⋈ n1)",
        ),
        (
            9,
            "((orders ⋈ ((lineitem ⋈ part) ⋈ partsupp)) ⋈ (supplier ⋈ nation))",
        ),
        (10, "((customer ⋈ (lineitem ⋈ orders)) ⋈ nation)"),
        (18, "((orders ⋈ Γ(lineitem)) ⋈ customer)"),
    ];
    for (q, want_order) in pinned {
        let sql = tpch_sql::text(q).unwrap();
        let (planned, order) = planned_block(&planner, &catalog, &format!("Q{q}"), sql);
        let cp = plan_cost(&planner.params, &planner.estimator, &planned);
        let ch = plan_cost(
            &planner.params,
            &planner.estimator,
            &tpch_queries::query(&db, q),
        );
        println!(
            "Q{q}: planned {cp:.3e} / hand {ch:.3e} = {:.3}  {order}",
            cp / ch
        );
        assert_eq!(order, want_order, "Q{q}: join order");
        if q == 10 {
            // The cause, not only the symptom: the three-month window on
            // `o_orderdate` keeps 92 of the column's 2 406 days.
            let orders = scan_of(&planned, &db.orders).expect("Q10 scans orders");
            let rows = planner.estimator.estimate(orders).rows;
            assert!((rows - 574.0).abs() <= 1.0, "Q10 orders estimate {rows}");
        }
        let bound = if q == 10 { 1.0 } else { 1.10 };
        assert!(
            cp <= ch * bound,
            "Q{q}: planned cost {cp:.3e} is above {bound} x hand {ch:.3e}"
        );
    }
}

#[test]
fn multi_join_queries_get_reordered_blocks() {
    // The planner must actually be planning: Q5/Q8/Q9 contain inner-join
    // blocks of at least five relations each.
    let topo = Topology::nehalem_ex();
    let db = generate_tpch(TpchConfig::scaled(0.002), &topo);
    let catalog = db.catalog();
    let planner = Planner::new(&topo);
    for (q, min_leaves) in [(5usize, 6usize), (8, 8), (9, 5)] {
        let sql = tpch_sql::text(q).unwrap();
        let (_, order) = planned_block(&planner, &catalog, &format!("Q{q}"), sql);
        let leaves = order.matches('⋈').count() + 1;
        assert!(
            leaves >= min_leaves,
            "Q{q}: expected a join block of >= {min_leaves} relations, got {order}"
        );
    }
}
