//! The planner's oracle gate: every query that exists as SQL *text* must
//! return exactly what its hand-authored `exec::Plan` returns — planned
//! cold and served from the plan cache. The hand plan is the oracle and shares nothing with the
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
use morsel_repro::service::{CacheDisposition, QueryService, ServiceConfig, Session};
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
    assert_same_rows(name, keyed, &want.result, &got.result);
}

/// `got` holds the rows `want` holds: all of them, or, for a top-k whose
/// sort keys are `keyed`, the same key columns.
fn assert_same_rows(name: &str, keyed: Option<(Vec<usize>, usize)>, want: &Batch, got: &Batch) {
    match keyed {
        None => {
            assert_eq!(
                normalized(want),
                normalized(got),
                "{name}: planned result differs from oracle"
            );
        }
        Some((key_cols, _limit)) => {
            // Top-k with ties at the boundary: the kept key tuples are
            // deterministic, payload columns of boundary ties are not.
            assert_eq!(want.rows(), got.rows(), "{name}: planned row count differs");
            for (label, c) in key_cols.iter().enumerate() {
                assert_eq!(
                    want.column(*c),
                    got.column(*c),
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

/// The EXPLAIN ANALYZE oracle: the per-operator actuals reported by ONE
/// profiled execution (what `repro explain` / `repro sql --analyze`
/// print) must equal the old quadratic oracle — re-executing the subtree
/// under every `plan.preorder()` node in isolation and counting its
/// result rows — on every TPC-H and SSB fixture.
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
            for (i, (line, (_, node))) in lines.iter().zip(plan.preorder()).enumerate() {
                let subtree = run(&env, &name, &format!("sub{i}"), node.clone());
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

/// `catalog` with every string column of every table decoded to plain
/// strings, in the same partitions on the same nodes.
fn decoded(catalog: &Catalog) -> Catalog {
    use morsel_repro::storage::Partition;
    use std::sync::Arc;

    let mut plain = Catalog::new();
    for (name, rel) in catalog.iter() {
        let parts = (rel.partitions().iter())
            .map(|p| Partition::new(p.node, p.data.decoded()))
            .collect();
        plain.add(
            name,
            Arc::new(Relation::from_partitions(rel.schema().clone(), parts)),
        );
    }
    plain
}

/// Dictionary encoding is a physical representation and nothing more
/// (DESIGN.md §9): every SQL fixture returns over the generated catalog
/// what it returns over a copy with every string column plain, the plain
/// copy being the oracle. At SF 0.002 the domain rule leaves only
/// `orders.o_comment` (TPC-H) and `part.p_name` (SSB) plain, so the
/// fixtures' string keys, payloads and predicates run as codes on the
/// encoded side. The two catalogs are planned separately — the estimator
/// prices 4-byte codes, not strings — and compared as the oracle gate
/// compares.
#[test]
fn fixtures_over_a_fully_decoded_catalog_return_identical_results() {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let planner = Planner::new(&topo);
    let mut checked = 0usize;
    for (catalog, fixtures) in [tpch_fixtures(&topo, 0.002), ssb_fixtures(&topo, 0.002)] {
        let plain = decoded(&catalog);
        for Fixture { name, sql, .. } in fixtures {
            let plan = |catalog: &Catalog| planner.plan(&bind_fixture(catalog, &name, sql));
            assert_equivalent(
                &env,
                &format!("{name}-decoded"),
                plan(&plain),
                plan(&catalog),
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 25, "the full TPC-H + SSB fixture set");
}

/// The scan of a static session: a `Session` over a static catalog scans
/// grouped views of its relations, whose chunks are runs of several
/// same-node partitions read into one working batch. Every SQL fixture,
/// run that way on real threads at 1 and 4 workers, with 512-row and
/// default morsels, returns what its hand plan returns on the simulator.
#[test]
fn grouped_static_sessions_match_oracle_plans_at_every_worker_count_and_morsel_size() {
    let topo = Topology::nehalem_ex();
    let sim = ExecEnv::new(topo.clone());
    let mut checked = 0usize;
    for (catalog, fixtures) in [tpch_fixtures(&topo, 0.002), ssb_fixtures(&topo, 0.002)] {
        let session = Session::builder().catalog(catalog).topology(&topo).build();
        let oracles: Vec<Batch> = (fixtures.iter())
            .map(|f| run(&sim, &f.name, "oracle", f.oracle.clone()).result)
            .collect();
        for (workers, morsel) in [
            (1, 512),
            (4, 512),
            (1, DEFAULT_MORSEL_SIZE),
            (4, DEFAULT_MORSEL_SIZE),
        ] {
            let service = grouped_service(&topo, workers, morsel);
            for (f, want) in fixtures.iter().zip(&oracles) {
                let leg = format!("{} at {workers} workers, {morsel}-row morsels", f.name);
                let got = execute(&session, &service, &leg, f.sql);
                assert_same_rows(&leg, sort_key_cols(&f.oracle), want, &got);
                checked += 1;
            }
            service.shutdown();
        }
    }
    assert_eq!(checked, 25 * 4, "the full TPC-H + SSB fixture set");
}

fn grouped_service(topo: &Topology, workers: usize, morsel: usize) -> QueryService {
    let config = ServiceConfig::new(workers).with_morsel_size(morsel);
    QueryService::start(ExecEnv::new(topo.clone()), config)
}

/// `sql` through `session` on `service`: its decoded rows.
fn execute(session: &Session, service: &QueryService, leg: &str, sql: &str) -> Batch {
    let exec = (session.execute(service, leg, sql)).unwrap_or_else(|e| panic!("{leg}: {e}"));
    exec.rows().expect("a completed SELECT has rows").decoded()
}

/// A grouped chunk whose partitions carry different string
/// representations: each partition its own dictionary, or plain
/// partitions between encoded ones. The scan filters each piece against
/// its own representation and gathers them all into one working batch,
/// decoding what does not share the first piece's dictionary.
#[test]
fn a_grouped_chunk_over_mixed_string_representations_returns_the_plain_rows() {
    use morsel_repro::storage::{encode_fragments, Partition};
    use std::sync::Arc;

    let topo = Topology::nehalem_ex();
    let words = ["ash", "birch", "cedar", "elm", "fir", "oak"];
    // 8 partitions of 40 rows on node 0: one chunk. Partition p holds
    // words p, p + 1 and p + 2, so its own dictionary differs from its
    // neighbours'.
    let rows = |p: usize| (0..40).map(move |r| (p * 40 + r) as i64);
    let word = |k: i64| words[(k % 3 + k / 40) as usize % 6];
    let plain: Vec<Column> = (0..8)
        .map(|p| Column::Str(rows(p).map(word).collect()))
        .collect();
    let encode = |cols: &[&Column]| encode_fragments(cols).expect("six words encode").1;
    let shared = encode(&plain.iter().collect::<Vec<_>>());
    let layouts = [
        (
            "own dictionaries",
            plain.iter().map(|c| encode(&[c]).remove(0)).collect(),
        ),
        (
            "every other plain",
            (shared.into_iter().zip(&plain).enumerate())
                .map(|(p, (coded, plain))| if p % 2 == 1 { plain.clone() } else { coded })
                .collect::<Vec<_>>(),
        ),
    ];
    let service = grouped_service(&topo, 2, 64);
    for (layout, strings) in layouts {
        let parts = (strings.into_iter().enumerate())
            .map(|(p, s)| {
                let data = Batch::from_columns(vec![Column::I64(rows(p).collect()), s]);
                Partition::new(SocketId(0), data)
            })
            .collect();
        let schema = Schema::new(vec![("k", DataType::I64), ("s", DataType::Str)]);
        let t = Arc::new(Relation::from_partitions(schema, parts));
        let catalog = Catalog::new().with_table("t", t);
        let session = Session::builder().catalog(catalog).topology(&topo).build();
        let got = execute(
            &session,
            &service,
            layout,
            "SELECT k, s FROM t WHERE k > 13",
        );
        let got = normalized(&got);
        let keys: Vec<i64> = (14..320).collect();
        assert_eq!(got.column(0).as_i64(), &keys[..], "{layout}");
        let want: Vec<&str> = keys.iter().map(|&k| word(k)).collect();
        assert_eq!(
            got.column(1),
            &Column::Str(want.into_iter().collect()),
            "{layout}"
        );
        let count = execute(
            &session,
            &service,
            layout,
            "SELECT COUNT(*) AS n FROM t WHERE s = 'cedar' AND k < 300",
        );
        let want = (0..300).filter(|&k| word(k) == "cedar").count() as i64;
        assert_eq!(count.column(0).as_i64(), &[want], "{layout}");
    }
    service.shutdown();
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
/// and, on Q10, no higher. Costs are the operators' own charges, so
/// Q3/Q5/Q8/Q9 come out under their hand plans (0.56–0.89 ×): the binder
/// computes aggregate inputs in a `Map` over the join block's output
/// rows, the hand plans in the scan's projection over every row the
/// scan keeps. Q18 prices at 1.03 ×.
///
/// The gate's teeth: with the estimator multiplying the two sides of
/// `o_orderdate >= DATE … AND o_orderdate < DATE …` as independent
/// predicates (what it did before it priced fused ranges), Q5 and Q10
/// over-estimate `orders` six-fold (Q10: 3,348 rows for 574), pick other
/// orders and fail their pins; Q10's also fails the cost bound (1.54 ×
/// hand).
#[test]
fn planner_cost_beats_or_matches_hand_orders_on_multi_join_queries() {
    let topo = Topology::nehalem_ex();
    let db = generate_tpch(TpchConfig::scaled(0.01), &topo);
    let catalog = db.catalog();
    let planner = Planner::new(&topo);
    let pinned = [
        (3usize, "(lineitem ⋈ (orders ⋈ customer))"),
        // Building the many-to-many `customer ⋈ supplier` (on the nation
        // key) and probing it with `orders` prices 3.5 % under joining
        // `lineitem ⋈ orders` first (join block 4.53e5 vs 4.70e5 ns). The
        // thinnest margin of the six is Q8's: 0.2 % over the next order.
        (
            5,
            "(lineitem ⋈ ((customer ⋈ (supplier ⋈ (nation ⋈ region))) ⋈ orders))",
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
