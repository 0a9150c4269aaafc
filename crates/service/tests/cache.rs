//! Cache behaviour under the real threaded service: single-flight
//! planning under contention, literal/catalog guards, prepared
//! statements, the opt-in result cache, and LRU bounds — all driven
//! through [`Session`].
//!
//! These are the concurrency halves of the cache oracle — the key
//! function itself is property-tested in `morsel-sql`'s `shape_prop`
//! suite, and result equivalence across all 25 fixtures is held by the
//! workspace-level `planner_equivalence` four-way gate.

use morsel_core::{ExecEnv, QueryOutcome};
use morsel_datagen::{generate_tpch, TpchConfig, TpchDb};
use morsel_numa::Topology;
use morsel_service::{CacheDisposition, QueryService, ServiceConfig, Session};
use morsel_sql::LiteralValue;
use morsel_txn::TxnDb;
use std::sync::Arc;

fn tpch() -> (Topology, TpchDb) {
    let topo = Topology::laptop();
    let db = generate_tpch(TpchConfig::scaled(0.002), &topo);
    (topo, db)
}

fn start_service(topo: &Topology) -> QueryService {
    QueryService::start(
        ExecEnv::new(topo.clone()),
        ServiceConfig::new(4)
            .with_morsel_size(2048)
            .with_max_in_flight(8)
            .with_max_queue(256),
    )
}

fn session_for(service: &QueryService, topo: &Topology, db: &TpchDb) -> Session {
    Session::builder()
        .catalog(db.catalog())
        .topology(topo)
        .for_service(service)
        .build()
}

const REVENUE: &str = "SELECT SUM(l_extendedprice * l_discount) AS revenue \
                       FROM lineitem WHERE l_quantity < 24";

/// N clients hammering one query shape: planning happens exactly once
/// (the cold planner runs under the cache lock, so the other clients
/// block on it and then hit), hits + misses reconcile with submissions,
/// and every client sees byte-identical rows.
#[test]
fn one_hot_shape_plans_exactly_once_under_contention() {
    let (topo, db) = tpch();
    let service = start_service(&topo);
    let session = session_for(&service, &topo, &db);

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 6;
    let mut results = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let session = &session;
                let service = &service;
                s.spawn(move || {
                    (0..PER_CLIENT)
                        .map(|i| {
                            let exec = session
                                .execute(service, format!("hot-{c}-{i}"), REVENUE)
                                .expect("query completes");
                            let q = exec.query().expect("select yields a query execution");
                            assert_eq!(q.report.outcome, QueryOutcome::Completed);
                            assert_ne!(
                                q.plan_cache,
                                CacheDisposition::Bypass,
                                "plan caching is on"
                            );
                            q.rows.clone().expect("completed query returns rows")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            results.extend(h.join().expect("client thread panicked"));
        }
    });

    let submitted = (CLIENTS * PER_CLIENT) as u64;
    let first = &results[0];
    for (i, batch) in results.iter().enumerate() {
        assert_eq!(batch, first, "client result #{i} diverged");
    }
    let stats = session.stats();
    assert_eq!(stats.plan_misses, 1, "one shape, one cold plan: {stats}");
    assert_eq!(stats.plan_hits, submitted - 1, "{stats}");
    assert_eq!(stats.plan_lookups(), submitted, "{stats}");
    assert_eq!(stats.plan_poisoned, 0, "{stats}");

    // The session fed the service's counters, so the shutdown report
    // carries the same numbers.
    let report = service.shutdown();
    assert_eq!(report.totals.total(), submitted, "ticket conservation");
    assert_eq!(report.completed(), submitted);
    assert_eq!(report.cache, stats);
    assert!(report.summary().contains("plan cache"));
}

/// Same shape, different literals: the shape key matches but the entry
/// guard must reject the cached plan (it embeds the old constants), so
/// the lookup is a guarded miss, counted as an invalidation. A catalog
/// version bump invalidates the same way.
#[test]
fn literal_and_catalog_churn_invalidate_cached_plans() {
    let (topo, db) = tpch();
    let service = start_service(&topo);
    let session = session_for(&service, &topo, &db);

    let narrow = "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10";
    let wide = "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 45";

    let run = |name: &str, sql: &str| {
        let exec = session.execute(&service, name, sql).unwrap();
        let q = exec.query().unwrap();
        (q.plan_cache, q.rows.clone().unwrap())
    };

    let (a_disp, a_rows) = run("a", narrow);
    assert_eq!(a_disp, CacheDisposition::Miss);
    let (b_disp, _) = run("b", narrow);
    assert_eq!(b_disp, CacheDisposition::Hit);

    // Different literal, same shape: serving the cached plan would
    // return the narrow count for the wide query.
    let (c_disp, c_rows) = run("c", wide);
    assert_eq!(c_disp, CacheDisposition::Miss);
    assert_eq!(session.stats().plan_invalidations, 1);
    assert_ne!(
        a_rows, c_rows,
        "fixture counts must differ for the guard to matter"
    );

    // Explicit invalidation hook: the catalog version moves even when
    // the closure only touches data the table map cannot see.
    session.update_catalog(|_| {});
    let (d_disp, _) = run("d", wide);
    assert_eq!(d_disp, CacheDisposition::Miss, "stale catalog version");
    assert_eq!(session.stats().plan_invalidations, 2);
    let (e_disp, e_rows) = run("e", wide);
    assert_eq!(e_disp, CacheDisposition::Hit);
    assert_eq!(e_rows, c_rows);

    service.shutdown();
}

/// Prepared-statement round trip: parse once, bind literals per
/// execution; the template shares its cache shape with the equivalent
/// ad-hoc spelling, and placeholder arity is enforced.
#[test]
fn prepared_statements_share_the_plan_cache_with_adhoc_text() {
    let (topo, db) = tpch();
    let service = start_service(&topo);
    let session = session_for(&service, &topo, &db);

    let stmt = session
        .prepare("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < ? AND l_discount > $2")
        .expect("template parses");
    assert_eq!(stmt.param_count(), 2);

    let prepared = |name: &str, params: &[LiteralValue]| {
        session
            .execute_prepared(&service, name, &stmt, params)
            .map(|exec| {
                let q = exec.query().unwrap();
                (q.plan_cache, q.rows.clone())
            })
    };

    let (p1_disp, p1_rows) =
        prepared("p1", &[LiteralValue::Int(24), LiteralValue::Int(3)]).expect("p1 completes");
    assert_eq!(p1_disp, CacheDisposition::Miss);

    let (p2_disp, p2_rows) =
        prepared("p2", &[LiteralValue::Int(24), LiteralValue::Int(3)]).expect("p2 completes");
    assert_eq!(p2_disp, CacheDisposition::Hit);
    assert_eq!(p2_rows, p1_rows);

    // Re-binding with new values is a guarded miss, not a collision.
    let (p3_disp, p3_rows) =
        prepared("p3", &[LiteralValue::Int(10), LiteralValue::Int(5)]).expect("p3 completes");
    assert_eq!(p3_disp, CacheDisposition::Miss);

    // The ad-hoc spelling of the same query is the same shape AND the
    // same literal vector: a clean hit.
    let adhoc = session
        .execute(
            &service,
            "p4",
            "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10 AND l_discount > 5",
        )
        .unwrap();
    let adhoc = adhoc.query().unwrap();
    assert_eq!(adhoc.plan_cache, CacheDisposition::Hit);
    assert_eq!(adhoc.rows, p3_rows);

    let err = prepared("p5", &[LiteralValue::Int(1)]).expect_err("arity mismatch must fail");
    assert!(
        matches!(err.kind(), morsel_service::ErrorKind::Sql),
        "{err}"
    );
    assert!(err.to_string().contains("2 parameter"), "{err}");

    service.shutdown();
}

/// The opt-in result cache: aggregate queries are served without
/// executing on a repeat, explicit and version-driven invalidation both
/// drop entries, non-aggregates bypass, and the served hit still counts
/// as a completed query in the service ledger.
#[test]
fn result_cache_serves_aggregates_and_honours_invalidation() {
    let (topo, db) = tpch();
    let service = start_service(&topo);
    let session = Session::builder()
        .catalog(db.catalog())
        .topology(&topo)
        .for_service(&service)
        .result_caching(true)
        .build();

    let run = |name: &str, sql: &str| {
        let exec = session.execute(&service, name, sql).unwrap();
        let q = exec.query().unwrap();
        (q.result_cache, q.plan_cache, q.rows.clone())
    };

    let (r1_res, r1_plan, rows) = run("r1", REVENUE);
    assert_eq!(r1_res, CacheDisposition::Miss);
    assert_eq!(r1_plan, CacheDisposition::Miss);
    let rows = rows.expect("completed");

    let (r2_res, r2_plan, r2_rows) = run("r2", REVENUE);
    assert_eq!(r2_res, CacheDisposition::Hit);
    assert_eq!(
        r2_plan,
        CacheDisposition::Bypass,
        "a result hit never consults the plan cache"
    );
    assert_eq!(r2_rows.as_ref(), Some(&rows), "cached rows are identical");

    // Explicit invalidation hook.
    session.invalidate_results();
    let (r3_res, r3_plan, r3_rows) = run("r3", REVENUE);
    assert_eq!(r3_res, CacheDisposition::Miss);
    assert_eq!(r3_plan, CacheDisposition::Hit, "plans survive");
    assert_eq!(r3_rows.as_ref(), Some(&rows));

    // Version-driven invalidation: the stale entry is dropped on lookup.
    session.update_catalog(|_| {});
    let (r4_res, r4_plan, r4_rows) = run("r4", REVENUE);
    assert_eq!(r4_res, CacheDisposition::Miss);
    assert_eq!(r4_plan, CacheDisposition::Miss);
    assert_eq!(r4_rows.as_ref(), Some(&rows));

    // Non-aggregate scans never enter the result cache.
    let (scan_res, _, _) = run(
        "scan",
        "SELECT l_quantity FROM lineitem WHERE l_quantity < 2",
    );
    assert_eq!(scan_res, CacheDisposition::Bypass);

    let stats = session.stats();
    assert_eq!(stats.result_hits, 1, "{stats}");
    assert_eq!(stats.result_misses, 3, "{stats}");
    assert_eq!(
        stats.result_invalidations, 2,
        "one explicit, one stale-on-lookup: {stats}"
    );

    let report = service.shutdown();
    assert_eq!(report.totals.total(), 5, "the cached hit is a real ticket");
    assert_eq!(report.completed(), 5);
    assert_eq!(report.cache, stats, "shutdown snapshot matches the session");
}

/// The plan cache is bounded, over a catalog and over a database
/// alike: beyond capacity the least-recently used shape is evicted and
/// replans on its next appearance.
#[test]
fn plan_cache_is_lru_bounded() {
    let (topo, db) = tpch();
    let dir = std::env::temp_dir().join(format!("morsel-cache-lru-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tables = vec![("lineitem", Arc::clone(&db.lineitem))];
    let txn_db = Arc::new(TxnDb::create(&dir, tables).expect("create"));

    let q1 = "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 5";
    let q2 = "SELECT SUM(l_quantity) AS s FROM lineitem WHERE l_quantity < 5";
    let q3 = "SELECT MAX(l_quantity) AS m FROM lineitem WHERE l_quantity < 5";

    let modes = [
        ("catalog", Session::builder().catalog(db.catalog())),
        ("database", Session::builder().database(txn_db)),
    ];
    for (mode, builder) in modes {
        let service = start_service(&topo);
        let session = builder.topology(&topo).plan_cache_capacity(2).build();
        let disp = |name: &str, sql: &str| {
            let exec = session.execute(&service, name, sql).unwrap();
            exec.query().unwrap().plan_cache
        };

        for (name, sql) in [("q1", q1), ("q2", q2), ("q3", q3)] {
            assert_eq!(disp(name, sql), CacheDisposition::Miss, "{mode}: {name}");
        }
        let evictions = session.stats().plan_evictions;
        assert_eq!(evictions, 1, "{mode}: q1 was evicted by q3");
        let again = disp("q1-again", q1);
        assert_eq!(
            again,
            CacheDisposition::Miss,
            "{mode}: evicted shape replans"
        );
        let again = disp("q3-again", q3);
        assert_eq!(again, CacheDisposition::Hit, "{mode}: resident shape hits");

        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Capacity 0 is the plan cache's off switch: nothing is kept, so a
/// repeated statement plans, and misses, both times.
#[test]
fn zero_capacity_disables_the_plan_cache() {
    let (topo, db) = tpch();
    let service = start_service(&topo);
    let session = Session::builder()
        .catalog(db.catalog())
        .topology(&topo)
        .plan_cache_capacity(0)
        .build();
    let mut rows = Vec::new();
    for name in ["first", "again"] {
        let exec = session.execute(&service, name, REVENUE).unwrap();
        let query = exec.query().unwrap();
        assert_eq!(query.plan_cache, CacheDisposition::Miss, "{name}");
        rows.push(query.rows.clone().unwrap());
    }
    assert_eq!(rows[0], rows[1]);
    let stats = session.stats();
    assert_eq!((stats.plan_hits, stats.plan_misses), (0, 2), "{stats}");
    assert_eq!(stats.plan_evictions, 0, "{stats}");
    service.shutdown();
}

/// Feedback-enabled sessions keep serving cached plans once learned
/// selectivities stop changing: the first harvest bumps the feedback
/// epoch (guarded miss), but a converged cache leaves entries valid.
#[test]
fn feedback_epoch_guards_cached_plans_until_convergence() {
    let (topo, db) = tpch();
    let service = start_service(&topo);
    let session = Session::builder()
        .catalog(db.catalog())
        .topology(&topo)
        .for_service(&service)
        .feedback(true)
        .build();
    let fb = session.feedback().expect("feedback enabled").clone();

    let exec = session.execute(&service, "f1", REVENUE).unwrap();
    let q1 = exec.query().unwrap();
    assert_eq!(q1.plan_cache, CacheDisposition::Miss);
    assert!(!fb.is_empty(), "the completed query was harvested");
    let rows = q1.rows.clone().unwrap();

    // The harvest moved the epoch, so the cached plan (priced with the
    // old estimates) is invalidated exactly once...
    let exec = session.execute(&service, "f2", REVENUE).unwrap();
    let q2 = exec.query().unwrap();
    assert_eq!(q2.plan_cache, CacheDisposition::Miss, "epoch moved");
    assert_eq!(
        q2.rows.clone().unwrap(),
        rows,
        "feedback never changes results"
    );

    // ...and once observations repeat (within tolerance), the epoch is
    // stable and the plan cache serves hits again.
    let exec = session.execute(&service, "f3", REVENUE).unwrap();
    let q3 = exec.query().unwrap();
    assert_eq!(q3.plan_cache, CacheDisposition::Hit, "converged");
    assert_eq!(q3.rows.clone().unwrap(), rows);

    // The harvest uses the plan each execution ran, not a second trip
    // through the plan cache: three statements, three lookups.
    let stats = session.stats();
    assert_eq!(stats.plan_lookups(), 3, "{stats}");

    service.shutdown();
}
