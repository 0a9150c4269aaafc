//! Plan-cache behaviour under the real threaded service: single-flight
//! planning under contention, the literal guard, LRU bounds and the
//! capacity-0 off switch — all driven through [`Session`]. The guard
//! on the relations a plan scans is held by the commit, merge and
//! seeded two-table tests in `morsel-service`'s `txn` module.
//!
//! These are the concurrency halves of the cache oracle — the key
//! function itself is property-tested in `morsel-sql`'s `shape_prop`
//! suite, and result equivalence across all 25 fixtures is held by the
//! workspace-level `planner_equivalence` four-way gate.

use morsel_core::{ExecEnv, QueryOutcome};
use morsel_datagen::{generate_tpch, TpchConfig, TpchDb};
use morsel_numa::Topology;
use morsel_service::{CacheDisposition, QueryService, ServiceConfig, Session};
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
/// the lookup is a guarded miss, counted as an invalidation.
#[test]
fn literal_churn_invalidates_cached_plans() {
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

    let (d_disp, d_rows) = run("d", wide);
    assert_eq!(d_disp, CacheDisposition::Hit);
    assert_eq!(d_rows, c_rows);

    service.shutdown();
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

/// Capacity 0 is the plan cache's off switch: nothing is looked up,
/// kept or counted, so a repeated statement plans both times and each
/// run reports `Bypass`.
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
        assert_eq!(query.plan_cache, CacheDisposition::Bypass, "{name}");
        rows.push(query.rows.clone().unwrap());
    }
    assert_eq!(rows[0], rows[1]);
    let stats = session.stats();
    assert_eq!(stats.plan_lookups(), 0, "{stats}");
    assert_eq!(stats, Default::default(), "nothing is counted: {stats}");
    service.shutdown();
}
