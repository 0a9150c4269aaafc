//! The write half of [`crate::Session::execute`]: one bound DML
//! statement, auto-committed through a [`morsel_txn::TxnDb`].
//!
//! `INSERT` / `UPDATE` / `DELETE` bind to a [`DmlPlan`] (same binder,
//! same statistics-backed cardinality estimate as the read-side
//! planner) and run as one transaction: begin, buffer, validate, WAL,
//! group-commit fsync, acknowledge.
//!
//! ## Cache coherence across commits
//!
//! A commit or a merge gives every table it changed a new relation in
//! [`TxnDb::snapshot_catalog`] and leaves every other table's relation
//! as it was; before each read the session installs that catalog as
//! grouped views, re-grouping only the tables whose relation changed.
//! The plan cache serves a plan only while every view it scans is still
//! installed, so a plan is never served across a write to a table it
//! reads, and is still served across a write to one it does not. The
//! tests below pin both halves end to end, directed and over seeded
//! rounds of writes and merges against an uncached session and against
//! aggregates computed from the database's logical state.

use morsel_exec::expr::{eq, lit, Expr};
use morsel_planner::{DmlKind, DmlPlan};
use morsel_txn::{TxnDb, TxnError};

/// Acknowledgement of one auto-committed DML statement. Returned only
/// after the commit's WAL group is durable.
#[derive(Debug, Clone)]
pub struct DmlReport {
    pub kind: DmlKind,
    pub table: String,
    /// Rows the statement touched (inserted, updated, or deleted).
    pub rows_affected: usize,
    /// The planner's statistics-based prediction for `rows_affected`.
    pub estimated_rows: f64,
    /// The commit timestamp the write became visible at.
    pub commit_ts: u64,
}

impl std::fmt::Display for DmlReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {} row(s) committed @ ts {}",
            self.kind.verb(),
            self.table,
            self.rows_affected,
            self.commit_ts
        )
    }
}

/// Execute a bound [`DmlPlan`] as one auto-committed transaction:
/// begin → buffer writes → commit (validate, WAL, group fsync). Any
/// buffering error aborts the transaction locally; nothing was logged
/// or applied.
pub(crate) fn apply_dml(db: &TxnDb, plan: &DmlPlan) -> Result<DmlReport, TxnError> {
    let mut txn = db.begin()?;
    let buffered = match plan.kind {
        DmlKind::Insert => (plan.rows.iter())
            .try_for_each(|row| db.insert(&mut txn, &plan.table, row.clone()))
            .map(|()| plan.rows.len()),
        DmlKind::Update => {
            let pred = plan.predicate.clone().unwrap_or_else(match_all);
            db.update_where(&mut txn, &plan.table, &pred, &plan.sets)
        }
        DmlKind::Delete => {
            let pred = plan.predicate.clone().unwrap_or_else(match_all);
            db.delete_where(&mut txn, &plan.table, &pred)
        }
    };
    let rows_affected = match buffered {
        Ok(n) => n,
        Err(e) => {
            db.abort(txn);
            return Err(e);
        }
    };
    let commit_ts = db.commit(txn)?;
    Ok(DmlReport {
        kind: plan.kind,
        table: plan.table.clone(),
        rows_affected,
        estimated_rows: plan.estimated_rows,
        commit_ts,
    })
}

/// A trivially-true predicate for `UPDATE`/`DELETE` without a `WHERE`
/// clause (constant expressions broadcast over the batch).
fn match_all() -> Expr {
    eq(lit(0), lit(0))
}

#[cfg(test)]
mod tests {
    use crate::cache::PLAN_CACHE_CAPACITY_DEFAULT;
    use crate::{CacheDisposition, ErrorKind, QueryService, ServiceConfig, Session};
    use morsel_core::{ExecEnv, DEFAULT_MORSEL_SIZE};
    use morsel_datagen::{generate_tpch, TpchConfig};
    use morsel_exec::Plan;
    use morsel_numa::{Placement, Topology};
    use morsel_storage::{
        Batch, Column, DataType, PartitionBy, Relation, Schema, Value, WalFaults,
    };
    use morsel_txn::{kv_relation, Lcg, TxnDb, TxnDbConfig};
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "morsel-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("tmpdir");
        d
    }

    fn setup(tag: &str) -> (PathBuf, Arc<TxnDb>, Session, QueryService) {
        setup_with(tag, TxnDbConfig::default())
    }

    fn setup_with(tag: &str, cfg: TxnDbConfig) -> (PathBuf, Arc<TxnDb>, Session, QueryService) {
        let dir = tmpdir(tag);
        let tables = vec![("kv", kv_relation(4))];
        let db = Arc::new(TxnDb::create_with(&dir, tables, cfg).expect("create"));
        let service = QueryService::start(ExecEnv::new(Topology::laptop()), ServiceConfig::new(2));
        let session = session_over(&db, &service, PLAN_CACHE_CAPACITY_DEFAULT);
        (dir, db, session, service)
    }

    fn session_over(db: &Arc<TxnDb>, service: &QueryService, capacity: usize) -> Session {
        Session::builder()
            .database(Arc::clone(db))
            .topology(&Topology::laptop())
            .plan_cache_capacity(capacity)
            .for_service(service)
            .build()
    }

    /// A database of two `kv` tables, `a` and `b`.
    fn two_tables(dir: &Path) -> Arc<TxnDb> {
        let tables = vec![("a", kv_relation(4)), ("b", kv_relation(4))];
        Arc::new(TxnDb::create(dir, tables).expect("create"))
    }

    /// Run `sql` and return its rows and plan-cache disposition.
    fn read(
        session: &Session,
        service: &QueryService,
        sql: &str,
    ) -> (Vec<Vec<Value>>, CacheDisposition) {
        let exec = session.execute(service, "read", sql).expect("read runs");
        let q = exec.query().expect("select produces a query execution");
        let rows = q.rows.as_ref().expect("completed");
        (
            (0..rows.rows()).map(|i| rows.row(i)).collect(),
            q.plan_cache,
        )
    }

    fn write(session: &Session, service: &QueryService, sql: &str) -> usize {
        let exec = session
            .execute(service, "write", sql)
            .expect("write commits");
        exec.dml().expect("DML acknowledgement").rows_affected
    }

    fn sum(session: &Session, service: &QueryService, name: &str) -> (i64, CacheDisposition) {
        let exec = session
            .execute(service, name, "SELECT SUM(val) AS s FROM kv")
            .expect("aggregate runs");
        let q = exec.query().expect("select produces a query execution");
        let rows = q.rows.as_ref().expect("completed");
        (rows.column(0).as_i64()[0], q.plan_cache)
    }

    /// A cached plan must never be served stale across a committed
    /// INSERT: it would scan the old snapshot's relation. The second
    /// read hits the plan cache; the commit installs a new `kv`
    /// relation; the third read must miss, count one invalidation and
    /// see the new row.
    #[test]
    fn cached_aggregate_is_never_served_stale_across_a_commit() {
        let (dir, _db, session, service) = setup("txn-session-stale");

        let (s1, d1) = sum(&session, &service, "agg-cold");
        assert_eq!(s1, 0, "seed kv table starts with val = 0 everywhere");
        assert_eq!(d1, CacheDisposition::Miss);
        let (s2, d2) = sum(&session, &service, "agg-warm");
        assert_eq!(s2, 0);
        assert_eq!(d2, CacheDisposition::Hit, "second run is a plan hit");

        let ack = session
            .execute(
                &service,
                "ins",
                "INSERT INTO kv (key, val) VALUES (100, 100)",
            )
            .expect("insert commits");
        let ack = ack.dml().expect("DML acknowledgement");
        assert_eq!(ack.rows_affected, 1);
        assert!(ack.commit_ts > 0);

        let before = session.stats().plan_invalidations;
        let (s3, d3) = sum(&session, &service, "agg-after-commit");
        assert_eq!(s3, 100, "aggregate reflects the committed insert");
        assert_eq!(
            d3,
            CacheDisposition::Miss,
            "the commit invalidated the plan"
        );
        let stats = session.stats();
        assert_eq!(stats.plan_invalidations, before + 1, "{stats}");

        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A commit invalidates exactly the cached plans that scan the table
    /// it wrote: a plan over `b` is still a hit after a commit to `a`,
    /// a plan over `a` replans and sees the new row.
    #[test]
    fn a_commit_invalidates_only_the_plans_that_scan_its_table() {
        let dir = tmpdir("txn-session-two-tables");
        let db = two_tables(&dir);
        let service = QueryService::start(ExecEnv::new(Topology::laptop()), ServiceConfig::new(2));
        let session = session_over(&db, &service, PLAN_CACHE_CAPACITY_DEFAULT);
        let (sum_a, sum_b) = ("SELECT SUM(val) AS s FROM a", "SELECT SUM(val) AS s FROM b");
        for sql in [sum_a, sum_b] {
            assert_eq!(read(&session, &service, sql).1, CacheDisposition::Miss);
            assert_eq!(read(&session, &service, sql).1, CacheDisposition::Hit);
        }

        write(
            &session,
            &service,
            "INSERT INTO a (key, val) VALUES (100, 5)",
        );

        let (rows, disposition) = read(&session, &service, sum_b);
        assert_eq!(rows, vec![vec![Value::I64(0)]]);
        assert_eq!(disposition, CacheDisposition::Hit, "b was not written");
        let before = session.stats().plan_invalidations;
        let (rows, disposition) = read(&session, &service, sum_a);
        assert_eq!(rows, vec![vec![Value::I64(5)]], "the new row is read");
        assert_eq!(disposition, CacheDisposition::Miss, "a was written");
        let stats = session.stats();
        assert_eq!(stats.plan_invalidations, before + 1, "{stats}");

        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeded rounds of writes to either table, with an occasional
    /// merge, each followed by three reads through a caching and an
    /// uncaching session over the same database: every cached result
    /// must equal the uncached one, and a read of the table the round
    /// did not write must be able to hit.
    #[test]
    fn cached_reads_equal_uncached_reads_across_seeded_writes() {
        let reads = [
            "SELECT SUM(val) AS s FROM a",
            "SELECT SUM(val) AS s FROM b",
            "SELECT SUM(a.val + b.val) AS s FROM a JOIN b ON a.key = b.key",
        ];
        let service = QueryService::start(ExecEnv::new(Topology::laptop()), ServiceConfig::new(2));
        let mut hits_after_other_commit = 0;
        for seed in 1..=6u64 {
            let dir = tmpdir(&format!("txn-session-seeded-{seed}"));
            let db = two_tables(&dir);
            let cached = session_over(&db, &service, PLAN_CACHE_CAPACITY_DEFAULT);
            let uncached = session_over(&db, &service, 0);
            let mut rng = Lcg(seed);
            for round in 0..24 {
                let written = if rng.below(8) == 0 {
                    cached.merge_all().expect("merge");
                    None
                } else {
                    let table = ["a", "b"][rng.below(2) as usize];
                    let (key, val) = (rng.below(8), rng.below(100));
                    let sql = match rng.below(3) {
                        0 => format!("INSERT INTO {table} (key, val) VALUES ({key}, {val})"),
                        1 => format!("UPDATE {table} SET val = {val} WHERE key = {key}"),
                        _ => format!("DELETE FROM {table} WHERE key = {key}"),
                    };
                    let writer = [&cached, &uncached][rng.below(2) as usize];
                    (write(writer, &service, &sql) > 0).then_some(table)
                };
                for sql in reads {
                    let (got, disposition) = read(&cached, &service, sql);
                    let (want, _) = read(&uncached, &service, sql);
                    assert_eq!(got, want, "seed {seed} round {round}: {sql}");
                    let other = match written {
                        Some("a") => sql.ends_with("FROM b"),
                        Some(_) => sql.ends_with("FROM a"),
                        None => false,
                    };
                    if other && disposition == CacheDisposition::Hit {
                        hits_after_other_commit += 1;
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(
            hits_after_other_commit > 0,
            "no read hit right after a commit to the other table"
        );
        service.shutdown();
    }

    /// Auto-commit DML through SQL text: insert, update (with and
    /// without WHERE), delete — each visible to the next SELECT.
    #[test]
    fn dml_statements_autocommit_and_reads_observe_them() {
        let (dir, _db, session, service) = setup("txn-session-dml");

        let ins = session
            .execute(
                &service,
                "ins",
                "INSERT INTO kv (key, val) VALUES (10, 1), (11, 2)",
            )
            .expect("insert");
        assert_eq!(ins.dml().unwrap().rows_affected, 2);

        let upd = session
            .execute(&service, "upd", "UPDATE kv SET val = 7 WHERE key = 10")
            .expect("update");
        let upd = upd.dml().unwrap();
        assert_eq!(upd.rows_affected, 1);
        assert!(
            upd.estimated_rows >= 1.0,
            "statistics-backed estimate filled in: {}",
            upd.estimated_rows
        );

        let (s, _) = sum(&session, &service, "after-upd");
        assert_eq!(s, 7 + 2, "4 seed rows at 0, key 10 -> 7, key 11 -> 2");

        // Unfiltered UPDATE exercises the match-all predicate path.
        let all = session
            .execute(&service, "upd-all", "UPDATE kv SET val = 1")
            .expect("update all");
        assert_eq!(all.dml().unwrap().rows_affected, 6);
        let (s, _) = sum(&session, &service, "after-upd-all");
        assert_eq!(s, 6);

        let del = session
            .execute(&service, "del", "DELETE FROM kv WHERE key >= 10")
            .expect("delete");
        assert_eq!(del.dml().unwrap().rows_affected, 2);
        let (s, _) = sum(&session, &service, "after-del");
        assert_eq!(s, 4);

        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Merges rewrite partitions without changing logical contents —
    /// but they *do* install a new relation, so the cached plan replans
    /// rather than scan the dropped partitions.
    #[test]
    fn merge_invalidates_caches_without_changing_results() {
        let (dir, db, session, service) = setup("txn-session-merge");

        session
            .execute(&service, "ins", "INSERT INTO kv (key, val) VALUES (50, 9)")
            .expect("insert");
        let (s1, _) = sum(&session, &service, "pre-merge");
        assert_eq!(s1, 9);
        let (_, d) = sum(&session, &service, "pre-merge-warm");
        assert_eq!(d, CacheDisposition::Hit);

        session.merge_all().expect("merge");
        assert_eq!(db.delta_stats("kv").expect("kv").2, 1, "epoch advanced");

        let before = session.stats().plan_invalidations;
        let (s2, d2) = sum(&session, &service, "post-merge");
        assert_eq!(s2, 9, "merge preserves logical contents");
        assert_eq!(d2, CacheDisposition::Miss, "the merge invalidated the plan");
        let stats = session.stats();
        assert_eq!(stats.plan_invalidations, before + 1, "{stats}");

        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bind errors from DML surface as `ErrorKind::Sql` and render
    /// with a caret under the offending span; write-path failures
    /// surface as `ErrorKind::Txn`.
    #[test]
    fn dml_errors_keep_their_layer() {
        let faults = WalFaults::fsync_fail(0);
        let cfg = TxnDbConfig {
            faults,
            ..TxnDbConfig::default()
        };
        let (dir, _db, session, service) = setup_with("txn-session-err", cfg);

        let sql = "INSERT INTO nope (key) VALUES (1)";
        let err = session
            .execute(&service, "bad", sql)
            .expect_err("unknown table");
        assert_eq!(*err.kind(), ErrorKind::Sql, "{err}");
        assert!(err.to_string().contains("nope"), "{err}");
        let rendered = err.render(sql);
        assert!(rendered.contains("1 | INSERT INTO nope"), "{rendered}");
        assert!(rendered.ends_with("^^^^^^^^^^^^^^^^"), "{rendered}");

        // The binder accepts this one; the commit's fsync is the
        // injected failure.
        let err = session
            .execute(
                &service,
                "unsynced",
                "INSERT INTO kv (key, val) VALUES (9, 9)",
            )
            .expect_err("the WAL refuses the commit");
        assert_eq!(*err.kind(), ErrorKind::Txn, "{err}");
        assert!(std::error::Error::source(&err).is_some(), "chained source");

        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- grouped views in database mode ---------------------------------

    /// The relations the plan `session` resolves `sql` to scans: the
    /// installed views, since a cached plan is served only while its
    /// views are installed.
    fn scanned(session: &Session, sql: &str) -> (Vec<Arc<Relation>>, CacheDisposition) {
        let (handle, disposition) = session.resolve(sql).expect("resolves");
        let scans = (handle.plan.preorder().into_iter())
            .filter_map(|(_, node)| match node {
                Plan::Scan { relation, .. } => Some(Arc::clone(relation)),
                _ => None,
            })
            .collect();
        (scans, disposition)
    }

    /// The one view `sql` scans, bound afresh (an uncached session).
    fn view(session: &Session, sql: &str) -> Arc<Relation> {
        let (mut scans, _) = scanned(session, sql);
        assert_eq!(scans.len(), 1, "{sql}");
        scans.pop().unwrap()
    }

    #[test]
    fn refreshes_without_a_commit_keep_each_grouped_view() {
        let dir = tmpdir("txn-session-views");
        let db = two_tables(&dir);
        let service = QueryService::start(ExecEnv::new(Topology::laptop()), ServiceConfig::new(2));
        let session = session_over(&db, &service, 0);
        let sum_a = "SELECT SUM(val) AS s FROM a";
        let before = view(&session, sum_a);
        // A grouped view of the database's relation, sharing its
        // partitions and statistics: two same-node partitions, one chunk.
        let latest = db.latest_relation("a").expect("a");
        assert!(!Arc::ptr_eq(&before, &latest));
        assert_eq!((before.partitions().len(), before.chunk_count()), (2, 1));
        assert!(Arc::ptr_eq(
            &before.partition(0).data,
            &latest.partition(0).data
        ));
        assert!(Arc::ptr_eq(&before.stats(), &latest.stats()));
        for _ in 0..3 {
            session.refresh();
            assert!(
                Arc::ptr_eq(&before, &view(&session, sum_a)),
                "a refresh without a commit re-grouped a"
            );
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_replaces_only_its_tables_grouped_view() {
        let dir = tmpdir("txn-session-view-commit");
        let db = two_tables(&dir);
        let service = QueryService::start(ExecEnv::new(Topology::laptop()), ServiceConfig::new(2));
        let session = session_over(&db, &service, PLAN_CACHE_CAPACITY_DEFAULT);
        let (sum_a, sum_b) = ("SELECT SUM(val) AS s FROM a", "SELECT SUM(val) AS s FROM b");
        let (a, _) = scanned(&session, sum_a);
        let (b, _) = scanned(&session, sum_b);
        write(&session, &service, "UPDATE a SET val = 3 WHERE key = 1");
        let (b_after, disposition) = scanned(&session, sum_b);
        assert_eq!(disposition, CacheDisposition::Hit, "b's plan still holds");
        assert!(Arc::ptr_eq(&b[0], &b_after[0]), "b keeps its view");
        let (a_after, disposition) = scanned(&session, sum_a);
        assert_eq!(disposition, CacheDisposition::Miss, "a was written");
        assert!(!Arc::ptr_eq(&a[0], &a_after[0]), "a is re-grouped");
        let latest = db.latest_relation("a").unwrap();
        let delta_part = |rel: &Relation| Arc::clone(&rel.partitions().last().unwrap().data);
        assert!(Arc::ptr_eq(&delta_part(&a_after[0]), &delta_part(&latest)));
        assert_eq!(read(&session, &service, sum_a).0, vec![vec![Value::I64(3)]]);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_written_lineitem_snapshot_scans_in_fewer_chunks_than_partitions() {
        let dir = tmpdir("txn-session-lineitem");
        let topo = Topology::laptop();
        let tpch = generate_tpch(TpchConfig::scaled(0.01), &topo);
        let tables = vec![
            ("orders", Arc::clone(&tpch.orders)),
            ("lineitem", Arc::clone(&tpch.lineitem)),
        ];
        let db = Arc::new(TxnDb::create(&dir, tables).expect("create"));
        let service = QueryService::start(ExecEnv::new(topo), ServiceConfig::new(2));
        let session = session_over(&db, &service, 0);
        let moved = write(
            &session,
            &service,
            "UPDATE lineitem SET l_quantity = 7 WHERE l_orderkey = 1",
        );
        assert!(moved > 0);
        let sql = "SELECT SUM(l_quantity) AS q FROM lineitem";
        let view = view(&session, sql);
        let latest = db.latest_relation("lineitem").unwrap();
        assert_eq!(view.partitions().len(), 65, "64 partitions and the delta's");
        assert_eq!(
            latest.chunk_count(),
            65,
            "the database's own is not grouped"
        );
        // ~940 rows a partition: a chunk takes two or three.
        assert!(
            view.chunk_count() < view.partitions().len() / 2,
            "{} chunks",
            view.chunk_count()
        );
        assert_eq!(view.total_rows(), latest.total_rows());
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `t(key, grp, val)`: 64 hash partitions of ~100 rows on one node, so
    /// its grouped view's chunks span ~20 partitions.
    fn spread_table(rows: i64) -> Arc<Relation> {
        let schema = Schema::new(vec![
            ("key", DataType::I64),
            ("grp", DataType::I64),
            ("val", DataType::I64),
        ]);
        let data = Batch::from_columns(vec![
            Column::I64((0..rows).collect()),
            Column::I64((0..rows).map(|k| k % 7).collect()),
            Column::I64((0..rows).map(|k| k * 13 % 100).collect()),
        ]);
        Arc::new(Relation::partitioned(
            schema,
            &data,
            PartitionBy::Hash { column: 0 },
            64,
            Placement::FirstTouch,
            &Topology::laptop(),
        ))
    }

    /// Per-group `(count, sum)` and, over `val < 50`, `(count, sum, min
    /// key, max key)` of `t`'s committed rows.
    type Aggregates = (BTreeMap<i64, (i64, i64)>, (i64, i64, i64, i64));

    const GROUPS: &str = "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM t GROUP BY grp";
    const FILTERED: &str =
        "SELECT COUNT(*) AS n, SUM(val) AS s, MIN(key) AS lo, MAX(key) AS hi FROM t WHERE val < 50";

    /// The aggregates, computed from the database's logical state.
    fn expected(db: &TxnDb) -> Aggregates {
        let state = db.logical_state();
        let (_, rows) = state.iter().find(|(name, _)| name == "t").unwrap();
        let mut groups = BTreeMap::new();
        let mut filtered = (0, 0, i64::MAX, i64::MIN);
        for i in 0..rows.rows() {
            let row: Vec<i64> = rows.row(i).iter().map(Value::as_i64).collect();
            let (key, grp, val) = (row[0], row[1], row[2]);
            let g = groups.entry(grp).or_insert((0, 0));
            *g = (g.0 + 1, g.1 + val);
            if val < 50 {
                filtered = (
                    filtered.0 + 1,
                    filtered.1 + val,
                    filtered.2.min(key),
                    filtered.3.max(key),
                );
            }
        }
        (groups, filtered)
    }

    /// The aggregates, through `session`.
    fn computed(session: &Session, service: &QueryService) -> Aggregates {
        let (rows, _) = read(session, service, GROUPS);
        let groups = (rows.iter())
            .map(|r| (r[0].as_i64(), (r[1].as_i64(), r[2].as_i64())))
            .collect();
        let (rows, _) = read(session, service, FILTERED);
        let r: Vec<i64> = rows[0].iter().map(Value::as_i64).collect();
        (groups, (r[0], r[1], r[2], r[3]))
    }

    /// Seeded rounds of multi-row inserts, range updates and deletes, and
    /// merges, read through grouped views at 1 and 4 workers and at small
    /// and default morsel sizes: every read equals the aggregates of the
    /// committed logical state.
    #[test]
    fn grouped_reads_equal_the_logical_state_across_seeded_writes() {
        let configs = [1, 4]
            .into_iter()
            .flat_map(|w| [(w, 512), (w, DEFAULT_MORSEL_SIZE)]);
        for (workers, morsel) in configs {
            let config = ServiceConfig::new(workers).with_morsel_size(morsel);
            let service = QueryService::start(ExecEnv::new(Topology::laptop()), config);
            for seed in 1..=3u64 {
                let dir = tmpdir(&format!("txn-session-grouped-{workers}-{morsel}-{seed}"));
                let db = Arc::new(TxnDb::create(&dir, vec![("t", spread_table(6400))]).unwrap());
                let session = session_over(&db, &service, PLAN_CACHE_CAPACITY_DEFAULT);
                let mut rng = Lcg(seed * 31 + workers as u64);
                let mut next_key = 10_000;
                for round in 0..16 {
                    let (lo, width) =
                        (rng.below(next_key as u64) as i64, 1 + rng.below(400) as i64);
                    match rng.below(7) {
                        0 => session.merge_all().expect("merge"),
                        1 | 2 => {
                            let rows: Vec<String> = (0..1 + rng.below(40))
                                .map(|i| {
                                    let key = next_key + i as i64;
                                    format!("({key}, {}, {})", rng.below(9), rng.below(100))
                                })
                                .collect();
                            next_key += rows.len() as i64;
                            let sql = format!("INSERT INTO t VALUES {}", rows.join(", "));
                            write(&session, &service, &sql);
                        }
                        3 | 4 => {
                            let sql = format!(
                                "UPDATE t SET val = {} WHERE key >= {lo} AND key < {}",
                                rng.below(100),
                                lo + width
                            );
                            write(&session, &service, &sql);
                        }
                        _ => {
                            let sql =
                                format!("DELETE FROM t WHERE key >= {lo} AND key < {}", lo + width);
                            write(&session, &service, &sql);
                        }
                    }
                    assert_eq!(
                        computed(&session, &service),
                        expected(&db),
                        "{workers} workers, {morsel}-row morsels, seed {seed}, round {round}"
                    );
                }
                let view = view(&session_over(&db, &service, 0), GROUPS);
                assert!(view.chunk_count() < view.partitions().len());
                let _ = std::fs::remove_dir_all(&dir);
            }
            service.shutdown();
        }
    }
}
