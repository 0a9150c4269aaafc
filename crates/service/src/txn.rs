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
//! [`TxnDb::snapshot_catalog`] stamps a strictly advancing version
//! (bumped by every commit *and* every merge), and the session installs
//! the new catalog whenever that version moved. The plan cache guards
//! on that version: a plan bound against version `v` scans the
//! relations of `v`'s snapshot, so it can never be served once the
//! catalog reads `v' > v`. The tests below pin the end-to-end property
//! — a cached plan is never served stale across a committed `INSERT`
//! or a merge.

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
    use crate::{CacheDisposition, ErrorKind, QueryService, ServiceConfig, Session};
    use morsel_core::ExecEnv;
    use morsel_numa::Topology;
    use morsel_storage::WalFaults;
    use morsel_txn::{kv_relation, TxnDb, TxnDbConfig};
    use std::path::PathBuf;
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
        let topo = Topology::laptop();
        let tables = vec![("kv", kv_relation(4))];
        let db = Arc::new(TxnDb::create_with(&dir, tables, cfg).expect("create"));
        let service = QueryService::start(ExecEnv::new(topo.clone()), ServiceConfig::new(2));
        let session = Session::builder()
            .database(Arc::clone(&db))
            .topology(&topo)
            .for_service(&service)
            .build();
        (dir, db, session, service)
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
    /// read hits the plan cache; the commit moves the catalog version;
    /// the third read must miss, count one invalidation and see the new
    /// row.
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

    /// Auto-commit DML through SQL text: insert, update (with and
    /// without WHERE), delete — each visible to the next SELECT.
    #[test]
    fn dml_statements_autocommit_and_reads_observe_them() {
        let (dir, db, session, service) = setup("txn-session-dml");

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

        // The write path saw every statement as its own transaction.
        assert!(db.version() > 0);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Merges rewrite partitions without changing logical contents —
    /// but they *do* bump the version, so the cached plan replans
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
}
