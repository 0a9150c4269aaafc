//! [`Session`]: the one SQL entry point of the service.
//!
//! A session owns everything between SQL text and a submitted query:
//! the catalog it binds against (a static one, or the latest committed
//! snapshot of a transactional database), the cost-based planner, and
//! the plan cache with its counters. The planner prices plans from
//! catalog statistics only; what a query observes at run time is
//! reported (`EXPLAIN ANALYZE`), never fed back into planning.
//!
//! ```no_run
//! # use morsel_service::Session;
//! # let catalog = morsel_storage::Catalog::new();
//! let session = Session::builder()
//!     .catalog(catalog)                 // or .database(db) for MVCC
//!     .topology(&morsel_numa::Topology::laptop())
//!     .plan_cache_capacity(64)          // 0 turns the plan cache off
//!     .build();
//! ```
//!
//! There is one way in, [`Session::execute`], and its phases run in
//! this order:
//!
//! 1. `parse_statement` — once per statement;
//! 2. **SELECT**: refresh the snapshot (database mode) → resolve the
//!    plan through the plan cache, or bind and plan on a miss →
//!    `compile_query` → submit and wait → take the rows;
//! 3. **DML** (database mode): bind → begin, buffer, commit → refresh.
//!
//! A non-`Completed` outcome is an [`Error`], so `Ok` always carries a
//! usable result.
//!
//! Lock order is `caches → catalog`, never the reverse: planning holds
//! the cache lock (that is what makes it single-flight) and takes the
//! one catalog mutex inside it; [`Session::refresh`] takes only the
//! catalog mutex, and the database's own lock is only ever taken
//! inside it.

use std::sync::Arc;
use std::time::Instant;

use morsel_core::QueryOutcome;
use morsel_exec::plan::compile_query;
use morsel_exec::SystemVariant;
use morsel_numa::Topology;
use morsel_planner::{PlanHandle, Planner};
use morsel_sql::normalize::shape_of;
use morsel_sql::{parse, parse_statement, Binder, BoundStatement, Select, SqlError, Statement};
use morsel_storage::{Batch, Catalog};
use morsel_txn::TxnDb;
use parking_lot::{Mutex, MutexGuard};

use crate::cache::{
    CacheCounters, CacheDisposition, CacheStats, SessionCaches, SqlExecution,
    PLAN_CACHE_CAPACITY_DEFAULT,
};
use crate::error::Error;
use crate::service::{QueryRequest, QueryService};
use crate::txn::{apply_dml, DmlReport};

// ------------------------------------------------------------- builder

/// Configures and constructs a [`Session`]. Obtain via
/// [`Session::builder`].
pub struct SessionBuilder {
    catalog: Option<Catalog>,
    db: Option<Arc<TxnDb>>,
    topology: Topology,
    plan_cache_capacity: usize,
    counters: Option<Arc<CacheCounters>>,
}

impl SessionBuilder {
    /// Serve a static (non-transactional) catalog. Mutually exclusive
    /// with [`SessionBuilder::database`]. The session binds against a
    /// grouped view of each relation
    /// ([`morsel_storage::Relation::grouped`]), which shares the
    /// relation's partitions and statistics, so that a small relation cut
    /// into many partitions still scans in morsels of a useful size.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Serve a transactional database: SELECTs read the latest
    /// committed snapshot, DML auto-commits through the MVCC write
    /// path. Mutually exclusive with [`SessionBuilder::catalog`].
    pub fn database(mut self, db: Arc<TxnDb>) -> Self {
        self.db = Some(db);
        self
    }

    /// Topology the planner's cost model is calibrated for (defaults to
    /// the paper's Nehalem EX box).
    pub fn topology(mut self, topology: &Topology) -> Self {
        self.topology = topology.clone();
        self
    }

    /// Bound on distinct shapes the plan cache retains (LRU beyond it).
    /// 0 turns the cache off: every execution binds and plans from
    /// scratch, reports [`CacheDisposition::Bypass`] and counts nothing.
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Feed this session's cache counters into `service`'s shutdown
    /// report.
    pub fn for_service(mut self, service: &QueryService) -> Self {
        self.counters = Some(Arc::clone(service.cache_counters()));
        self
    }

    /// Construct the session.
    ///
    /// # Panics
    /// Panics unless exactly one of [`SessionBuilder::catalog`] /
    /// [`SessionBuilder::database`] was provided.
    pub fn build(self) -> Session {
        let source = match (self.catalog, self.db) {
            (Some(catalog), None) => {
                let mut grouped = Catalog::new();
                for (name, relation) in catalog.iter() {
                    grouped.add(name, Arc::new(relation.grouped()));
                }
                CatalogSource::Static(Mutex::new(grouped))
            }
            (None, Some(db)) => CatalogSource::Database {
                installed: Mutex::new(db.snapshot_catalog()),
                db,
            },
            (Some(_), Some(_)) => panic!("Session: give either a catalog or a database, not both"),
            (None, None) => panic!("Session: a catalog or a database is required"),
        };
        let counters = self.counters.unwrap_or_default();
        Session {
            source,
            planner: Planner::new(&self.topology),
            caches: Mutex::new(SessionCaches::new(
                self.plan_cache_capacity,
                Arc::clone(&counters),
            )),
            counters,
            plan_cache_capacity: self.plan_cache_capacity,
        }
    }
}

// ------------------------------------------------------------- results

/// What one [`Session::execute`] produced: a query result or a durable
/// DML acknowledgement.
#[derive(Debug)]
pub enum Execution {
    Query(SqlExecution),
    Dml(DmlReport),
}

impl Execution {
    /// The query execution, when the statement was a `SELECT`.
    pub fn query(&self) -> Option<&SqlExecution> {
        match self {
            Execution::Query(q) => Some(q),
            Execution::Dml(_) => None,
        }
    }

    /// The DML acknowledgement, when the statement wrote.
    pub fn dml(&self) -> Option<&DmlReport> {
        match self {
            Execution::Dml(d) => Some(d),
            Execution::Query(_) => None,
        }
    }

    /// The result batch of a completed query.
    pub fn rows(&self) -> Option<&Batch> {
        self.query().and_then(|q| q.rows.as_ref())
    }
}

// ------------------------------------------------------------- session

/// Where the session's catalog comes from — the only place that knows
/// which mode the session is in.
enum CatalogSource {
    /// Loaded once, as grouped views of the given relations; never moves.
    Static(Mutex<Catalog>),
    /// The latest committed snapshot of `db` as of the last refresh.
    /// A commit or merge gives each table it changed a new relation in
    /// [`TxnDb::snapshot_catalog`], so installing a newer snapshot is what
    /// invalidates the plans that scan one of those tables.
    Database {
        db: Arc<TxnDb>,
        installed: Mutex<Catalog>,
    },
}

impl CatalogSource {
    /// The catalog statements bind against right now.
    fn catalog(&self) -> MutexGuard<'_, Catalog> {
        match self {
            CatalogSource::Static(catalog) => catalog.lock(),
            CatalogSource::Database { installed, .. } => installed.lock(),
        }
    }

    /// Install the database's latest committed snapshot. It is taken
    /// under the catalog mutex, so concurrent refreshes can never install
    /// an older one over a newer one.
    fn refresh(&self) {
        if let CatalogSource::Database { db, installed } = self {
            let mut installed = installed.lock();
            *installed = db.snapshot_catalog();
        }
    }
}

/// The SQL front end of the service. See the [module docs](self).
pub struct Session {
    source: CatalogSource,
    planner: Planner,
    caches: Mutex<SessionCaches>,
    counters: Arc<CacheCounters>,
    plan_cache_capacity: usize,
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            catalog: None,
            db: None,
            topology: Topology::nehalem_ex(),
            plan_cache_capacity: PLAN_CACHE_CAPACITY_DEFAULT,
            counters: None,
        }
    }

    /// The planner this session resolves plans with.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Snapshot of the session's cache counters.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Re-sync the read side with the latest committed snapshot
    /// (database mode; no-op otherwise). A table committed to or merged
    /// since the last refresh comes back as a new relation, which is
    /// what invalidates the cached plans that scan it.
    pub fn refresh(&self) {
        self.source.refresh();
    }

    /// Fold every table's committed delta into fresh base partitions
    /// (database mode; no-op otherwise), then refresh: every merged
    /// table comes back as a new relation.
    pub fn merge_all(&self) -> Result<(), Error> {
        if let CatalogSource::Database { db, .. } = &self.source {
            db.merge_all()?;
            self.refresh();
        }
        Ok(())
    }

    /// Cache-aware planning without execution: refresh the snapshot,
    /// parse, consult the plan cache, plan on a miss. For callers that
    /// drive an executor themselves (open-loop submission, the
    /// planner-equivalence oracle).
    pub fn resolve(&self, sql: &str) -> Result<(PlanHandle, CacheDisposition), Error> {
        self.refresh();
        Ok(self.resolve_plan(&parse(sql)?)?)
    }

    /// Execute one SQL statement through `service`: a `SELECT` against
    /// the catalog (in database mode, the latest committed snapshot),
    /// or — in database mode — one auto-committed `INSERT` / `UPDATE` /
    /// `DELETE`, acknowledged only once durable.
    pub fn execute(
        &self,
        service: &QueryService,
        name: impl Into<String>,
        sql: &str,
    ) -> Result<Execution, Error> {
        let started = Instant::now();
        match parse_statement(sql)? {
            Statement::Select(select) => self
                .run_select(service, name.into(), &select, started)
                .map(Execution::Query),
            dml => self.run_dml(&dml).map(Execution::Dml),
        }
    }

    /// The read path of [`Session::execute`], from a parsed `SELECT` on.
    fn run_select(
        &self,
        service: &QueryService,
        name: String,
        select: &Select,
        started: Instant,
    ) -> Result<SqlExecution, Error> {
        self.refresh();

        // Plan: from the cache, or bind + plan under the cache lock.
        let (handle, plan_cache) = self.resolve_plan(select)?;
        let plan_ns = started.elapsed().as_nanos() as u64;

        // Compile the pipelines for this run, submit, wait.
        let (spec, slot) = compile_query(name.as_str(), handle.plan, SystemVariant::full());
        let report = service.submit(QueryRequest::new(spec)).wait();
        if let QueryOutcome::Failed(_) = report.outcome {
            // Never retain a plan whose execution failed.
            if self.plan_cache_capacity > 0 {
                let (shape, literals) = shape_of(select);
                self.caches.lock().evict_poisoned(&shape, &literals);
            }
        }
        if let Some(err) = Error::from_outcome(&name, &report.outcome) {
            return Err(err);
        }
        let rows = slot.lock().take();
        Ok(SqlExecution {
            report,
            rows,
            plan_cache,
            plan_ns,
        })
    }

    /// Resolve `select` to a physical plan, through the plan cache unless
    /// its capacity is 0 — then nothing is looked up, kept or counted, the
    /// statement's shape is never computed, and the plan is a `Bypass`.
    ///
    /// Planning runs under the cache lock, so concurrent executions of
    /// one cold shape plan exactly once (single-flight) — the others
    /// block briefly and then hit.
    fn resolve_plan(&self, select: &Select) -> Result<(PlanHandle, CacheDisposition), SqlError> {
        let shape = (self.plan_cache_capacity > 0).then(|| shape_of(select));
        let mut caches = self.caches.lock();
        let catalog = self.source.catalog();
        let cached = (shape.as_ref())
            .and_then(|(key, literals)| caches.lookup_plan(key, literals, &catalog));
        if let Some(handle) = cached {
            return Ok((handle, CacheDisposition::Hit));
        }
        let logical = Binder::new(&catalog).bind(select)?;
        let handle = self.planner.plan_handle(&logical);
        let Some((key, literals)) = shape else {
            return Ok((handle, CacheDisposition::Bypass));
        };
        caches.insert_plan(key, literals, handle.clone());
        Ok((handle, CacheDisposition::Miss))
    }

    /// The write path of [`Session::execute`]: bind against the latest
    /// committed snapshot, run as one auto-committed transaction, then
    /// pull the new catalog in so the caches invalidate before the next
    /// read plans.
    fn run_dml(&self, stmt: &Statement) -> Result<DmlReport, Error> {
        let CatalogSource::Database { db, .. } = &self.source else {
            let (verb, span) = match stmt {
                Statement::Insert(s) => ("INSERT", s.span),
                Statement::Update(s) => ("UPDATE", s.span),
                Statement::Delete(s) => ("DELETE", s.span),
                Statement::Select(_) => unreachable!("SELECT takes the read path"),
            };
            let message = format!(
                "{verb} needs a session over a database; this one serves a read-only catalog"
            );
            return Err(SqlError::new(message, span).into());
        };
        let plan = match Binder::new(&db.snapshot_catalog()).bind_statement(stmt)? {
            BoundStatement::Dml(plan) => plan,
            BoundStatement::Select(_) => unreachable!("SELECT takes the read path"),
        };
        let report = apply_dml(db, &plan)?;
        self.refresh();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorKind, ServiceConfig};
    use morsel_core::ExecEnv;
    use morsel_datagen::{generate_tpch, TpchConfig};

    fn tpch_session(scale: f64) -> (Session, QueryService) {
        let topo = Topology::laptop();
        let catalog = generate_tpch(TpchConfig::scaled(scale), &topo).catalog();
        let service = QueryService::start(ExecEnv::new(topo.clone()), ServiceConfig::new(2));
        let session = Session::builder().catalog(catalog).topology(&topo).build();
        (session, service)
    }

    #[test]
    fn sql_text_runs_through_the_service() {
        let (session, service) = tpch_session(0.002);
        let sql = "SELECT SUM(l_extendedprice * l_discount / 100) AS revenue \
                   FROM lineitem \
                   WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
                     AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24";
        let exec = session.execute(&service, "sql-q6", sql).expect("runs");
        let query = exec.query().expect("a SELECT yields a query execution");
        assert_eq!(query.report.outcome, QueryOutcome::Completed);
        assert_eq!(query.report.name, "sql-q6");
        let rows = exec.rows().expect("result produced");
        assert_eq!(rows.rows(), 1, "scalar aggregate returns one row");
        assert_eq!(service.shutdown().completed(), 1);
    }

    /// Grouping by a float used to panic a worker ("cannot group by F64
    /// column") and fail the statement; a float is a key slot like any
    /// other.
    #[test]
    fn group_by_a_float_returns_its_groups() {
        let (session, service) = tpch_session(0.002);
        let sql = "SELECT l_quantity * 0.5 AS h, COUNT(*) AS n FROM lineitem GROUP BY h";
        let exec = session
            .execute(&service, "float-groups", sql)
            .expect("runs");
        let rows = exec.rows().expect("result produced");
        // l_quantity takes the 50 values 1..=50.
        assert_eq!(rows.rows(), 50);
        let mut halves = rows.column(0).as_f64().to_vec();
        halves.sort_by(f64::total_cmp);
        halves.dedup();
        assert_eq!(halves.len(), 50, "one group per distinct value");
        let lineitem = session.execute(&service, "count", "SELECT COUNT(*) FROM lineitem");
        let total = lineitem
            .expect("runs")
            .rows()
            .expect("one row")
            .column(0)
            .as_i64()[0];
        assert_eq!(rows.column(1).as_i64().iter().sum::<i64>(), total);
        assert_eq!(service.shutdown().completed(), 2);
    }

    /// `ORDER BY … LIMIT 0` is an empty result with the statement's
    /// columns: the top-k stage must accept `k` = 0.
    #[test]
    fn order_by_limit_zero_returns_no_rows() {
        let (session, service) = tpch_session(0.001);
        let sql = "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 0";
        let exec = session.execute(&service, "limit-0", sql).expect("runs");
        let rows = exec.rows().expect("result produced");
        assert_eq!((rows.rows(), rows.width()), (0, 2));
        assert_eq!(service.shutdown().completed(), 1);
    }

    #[test]
    fn bind_errors_surface_before_submission() {
        let (session, service) = tpch_session(0.001);
        let sql = "SELECT nope FROM lineitem";
        let err = session
            .execute(&service, "bad", sql)
            .expect_err("unknown column must fail");
        assert_eq!(*err.kind(), ErrorKind::Sql, "{err}");
        assert!(err.to_string().contains("unknown column"), "{err}");
        let rendered = err.render(sql);
        assert!(
            rendered.contains("1 | SELECT nope FROM lineitem"),
            "{rendered}"
        );
        assert!(rendered.ends_with("  |        ^^^^"), "{rendered}");
        assert_eq!(
            service.shutdown().totals.total(),
            0,
            "nothing was submitted"
        );
    }

    /// A catalog-mode session has no write path: DML text parses, so the
    /// error must say what is wrong, not complain about the syntax of a
    /// valid statement.
    #[test]
    fn dml_on_a_static_catalog_is_a_sql_error() {
        let (session, service) = tpch_session(0.001);
        for sql in [
            "INSERT INTO region VALUES (9, 'ATLANTIS', 'sunk')",
            "UPDATE region SET r_name = 'ATLANTIS' WHERE r_regionkey = 0",
            "DELETE FROM region",
        ] {
            let err = session
                .execute(&service, "write", sql)
                .expect_err("a static catalog cannot be written");
            assert_eq!(*err.kind(), ErrorKind::Sql, "{sql}: {err}");
            let verb = sql.split(' ').next().unwrap();
            let message = err.to_string();
            assert!(
                message.contains(verb) && message.contains("read-only catalog"),
                "{sql}: {message}"
            );
            assert!(err.render(sql).contains(&format!("1 | {sql}")), "{sql}");
        }
        assert_eq!(
            service.shutdown().totals.total(),
            0,
            "nothing was submitted"
        );
    }
}
