//! [`Session`]: the one SQL entry point of the service.
//!
//! A session owns everything between SQL text and a submitted query:
//! the catalog it binds against (a static one, or the latest committed
//! snapshot of a transactional database), the cost-based planner, the
//! plan and result caches with their counters, and — when enabled — the
//! [`FeedbackCache`] that carries observed cardinalities from finished
//! queries into later planning.
//!
//! ```no_run
//! # use morsel_service::Session;
//! # let catalog = morsel_storage::Catalog::new();
//! let session = Session::builder()
//!     .catalog(catalog)                 // or .database(db) for MVCC
//!     .topology(&morsel_numa::Topology::laptop())
//!     .result_caching(true)
//!     .feedback(true)                   // learn from runtime actuals
//!     .build();
//! ```
//!
//! There is one way in, [`Session::execute`], and its phases run in
//! this order:
//!
//! 1. `parse_statement` — once per statement;
//! 2. **SELECT**: refresh the snapshot (database mode) → probe the
//!    result cache → resolve the plan through the plan cache, or bind
//!    and plan on a miss → `compile_query` → submit and wait → take the
//!    rows → fill the result cache → harvest feedback from the plan
//!    that ran;
//! 3. **DML** (database mode): bind → begin, buffer, commit → refresh.
//!
//! [`Session::execute_prepared`] joins the SELECT path after the parse.
//! A non-`Completed` outcome is an [`Error`], so `Ok` always carries a
//! usable result.
//!
//! Lock order is `caches → catalog`, never the reverse: planning holds
//! the cache lock (that is what makes it single-flight) and takes the
//! one catalog mutex inside it; [`Session::refresh`] and
//! [`Session::update_catalog`] take only the catalog mutex, and the
//! database's own lock is only ever taken inside it.

use std::sync::Arc;
use std::time::Instant;

use morsel_core::{QueryOutcome, QueryProfile};
use morsel_exec::plan::{compile_query, Plan};
use morsel_exec::SystemVariant;
use morsel_numa::Topology;
use morsel_planner::{FeedbackCache, PlanHandle, Planner};
use morsel_sql::normalize::shape_of;
use morsel_sql::{
    bind_params, parse, parse_statement, Binder, BoundStatement, LiteralValue, Select, SqlError,
    Statement,
};
use morsel_storage::{Batch, Catalog};
use morsel_txn::TxnDb;
use parking_lot::{Mutex, MutexGuard};

use crate::cache::{
    CacheCounters, CacheDisposition, CacheStats, PlanGuard, PreparedStatement, SessionCaches,
    SqlExecution, PLAN_CACHE_CAPACITY_DEFAULT,
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
    result_caching: bool,
    feedback: bool,
    counters: Option<Arc<CacheCounters>>,
}

impl SessionBuilder {
    /// Serve a static (non-transactional) catalog. Mutually exclusive
    /// with [`SessionBuilder::database`].
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
    /// scratch and counts as a miss.
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Opt into the result cache for aggregate queries (default: off).
    pub fn result_caching(mut self, enabled: bool) -> Self {
        self.result_caching = enabled;
        self
    }

    /// Learn observed selectivities from completed queries and let the
    /// planner use them (default: off): the estimator consults them
    /// before its model, and every cached plan is additionally guarded
    /// on the feedback epoch, so new observations force a replan
    /// (counted as a plan invalidation). The session owns the cache;
    /// access it via [`Session::feedback`].
    pub fn feedback(mut self, enabled: bool) -> Self {
        self.feedback = enabled;
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
            (Some(catalog), None) => CatalogSource::Static(Mutex::new(catalog)),
            (None, Some(db)) => CatalogSource::Database {
                installed: Mutex::new(db.snapshot_catalog()),
                db,
            },
            (Some(_), Some(_)) => panic!("Session: give either a catalog or a database, not both"),
            (None, None) => panic!("Session: a catalog or a database is required"),
        };
        let mut planner = Planner::new(&self.topology);
        let feedback = self.feedback.then(FeedbackCache::new);
        planner.estimator.feedback = feedback.clone();
        let counters = self.counters.unwrap_or_default();
        Session {
            source,
            planner,
            caches: Mutex::new(SessionCaches::new(
                self.plan_cache_capacity,
                Arc::clone(&counters),
            )),
            counters,
            plan_cache_capacity: self.plan_cache_capacity,
            result_caching: self.result_caching,
            feedback,
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
    /// Loaded once; moves only through [`Session::update_catalog`].
    Static(Mutex<Catalog>),
    /// The latest committed snapshot of `db` as of the last refresh.
    /// [`TxnDb::snapshot_catalog`] stamps a version that every commit
    /// and merge advances, so installing a newer snapshot is what
    /// invalidates the plans and results bound to the old one.
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

    /// Install the database's latest committed snapshot if it moved.
    /// The snapshot is taken under the catalog mutex, so concurrent
    /// refreshes can never install an older one over a newer one.
    fn refresh(&self) {
        if let CatalogSource::Database { db, installed } = self {
            let mut installed = installed.lock();
            let latest = db.snapshot_catalog();
            if latest.version() != installed.version() {
                *installed = latest;
            }
        }
    }
}

/// A plan and what it was resolved under.
struct Resolved {
    handle: PlanHandle,
    disposition: CacheDisposition,
    catalog_version: u64,
}

/// The SQL front end of the service. See the [module docs](self).
pub struct Session {
    source: CatalogSource,
    planner: Planner,
    caches: Mutex<SessionCaches>,
    counters: Arc<CacheCounters>,
    plan_cache_capacity: usize,
    result_caching: bool,
    feedback: Option<Arc<FeedbackCache>>,
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            catalog: None,
            db: None,
            topology: Topology::nehalem_ex(),
            plan_cache_capacity: PLAN_CACHE_CAPACITY_DEFAULT,
            result_caching: false,
            feedback: false,
            counters: None,
        }
    }

    /// The session's feedback cache, when feedback is enabled.
    pub fn feedback(&self) -> Option<&Arc<FeedbackCache>> {
        self.feedback.as_ref()
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
    /// (database mode; no-op otherwise). A commit or merge since the
    /// last refresh moved the catalog version, which is what
    /// invalidates every cached plan, result and learned selectivity
    /// bound to the old one.
    pub fn refresh(&self) {
        self.source.refresh();
    }

    /// Fold every table's committed delta into fresh base partitions
    /// (database mode; no-op otherwise), then refresh: the merge bumps
    /// the catalog version.
    pub fn merge_all(&self) -> Result<(), Error> {
        if let CatalogSource::Database { db, .. } = &self.source {
            db.merge_all()?;
            self.refresh();
        }
        Ok(())
    }

    /// Run `f` over the catalog and advance its version, invalidating
    /// every cached plan, result and learned selectivity bound against
    /// the old one. The version advances even if `f` only mutates data
    /// in place (the explicit invalidation hook for changes the table
    /// map cannot see). Meant for static catalogs: in database mode the
    /// next refresh after a commit replaces whatever `f` did.
    pub fn update_catalog<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> R {
        let mut catalog = self.source.catalog();
        let before = catalog.version();
        let out = f(&mut catalog);
        if catalog.version() == before {
            catalog.bump_version();
        }
        out
    }

    /// Drop every cached result now (counted per entry dropped). Plans
    /// and learned selectivities survive: they are invalidated by
    /// catalog version, not by data freshness policy.
    pub fn invalidate_results(&self) {
        self.caches.lock().clear_results();
    }

    /// Parse `sql` into a reusable template. Placeholder arity is
    /// validated here; names and types are validated on first execution
    /// (binding needs concrete literals).
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement, Error> {
        Ok(PreparedStatement::parse(sql)?)
    }

    /// Cache-aware planning without execution: refresh the snapshot,
    /// parse, consult the plan cache, plan on a miss. For callers that
    /// drive an executor themselves (open-loop submission, the
    /// planner-equivalence oracle).
    pub fn resolve(&self, sql: &str) -> Result<(PlanHandle, CacheDisposition), Error> {
        self.refresh();
        let resolved = self.resolve_plan(&parse(sql)?)?;
        Ok((resolved.handle, resolved.disposition))
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

    /// Execute a prepared `SELECT` with `params` bound over its
    /// placeholders.
    pub fn execute_prepared(
        &self,
        service: &QueryService,
        name: impl Into<String>,
        statement: &PreparedStatement,
        params: &[LiteralValue],
    ) -> Result<Execution, Error> {
        let started = Instant::now();
        let select = bind_params(statement.template(), params)?;
        self.run_select(service, name.into(), &select, started)
            .map(Execution::Query)
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

        // Result-cache probe. Aggregate output only: aggregates collapse
        // the data to a few rows, so caching them is cheap and
        // high-value; raw scans could pin arbitrarily large batches.
        let eligible = self.result_caching
            && (!select.group_by.is_empty() || select.items.iter().any(|i| i.expr.has_agg()));
        let result_key = eligible.then(|| select.to_string());
        if let Some(text) = &result_key {
            let cached = {
                let mut caches = self.caches.lock();
                let version = self.source.catalog().version();
                caches.lookup_result(text, version)
            };
            if let Some(rows) = cached {
                // Nothing dispatches, but the hit is a served query in
                // the service's ledger.
                let report = service.complete_cached(&name).wait();
                return Ok(SqlExecution {
                    report,
                    rows: Some(rows),
                    plan_cache: CacheDisposition::Bypass,
                    result_cache: CacheDisposition::Hit,
                    plan_ns: started.elapsed().as_nanos() as u64,
                });
            }
        }

        // Plan: from the cache, or bind + plan under the cache lock.
        let resolved = self.resolve_plan(select)?;
        let plan_ns = started.elapsed().as_nanos() as u64;

        // Compile the pipelines for this run, submit, wait.
        let plan = &resolved.handle.plan;
        let (spec, slot) = compile_query(name.as_str(), plan.clone(), SystemVariant::full());
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

        // Fill the result cache — unless the catalog moved while the
        // query ran, in which case these rows are already stale.
        if let (Some(text), Some(batch)) = (result_key, &rows) {
            let mut caches = self.caches.lock();
            if self.source.catalog().version() == resolved.catalog_version {
                caches.insert_result(text, resolved.catalog_version, batch.clone());
            }
        }

        // Feed the runtime actuals of the plan that ran to the planner.
        if let Some(profile) = &report.profile {
            self.observe(plan, profile);
        }

        Ok(SqlExecution {
            report,
            rows,
            plan_cache: resolved.disposition,
            result_cache: if eligible {
                CacheDisposition::Miss
            } else {
                CacheDisposition::Bypass
            },
            plan_ns,
        })
    }

    /// Resolve `select` to a physical plan, through the plan cache unless
    /// its capacity is 0 — then nothing is looked up, nothing is kept and
    /// the statement's shape is never computed.
    ///
    /// Planning runs under the cache lock, so concurrent executions of
    /// one cold shape plan exactly once (single-flight) — the others
    /// block briefly and then hit.
    fn resolve_plan(&self, select: &Select) -> Result<Resolved, SqlError> {
        let shape = (self.plan_cache_capacity > 0).then(|| shape_of(select));
        let mut caches = self.caches.lock();
        let catalog = self.source.catalog();
        let catalog_version = catalog.version();
        // Sync the feedback cache with the live catalog before reading
        // its epoch: a catalog bump purges learned selectivities (they
        // described the old data) and advances the epoch exactly once.
        let feedback_epoch = self.feedback.as_ref().map_or(0, |fb| {
            fb.set_catalog_version(catalog_version);
            fb.epoch()
        });
        let guard = PlanGuard {
            catalog_version,
            feedback_epoch,
        };
        let cached = match &shape {
            Some((key, literals)) => caches.lookup_plan(key, literals, guard),
            None => caches.miss(),
        };
        let (handle, disposition) = match cached {
            Some(handle) => (handle, CacheDisposition::Hit),
            None => {
                let logical = Binder::new(&catalog).bind(select)?;
                let handle = self.planner.plan_handle(&logical);
                if let Some((key, literals)) = shape {
                    caches.insert_plan(key, literals, guard, handle.clone());
                }
                (handle, CacheDisposition::Miss)
            }
        };
        Ok(Resolved {
            handle,
            disposition,
            catalog_version,
        })
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

    /// Fold one finished execution's runtime actuals into the feedback
    /// cache: observed scan selectivities and join-edge selectivities,
    /// keyed on normalized shape. Returns the number of observations
    /// (0 when feedback is disabled). `profile.ops` must be in explain
    /// (pre-order, probe-first) order — which is how the executor
    /// numbers its profile slots.
    pub fn observe(&self, plan: &Plan, profile: &QueryProfile) -> usize {
        match &self.feedback {
            Some(fb) => {
                let actuals: Vec<u64> = profile.ops.iter().map(|o| o.rows_out).collect();
                morsel_planner::harvest(plan, &actuals, fb)
            }
            None => 0,
        }
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
