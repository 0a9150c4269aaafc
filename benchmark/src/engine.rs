//! Every call the harness makes into the engine crates lives here, so
//! the engine surface the benchmark pins is this one file (README.md
//! lists it). The workload modules see only the plain-data types below.
//!
//! Two paths run the same statement:
//!
//! - the **end-to-end** path, [`Engine::execute`] / [`WriteEngine::dml`]:
//!   SQL text into `Session::execute`, decoded rows or a durable
//!   acknowledgement out. Every end-to-end metric is measured here.
//! - the **layered** path, [`Engine::execute_layered`] /
//!   [`WriteEngine::dml_layered`]: the public calls `Session::execute`
//!   makes internally, issued one by one with a span around each. Only
//!   the traced run uses it.
//!
//! **One retry.** The dispatcher's finish race (ROADMAP open item 1)
//! fails or corrupts about one SELECT in a few thousand. The harness is
//! a client that checks every answer and runs a SELECT whose first
//! attempt did not pass once more: the sample's latency covers both
//! attempts, the first attempt's fault travels in [`Sample::retried`]
//! (counted per kind, reported as `core.stmt_retries`), and the
//! statement fails only if the second attempt fails too.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use morsel_core::{ExecEnv, QueryOutcome, QueryProfile};
use morsel_datagen::{generate_ssb, generate_tpch, SsbConfig, SsbDb, TpchConfig, TpchDb};
use morsel_exec::plan::{compile_query, Plan};
use morsel_exec::SystemVariant;
use morsel_numa::Topology;
use morsel_planner::DmlKind;
use morsel_queries::{run_sim, ssb_queries, ssb_sql, tpch_queries, tpch_sql};
use morsel_service::{
    CacheDisposition, QueryReport, QueryRequest, QueryService, QueryTicket, ServiceConfig, Session,
};
use morsel_sql::lexer::lex;
use morsel_sql::{parse_statement, shape_of, Binder, BoundStatement, Statement};
use morsel_storage::{Batch, Catalog, ValueRef};
use morsel_txn::TxnDb;

use crate::trace::{SpanId, Tracer};

/// The engine's default plan-cache capacity (what `Session::builder`
/// uses when none is given).
pub const PLAN_CACHE_DEFAULT: usize = morsel_service::cache::PLAN_CACHE_CAPACITY_DEFAULT;

/// Morsel size of every service (the engine default) and of the
/// oracle's simulator runs.
const MORSEL_SIZE: usize = morsel_core::DEFAULT_MORSEL_SIZE;

/// Topology the data is placed for and the real-thread services run on.
fn host_topology() -> Topology {
    Topology::laptop()
}

// ------------------------------------------------------------ plain data

/// How one statement ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    Ok,
    /// Completed, but the rows differ from the oracle's.
    Wrong(String),
    /// `Failed`, `Rejected`, `Cancelled`, or an `Err` from any layer.
    Failed(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Hit,
    Miss,
    Bypass,
}

impl From<CacheDisposition> for Cache {
    fn from(d: CacheDisposition) -> Self {
        match d {
            CacheDisposition::Hit => Cache::Hit,
            CacheDisposition::Miss => Cache::Miss,
            CacheDisposition::Bypass => Cache::Bypass,
        }
    }
}

/// One operator's line of `QueryReport::profile`.
#[derive(Debug, Clone)]
pub struct OpFact {
    pub label: String,
    pub wall_ns: u64,
    pub rows_in: u64,
    pub morsels: u64,
}

/// What the service reported about one dispatched query.
#[derive(Debug, Clone, Default)]
pub struct ExecFacts {
    /// Submit → terminal state on the service's clock.
    pub service_ns: u64,
    pub ops: Vec<OpFact>,
    pub peak_reserved_bytes: u64,
}

impl ExecFacts {
    fn of(report: &QueryReport) -> ExecFacts {
        let (ops, peak) = report
            .profile
            .as_ref()
            .map_or((Vec::new(), 0), |p: &QueryProfile| {
                let ops = p
                    .ops
                    .iter()
                    .map(|o| OpFact {
                        label: o.label.clone(),
                        wall_ns: o.wall_ns,
                        rows_in: o.rows_in,
                        morsels: o.morsels,
                    })
                    .collect();
                (ops, p.peak_reserved_bytes)
            });
        ExecFacts {
            service_ns: report.latency_ns,
            ops,
            peak_reserved_bytes: peak,
        }
    }
}

/// One timed, checked statement.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Call → rows (or acknowledgement) in hand, on the client's clock.
    pub latency_ns: u64,
    pub status: Status,
    pub cache: Cache,
    pub facts: ExecFacts,
    /// What was wrong with the first attempt, if the statement was run
    /// twice; `status`, `cache` and `facts` are then the second's.
    pub retried: Option<String>,
}

impl Sample {
    fn failed(latency_ns: u64, why: String) -> Sample {
        Sample {
            latency_ns,
            status: Status::Failed(why),
            cache: Cache::Bypass,
            facts: ExecFacts::default(),
            retried: None,
        }
    }
}

/// What was wrong with an attempt, if it has to be made again.
fn fault(status: &Status) -> Option<String> {
    match status {
        Status::Ok => None,
        Status::Wrong(why) => Some(format!("wrong result: {why}")),
        Status::Failed(why) => Some(why.clone()),
    }
}

/// The module's retry policy for a closed-loop statement: if `first`
/// did not pass, run `again` and charge it both attempts' time.
fn retried(first: Sample, again: impl FnOnce() -> Sample) -> Sample {
    let Some(why) = fault(&first.status) else {
        return first;
    };
    let mut second = again();
    second.latency_ns += first.latency_ns;
    second.retried = Some(why);
    second
}

/// Plan-cache counters of a session (`Session::stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheFacts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl CacheFacts {
    fn of(session: &Session) -> CacheFacts {
        let s = session.stats();
        CacheFacts {
            hits: s.plan_hits,
            misses: s.plan_misses,
            evictions: s.plan_evictions,
            invalidations: s.plan_invalidations,
        }
    }

    pub fn plus(self, o: CacheFacts) -> CacheFacts {
        CacheFacts {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            evictions: self.evictions + o.evictions,
            invalidations: self.invalidations + o.invalidations,
        }
    }

    pub fn minus(self, o: CacheFacts) -> CacheFacts {
        CacheFacts {
            hits: self.hits - o.hits,
            misses: self.misses - o.misses,
            evictions: self.evictions - o.evictions,
            invalidations: self.invalidations - o.invalidations,
        }
    }
}

// ------------------------------------------------------ result checking

/// What the oracle's rows pin down about a correct answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    rows: usize,
    /// Order-insensitive checksum over whole rows (non-float cells).
    /// `None` for top-k queries: ties at the limit leave the payload
    /// columns of the last rows open, so only the keys are compared.
    bag: Option<u64>,
    /// Per float column, the column sum (compared with a tolerance:
    /// float aggregation order differs between executors).
    float_sums: Vec<f64>,
    /// `ORDER BY`: checksum of the sort-key columns in row order.
    ordered: Option<u64>,
    key_cols: Vec<usize>,
    top_k: bool,
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23)
}

fn cell_hash(h: u64, v: ValueRef<'_>) -> u64 {
    match v {
        ValueRef::I64(x) => mix(h, x as u64),
        ValueRef::I32(x) => mix(h, i64::from(x) as u64),
        ValueRef::F64(_) => h,
        ValueRef::Str(s) => s.as_bytes().chunks(8).fold(mix(h, s.len() as u64), |h, c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            mix(h, u64::from_le_bytes(w))
        }),
    }
}

fn row_hash(batch: &Batch, row: usize, cols: impl Iterator<Item = usize>) -> u64 {
    let h = cols.fold(0xCBF2_9CE4_8422_2325, |h, c| {
        cell_hash(mix(h, c as u64), batch.column(c).value_ref(row))
    });
    // Final avalanche, so the wrapping sum of row hashes is not linear
    // in the cell values.
    let h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

impl Expect {
    /// Digest the oracle's rows. The sort keys and limit come from the
    /// oracle plan's root.
    fn of(batch: &Batch, plan: &Plan) -> Expect {
        match plan {
            Plan::Sort { keys, limit, .. } => {
                let key_cols: Vec<usize> = keys.iter().map(|k| k.col).collect();
                Expect::digest(batch, &key_cols, limit.is_some())
            }
            _ => Expect::digest(batch, &[], false),
        }
    }

    fn digest(batch: &Batch, key_cols: &[usize], top_k: bool) -> Expect {
        let rows = batch.rows();
        let bag = (!top_k).then(|| {
            (0..rows).fold(0u64, |acc, r| {
                acc.wrapping_add(row_hash(batch, r, 0..batch.width()))
            })
        });
        let float_sums = if top_k {
            Vec::new()
        } else {
            batch
                .columns()
                .iter()
                .filter(|c| c.data_type() == morsel_storage::DataType::F64)
                .map(|c| c.as_f64().iter().sum())
                .collect()
        };
        let ordered = (!key_cols.is_empty()).then(|| {
            (0..rows).fold(0u64, |acc, r| {
                mix(acc, row_hash(batch, r, key_cols.iter().copied()))
            })
        });
        Expect {
            rows,
            bag,
            float_sums,
            ordered,
            key_cols: key_cols.to_vec(),
            top_k,
        }
    }

    fn check(&self, got: &Batch) -> Result<(), String> {
        if got.rows() != self.rows {
            return Err(format!("{} rows, oracle has {}", got.rows(), self.rows));
        }
        if self.key_cols.iter().any(|&c| c >= got.width()) {
            return Err(format!(
                "{} columns, too few for the sort keys",
                got.width()
            ));
        }
        let seen = Expect::digest(got, &self.key_cols, self.top_k);
        if seen.ordered != self.ordered {
            return Err("sort-key columns differ from the oracle's, in order".into());
        }
        if seen.bag != self.bag {
            return Err("row checksum differs from the oracle's".into());
        }
        if seen.float_sums.len() != self.float_sums.len() {
            return Err("float column count differs from the oracle's".into());
        }
        for (a, b) in seen.float_sums.iter().zip(&self.float_sums) {
            if (a - b).abs() > 1e-9 * a.abs().max(b.abs()).max(1.0) {
                return Err(format!("float column sums {a} vs oracle {b}"));
            }
        }
        Ok(())
    }

    /// `--self-test`: make this expectation unsatisfiable.
    pub fn corrupt(&mut self) {
        self.rows += 1;
    }
}

// -------------------------------------------------------------- datasets

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suite {
    Tpch,
    Ssb,
}

/// One SQL fixture, with what a correct answer looks like.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// `tpch.q6`, `ssb.q2.1`: the *kind* metrics are grouped by.
    pub kind: String,
    pub sql: &'static str,
    suite: Suite,
    pub expect: Expect,
}

/// The generated databases of one set-up.
pub struct Data {
    tpch: Option<Arc<TpchDb>>,
    ssb: Option<Arc<SsbDb>>,
    pub tpch_gen_s: f64,
    pub ssb_gen_s: f64,
}

impl Data {
    /// Generate TPC-H and/or SSB at the given scale factors; the data
    /// seeds derive from `seed`.
    pub fn generate(seed: u64, tpch_sf: Option<f64>, ssb_sf: Option<f64>) -> Data {
        let topo = host_topology();
        let t = Instant::now();
        let tpch = tpch_sf.map(|scale| {
            Arc::new(generate_tpch(
                TpchConfig {
                    scale,
                    seed,
                    ..TpchConfig::default()
                },
                &topo,
            ))
        });
        let tpch_gen_s = tpch.as_ref().map_or(0.0, |_| t.elapsed().as_secs_f64());
        let t = Instant::now();
        let ssb = ssb_sf.map(|scale| {
            Arc::new(generate_ssb(
                SsbConfig {
                    scale,
                    seed: seed ^ 0x55B,
                    ..SsbConfig::default()
                },
                &topo,
            ))
        });
        let ssb_gen_s = ssb.as_ref().map_or(0.0, |_| t.elapsed().as_secs_f64());
        Data {
            tpch,
            ssb,
            tpch_gen_s,
            ssb_gen_s,
        }
    }

    fn tpch(&self) -> &Arc<TpchDb> {
        self.tpch.as_ref().expect("workload generated TPC-H")
    }

    pub fn bytes(&self) -> u64 {
        self.tpch.as_ref().map_or(0, |d| d.total_bytes())
            + self.ssb.as_ref().map_or(0, |d| d.total_bytes())
    }

    /// The SQL fixtures over the generated databases (all 12 TPC-H and
    /// all 13 SSB ones, for whichever suite was generated), each with
    /// its oracle: the hand-written plan run through the simulator.
    pub fn fixtures(&self) -> Vec<Fixture> {
        let env = ExecEnv::new(host_topology());
        let mut out = Vec::new();
        if self.tpch.is_some() {
            let numbers: Vec<usize> = tpch_sql::all().into_iter().map(|(q, _)| q).collect();
            out = self.tpch_fixtures(&numbers);
        }
        if let Some(db) = &self.ssb {
            for (id, sql) in ssb_sql::all() {
                let kind = format!("ssb.q{id}");
                let expect = oracle(&env, &kind, ssb_queries::query(db, id));
                out.push(Fixture {
                    kind,
                    sql,
                    suite: Suite::Ssb,
                    expect,
                });
            }
        }
        out
    }

    /// The TPC-H fixtures with these query numbers, in this order.
    pub fn tpch_fixtures(&self, numbers: &[usize]) -> Vec<Fixture> {
        let env = ExecEnv::new(host_topology());
        numbers
            .iter()
            .map(|&q| {
                let kind = format!("tpch.q{q}");
                let expect = oracle(&env, &kind, tpch_queries::query(self.tpch(), q));
                Fixture {
                    kind,
                    sql: tpch_sql::text(q).expect("query has a SQL fixture"),
                    suite: Suite::Tpch,
                    expect,
                }
            })
            .collect()
    }
}

/// Run a hand-written plan through the deterministic simulator and
/// digest its rows. Independent of the SQL front end, the planner and
/// the threaded executor — the three things the timed path exercises.
fn oracle(env: &ExecEnv, name: &str, plan: Plan) -> Expect {
    let out = run_sim(
        env,
        name,
        plan.clone(),
        SystemVariant::full(),
        2,
        MORSEL_SIZE,
    );
    assert_eq!(
        out.outcome,
        QueryOutcome::Completed,
        "oracle for {name} did not complete"
    );
    Expect::of(&out.result, &plan)
}

// --------------------------------------------------- read-only engine

/// A running `QueryService` plus one `Session` per generated suite
/// (TPC-H and SSB share table names, so each has its own catalog).
pub struct Engine {
    service: QueryService,
    tpch: Option<(Session, Catalog)>,
    ssb: Option<(Session, Catalog)>,
}

/// A submitted, not yet awaited statement (open-loop clients), with
/// the instants its submission passed each layer boundary.
pub struct Pending {
    ticket: QueryTicket,
    slot: morsel_core::ResultSlot,
    cache: Cache,
    /// `Session::resolve` returned.
    pub resolved: Instant,
    /// `compile_query` returned; the service stamps its own clock next,
    /// so the service-side latency counts from here.
    pub compiled: Instant,
    /// `QueryService::submit` returned.
    pub submitted: Instant,
}

impl Engine {
    /// Start a service with `workers` threads (default morsel size and
    /// admission bounds, profiling on) and a session per suite with
    /// the given plan-cache capacity (result cache and feedback off).
    pub fn start(data: &Data, workers: usize, plan_cache_capacity: usize) -> Engine {
        let topo = host_topology();
        let service = QueryService::start(ExecEnv::new(topo.clone()), ServiceConfig::new(workers));
        let session = |catalog: Catalog| {
            let s = Session::builder()
                .catalog(catalog.clone())
                .topology(&topo)
                .plan_cache_capacity(plan_cache_capacity)
                .build();
            (s, catalog)
        };
        Engine {
            service,
            tpch: data.tpch.as_ref().map(|d| session(d.catalog())),
            ssb: data.ssb.as_ref().map(|d| session(d.catalog())),
        }
    }

    fn side(&self, suite: Suite) -> &(Session, Catalog) {
        match suite {
            Suite::Tpch => self.tpch.as_ref(),
            Suite::Ssb => self.ssb.as_ref(),
        }
        .expect("fixture's suite was generated")
    }

    /// End to end: SQL text → `Session::execute` → decoded rows.
    pub fn execute(&self, fx: &Fixture) -> Sample {
        retried(self.execute_once(fx), || self.execute_once(fx))
    }

    fn execute_once(&self, fx: &Fixture) -> Sample {
        let (session, _) = self.side(fx.suite);
        let t = Instant::now();
        let result = session.execute(&self.service, fx.kind.as_str(), fx.sql);
        let latency_ns = t.elapsed().as_nanos() as u64;
        match result {
            Ok(exec) => {
                let q = exec.query().expect("fixtures are SELECTs");
                Sample {
                    latency_ns,
                    status: status_of(q.report.outcome, q.rows.as_ref(), &fx.expect),
                    cache: q.plan_cache.into(),
                    facts: ExecFacts::of(&q.report),
                    retried: None,
                }
            }
            Err(e) => Sample::failed(latency_ns, e.to_string()),
        }
    }

    /// The same statement through the layered public path, one span per
    /// boundary under a `stmt` root span (a second one if it is retried).
    /// The plan cache is not on this path: every statement is planned.
    pub fn execute_layered(&self, fx: &Fixture, tracer: &mut Tracer, stmt: u32) -> Sample {
        let first = self.execute_layered_once(fx, tracer, stmt);
        retried(first, || self.execute_layered_once(fx, tracer, stmt))
    }

    fn execute_layered_once(&self, fx: &Fixture, tracer: &mut Tracer, stmt: u32) -> Sample {
        let (session, catalog) = self.side(fx.suite);
        let root = tracer.open("stmt", None, stmt);
        let result = select_layers(tracer, root, stmt, fx, catalog, session, &self.service);
        let latency_ns = tracer.close(root);
        match result {
            Ok((status, facts)) => Sample {
                latency_ns,
                status,
                cache: Cache::Bypass,
                facts,
                retried: None,
            },
            Err(why) => Sample::failed(latency_ns, why),
        }
    }

    /// Open-loop submission at `priority`: `Session::resolve` →
    /// `compile_query` → `QuerySpec::with_priority` →
    /// `QueryService::submit`. Returns without waiting.
    pub fn submit(&self, fx: &Fixture, priority: u32) -> Result<Pending, String> {
        let (session, _) = self.side(fx.suite);
        let (handle, disposition) = session.resolve(fx.sql).map_err(|e| e.to_string())?;
        let resolved = Instant::now();
        let (spec, slot) = compile_query(fx.kind.as_str(), handle.plan, SystemVariant::full());
        let compiled = Instant::now();
        let ticket = self
            .service
            .submit(QueryRequest::new(spec.with_priority(priority)));
        Ok(Pending {
            ticket,
            slot,
            cache: disposition.into(),
            resolved,
            compiled,
            submitted: Instant::now(),
        })
    }

    /// `Session::resolve` alone, timed (nanoseconds).
    pub fn resolve(&self, fx: &Fixture) -> u64 {
        let (session, _) = self.side(fx.suite);
        let t = Instant::now();
        let resolved = session.resolve(fx.sql);
        let ns = t.elapsed().as_nanos() as u64;
        std::hint::black_box(resolved.is_ok());
        ns
    }

    /// `lexer::lex` alone, timed (nanoseconds). `parse_statement` lexes
    /// again internally, so the lexer's share is measured on its own.
    pub fn lex(fx: &Fixture) -> u64 {
        let t = Instant::now();
        let tokens = lex(fx.sql);
        let ns = t.elapsed().as_nanos() as u64;
        std::hint::black_box(tokens).expect("fixtures lex");
        ns
    }

    /// Submit → report of `SELECT COUNT(*) FROM region` (5 rows): what
    /// admission, dispatch and reaping cost when there is no work.
    /// Service-clock nanoseconds.
    pub fn roundtrip_floor(&self) -> Result<u64, String> {
        let (session, _) = self.side(Suite::Tpch);
        let run = || session.execute(&self.service, "floor", "SELECT COUNT(*) AS n FROM region");
        let exec = run().or_else(|_| run()).map_err(|e| e.to_string())?;
        Ok(exec.query().expect("a SELECT").report.latency_ns)
    }

    /// Block until an open-loop statement ends and check its rows; if
    /// they do not pass, submit it again and wait for that. The sample's
    /// latency runs from the first submission's `compiled` mark to the
    /// last attempt's finish.
    pub fn wait(&self, pending: Pending, fx: &Fixture, priority: u32) -> Sample {
        let compiled = pending.compiled;
        let first = pending.wait_once(&fx.expect);
        let Some(why) = fault(&first.status) else {
            return first;
        };
        let mut second = match self.submit(fx, priority) {
            Ok(again) => {
                let gap = again.compiled.saturating_duration_since(compiled);
                let mut s = again.wait_once(&fx.expect);
                s.latency_ns += gap.as_nanos() as u64;
                s
            }
            Err(e) => Sample::failed(first.latency_ns, e),
        };
        second.retried = Some(why);
        second
    }

    /// Plan-cache counters summed over the sessions.
    pub fn cache_facts(&self) -> CacheFacts {
        [&self.tpch, &self.ssb]
            .into_iter()
            .flatten()
            .map(|(s, _)| CacheFacts::of(s))
            .fold(CacheFacts::default(), CacheFacts::plus)
    }

    /// Drain and join the service's workers.
    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

impl Pending {
    fn wait_once(self, expect: &Expect) -> Sample {
        let report = self.ticket.wait();
        let facts = ExecFacts::of(&report);
        let status = status_of(report.outcome, self.slot.lock().take().as_ref(), expect);
        Sample {
            // Open-loop latency is assembled by the caller from the
            // due time; this is the service's share of it.
            latency_ns: report.latency_ns,
            status,
            cache: self.cache,
            facts,
            retried: None,
        }
    }
}

/// How a statement that ended in `outcome` with `rows` did.
fn status_of(outcome: QueryOutcome, rows: Option<&Batch>, expect: &Expect) -> Status {
    match (outcome, rows) {
        (QueryOutcome::Completed, Some(rows)) => match expect.check(rows) {
            Ok(()) => Status::Ok,
            Err(why) => Status::Wrong(why),
        },
        (QueryOutcome::Completed, None) => Status::Failed("completed without rows".into()),
        (other, _) => Status::Failed(other.to_string()),
    }
}

/// `parse_statement` → `shape_of` → `Binder::bind_statement` →
/// `Planner::plan_handle` → `compile_query` → `QueryService::submit` /
/// `QueryTicket::wait` → result-slot take.
fn select_layers(
    tracer: &mut Tracer,
    root: SpanId,
    stmt: u32,
    fx: &Fixture,
    catalog: &Catalog,
    session: &Session,
    service: &QueryService,
) -> Result<(Status, ExecFacts), String> {
    let parent = Some(root);
    let parsed = tracer
        .time("sql.parse", parent, stmt, || parse_statement(fx.sql))
        .map_err(|e| e.to_string())?;
    if let Statement::Select(select) = &parsed {
        tracer.time("sql.shape", parent, stmt, || {
            std::hint::black_box(shape_of(select));
        });
    }
    let bound = tracer
        .time("sql.bind", parent, stmt, || {
            Binder::new(catalog).bind_statement(&parsed)
        })
        .map_err(|e| e.to_string())?;
    let BoundStatement::Select(logical) = bound else {
        return Err("not a SELECT".into());
    };
    let handle = tracer.time("planner.plan", parent, stmt, || {
        session.planner().plan_handle(&logical)
    });
    // `Session::execute` compiles a clone of the cached handle's plan.
    let (spec, slot) = tracer.time("exec.compile", parent, stmt, || {
        compile_query(fx.kind.as_str(), handle.plan.clone(), SystemVariant::full())
    });
    let report = tracer.time("service.roundtrip", parent, stmt, || {
        service.submit(QueryRequest::new(spec)).wait()
    });
    let rows = tracer.time("service.take", parent, stmt, || slot.lock().take());
    let status = status_of(report.outcome, rows.as_ref(), &fx.expect);
    Ok((status, ExecFacts::of(&report)))
}

// ------------------------------------------------------- write engine

/// One timed DML statement (or merge).
#[derive(Debug, Clone)]
pub struct DmlSample {
    pub latency_ns: u64,
    /// Rows the statement reported as affected.
    pub outcome: Result<usize, String>,
}

/// The read queries `write_mix` interleaves with its writes: a scan
/// with a scalar aggregate over `lineitem`, and a grouped join of
/// `orders` and `lineitem`. (TPC-H Q1, the obvious grouped scan, cannot
/// be used: on a `lineitem` that has a delta partition it panics in
/// `extract_i64_keys`, "expected integer group column, got Str" — the
/// base partitions are dictionary-encoded and the delta partition is
/// not. Every run; so it is an engine defect to fix, not a workload.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadQuery {
    Q6,
    Q12,
}

impl ReadQuery {
    pub fn kind(self) -> &'static str {
        match self {
            ReadQuery::Q6 => "read.q6",
            ReadQuery::Q12 => "read.q12",
        }
    }

    fn number(self) -> usize {
        match self {
            ReadQuery::Q6 => 6,
            ReadQuery::Q12 => 12,
        }
    }
}

/// WAL counters (`TxnDb::wal_stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalFacts {
    pub records: u64,
    pub fsyncs: u64,
    pub bytes: u64,
}

/// `COUNT(*)` of both tables and `SUM(l_quantity)`: what the shadow
/// model predicts and recovery must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub orders: i64,
    pub lineitems: i64,
    pub quantity: i64,
}

/// A base `lineitem` row's key and the one column the workload updates.
#[derive(Debug, Clone, Copy)]
pub struct BaseLine {
    pub orderkey: i64,
    pub linenumber: i64,
    pub quantity: i64,
}

/// A `TxnDb` over TPC-H `orders` + `lineitem` in its own directory, a
/// `Session` in database mode, and the service both run on.
pub struct WriteEngine {
    dir: PathBuf,
    base: Arc<TpchDb>,
    db: Arc<TxnDb>,
    session: Session,
    service: QueryService,
}

impl WriteEngine {
    fn tables(base: &TpchDb) -> Vec<(&'static str, Arc<morsel_storage::Relation>)> {
        vec![
            ("orders", Arc::clone(&base.orders)),
            ("lineitem", Arc::clone(&base.lineitem)),
        ]
    }

    fn assemble(dir: &Path, base: Arc<TpchDb>, db: TxnDb, workers: usize) -> WriteEngine {
        let topo = host_topology();
        let db = Arc::new(db);
        let service = QueryService::start(ExecEnv::new(topo.clone()), ServiceConfig::new(workers));
        let session = Session::builder()
            .database(Arc::clone(&db))
            .topology(&topo)
            .build();
        WriteEngine {
            dir: dir.to_path_buf(),
            base,
            db,
            session,
            service,
        }
    }

    /// A fresh database (and WAL) in `dir`.
    pub fn create(data: &Data, dir: &Path, workers: usize) -> Result<WriteEngine, String> {
        let base = Arc::clone(data.tpch());
        let db = TxnDb::create(dir, Self::tables(&base)).map_err(|e| e.to_string())?;
        Ok(Self::assemble(dir, base, db, workers))
    }

    /// Shut the service down and drop the database; then `TxnDb::open`
    /// on the same directory (WAL scan + redo). Returns the reopened
    /// engine and the open's duration.
    pub fn reopen(self, workers: usize) -> Result<(WriteEngine, u64), String> {
        let WriteEngine {
            dir,
            base,
            db,
            session,
            service,
        } = self;
        service.shutdown();
        drop(session);
        drop(db);
        let t = Instant::now();
        let db = TxnDb::open(&dir, Self::tables(&base)).map_err(|e| e.to_string())?;
        let ns = t.elapsed().as_nanos() as u64;
        Ok((Self::assemble(&dir, base, db, workers), ns))
    }

    pub fn shutdown(self) {
        self.service.shutdown();
    }

    /// Keys and quantities of the base `lineitem` rows, in storage order.
    pub fn base_lines(&self) -> Vec<BaseLine> {
        let rel = &self.base.lineitem;
        let schema = rel.schema();
        let (k, n, q) = (
            schema.index_of("l_orderkey"),
            schema.index_of("l_linenumber"),
            schema.index_of("l_quantity"),
        );
        let mut out = Vec::with_capacity(rel.total_rows());
        for p in rel.partitions() {
            let (ks, ns, qs) = (
                p.data.column(k).as_i64(),
                p.data.column(n).as_i64(),
                p.data.column(q).as_i64(),
            );
            out.extend((0..p.data.rows()).map(|i| BaseLine {
                orderkey: ks[i],
                linenumber: ns[i],
                quantity: qs[i],
            }));
        }
        out
    }

    pub fn base_orders(&self) -> i64 {
        self.base.orders.total_rows() as i64
    }

    /// End to end: one DML statement through `Session::execute`,
    /// returning once the commit is durable.
    pub fn dml(&self, sql: &str) -> DmlSample {
        let t = Instant::now();
        let result = self.session.execute(&self.service, "dml", sql);
        let latency_ns = t.elapsed().as_nanos() as u64;
        let outcome = match result {
            Ok(exec) => exec
                .dml()
                .map(|d| d.rows_affected)
                .ok_or_else(|| "statement was not DML".to_string()),
            Err(e) => Err(e.to_string()),
        };
        DmlSample {
            latency_ns,
            outcome,
        }
    }

    /// The same statement through the layered write path:
    /// `parse_statement` → `TxnDb::snapshot_catalog` +
    /// `Binder::bind_statement` → `TxnDb::begin` + the mutation →
    /// `TxnDb::commit` → `Session::refresh`.
    pub fn dml_layered(&self, sql: &str, tracer: &mut Tracer, stmt: u32) -> DmlSample {
        let root = tracer.open("stmt", None, stmt);
        let outcome = self.dml_layers(sql, tracer, root, stmt);
        DmlSample {
            latency_ns: tracer.close(root),
            outcome,
        }
    }

    fn dml_layers(
        &self,
        sql: &str,
        tracer: &mut Tracer,
        root: SpanId,
        stmt: u32,
    ) -> Result<usize, String> {
        let parent = Some(root);
        let db = &self.db;
        let parsed = tracer
            .time("sql.parse", parent, stmt, || parse_statement(sql))
            .map_err(|e| e.to_string())?;
        let bound = tracer
            .time("planner.dml_plan", parent, stmt, || {
                let catalog = db.snapshot_catalog();
                Binder::new(&catalog).bind_statement(&parsed)
            })
            .map_err(|e| e.to_string())?;
        let BoundStatement::Dml(plan) = bound else {
            return Err("not DML".into());
        };
        let apply = match plan.kind {
            DmlKind::Insert => "txn.insert_apply",
            DmlKind::Update => "txn.update_apply",
            DmlKind::Delete => "txn.delete_apply",
        };
        let (txn, rows) = tracer
            .time(apply, parent, stmt, || {
                let mut txn = db.begin()?;
                let predicate = plan.predicate.as_ref();
                let rows = match plan.kind {
                    DmlKind::Insert => {
                        for row in &plan.rows {
                            db.insert(&mut txn, &plan.table, row.clone())?;
                        }
                        plan.rows.len()
                    }
                    DmlKind::Update => db.update_where(
                        &mut txn,
                        &plan.table,
                        predicate.expect("the workload's UPDATEs have a WHERE"),
                        &plan.sets,
                    )?,
                    DmlKind::Delete => db.delete_where(
                        &mut txn,
                        &plan.table,
                        predicate.expect("the workload's DELETEs have a WHERE"),
                    )?,
                };
                Ok::<_, morsel_txn::TxnError>((txn, rows))
            })
            .map_err(|e| e.to_string())?;
        tracer
            .time("txn.commit", parent, stmt, || db.commit(txn))
            .map_err(|e| e.to_string())?;
        tracer.time("txn.refresh", parent, stmt, || self.session.refresh());
        Ok(rows)
    }

    /// The oracle for a read: the hand-written plan over the latest
    /// committed `orders` and `lineitem`, through the simulator. Must
    /// run while no write is in flight (the workload has one client).
    fn read_expect(&self, q: ReadQuery) -> Result<Expect, String> {
        let latest = |table| self.db.latest_relation(table).map_err(|e| e.to_string());
        let (orders, lineitem) = (latest("orders")?, latest("lineitem")?);
        let b = &self.base;
        let view = TpchDb {
            region: Arc::clone(&b.region),
            nation: Arc::clone(&b.nation),
            supplier: Arc::clone(&b.supplier),
            customer: Arc::clone(&b.customer),
            part: Arc::clone(&b.part),
            partsupp: Arc::clone(&b.partsupp),
            orders,
            lineitem,
            config: b.config,
        };
        let env = ExecEnv::new(host_topology());
        Ok(oracle(
            &env,
            q.kind(),
            tpch_queries::query(&view, q.number()),
        ))
    }

    /// A read's status against the oracle computed now.
    fn read_status(&self, q: ReadQuery, outcome: QueryOutcome, rows: Option<&Batch>) -> Status {
        match self.read_expect(q) {
            Ok(expect) => status_of(outcome, rows, &expect),
            Err(why) => Status::Failed(format!("oracle: {why}")),
        }
    }

    fn read_sql(q: ReadQuery) -> &'static str {
        tpch_sql::text(q.number()).expect("Q6 and Q12 have SQL fixtures")
    }

    /// End to end: a read over the latest committed snapshot. Returns
    /// the sample and the time the oracle took (the caller keeps it out
    /// of the timed window).
    pub fn read(&self, q: ReadQuery) -> (Sample, u64) {
        let mut oracle_ns = 0;
        let first = self.read_once(q, &mut oracle_ns);
        let sample = retried(first, || self.read_once(q, &mut oracle_ns));
        (sample, oracle_ns)
    }

    fn read_once(&self, q: ReadQuery, oracle_ns: &mut u64) -> Sample {
        let t = Instant::now();
        let result = self
            .session
            .execute(&self.service, q.kind(), Self::read_sql(q));
        let latency_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let sample = match result {
            Ok(exec) => {
                let qx = exec.query().expect("a SELECT");
                Sample {
                    latency_ns,
                    status: self.read_status(q, qx.report.outcome, qx.rows.as_ref()),
                    cache: qx.plan_cache.into(),
                    facts: ExecFacts::of(&qx.report),
                    retried: None,
                }
            }
            Err(e) => Sample::failed(latency_ns, e.to_string()),
        };
        *oracle_ns += t.elapsed().as_nanos() as u64;
        sample
    }

    /// The read through `Session::resolve` (refresh + plan) →
    /// `compile_query` → submit/wait → take, one span each.
    pub fn read_layered(&self, q: ReadQuery, tracer: &mut Tracer, stmt: u32) -> (Sample, u64) {
        let mut oracle_ns = 0;
        let first = self.read_layered_once(q, tracer, stmt, &mut oracle_ns);
        let sample = retried(first, || {
            self.read_layered_once(q, tracer, stmt, &mut oracle_ns)
        });
        (sample, oracle_ns)
    }

    fn read_layered_once(
        &self,
        q: ReadQuery,
        tracer: &mut Tracer,
        stmt: u32,
        oracle_ns: &mut u64,
    ) -> Sample {
        let root = tracer.open("stmt", None, stmt);
        let parent = Some(root);
        let resolved = tracer.time("service.resolve", parent, stmt, || {
            self.session.resolve(Self::read_sql(q))
        });
        let ran = resolved.map_err(|e| e.to_string()).map(|(handle, d)| {
            let (spec, slot) = tracer.time("exec.compile", parent, stmt, || {
                compile_query(q.kind(), handle.plan, SystemVariant::full())
            });
            let report = tracer.time("service.roundtrip", parent, stmt, || {
                self.service.submit(QueryRequest::new(spec)).wait()
            });
            let rows = tracer.time("service.take", parent, stmt, || slot.lock().take());
            (report, rows, Cache::from(d))
        });
        let latency_ns = tracer.close(root);
        let t = Instant::now();
        let sample = match ran {
            Ok((report, rows, cache)) => {
                let status = self.read_status(q, report.outcome, rows.as_ref());
                Sample {
                    latency_ns,
                    status,
                    cache,
                    facts: ExecFacts::of(&report),
                    retried: None,
                }
            }
            Err(why) => Sample::failed(latency_ns, why),
        };
        *oracle_ns += t.elapsed().as_nanos() as u64;
        sample
    }

    /// `Session::merge_all`, timed; also the delta rows it folded.
    pub fn merge(&self) -> (DmlSample, u64) {
        let delta_rows: u64 = ["orders", "lineitem"]
            .iter()
            .map(|t| self.db.delta_stats(t).map_or(0, |(rows, _, _)| rows as u64))
            .sum();
        let t = Instant::now();
        let result = self.session.merge_all();
        let latency_ns = t.elapsed().as_nanos() as u64;
        (
            DmlSample {
                latency_ns,
                outcome: result.map(|()| 0).map_err(|e| e.to_string()),
            },
            delta_rows,
        )
    }

    pub fn wal(&self) -> WalFacts {
        let s = self.db.wal_stats();
        WalFacts {
            records: s.next_lsn,
            fsyncs: s.fsyncs,
            bytes: s.written_bytes,
        }
    }

    pub fn cache_facts(&self) -> CacheFacts {
        CacheFacts::of(&self.session)
    }

    /// Table counts and `SUM(l_quantity)`, read through SQL.
    pub fn totals(&self) -> Result<Totals, String> {
        let run = |sql: &str| -> Result<Vec<i64>, String> {
            let run = || self.session.execute(&self.service, "totals", sql);
            let exec = run().or_else(|_| run()).map_err(|e| e.to_string())?;
            let rows = exec.rows().ok_or("no rows")?;
            Ok((0..rows.width())
                .map(|c| rows.column(c).value(0).as_i64())
                .collect())
        };
        let l = run("SELECT COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem")?;
        let o = run("SELECT COUNT(*) AS n FROM orders")?;
        Ok(Totals {
            orders: o[0],
            lineitems: l[0],
            quantity: l[1],
        })
    }
}

// ----------------------------------------------------------- simulator

/// The paper's Table 1 quantities from the deterministic simulator.
#[derive(Debug, Clone, Copy)]
pub struct SimFacts {
    /// Geometric mean of the 22 queries' virtual time at 64 workers, µs.
    pub geomean_us: f64,
    /// Mean over queries of time at 1 worker ÷ time at 64.
    pub avg_scalability: f64,
    /// Remote share of the bytes read at 64 workers, percent.
    pub remote_read_pct: f64,
}

/// All 22 hand-written TPC-H plans through `run_sim` at 1 and 64
/// virtual workers on `Topology::nehalem_ex`, SF 0.002, the generator's
/// default seed and the paper experiments' morsel size. Independent of
/// `--seed`: the numbers change only when scheduling or the cost model
/// does.
pub fn sim_facts() -> SimFacts {
    const SIM_MORSEL: usize = 512;
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let db = generate_tpch(TpchConfig::scaled(0.002), &topo);
    let mut times = Vec::new();
    let mut scal = Vec::new();
    let (mut local, mut remote) = (0u64, 0u64);
    for q in 1..=22 {
        let run = |workers| {
            run_sim(
                &env,
                &format!("sim-q{q}"),
                tpch_queries::query(&db, q),
                SystemVariant::full(),
                workers,
                SIM_MORSEL,
            )
        };
        let (o64, o1) = (run(64), run(1));
        times.push(o64.seconds() * 1e6);
        scal.push(o1.seconds() / o64.seconds());
        local += o64.traffic.read_local;
        remote += o64.traffic.read_remote;
    }
    SimFacts {
        geomean_us: crate::measure::geomean(&times),
        avg_scalability: crate::measure::mean(&scal),
        remote_read_pct: 100.0 * remote as f64 / (local + remote).max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_storage::Column;

    fn batch(keys: Vec<i64>, names: Vec<&str>) -> Batch {
        Batch::from_columns(vec![
            Column::I64(keys),
            Column::Str(names.into_iter().map(String::from).collect()),
        ])
    }

    #[test]
    fn bag_check_ignores_order_but_not_content() {
        let want = Expect::digest(&batch(vec![1, 2, 3], vec!["a", "b", "c"]), &[], false);
        assert!(want
            .check(&batch(vec![3, 1, 2], vec!["c", "a", "b"]))
            .is_ok());
        assert!(want
            .check(&batch(vec![1, 2, 3], vec!["a", "b", "x"]))
            .is_err());
        assert!(want.check(&batch(vec![1, 2], vec!["a", "b"])).is_err());
        // Swapping values between rows keeps every column's multiset
        // but changes the rows.
        assert!(want
            .check(&batch(vec![1, 2, 3], vec!["b", "a", "c"]))
            .is_err());
    }

    #[test]
    fn ordered_check_pins_the_key_order() {
        let want = Expect::digest(&batch(vec![1, 2, 3], vec!["a", "b", "c"]), &[0], false);
        assert!(want
            .check(&batch(vec![1, 2, 3], vec!["a", "b", "c"]))
            .is_ok());
        assert!(want
            .check(&batch(vec![2, 1, 3], vec!["b", "a", "c"]))
            .is_err());
    }

    #[test]
    fn corrupted_expectation_rejects_the_right_answer() {
        let rows = batch(vec![1], vec!["a"]);
        let mut want = Expect::digest(&rows, &[], false);
        want.corrupt();
        assert!(want.check(&rows).is_err());
    }
}
