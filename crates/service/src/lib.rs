//! # morsel-service
//!
//! A concurrent query-service front end over the morsel-driven engine:
//! the serving layer that turns `morsel-core`'s dispatcher — built in the
//! paper for many queries sharing all cores with morsel-wise elasticity —
//! into a long-lived system serving a stream of query submissions from
//! many concurrent clients.
//!
//! It runs on `morsel-core`'s one threaded runtime, a
//! [`morsel_core::WorkerPool`], and adds on top of it:
//!
//! - **Admission control** ([`admission`]): a hard bound on concurrently
//!   dispatched queries, a bounded prioritized wait queue beyond it, and
//!   rejection past both — so tail latency stays controlled under
//!   overload instead of every query slowing down every other. It
//!   counts queries and nothing else: memory is governed per query, by
//!   budgets drawing on a pool attached with
//!   [`morsel_core::ExecEnv::with_mem_pool`].
//! - **Priority aging**: waiting queries gain effective priority over
//!   time (in both admission order and the dispatcher's share
//!   computation), so sustained high-priority traffic cannot starve
//!   low-priority analytics.
//! - **Deadlines**: a per-query deadline covering queue wait and
//!   execution; overdue queries are cancelled cooperatively at morsel
//!   boundaries and report [`morsel_core::QueryOutcome::Cancelled`].
//! - **Metrics** ([`histogram`]): per-priority end-to-end latency
//!   histograms (p50/p95/p99) and aggregate throughput, collected with
//!   bounded memory and reported at shutdown.
//! - **Load clients** ([`client`]): closed-loop drivers for benchmarks
//!   and demos.
//! - **SQL** ([`Session`]): the one entry point for SQL text — parse,
//!   plan through the plan cache, compile, submit, and hand
//!   back rows (or, over a transactional database, a durable DML
//!   acknowledgement); built with [`Session::builder`], every failure
//!   one [`Error`].
//!
//! Compiled plans go in through [`QueryService::submit`]:
//!
//! ```no_run
//! use morsel_core::{AgingPolicy, ExecEnv};
//! use morsel_service::{QueryRequest, QueryService, ServiceConfig};
//!
//! let env = ExecEnv::new(morsel_numa::Topology::laptop());
//! let service = QueryService::start(
//!     env,
//!     ServiceConfig::new(4)
//!         .with_max_in_flight(8)
//!         .with_aging(AgingPolicy::every(1_000_000)),
//! );
//! # let spec = morsel_core::QuerySpec::new("q", vec![], morsel_core::result_slot());
//! let ticket = service.submit(QueryRequest::new(spec));
//! let report = ticket.wait();
//! println!("{} -> {}", report.name, report.outcome);
//! let summary = service.shutdown();
//! println!("{}", summary.summary());
//! ```
//!
//! SQL text goes in through [`Session::execute`]:
//!
//! ```no_run
//! # use morsel_service::{QueryService, ServiceConfig, Session};
//! # let topo = morsel_numa::Topology::laptop();
//! # let service = QueryService::start(morsel_core::ExecEnv::new(topo.clone()), ServiceConfig::new(4));
//! # let catalog = morsel_storage::Catalog::new();
//! let session = Session::builder()
//!     .catalog(catalog) // or .database(db): MVCC reads, auto-committed DML
//!     .topology(&topo)
//!     .for_service(&service)
//!     .build();
//! let sql = "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 24";
//! match session.execute(&service, "q", sql) {
//!     Ok(exec) => println!("{} row(s)", exec.rows().map_or(0, |b| b.rows())),
//!     Err(e) => eprintln!("{}", e.render(sql)),
//! }
//! ```

pub mod admission;
pub mod cache;
pub mod client;
pub mod error;
pub mod histogram;
pub mod service;
pub mod session;
pub mod txn;

pub use admission::{AdmissionDecision, AdmissionQueue};
pub use cache::{CacheCounters, CacheDisposition, CacheStats, SqlExecution};
pub use client::{run_closed_loop, LoadRun};
pub use error::{Error, ErrorKind};
pub use histogram::{fmt_ns, LatencyHistogram};
pub use service::{
    ExecTotals, OutcomeCounts, QueryReport, QueryRequest, QueryService, QueryTicket, ServiceConfig,
    ServiceReport,
};
pub use session::{Execution, Session, SessionBuilder};
pub use txn::DmlReport;
