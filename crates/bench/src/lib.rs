//! # morsel-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (Section 5), each printing the same rows/series the paper
//! reports in deterministic virtual time, plus the
//! [`plan_quality()`]/[`explain_query()`] planner comparisons over
//! `morsel-planner` and the observability and write-path commands. The
//! `repro` binary dispatches to them; criterion benches under `benches/`
//! keep the wall-clock micro-ablations no `benchmark/` workload
//! reproduces (hash table tagging, the selective probe, group-by key
//! shapes, dictionary encoding, plan search).

pub mod experiments;
pub mod observability;
pub mod plan_quality;
pub mod report;
pub mod txn;

pub use experiments::*;
pub use observability::{metrics_snapshot, trace_query};
pub use plan_quality::{
    explain_query, explain_sql_in, plan_quality, run_sql_in, sql_catalog, SqlDb,
};
pub use txn::{recovery_smoke, txn_demo};
