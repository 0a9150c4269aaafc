//! # morsel-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (Section 5), each printing the same rows/series the paper
//! reports, plus the [`service_load()`] serving experiment over
//! `morsel-service` and the [`plan_quality()`]/[`explain_query()`]
//! planner comparisons over `morsel-planner`. The `repro` binary
//! dispatches to them; criterion benches under `benches/` cover the
//! wall-clock micro-benchmarks (hash table tagging, morsel cut-out,
//! operator ablations, service throughput, plan search).

pub mod adaptive;
pub mod experiments;
pub mod json;
pub mod observability;
pub mod plan_quality;
pub mod report;
pub mod service_load;
pub mod txn_bench;

pub use adaptive::adaptive;
pub use experiments::*;
pub use json::{render_bench_json, write_bench_json, write_bench_json_to};
pub use observability::{metrics_snapshot, trace_query};
pub use plan_quality::{
    explain_query, explain_sql_in, plan_quality, run_sql_in, sql_catalog, SqlDb,
};
pub use service_load::{service_load, service_load_zipf};
pub use txn_bench::{recovery_smoke, txn_bench, txn_demo};
