//! # morsel-queries
//!
//! The evaluation workloads in two forms: hand-authored physical plans
//! for all 22 TPC-H queries ([`tpch_queries`]) and the 13 Star Schema
//! Benchmark queries ([`ssb_queries`]) — what the paper's experiments run
//! and the oracle everything planned is checked against — and SQL text
//! fixtures for a representative TPC-H slice ([`tpch_sql`]) and all of
//! SSB ([`ssb_sql`]), the input of the front end and the cost-based
//! planner. [`runner`] executes a plan under any system variant on either
//! executor; shared builder helpers live in [`util`].

pub mod runner;
pub mod ssb_queries;
pub mod ssb_sql;
pub mod tpch_queries;
pub mod tpch_sql;
pub mod util;

pub use runner::{format_rows, run_sim, run_threaded, RunOutcome};
