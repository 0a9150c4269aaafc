//! # morsel-repro
//!
//! A from-scratch Rust reproduction of **"Morsel-Driven Parallelism: A
//! NUMA-Aware Query Evaluation Framework for the Many-Core Age"** (Leis,
//! Boncz, Kemper, Neumann — SIGMOD 2014): the HyPer parallel query
//! execution framework, its parallel operators, a simulated-NUMA
//! substrate, the TPC-H/SSB workloads, and a harness regenerating every
//! table and figure of the paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace members under one
//! roof and hosts the runnable examples and cross-crate integration tests.
//!
//! ```
//! use morsel_repro::prelude::*;
//! use std::sync::Arc;
//!
//! // A tiny table, NUMA-partitioned over the simulated Nehalem EX box.
//! let topo = Topology::nehalem_ex();
//! let batch = Batch::from_columns(vec![
//!     Column::I64((0..10_000).collect()),
//!     Column::I64((0..10_000).map(|x| x % 7).collect()),
//! ]);
//! let rel = Arc::new(Relation::partitioned(
//!     Schema::new(vec![("id", DataType::I64), ("grp", DataType::I64)]),
//!     &batch,
//!     PartitionBy::Hash { column: 0 },
//!     16,
//!     Placement::FirstTouch,
//!     &topo,
//! ));
//!
//! // SELECT grp, count(*), sum(id) FROM rel WHERE id >= 100 GROUP BY grp.
//! let plan = Plan::scan(rel, Some(ge(col(0), lit(100))), &["id", "grp"])
//!     .agg(&["grp"], vec![("cnt", AggFn::Count), ("sum", AggFn::SumI64(0))])
//!     .sort_by(vec![SortKey::asc(0)], None);
//!
//! // Run it morsel-driven on 64 virtual threads.
//! let env = ExecEnv::new(topo);
//! let out = run_sim(&env, "demo", plan, SystemVariant::full(), 64, 1024);
//! assert_eq!(out.result.rows(), 7);
//! ```

pub use morsel_core as core;
pub use morsel_datagen as datagen;
pub use morsel_exec as exec;
pub use morsel_numa as numa;
pub use morsel_planner as planner;
pub use morsel_queries as queries;
pub use morsel_service as service;
pub use morsel_sql as sql;
pub use morsel_storage as storage;
pub use morsel_txn as txn;

/// Everything needed to build and run queries.
pub mod prelude {
    pub use morsel_core::{
        result_slot, AgingPolicy, DispatchConfig, ExecEnv, QueryHandle, QueryOutcome, QuerySpec,
        SchedulingMode, SimExecutor, ThreadedExecutor, DEFAULT_MORSEL_SIZE,
    };
    pub use morsel_datagen::{generate_ssb, generate_tpch, SsbConfig, TpchConfig};
    pub use morsel_exec::agg::AggFn;
    pub use morsel_exec::expr::*;
    pub use morsel_exec::join::JoinKind;
    pub use morsel_exec::plan::{compile_query, Plan};
    pub use morsel_exec::sort::SortKey;
    pub use morsel_exec::SystemVariant;
    pub use morsel_numa::{CostModel, Placement, SocketId, Topology};
    pub use morsel_planner::{LogicalPlan, Planner};
    pub use morsel_queries::{format_rows, run_sim, run_threaded};
    pub use morsel_sql::{plan_sql, SqlError};
    pub use morsel_storage::{
        date, Batch, Catalog, Column, DataType, PartitionBy, Relation, Schema, Value,
    };
}
