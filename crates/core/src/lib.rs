//! # morsel-core
//!
//! The paper's primary contribution: morsel-driven parallel query
//! execution. A query is a sequence of [`query::Stage`]s; each stage
//! builds a [`job::PipelineJob`] that the dispatcher
//! schedules morsel-at-a-time onto pinned workers, preferring NUMA-local
//! morsels, stealing from the closest socket when a local queue drains,
//! sharing workers fairly across concurrent queries (priority-weighted,
//! with optional [`dispatcher::AgingPolicy`] aging so waiting queries are
//! never starved), and cancelling cooperatively at morsel boundaries —
//! on explicit request or when a query's deadline passes.
//!
//! Two executors run the same dispatcher and pipeline code, and they are
//! its only drivers (the worker protocol is private to this crate):
//! [`threaded::WorkerPool`] on real OS threads — the long-lived pool
//! `morsel-service` runs on, with [`threaded::ThreadedExecutor`] as its
//! batch spelling — and [`sim::SimExecutor`], a deterministic
//! discrete-event executor that reproduces the paper's
//! 64-hardware-thread NUMA boxes on any host via the calibrated cost
//! model in `morsel-numa`. Both record spans into the environment's
//! recorder ([`env::ExecEnv::with_trace`]).

pub mod dispatcher;
pub mod env;
pub mod fault;
pub mod govern;
pub mod job;
pub mod metrics;
pub mod profile;
pub mod query;
pub mod queue;
pub mod sim;
pub mod task;
pub mod threaded;
pub mod trace;

pub use dispatcher::{AgingPolicy, DispatchConfig};
pub use env::ExecEnv;
pub use fault::{Fault, FaultInjector, FaultPlan, MorselFault};
pub use govern::{EngineError, MemBudget, MemPool};
pub use job::{BuiltJob, PipelineJob};
pub use metrics::{validate_exposition, MetricFamily, MetricKind, MetricsRegistry};
pub use profile::{OpProfile, ProfileSlots, QueryProfile};
pub use query::{
    result_slot, FailReason, QueryHandle, QueryOutcome, QuerySpec, QueryStats, RejectReason,
    ResultSlot, Stage,
};
pub use queue::{MorselQueues, SchedulingMode};
pub use sim::{SimExecutor, SimReport};
pub use task::{ChunkMeta, Morsel, MorselProfile, TaskContext, DEFAULT_MORSEL_SIZE};
pub use threaded::{Pool, PoolHook, ThreadedExecutor, WorkerPool};
pub use trace::{render_ascii, render_chrome_trace, SpanKind, TraceEvent, TraceRecorder};
