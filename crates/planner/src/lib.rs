//! # morsel-planner
//!
//! The cost-based query planner for the morsel-driven engine. The paper
//! (and the rest of this reproduction) hand-authors physical plans
//! because its subject is execution; this crate closes the loop for the
//! production system the roadmap aims at:
//!
//! 1. **Catalog** — per column, a HyperLogLog NDV estimate, the average
//!    width and a numeric column's span, filled in one pass over the
//!    partitions and cached on each `Relation` (`morsel_storage::stats`).
//! 2. **Logical algebra** ([`logical`]) — declarative query specs that
//!    address columns by position, as the physical plan does, with a
//!    builder DSL mirroring the hand-plan style.
//! 3. **Estimation** ([`estimate`]) — System-R-style cardinalities under
//!    independence and join containment.
//! 4. **Join ordering** ([`joinorder`]) — DPccp over the join graph with
//!    a greedy fallback past a relation budget, costed with the same
//!    calibrated NUMA model (`morsel_numa::CostModel`) that drives the
//!    simulator: build-side size, socket spread, and probe stream costs
//!    decide the order.
//! 5. **Lowering** ([`lower`]) — emits the executor's physical
//!    [`Plan`](morsel_exec::plan::Plan), choosing build/probe sides and
//!    pushing projections into scans, so the compiler, dispatcher, and
//!    service layer run planned queries unchanged.

pub mod cost;
pub mod dml;
pub mod estimate;
pub mod explain;
pub mod joinorder;
pub mod logical;
pub mod lower;

pub use cost::{plan_charges, plan_cost, CostParams};
pub use dml::{DmlKind, DmlPlan};
pub use estimate::{ColEst, Estimator, PlanEst};
pub use joinorder::{
    enumerate, left_deep_cost, Enumerated, GraphEdge, GraphNode, JoinGraph, JoinTree,
    DP_BUDGET_DEFAULT,
};
pub use logical::LogicalPlan;
pub use lower::{BlockReport, PlanHandle, PlanReport, Planner};
