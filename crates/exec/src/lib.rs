//! # morsel-exec
//!
//! Parallel relational operators for the morsel-driven engine: vectorized
//! [`expr::Expr`] evaluation, compiled selection-first filters
//! ([`predicate::Predicate`]), the lock-free [`ht::TaggedHashTable`], fully
//! pipelined [`join`]s (inner/semi/anti/outer-count), two-phase parallel
//! [`agg`]regation, parallel merge [`sort`] and top-k, plus the
//! [`plan::Plan`] tree and [`plan::compile_query`], which lowers a plan
//! into the sequence of `morsel_core::Stage`s the dispatcher schedules —
//! each a label and the closure that builds its job once the previous
//! stage has finished — under any of the paper's compared
//! [`variant::SystemVariant`]s.

pub mod agg;
pub mod charge;
pub mod expr;
pub mod ht;
pub mod join;
pub mod key;
mod like;
pub mod pipeline;
pub mod plan;
pub mod predicate;
pub mod sink;
pub mod sort;
pub mod source;
pub mod variant;

pub use agg::AggFn;
pub use expr::Expr;
pub use join::JoinKind;
pub use plan::{compile_query, Plan};
pub use sort::SortKey;
pub use variant::SystemVariant;
