//! Durable transactional write path over the morsel engine's immutable
//! column partitions.
//!
//! The read side of this engine (PRs 1–8) treats relations as
//! immutable: scans pin `Arc<Relation>` snapshots and never observe a
//! mutation. This crate keeps that invariant while adding writes:
//!
//! - [`db::TxnDb`] — MVCC snapshot isolation over per-table
//!   [`DeltaStore`](morsel_storage::DeltaStore)s. Transactions buffer
//!   their writes privately, commit under first-committer-wins
//!   conflict detection, and readers materialize `Relation` snapshots
//!   (base partitions + visible delta rows) that are immutable like
//!   any other relation.
//! - a group-commit WAL ([`morsel_storage::Wal`]) — commit
//!   acknowledgment means the commit record is fsync-durable, batched
//!   with concurrent committers into one fsync.
//! - crash recovery ([`db::TxnDb::open`]) — redo-only: the commit's own
//!   apply call, run over each committed transaction's logged records,
//!   reconstructs the delta stores byte-identically from whatever prefix
//!   of the WAL survived ([`morsel_storage::WalReader`] reads it and
//!   finds the torn tail, which is truncated).
//! - [`checker`] — a black-box snapshot-isolation checker (after
//!   arXiv 2301.07313) that validates client-observed histories of
//!   concurrent transactions. The engine has no broken mode: the
//!   checker's teeth are deliberately broken copies of [`db`] in the
//!   repository's mutant catalogue (`mutants/catalogue.txt`), each of
//!   which the SI acceptance sweep must flag.

pub mod checker;
pub mod db;
pub mod workload;

pub use checker::{
    check_history, kv_relation, run_history, Ev, ExecMode, History, HistorySpec, Lcg, TxnRec,
};
pub use db::{Txn, TxnDb, TxnDbConfig, TxnError, STATS_DRIFT};
pub use workload::{diff_logical_state, run_seeded, run_step, skip_step, WorkloadSpec};
