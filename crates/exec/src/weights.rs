//! CPU cost weights (virtual nanoseconds per tuple) for the simulator.
//!
//! Calibrated to a ~2.3 GHz Nehalem-class core executing JIT-compiled
//! pipeline code: a handful of instructions per tuple per operation,
//! tuned so that single-threaded scans are CPU-bound (as the paper's
//! engine is) and many-core scans approach the node bandwidth limits —
//! this is what lets scan-heavy queries scale past 30x as in Table 1. The
//! absolute values only set the time scale; the *shapes* the benchmarks
//! reproduce (speedup curves, crossovers) depend on the ratios, which
//! follow the paper's qualitative statements (hashing and probing dominate
//! scan/filter; sorting is the most expensive per tuple — Section 4.5).

/// Per tuple, per expression node, for filters and projections.
pub const EXPR_NODE_NS: f64 = 1.0;

/// Per tuple, per column gathered/copied into or out of a working batch.
pub const GATHER_NS: f64 = 0.8;

/// A filter whose input selection keeps fewer than one in
/// `SPARSE_FILTER_DENOM` of the underlying rows is charged per selected
/// row plus a gather; a denser one (or no selection) per underlying row.
pub const SPARSE_FILTER_DENOM: usize = 2;

/// Hashing a key (per tuple).
pub const HASH_NS: f64 = 2.0;

/// Hash-table probe: directory load + tag check (per probe tuple).
pub const PROBE_NS: f64 = 2.5;

/// Per chain link traversed during a probe.
pub const CHAIN_NS: f64 = 2.0;

/// Per produced join match (output row assembly bookkeeping, excl. gather).
pub const MATCH_NS: f64 = 1.5;

/// Lock-free CAS insert into the global hash table (per build tuple).
pub const INSERT_NS: f64 = 4.0;

/// Aggregate update in a hot (cache-resident) pre-aggregation table.
pub const AGG_UPDATE_NS: f64 = 3.0;

/// Aggregate update in a phase-2 partition table (cold).
pub const AGG_MERGE_NS: f64 = 3.5;

/// Per comparison during local sort (~n log n of these per run).
pub const SORT_CMP_NS: f64 = 3.0;

/// Per tuple moved during merge.
pub const MERGE_NS: f64 = 2.5;

/// Per tuple crossing a Volcano exchange operator (the plan-driven
/// baseline's partition/route/copy overhead; Section 6 of the paper
/// discusses why on-the-fly exchange partitioning is not free).
pub const EXCHANGE_NS: f64 = 3.0;

/// Entry size charged per hash-table entry touched (hash + next + tuple
/// pointer: the paper's entry, whatever this implementation stores).
pub const HT_ENTRY_BYTES: u64 = 24;

/// Directory word size.
pub const HT_DIR_BYTES: u64 = 8;
