//! What each operator costs the modelled machine: one pure function per
//! operator, from the counts it saw to a [`Charge`].
//!
//! The operators call these at run time with actual counts and [`book`]
//! the result on their [`TaskContext`], which is what the simulator turns
//! into virtual time. The planner calls the same functions with estimated
//! counts and prices the result (`morsel_planner::cost`), so join orders
//! are chosen under the prices the figures are timed with.
//!
//! CPU weights are virtual nanoseconds per tuple, calibrated to a ~2.3 GHz
//! Nehalem-class core executing JIT-compiled pipeline code: a handful of
//! instructions per tuple per operation, tuned so that single-threaded
//! scans are CPU-bound (as the paper's engine is) and many-core scans
//! approach the node bandwidth limits — this is what lets scan-heavy
//! queries scale past 30x as in Table 1. The absolute values only set the
//! time scale; the *shapes* the benchmarks reproduce (speedup curves,
//! crossovers) depend on the ratios, which follow the paper's qualitative
//! statements (hashing and probing dominate scan/filter; sorting is the
//! most expensive per tuple — Section 4.5).
//!
//! [`book`]: Charge::book

use morsel_core::TaskContext;
use morsel_numa::SocketId;
use morsel_storage::DataType;

use crate::expr::Expr;
use crate::join::JoinKind;

/// Per tuple, per expression node, for filters and projections.
pub(crate) const EXPR_NODE_NS: f64 = 1.0;

/// Per tuple, per column gathered/copied into or out of a working batch.
pub(crate) const GATHER_NS: f64 = 0.8;

/// A filter whose input selection keeps fewer than one in
/// `SPARSE_FILTER_DENOM` of the underlying rows is charged per selected
/// row plus a gather; a denser one (or no selection) per underlying row.
const SPARSE_FILTER_DENOM: f64 = 2.0;

/// Hashing a key (per tuple).
const HASH_NS: f64 = 2.0;

/// Hash-table probe: directory load + tag check (per probe tuple).
const PROBE_NS: f64 = 2.5;

/// Per chain link traversed during a probe.
const CHAIN_NS: f64 = 2.0;

/// Per produced join match (output row assembly bookkeeping, excl. gather).
const MATCH_NS: f64 = 1.5;

/// Lock-free CAS insert into the global hash table (per build tuple).
const INSERT_NS: f64 = 4.0;

/// Aggregate update in a hot (cache-resident) pre-aggregation table.
const AGG_UPDATE_NS: f64 = 3.0;

/// Aggregate update in a phase-2 partition table (cold).
const AGG_MERGE_NS: f64 = 3.5;

/// Per comparison during local sort (~n log n of these per run).
const SORT_CMP_NS: f64 = 3.0;

/// Per tuple moved during merge.
const MERGE_NS: f64 = 2.5;

/// Per tuple crossing a Volcano exchange operator (the plan-driven
/// baseline's partition/route/copy overhead; Section 6 of the paper
/// discusses why on-the-fly exchange partitioning is not free).
pub(crate) const EXCHANGE_NS: f64 = 3.0;

/// Entry size charged per hash-table entry touched (hash + next + tuple
/// pointer: the paper's entry, whatever this implementation stores).
const HT_ENTRY_BYTES: f64 = 24.0;

/// Directory word size.
const HT_DIR_BYTES: f64 = 8.0;

/// What one operator books for one unit of its work: a morsel, a batch,
/// a partition, a sorted run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Charge {
    /// Compute, as `(tuples, ns per tuple)` terms. The simulator adds them
    /// to the morsel's CPU time one at a time, in this order, so the order
    /// is part of the charge: it is what keeps every profile bit-identical
    /// to the one the terms booked separately would give.
    pub cpu: [(f64, f64); 4],
    /// Bytes streamed in from the node(s) the input lies on.
    pub read: f64,
    /// Bytes streamed out to the worker's own node.
    pub write: f64,
    /// Bytes read from the socket-interleaved hash table.
    pub spread_read: f64,
    /// Bytes written to the socket-interleaved hash table.
    pub spread_write: f64,
    /// Dependent accesses (cache misses) into that table.
    pub accesses: f64,
    /// The table's size: the bytes of the build tuples it points into.
    pub table_bytes: f64,
}

impl Charge {
    /// A charge of compute alone; terms with no tuples or no cost are left
    /// empty, so that they neither book nor compare.
    fn cpu(terms: &[(f64, f64)]) -> Charge {
        let mut charge = Charge::default();
        for (slot, &(tuples, ns)) in charge.cpu.iter_mut().zip(terms) {
            if tuples > 0.0 && ns > 0.0 {
                *slot = (tuples, ns);
            }
        }
        charge
    }

    /// Total compute in virtual nanoseconds.
    pub fn cpu_ns(&self) -> f64 {
        self.cpu.iter().map(|&(tuples, ns)| tuples * ns).sum()
    }

    /// Record this charge on `ctx`. `reads` splits [`Charge::read`] by the
    /// node each part comes from (empty when nothing is read). Writes go to
    /// the worker's own node: every area, fragment and run an operator
    /// writes is allocated on the socket of the worker that writes it.
    /// The hash table is interleaved, so its bytes and accesses spread
    /// over every node.
    pub fn book(&self, ctx: &mut TaskContext<'_>, reads: &[(SocketId, u64)]) {
        debug_assert_eq!(
            reads.iter().map(|&(_, bytes)| bytes).sum::<u64>() as f64,
            self.read,
            "the reads split the charge's read bytes"
        );
        for &(node, bytes) in reads {
            if bytes > 0 {
                ctx.read(node, bytes);
            }
        }
        if self.write > 0.0 {
            ctx.write(ctx.socket, self.write as u64);
        }
        if self.spread_read > 0.0 {
            ctx.read_spread(self.spread_read as u64);
        }
        if self.spread_write > 0.0 {
            ctx.write_spread(self.spread_write as u64);
        }
        if self.accesses > 0.0 {
            ctx.random_access_interleaved(self.accesses as u64);
        }
        for &(tuples, ns) in &self.cpu {
            if tuples > 0.0 {
                ctx.cpu(tuples as u64, ns);
            }
        }
    }
}

/// The counts of a scan's charge that its plan fixes: the source columns
/// its filter or projection references — the model reads and gathers every
/// one of them, although only the projected ones are physically gathered
/// — and the expression nodes of the filter and of the projection.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanShape {
    /// Referenced source columns, ascending.
    pub used: Vec<usize>,
    pub filter_weight: u32,
    /// None when the projection is exactly the `used` columns in order
    /// with no `I32` among them (which a projection widens).
    pub projection_weight: u32,
}

impl ScanShape {
    /// The shape of a scan with `filter` and `projection` over source
    /// columns of `types`.
    pub fn of<'a>(
        filter: Option<&Expr>,
        projection: impl Iterator<Item = &'a Expr> + Clone,
        types: &[DataType],
    ) -> ScanShape {
        let mut used = Vec::new();
        for p in projection.clone() {
            p.referenced_cols(&mut used);
        }
        if let Some(f) = filter {
            f.referenced_cols(&mut used);
        }
        used.sort_unstable();
        let identity = projection.clone().count() == used.len()
            && projection
                .clone()
                .zip(&used)
                .all(|(e, &u)| matches!(e, Expr::Col(c) if *c == u) && types[u] != DataType::I32);
        ScanShape {
            projection_weight: if identity {
                0
            } else {
                projection.map(Expr::weight).sum()
            },
            filter_weight: filter.map_or(0, Expr::weight),
            used,
        }
    }
}

/// A scan of `rows` source rows that keeps `kept`: `bytes` of its `cols`
/// referenced columns streamed in, the Volcano baseline's `exchange_ns`
/// per row, the filter's `filter_weight` expression nodes per row, then a
/// gather of every referenced column and the projection's
/// `projection_weight` nodes per kept row.
pub fn scan(
    rows: f64,
    kept: f64,
    cols: usize,
    bytes: f64,
    filter_weight: u32,
    projection_weight: u32,
    exchange_ns: f64,
) -> Charge {
    Charge {
        read: bytes,
        ..Charge::cpu(&[
            (rows, exchange_ns),
            (rows, f64::from(filter_weight) * EXPR_NODE_NS),
            (kept, GATHER_NS * cols as f64),
            (kept, f64::from(projection_weight) * EXPR_NODE_NS),
        ])
    }
}

/// A filter of `weight` expression nodes over a batch of `underlying`
/// rows, `selected` of them live when the input carries a selection: per
/// underlying row, or — under a selection sparser than one in
/// `SPARSE_FILTER_DENOM` — per selected row plus a gather (the model's
/// account of a sparse filter; the kernels touch only selected rows at
/// any density).
pub fn filter(underlying: f64, selected: Option<f64>, weight: u32) -> Charge {
    let per_row = f64::from(weight) * EXPR_NODE_NS;
    match selected {
        Some(sel) if sel * SPARSE_FILTER_DENOM < underlying => {
            Charge::cpu(&[(sel, per_row + GATHER_NS)])
        }
        _ => Charge::cpu(&[(underlying, per_row)]),
    }
}

/// A projection of `weight` expression nodes over `rows` rows.
pub fn map(rows: f64, weight: u32) -> Charge {
    Charge::cpu(&[(rows, f64::from(weight) * EXPR_NODE_NS)])
}

/// A gather of `rows` rows of `cols` columns into compact storage that
/// writes `bytes`: a sink's appended area, or 0 for a gather into the
/// pipeline's next working batch.
pub fn materialize(rows: f64, cols: usize, bytes: f64) -> Charge {
    Charge {
        write: bytes,
        ..Charge::cpu(&[(rows, GATHER_NS * cols as f64)])
    }
}

/// Inserting `rows` build rows into the hash table over `table_bytes` of
/// build tuples: their `key_bytes` streamed in, a hash and a CAS per row,
/// its directory word and entry written to the interleaved table. An
/// insert is not a *dependent* access — the CAS result is not needed
/// before the next tuple, so the store buffer and out-of-order execution
/// hide most of the miss latency (why the paper's lock-free build scales)
/// — so a quarter of them count as misses.
pub fn hash_build(rows: f64, key_bytes: f64, table_bytes: f64) -> Charge {
    Charge {
        read: key_bytes,
        spread_write: rows * (HT_DIR_BYTES + HT_ENTRY_BYTES),
        accesses: (rows / 4.0).floor(),
        table_bytes,
        ..Charge::cpu(&[(rows, HASH_NS + INSERT_NS)])
    }
}

/// Probing the hash table over `table_bytes` of build tuples with `rows`
/// rows: a hash, a dependent directory load and a tag check per row,
/// `traversed` chain links walked. An inner join also pays for each of its
/// `matches` output rows: its assembly, a gather of its `cols` columns
/// (the probe batch's and the build payload's), and the `payload_bytes`
/// of the build columns it carries, streamed in. Semi, anti and count
/// joins emit probe rows and pay none of that.
pub fn hash_probe(
    kind: JoinKind,
    rows: f64,
    traversed: f64,
    matches: f64,
    cols: usize,
    payload_bytes: f64,
    table_bytes: f64,
) -> Charge {
    let emit = match kind {
        JoinKind::Inner => (matches, MATCH_NS + GATHER_NS * cols as f64),
        JoinKind::Semi | JoinKind::Anti | JoinKind::Count => (0.0, 0.0),
    };
    Charge {
        read: payload_bytes,
        spread_read: rows * HT_DIR_BYTES + traversed * HT_ENTRY_BYTES,
        accesses: rows,
        table_bytes,
        ..Charge::cpu(&[(rows, HASH_NS + PROBE_NS), (traversed, CHAIN_NS), emit])
    }
}

/// Bytes charged per spilled group entry: its key — 8 for one column, 16
/// for two fixed-width ones, 12 per part otherwise — and 16 per aggregate.
/// A lone plain-string key also moves its own bytes, which the caller
/// adds.
pub fn agg_entry_bytes(key_cols: usize, string_cols: usize, aggs: usize) -> u64 {
    let key = match (key_cols, string_cols) {
        (0 | 1, _) => 8,
        (2, 0) => 16,
        (parts, _) => 12 * parts,
    };
    (key + 16 * aggs) as u64
}

/// Pre-aggregating `rows` rows with `aggs` aggregates into a worker's
/// cache-resident table: a hash and the updates per row, and the
/// `spilled_bytes` of every full table written out to the overflow
/// partitions.
pub fn agg_update(rows: f64, aggs: usize, spilled_bytes: f64) -> Charge {
    Charge {
        write: spilled_bytes,
        ..Charge::cpu(&[(rows, HASH_NS + AGG_UPDATE_NS * aggs as f64)])
    }
}

/// Merging one partition's `entries` spilled entries (`entry_bytes`
/// streamed in) with `aggs` merges each into its groups, and writing the
/// `out_bytes` of the result.
pub fn agg_merge(entries: f64, aggs: usize, entry_bytes: f64, out_bytes: f64) -> Charge {
    Charge {
        read: entry_bytes,
        write: out_bytes,
        ..Charge::cpu(&[(entries, AGG_MERGE_NS * aggs as f64)])
    }
}

/// Sorting one run of `rows` rows on `keys` keys: `bytes_in` streamed
/// in, n log n comparisons per key, the `bytes_out` of the sorted run
/// written.
pub fn local_sort(rows: f64, keys: usize, bytes_in: f64, bytes_out: f64) -> Charge {
    let cmps = if rows > 1.0 { rows * rows.log2() } else { 0.0 };
    Charge {
        read: bytes_in,
        write: bytes_out,
        ..Charge::cpu(&[(1.0, cmps * SORT_CMP_NS * keys.max(1) as f64)])
    }
}

/// Merging the `rows` rows of one output segment out of `runs` sorted
/// runs: `bytes_in` streamed in, a log2(runs)-deep step per row, the
/// `bytes_out` of the segment written.
pub fn merge(rows: f64, runs: usize, bytes_in: f64, bytes_out: f64) -> Charge {
    Charge {
        read: bytes_in,
        write: bytes_out,
        ..Charge::cpu(&[(rows, MERGE_NS * (runs.max(2) as f64).log2())])
    }
}

/// Offering `rows` rows to a worker's heap of the best `k`.
pub fn top_k(rows: f64, k: usize) -> Charge {
    Charge::cpu(&[(rows, SORT_CMP_NS * (k.max(2) as f64).log2())])
}
