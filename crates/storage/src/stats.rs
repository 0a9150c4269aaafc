//! Catalog statistics: per-column min/max, null counts, and
//! HyperLogLog-style distinct-value sketches.
//!
//! The morsel engine inherits the paper's split between optimization and
//! execution: plans were hand-authored because the paper benchmarks the
//! executor. The cost-based planner (`morsel-planner`) closes that gap,
//! and this module is its catalog: statistics are computed **per
//! partition** (so the work parallelizes along the same NUMA boundaries
//! as everything else) and merged into one [`TableStats`] per relation,
//! cached on the [`Relation`](crate::relation::Relation) so repeated
//! planner lookups are free.
//!
//! Merging is two steps: [`TableStats::combine`] folds one fragment's
//! statistics into another's, and [`TableStats::finalize`] derives the two
//! estimates, `ndv` and `avg_width`, once at the end. `combine` is exactly
//! associative — register maxima, integer counts and byte totals, min/max
//! — so any grouping of the same fragments finalizes to the same bits as
//! the left fold [`TableStats::from_partitions`] computes.
//!
//! The NDV sketch is a classic HyperLogLog (Flajolet et al., 2007) with
//! `2^P` one-byte registers: mergeable across partitions by a register-wise
//! max, ~3% standard error at `P = 10`, fixed 1 KiB per column.

use crate::batch::Batch;
use crate::column::Column;
use crate::hash::{hash64, hash_bytes};
use crate::value::Value;

/// Register-count exponent: 2^10 = 1024 registers per sketch.
const HLL_P: u32 = 10;
const HLL_M: usize = 1 << HLL_P;

/// A mergeable HyperLogLog distinct-count sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct HllSketch {
    registers: Vec<u8>,
}

impl Default for HllSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl HllSketch {
    pub fn new() -> Self {
        HllSketch {
            registers: vec![0; HLL_M],
        }
    }

    /// Insert a pre-hashed value.
    #[inline]
    pub fn insert_hash(&mut self, h: u64) {
        // Top P bits pick the register; the rank of the remaining bits
        // (position of the first set bit) is the register value.
        let idx = (h >> (64 - HLL_P)) as usize;
        let rest = h << HLL_P;
        let rank = (rest.leading_zeros() + 1).min(64 - HLL_P + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Merge another sketch into this one (register-wise max). The merge
    /// of per-partition sketches equals the sketch of the whole relation.
    pub fn merge(&mut self, other: &HllSketch) {
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }

    /// Estimated number of distinct inserted values.
    pub fn estimate(&self) -> f64 {
        let m = HLL_M as f64;
        // alpha_m for m >= 128.
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        // 2^-r written as its bit pattern: exponent 1023 - r, zero
        // mantissa. Exact (so bit-identical to `powi`) for every rank
        // `insert_hash` can store, which is at most 64 - P + 1 = 55.
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| f64::from_bits((1023 - u64::from(r)) << 52))
            .sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            // Small-range correction: linear counting.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

/// Statistics for one column of one relation (or one partition of it,
/// before merging).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Smallest value (numeric comparison for numeric columns,
    /// lexicographic for strings). `None` for empty columns.
    pub min: Option<Value>,
    /// Largest value.
    pub max: Option<Value>,
    /// Number of NULLs. The engine's columns are non-nullable, so this is
    /// always zero today; the field keeps the catalog shape honest for
    /// when nullable columns arrive.
    pub null_count: u64,
    /// Estimated number of distinct values (from the HLL sketch).
    pub ndv: f64,
    /// Average in-memory bytes per value (same accounting as
    /// [`Column::byte_size`]): the fragment's byte total over its rows,
    /// set by finalization together with `ndv`.
    pub avg_width: f64,
    /// Byte total of the fragment(s) merged so far, kept as an integer so
    /// merging is exact in any order.
    bytes: u64,
    sketch: HllSketch,
}

impl ColumnStats {
    /// Compute stats over one column fragment.
    pub fn from_column(col: &Column) -> Self {
        let mut sketch = HllSketch::new();
        let (min, max) = match col {
            Column::Dict(d) => {
                // Codes are sort-ordered, so min/max over codes decode to
                // the lexicographic min/max; the NDV sketch inserts the
                // dictionary's precomputed per-value hashes, which keeps
                // per-partition sketches mergeable with plain-string
                // fragments of the same column.
                for &c in d.codes() {
                    sketch.insert_hash(d.dict().hash_of(c));
                }
                let min = d.codes().iter().min();
                let max = d.codes().iter().max();
                (
                    min.map(|&c| Value::Str(d.dict().get(c).to_owned())),
                    max.map(|&c| Value::Str(d.dict().get(c).to_owned())),
                )
            }
            Column::I64(v) => {
                for &x in v {
                    sketch.insert_hash(hash64(x as u64));
                }
                (
                    v.iter().min().map(|&x| Value::I64(x)),
                    v.iter().max().map(|&x| Value::I64(x)),
                )
            }
            Column::I32(v) => {
                for &x in v {
                    sketch.insert_hash(hash64(x as u64 & 0xffff_ffff));
                }
                (
                    v.iter().min().map(|&x| Value::I32(x)),
                    v.iter().max().map(|&x| Value::I32(x)),
                )
            }
            Column::F64(v) => {
                for &x in v {
                    // Normalize -0.0 so it hashes like 0.0.
                    let x = if x == 0.0 { 0.0 } else { x };
                    sketch.insert_hash(hash64(x.to_bits()));
                }
                let min = v.iter().copied().reduce(f64::min).map(Value::F64);
                let max = v.iter().copied().reduce(f64::max).map(Value::F64);
                (min, max)
            }
            Column::Str(v) => {
                for x in v {
                    sketch.insert_hash(hash_bytes(x.as_bytes()));
                }
                (
                    v.iter().min().map(Value::from),
                    v.iter().max().map(Value::from),
                )
            }
        };
        let mut stats = ColumnStats {
            min,
            max,
            null_count: 0,
            ndv: 0.0,
            avg_width: 0.0,
            bytes: col.total_bytes(),
            sketch,
        };
        stats.finalize(col.len() as u64);
        stats
    }

    /// Merge the stats of another fragment of the same column, all but
    /// the estimates: `ndv` is a pass over every register, which a fold
    /// over many fragments needs only once ([`ColumnStats::finalize`]).
    fn absorb(&mut self, other: &ColumnStats) {
        self.sketch.merge(&other.sketch);
        self.null_count += other.null_count;
        self.bytes += other.bytes;
        self.min = match (self.min.take(), other.min.clone()) {
            (Some(a), Some(b)) => Some(if value_le(&b, &a) { b } else { a }),
            (a, b) => a.or(b),
        };
        self.max = match (self.max.take(), other.max.clone()) {
            (Some(a), Some(b)) => Some(if value_le(&a, &b) { b } else { a }),
            (a, b) => a.or(b),
        };
    }

    /// Derive `ndv` and `avg_width` from the merged sketch and byte total
    /// of `rows` rows.
    fn finalize(&mut self, rows: u64) {
        self.ndv = self.sketch.estimate().min(rows as f64);
        self.avg_width = if rows == 0 {
            0.0
        } else {
            self.bytes as f64 / rows as f64
        };
    }

    /// Numeric span `max - min`, if the column is numeric and non-empty.
    pub fn numeric_span(&self) -> Option<f64> {
        match (&self.min, &self.max) {
            (Some(lo), Some(hi)) if !matches!(lo, Value::Str(_)) => Some(hi.as_f64() - lo.as_f64()),
            _ => None,
        }
    }
}

fn value_le(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x <= y,
        _ => a.as_f64() <= b.as_f64(),
    }
}

/// Merged statistics for a whole relation, or, between
/// [`TableStats::combine`] and [`TableStats::finalize`], for the fragments
/// combined so far.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub rows: u64,
    pub bytes: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Stats of one partition batch.
    pub fn from_batch(batch: &Batch) -> Self {
        TableStats {
            rows: batch.rows() as u64,
            bytes: batch.total_bytes(),
            columns: batch
                .columns()
                .iter()
                .map(ColumnStats::from_column)
                .collect(),
        }
    }

    /// Merge the stats of the partitions right after this one's into it,
    /// all but the estimates, which are stale until [`TableStats::finalize`].
    /// Exactly associative: any grouping of a partition sequence combines
    /// to the same value.
    pub fn combine(&mut self, other: &TableStats) {
        assert_eq!(
            self.columns.len(),
            other.columns.len(),
            "partition column counts differ"
        );
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.absorb(b);
        }
        self.rows += other.rows;
        self.bytes += other.bytes;
    }

    /// Derive every column's `ndv` and `avg_width` from what
    /// [`TableStats::combine`] merged: one estimate per column, however
    /// many partitions went in.
    pub fn finalize(&mut self) {
        for c in &mut self.columns {
            c.finalize(self.rows);
        }
    }

    /// Compute merged stats over a sequence of partition batches.
    pub fn from_partitions<'a>(parts: impl IntoIterator<Item = &'a Batch>) -> Self {
        let mut iter = parts.into_iter();
        let mut acc = match iter.next() {
            Some(first) => TableStats::from_batch(first),
            None => TableStats {
                rows: 0,
                bytes: 0,
                columns: Vec::new(),
            },
        };
        for batch in iter {
            acc.combine(&TableStats::from_batch(batch));
        }
        acc.finalize();
        acc
    }

    pub fn column(&self, i: usize) -> &ColumnStats {
        &self.columns[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hll_is_accurate_within_a_few_percent() {
        for &n in &[100u64, 1_000, 50_000] {
            let mut s = HllSketch::new();
            for i in 0..n {
                s.insert_hash(hash64(i));
            }
            let est = s.estimate();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.08, "n={n} est={est} err={err}");
        }
    }

    #[test]
    fn hll_merge_equals_union() {
        let mut a = HllSketch::new();
        let mut b = HllSketch::new();
        let mut whole = HllSketch::new();
        for i in 0..10_000u64 {
            let h = hash64(i);
            if i % 2 == 0 {
                a.insert_hash(h);
            } else {
                b.insert_hash(h);
            }
            whole.insert_hash(h);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), whole.estimate());
    }

    #[test]
    fn hll_duplicates_do_not_inflate() {
        let mut s = HllSketch::new();
        for _ in 0..100_000 {
            s.insert_hash(hash64(7));
        }
        assert!(s.estimate() <= 2.0);
    }

    #[test]
    fn column_stats_min_max_ndv() {
        let c = Column::I64(vec![5, 1, 9, 1, 5]);
        let s = ColumnStats::from_column(&c);
        assert_eq!(s.min, Some(Value::I64(1)));
        assert_eq!(s.max, Some(Value::I64(9)));
        assert_eq!(s.null_count, 0);
        assert!((s.ndv - 3.0).abs() < 0.5, "ndv {}", s.ndv);
        assert_eq!(s.avg_width, 8.0);
        assert_eq!(s.numeric_span(), Some(8.0));
    }

    #[test]
    fn string_stats_are_lexicographic() {
        let c = Column::Str(["pear", "apple", "fig"].into_iter().collect());
        let s = ColumnStats::from_column(&c);
        assert_eq!(s.min, Some(Value::Str("apple".into())));
        assert_eq!(s.max, Some(Value::Str("pear".into())));
        assert!(s.numeric_span().is_none());
        assert!(s.avg_width > 4.0);
    }

    #[test]
    fn empty_column_stats() {
        let s = ColumnStats::from_column(&Column::I64(vec![]));
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.ndv, 0.0);
    }

    /// The estimate as it was written before the bit-pattern powers: the
    /// oracle [`HllSketch::estimate`] must match bit for bit.
    fn powi_estimate(registers: &[u8]) -> f64 {
        let m = HLL_M as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let sum: f64 = registers.iter().map(|&r| 2f64.powi(-i32::from(r))).sum();
        let raw = alpha * m * m / sum;
        let zeros = registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    #[test]
    fn estimate_matches_the_powi_formula_bit_for_bit() {
        let max_rank = (64 - HLL_P + 1) as u8;
        let check = |registers: Vec<u8>| {
            let want = powi_estimate(&registers);
            let got = HllSketch { registers }.estimate();
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        };
        for r in 0..=max_rank {
            // One register at rank `r`, and every register at it.
            let mut one = vec![0; HLL_M];
            one[r as usize * 7 % HLL_M] = r;
            check(one);
            check(vec![r; HLL_M]);
        }
        check(vec![0; HLL_M]);
        check(vec![max_rank; HLL_M]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..200 {
            // Low ranks are the common ones; a few rounds reach the top.
            let cap = if round % 4 == 0 { max_rank + 1 } else { 12 };
            let registers = (0..HLL_M)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % u64::from(cap)) as u8
                })
                .collect();
            check(registers);
        }
        // And through `insert_hash`, as the statistics build them.
        let mut s = HllSketch::new();
        for i in 0..5_000u64 {
            s.insert_hash(hash64(i));
            if i % 499 == 0 {
                assert_eq!(
                    s.estimate().to_bits(),
                    powi_estimate(&s.registers).to_bits()
                );
            }
        }
    }

    #[test]
    fn an_empty_fragment_is_neutral_to_the_dictionary_rule() {
        use crate::dict::{DictColumn, Dictionary};
        use crate::relation::{Partition, Relation};
        use crate::schema::Schema;
        use crate::value::DataType;
        use morsel_numa::SocketId;
        use std::sync::Arc;
        let d = Dictionary::from_values(["x", "y"]);
        let other = Dictionary::from_values(["x", "y"]);
        let part = |dict: &Arc<Dictionary>, codes: Vec<u32>| {
            let column = Column::Dict(DictColumn::new(Arc::clone(dict), codes));
            Partition::new(SocketId(0), Batch::from_columns(vec![column]))
        };
        // Empty over `d`, empty over another dictionary, rows over `d`:
        // the relation keeps `d`, and both groupings of the fragments'
        // statistics agree.
        let parts = vec![part(&d, vec![]), part(&other, vec![]), part(&d, vec![1, 0])];
        let schema = Schema::new(vec![("s", DataType::Str)]);
        let rel = Relation::from_partitions(schema, parts);
        assert!(Arc::ptr_eq(rel.encoding(0).dict().unwrap(), &d));
        let [a, b, c] = [0, 1, 2].map(|i| TableStats::from_batch(&rel.partition(i).data));
        let mut left = a.clone();
        left.combine(&b);
        left.combine(&c);
        let mut right = b.clone();
        right.combine(&c);
        let mut right_first = a;
        right_first.combine(&right);
        left.finalize();
        right_first.finalize();
        assert_eq!(left, right_first);
        assert_eq!(*rel.stats(), left);
    }

    #[test]
    fn partition_merge_matches_whole() {
        use crate::value::DataType;
        let whole = Batch::from_columns(vec![
            Column::I64((0..1000).collect()),
            Column::Str((0..1000).map(|i| format!("v{}", i % 37)).collect()),
        ]);
        let mut parts = Vec::new();
        for p in 0..4 {
            let sel: Vec<u32> = (0..1000u32).filter(|i| i % 4 == p).collect();
            let mut b = Batch::empty(&[DataType::I64, DataType::Str]);
            b.extend_selected(&whole, &sel);
            parts.push(b);
        }
        let merged = TableStats::from_partitions(parts.iter());
        let direct = TableStats::from_batch(&whole);
        assert_eq!(merged.rows, 1000);
        assert_eq!(merged.bytes, direct.bytes);
        assert_eq!(merged.column(0).min, direct.column(0).min);
        assert_eq!(merged.column(0).max, direct.column(0).max);
        // Same inserted hash set => identical sketches => identical NDV.
        assert_eq!(merged.column(0).ndv, direct.column(0).ndv);
        assert_eq!(merged.column(1).ndv, direct.column(1).ndv);
    }
}
