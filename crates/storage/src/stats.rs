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
//! The NDV sketch is a classic HyperLogLog (Flajolet et al., 2007) with
//! `2^P` one-byte registers: mergeable across partitions by a register-wise
//! max, ~3% standard error at `P = 10`, fixed 1 KiB per column.

use std::sync::Arc;

use crate::batch::Batch;
use crate::column::Column;
use crate::dict::Dictionary;
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
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
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
    /// [`Column::byte_size`]).
    pub avg_width: f64,
    /// The shared dictionary, when this column is dictionary-encoded —
    /// lets the planner turn string range/prefix predicates into exact
    /// code-domain fractions.
    pub dict: Option<Arc<Dictionary>>,
    sketch: HllSketch,
}

impl ColumnStats {
    /// Compute stats over one column fragment.
    pub fn from_column(col: &Column) -> Self {
        let mut sketch = HllSketch::new();
        let mut dict = None;
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
                dict = Some(Arc::clone(d.dict()));
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
                    v.iter().min().map(|x| Value::Str(x.clone())),
                    v.iter().max().map(|x| Value::Str(x.clone())),
                )
            }
        };
        let rows = col.len();
        let ndv = sketch.estimate().min(rows as f64);
        ColumnStats {
            min,
            max,
            null_count: 0,
            ndv,
            avg_width: if rows == 0 {
                0.0
            } else {
                col.total_bytes() as f64 / rows as f64
            },
            dict,
            sketch,
        }
    }

    /// Merge the stats of another fragment of the same column, all but
    /// `ndv`: the estimate is a pass over every register, which a fold
    /// over many fragments ([`TableStats::merge_all`]) needs only once.
    fn absorb(&mut self, other: &ColumnStats, own_rows: u64, other_rows: u64) {
        self.sketch.merge(&other.sketch);
        self.null_count += other.null_count;
        // Partitions of one relation share their dictionary; anything else
        // (or a plain fragment) drops it.
        self.dict = match (self.dict.take(), &other.dict) {
            (Some(a), Some(b)) if Arc::ptr_eq(&a, b) => Some(a),
            (Some(a), None) if other_rows == 0 => Some(a),
            (None, Some(b)) if own_rows == 0 => Some(Arc::clone(b)),
            _ => None,
        };
        self.min = match (self.min.take(), other.min.clone()) {
            (Some(a), Some(b)) => Some(if value_le(&b, &a) { b } else { a }),
            (a, b) => a.or(b),
        };
        self.max = match (self.max.take(), other.max.clone()) {
            (Some(a), Some(b)) => Some(if value_le(&a, &b) { b } else { a }),
            (a, b) => a.or(b),
        };
        let total = own_rows + other_rows;
        if total > 0 {
            self.avg_width = (self.avg_width * own_rows as f64
                + other.avg_width * other_rows as f64)
                / total as f64;
        }
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

/// Merged statistics for a whole relation.
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

    /// Merge the stats of any number of further partitions into this
    /// one, in order.
    pub fn merge_all<S: std::borrow::Borrow<TableStats>>(
        &mut self,
        others: impl IntoIterator<Item = S>,
    ) {
        for other in others {
            let other = other.borrow();
            assert_eq!(
                self.columns.len(),
                other.columns.len(),
                "partition column counts differ"
            );
            for (a, b) in self.columns.iter_mut().zip(&other.columns) {
                a.absorb(b, self.rows, other.rows);
            }
            self.rows += other.rows;
            self.bytes += other.bytes;
        }
        for c in &mut self.columns {
            c.ndv = c.sketch.estimate().min(self.rows as f64);
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
        acc.merge_all(iter.map(TableStats::from_batch));
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
        let c = Column::Str(vec!["pear".into(), "apple".into(), "fig".into()]);
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
