//! Catalog statistics: what the cost-based planner (`morsel-planner`)
//! reads of each column — its distinct-value estimate, its average width,
//! and, for a numeric column, its `[min, max]` span.
//!
//! The morsel engine inherits the paper's split between optimization and
//! execution: plans were hand-authored because the paper benchmarks the
//! executor. The planner closes that gap, and this module is its catalog.
//! [`TableStats::from_partitions`] fills a relation's statistics in one
//! pass per column over all its partitions: one HyperLogLog sketch, one
//! byte total and one numeric min/max, and one estimate at the end. The
//! result is cached on the [`Relation`](crate::relation::Relation), so
//! repeated planner lookups are free. Since every statistic is a running
//! fold over the column's values in order, the fill over any cut of a
//! relation into partitions equals the fill over their concatenation.
//!
//! The NDV sketch is a classic HyperLogLog (Flajolet et al., 2007) with
//! `2^P` one-byte registers: ~3% standard error at `P = 10`, 1 KiB per
//! column while the fill runs.

use crate::batch::Batch;
use crate::column::Column;
use crate::hash::{hash64, hash_bytes};

/// Register-count exponent: 2^10 = 1024 registers per sketch.
const HLL_P: u32 = 10;
const HLL_M: usize = 1 << HLL_P;

/// A HyperLogLog distinct-count sketch.
#[derive(Debug)]
struct HllSketch {
    registers: Vec<u8>,
}

impl HllSketch {
    fn new() -> Self {
        HllSketch {
            registers: vec![0; HLL_M],
        }
    }

    /// Insert a pre-hashed value.
    #[inline]
    fn insert_hash(&mut self, h: u64) {
        // Top P bits pick the register; the rank of the remaining bits
        // (position of the first set bit) is the register value.
        let idx = (h >> (64 - HLL_P)) as usize;
        let rest = h << HLL_P;
        let rank = (rest.leading_zeros() + 1).min(64 - HLL_P + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated number of distinct inserted values.
    fn estimate(&self) -> f64 {
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

/// Statistics for one column of one relation: what the planner reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Estimated number of distinct values (from the HLL sketch), at most
    /// the relation's rows.
    pub ndv: f64,
    /// Average in-memory bytes per value (same accounting as
    /// [`Column::byte_size`]): the byte total over the rows.
    pub avg_width: f64,
    /// Numeric `[min, max]`, as `f64`. `None` for strings and for an
    /// empty relation.
    pub span: Option<(f64, f64)>,
}

impl ColumnStats {
    /// One pass over `fragments`, the column's partitions in order, which
    /// hold `rows` rows together.
    fn fill<'a>(fragments: impl Iterator<Item = &'a Column>, rows: u64) -> Self {
        let mut sketch = HllSketch::new();
        let mut bytes = 0;
        let mut span = None;
        for col in fragments {
            bytes += col.total_bytes();
            match col {
                // The dictionary's precomputed per-value hashes equal
                // `hash_bytes` of the values, so a coded fragment inserts
                // what a plain one holding the same strings would.
                Column::Dict(d) => {
                    for &c in d.codes() {
                        sketch.insert_hash(d.dict().hash_of(c));
                    }
                }
                Column::Str(v) => {
                    for x in v {
                        sketch.insert_hash(hash_bytes(x.as_bytes()));
                    }
                }
                Column::I64(v) => {
                    for &x in v {
                        sketch.insert_hash(hash64(x as u64));
                    }
                    if let (Some(&lo), Some(&hi)) = (v.iter().min(), v.iter().max()) {
                        widen(&mut span, [lo as f64, hi as f64]);
                    }
                }
                Column::I32(v) => {
                    for &x in v {
                        sketch.insert_hash(hash64(x as u64 & 0xffff_ffff));
                    }
                    if let (Some(&lo), Some(&hi)) = (v.iter().min(), v.iter().max()) {
                        widen(&mut span, [f64::from(lo), f64::from(hi)]);
                    }
                }
                Column::F64(v) => {
                    for &x in v {
                        // Normalize -0.0 so it hashes like 0.0.
                        let x = if x == 0.0 { 0.0 } else { x };
                        sketch.insert_hash(hash64(x.to_bits()));
                    }
                    widen(&mut span, v.iter().copied());
                }
            }
        }
        ColumnStats {
            ndv: sketch.estimate().min(rows as f64),
            avg_width: if rows == 0 {
                0.0
            } else {
                bytes as f64 / rows as f64
            },
            span,
        }
    }
}

/// Widen `span` to cover `values`, skipping NaN as `f64::min` does (once
/// the span holds a number, a NaN fails both compares). A tie keeps the
/// bound already held (`0.0` and `-0.0` compare equal), so the span of a
/// column does not depend on where its partitions cut it.
fn widen(span: &mut Option<(f64, f64)>, values: impl IntoIterator<Item = f64>) {
    for x in values {
        match span {
            Some((lo, hi)) => {
                if x < *lo {
                    *lo = x;
                }
                if x > *hi {
                    *hi = x;
                }
            }
            None if !x.is_nan() => *span = Some((x, x)),
            None => {}
        }
    }
}

/// A relation's statistics: its rows, and [`ColumnStats`] per column.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub rows: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Fill the statistics of a relation stored as `parts`, in order: one
    /// pass per column over all of them.
    pub fn from_partitions<'a>(parts: impl IntoIterator<Item = &'a Batch>) -> Self {
        let parts: Vec<&Batch> = parts.into_iter().collect();
        let rows = parts.iter().map(|b| b.rows() as u64).sum();
        let width = parts.first().map_or(0, |b| b.width());
        TableStats {
            rows,
            columns: (0..width)
                .map(|c| ColumnStats::fill(parts.iter().map(|b| b.column(c)), rows))
                .collect(),
        }
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
    fn hll_duplicates_do_not_inflate() {
        let mut s = HllSketch::new();
        for _ in 0..100_000 {
            s.insert_hash(hash64(7));
        }
        assert!(s.estimate() <= 2.0);
    }

    fn fill(col: Column) -> ColumnStats {
        let rows = col.len() as u64;
        ColumnStats::fill(std::iter::once(&col), rows)
    }

    #[test]
    fn column_stats_min_max_ndv() {
        let s = fill(Column::I64(vec![5, 1, 9, 1, 5]));
        assert_eq!(s.span, Some((1.0, 9.0)));
        assert!((s.ndv - 3.0).abs() < 0.5, "ndv {}", s.ndv);
        assert_eq!(s.avg_width, 8.0);
        let s = fill(Column::Str(["pear", "apple", "fig"].into_iter().collect()));
        assert_eq!(s.span, None);
        assert!(s.avg_width > 4.0);
    }

    #[test]
    fn empty_column_stats() {
        let s = fill(Column::I64(vec![]));
        assert_eq!(s.span, None);
        assert_eq!((s.ndv, s.avg_width), (0.0, 0.0));
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
        // the relation keeps `d`.
        let parts = vec![part(&d, vec![]), part(&other, vec![]), part(&d, vec![1, 0])];
        let schema = Schema::new(vec![("s", DataType::Str)]);
        let rel = Relation::from_partitions(schema, parts);
        assert!(Arc::ptr_eq(rel.encoding(0).dict().unwrap(), &d));
    }
}
