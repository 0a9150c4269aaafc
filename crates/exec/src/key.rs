//! Join/group key hashing and row equality over columns.
//!
//! Two tiers live here. The row-at-a-time functions ([`hash_row`],
//! [`rows_equal`], [`GroupKey::extract`]) dispatch on the `Column` enum per
//! row; they remain as the reference/fallback path (string or composite
//! keys, benches, property-test oracles). The columnar kernels
//! ([`hash_rows`], [`MatchCandidates::retain_key_equal`]) dispatch once per
//! column and run a monomorphised loop over a whole batch (optionally
//! through a selection vector) — the hot path for joins and aggregation.
//! [`Rows`], the row set every kernel iterates, also carries the one
//! compaction loop all filters share ([`Rows::select`], [`narrow`]).
//! See DESIGN.md §4 for the policy and §3 for float-key semantics.

use std::ops::Range;

use morsel_storage::{hash_bytes, hash_combine, hash_i64, AreaSet, Batch, Column, DictColumn};

/// Canonical bit pattern of an `f64` key: `-0.0` normalizes to `0.0` so
/// that values that compare equal also hash equal. NaNs keep their bit
/// pattern; they hash *somewhere* but never compare equal (`==` is false
/// for NaN), so a NaN key never matches — the same behavior a raw
/// comparison-based engine exhibits (documented in DESIGN.md §3).
#[inline]
pub fn canon_f64_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

/// Hash the key columns `cols` of `batch` at `row`.
#[inline]
pub fn hash_row(batch: &Batch, cols: &[usize], row: usize) -> u64 {
    let mut h = 0u64;
    for (i, &c) in cols.iter().enumerate() {
        let hc = match batch.column(c) {
            Column::I64(v) => hash_i64(v[row]),
            Column::I32(v) => hash_i64(i64::from(v[row])),
            Column::F64(v) => hash_i64(canon_f64_bits(v[row]) as i64),
            Column::Str(v) => hash_bytes(v[row].as_bytes()),
            // Precomputed per-value hash: equals hashing the raw string,
            // so dictionary keys join/group consistently with plain keys
            // (and with codes from a *different* dictionary).
            Column::Dict(d) => d.dict().hash_of(d.codes()[row]),
        };
        h = if i == 0 { hc } else { hash_combine(h, hc) };
    }
    h
}

/// The rows a kernel operates on: a contiguous range or a selection vector
/// of row indexes. Kernels match on this once and monomorphise both loops.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    Range(usize, usize),
    Sel(&'a [u32]),
}

impl<'a> Rows<'a> {
    pub fn range(r: Range<usize>) -> Self {
        Rows::Range(r.start, r.end)
    }

    pub fn len(&self) -> usize {
        match self {
            Rows::Range(s, e) => e - s,
            Rows::Sel(sel) => sel.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row index of the `i`-th operand (edge use; kernels inline the loop).
    #[inline]
    pub fn at(&self, i: usize) -> usize {
        match self {
            Rows::Range(s, _) => s + i,
            Rows::Sel(sel) => sel[i] as usize,
        }
    }

    /// The sub-span covering operand positions `span` (for segmented
    /// kernel passes, e.g. aggregation between flushes).
    pub fn slice(&self, span: Range<usize>) -> Rows<'_> {
        match self {
            Rows::Range(s, e) => {
                debug_assert!(s + span.end <= *e);
                Rows::Range(s + span.start, s + span.end)
            }
            Rows::Sel(sel) => Rows::Sel(&sel[span]),
        }
    }
}

impl From<Range<usize>> for Rows<'_> {
    fn from(r: Range<usize>) -> Self {
        Rows::range(r)
    }
}

/// Dispatch a per-value statement over both `Rows` layouts with the row
/// variable bound. Keeps the inner loops free of per-row branching.
macro_rules! for_each_row {
    ($rows:expr, $i:ident, $r:ident, $body:expr) => {
        match $rows {
            $crate::key::Rows::Range(start, end) => {
                for ($i, $r) in (start..end).enumerate() {
                    $body
                }
            }
            $crate::key::Rows::Sel(sel) => {
                for ($i, &__row) in sel.iter().enumerate() {
                    let $r = __row as usize;
                    $body
                }
            }
        }
    };
}

pub(crate) use for_each_row;

impl Rows<'_> {
    /// Start a selection: the rows among these for which
    /// `keep(position, row)` holds, in order. The loop every filter kernel
    /// shares — it writes the row at a cursor that advances by
    /// `keep as usize`, so no branch depends on the data and a 50 %
    /// selective predicate costs what a 1 % one does.
    #[inline]
    pub fn select(self, keep: impl Fn(usize, usize) -> bool) -> Vec<u32> {
        let mut out = vec![0u32; self.len()];
        let mut k = 0;
        for_each_row!(self, i, r, {
            out[k] = r as u32;
            k += usize::from(keep(i, r));
        });
        out.truncate(k);
        out
    }
}

/// Narrow a selection in place to the rows for which
/// `keep(position, row)` holds: the same cursor loop as [`Rows::select`],
/// compacting `sel` onto itself.
#[inline]
pub fn narrow(sel: &mut Vec<u32>, keep: impl Fn(usize, usize) -> bool) {
    let mut k = 0;
    for i in 0..sel.len() {
        let r = sel[i];
        sel[k] = r;
        k += usize::from(keep(i, r as usize));
    }
    sel.truncate(k);
}

/// Columnar key hashing: one pass per key column, no per-row enum
/// dispatch. Produces the same hashes as [`hash_row`] over the same rows
/// (and as [`GroupKey::hash`] for integer keys).
pub fn hash_rows(batch: &Batch, cols: &[usize], rows: Rows<'_>) -> Vec<u64> {
    let n = rows.len();
    let mut out = vec![0u64; n];
    for (ci, &c) in cols.iter().enumerate() {
        hash_column(batch.column(c), rows, ci == 0, &mut out);
    }
    out
}

/// Fold one key column into the hash vector (first column initializes,
/// later columns combine).
fn hash_column(col: &Column, rows: Rows<'_>, first: bool, out: &mut [u64]) {
    macro_rules! fold {
        ($v:ident, $hash_one:expr) => {
            if first {
                for_each_row!(rows, i, r, {
                    let x = &$v[r];
                    out[i] = $hash_one(x);
                });
            } else {
                for_each_row!(rows, i, r, {
                    let x = &$v[r];
                    out[i] = hash_combine(out[i], $hash_one(x));
                });
            }
        };
    }
    match col {
        Column::I64(v) => fold!(v, |x: &i64| hash_i64(*x)),
        Column::I32(v) => fold!(v, |x: &i32| hash_i64(i64::from(*x))),
        Column::F64(v) => fold!(v, |x: &f64| hash_i64(canon_f64_bits(*x) as i64)),
        Column::Str(v) => fold!(v, |x: &String| hash_bytes(x.as_bytes())),
        Column::Dict(d) => {
            // One lookup per row instead of a string traversal; identical
            // hashes to the plain-string path (precomputed in the dict).
            let dict = d.dict();
            let codes = d.codes();
            fold!(codes, |x: &u32| dict.hash_of(*x))
        }
    }
}

/// Read-only view over either string representation, for key kernels that
/// must compare across representations (or across dictionaries).
#[derive(Clone, Copy)]
enum StrView<'a> {
    Plain(&'a [String]),
    Dict(&'a DictColumn),
}

impl<'a> StrView<'a> {
    fn of(col: &'a Column) -> StrView<'a> {
        match col {
            Column::Str(v) => StrView::Plain(v),
            Column::Dict(d) => StrView::Dict(d),
            other => panic!("expected string column, got {:?}", other.data_type()),
        }
    }

    #[inline]
    fn at(&self, i: usize) -> &'a str {
        match self {
            StrView::Plain(v) => &v[i],
            StrView::Dict(d) => d.str_at(i),
        }
    }
}

/// Candidate matches of a batched probe, as a struct-of-arrays: for each
/// candidate the probe row and the `(area, row)` build location — what the
/// key check reads, and all any join kind consumes after it (the
/// hash-table entry of a match follows from its location,
/// [`crate::ht::TaggedHashTable::entry_index`]).
#[derive(Debug, Default)]
pub struct MatchCandidates {
    /// Row in the (unmaterialized) probe batch.
    pub probe_row: Vec<u32>,
    /// Build area holding the candidate tuple.
    pub area: Vec<u32>,
    /// Row within that area.
    pub row: Vec<u32>,
}

impl MatchCandidates {
    pub fn with_capacity(n: usize) -> Self {
        MatchCandidates {
            probe_row: Vec::with_capacity(n),
            area: Vec::with_capacity(n),
            row: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.probe_row.len()
    }

    pub fn is_empty(&self) -> bool {
        self.probe_row.is_empty()
    }

    #[inline]
    pub fn push(&mut self, probe_row: u32, area: usize, row: usize) {
        debug_assert!(area <= u32::MAX as usize && row <= u32::MAX as usize);
        self.probe_row.push(probe_row);
        self.area.push(area as u32);
        self.row.push(row as u32);
    }

    /// `(area, row)` of every candidate, in order.
    pub fn locs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.area
            .iter()
            .zip(&self.row)
            .map(|(&a, &r)| (a as usize, r as usize))
    }

    /// Keep only candidates whose `(probe_row, area, row)` satisfy `eq`,
    /// preserving order. The closure captures typed slices only, so each
    /// call site monomorphises a compaction loop whose cursor advances by
    /// `keep as usize` — no data-dependent branch.
    #[inline]
    fn retain_where<F: FnMut(usize, usize, usize) -> bool>(&mut self, mut eq: F) {
        let mut w = 0;
        for i in 0..self.len() {
            let (p, a, r) = (self.probe_row[i], self.area[i], self.row[i]);
            self.probe_row[w] = p;
            self.area[w] = a;
            self.row[w] = r;
            w += usize::from(eq(p as usize, a as usize, r as usize));
        }
        self.probe_row.truncate(w);
        self.area.truncate(w);
        self.row.truncate(w);
    }

    /// Drop candidates whose keys differ: one typed pass per key column,
    /// comparing the probe column against per-area build column slices.
    /// Column-type dispatch happens once per column, not per row.
    pub fn retain_key_equal(
        &mut self,
        probe: &Batch,
        probe_cols: &[usize],
        build: &AreaSet,
        build_cols: &[usize],
    ) {
        debug_assert_eq!(probe_cols.len(), build_cols.len());
        for (&pc, &bc) in probe_cols.iter().zip(build_cols) {
            if self.is_empty() {
                return;
            }
            self.retain_column_equal(probe.column(pc), build, bc);
        }
    }

    fn retain_column_equal(&mut self, probe_col: &Column, build: &AreaSet, bc: usize) {
        macro_rules! slices {
            ($as_ty:ident) => {
                build
                    .areas()
                    .iter()
                    .map(|a| a.data().column(bc).$as_ty())
                    .collect()
            };
        }
        match (probe_col, build.schema().dtype(bc)) {
            (Column::I64(pv), morsel_storage::DataType::I64) => {
                let bs: Vec<&[i64]> = slices!(as_i64);
                self.retain_where(|p, a, r| pv[p] == bs[a][r]);
            }
            (Column::I64(pv), morsel_storage::DataType::I32) => {
                let bs: Vec<&[i32]> = slices!(as_i32);
                self.retain_where(|p, a, r| pv[p] == i64::from(bs[a][r]));
            }
            (Column::I32(pv), morsel_storage::DataType::I32) => {
                let bs: Vec<&[i32]> = slices!(as_i32);
                self.retain_where(|p, a, r| pv[p] == bs[a][r]);
            }
            (Column::I32(pv), morsel_storage::DataType::I64) => {
                let bs: Vec<&[i64]> = slices!(as_i64);
                self.retain_where(|p, a, r| i64::from(pv[p]) == bs[a][r]);
            }
            (Column::F64(pv), morsel_storage::DataType::F64) => {
                // `==` already treats -0.0 == 0.0 and NaN != NaN, matching
                // the canonical hash (DESIGN.md §3).
                let bs: Vec<&[f64]> = slices!(as_f64);
                self.retain_where(|p, a, r| pv[p] == bs[a][r]);
            }
            (p @ (Column::Str(_) | Column::Dict(_)), morsel_storage::DataType::Str) => {
                // Probe and every populated build area sharing one
                // dictionary: the branch-free loop compares u32 codes.
                if let Column::Dict(pd) = p {
                    let all_same = build.areas().iter().all(|a| {
                        let c = a.data().column(bc);
                        c.is_empty() || matches!(c.as_dict(), Some(bd) if bd.same_dict(pd))
                    });
                    if all_same {
                        let pc = pd.codes();
                        let bs: Vec<&[u32]> = build
                            .areas()
                            .iter()
                            .map(|a| a.data().column(bc).as_dict().map_or(&[][..], |d| d.codes()))
                            .collect();
                        self.retain_where(|p, a, r| pc[p] == bs[a][r]);
                        return;
                    }
                }
                // Mixed representations or foreign dictionaries: compare
                // borrowed strings (still no clones).
                let pv = StrView::of(p);
                let bs: Vec<StrView<'_>> = build
                    .areas()
                    .iter()
                    .map(|a| StrView::of(a.data().column(bc)))
                    .collect();
                self.retain_where(|p, a, r| pv.at(p) == bs[a].at(r));
            }
            (p, b) => {
                panic!("incomparable key columns {:?} vs {:?}", p.data_type(), b)
            }
        }
    }

    /// Gather one build column for all candidates: typed per-area slices,
    /// one dispatch per column.
    pub fn gather_build_column(&self, build: &AreaSet, bc: usize) -> Column {
        let n = self.len();
        macro_rules! gather {
            ($as_ty:ident, $variant:ident, $get:expr) => {{
                let bs: Vec<_> = build
                    .areas()
                    .iter()
                    .map(|a| a.data().column(bc).$as_ty())
                    .collect();
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let v = &bs[self.area[i] as usize][self.row[i] as usize];
                    out.push($get(v));
                }
                Column::$variant(out)
            }};
        }
        match build.schema().dtype(bc) {
            morsel_storage::DataType::I64 => gather!(as_i64, I64, |v: &i64| *v),
            morsel_storage::DataType::I32 => gather!(as_i32, I32, |v: &i32| *v),
            morsel_storage::DataType::F64 => gather!(as_f64, F64, |v: &f64| *v),
            morsel_storage::DataType::Str => self.gather_build_strings(build, bc),
        }
    }

    /// String build-payload gather: when every populated area carries the
    /// same dictionary, gather 4-byte codes and keep the encoding all the
    /// way to the sink; otherwise fall back to cloning strings.
    fn gather_build_strings(&self, build: &AreaSet, bc: usize) -> Column {
        let n = self.len();
        let shared = build
            .areas()
            .iter()
            .filter(|a| !a.data().column(bc).is_empty())
            .try_fold(None::<&DictColumn>, |acc, a| {
                match (acc, a.data().column(bc).as_dict()) {
                    (None, Some(d)) => Ok(Some(d)),
                    (Some(prev), Some(d)) if prev.same_dict(d) => Ok(Some(prev)),
                    _ => Err(()),
                }
            })
            .ok()
            .flatten();
        if let Some(dc) = shared {
            let bs: Vec<&[u32]> = build
                .areas()
                .iter()
                .map(|a| a.data().column(bc).as_dict().map_or(&[][..], |d| d.codes()))
                .collect();
            let mut codes = Vec::with_capacity(n);
            for i in 0..n {
                codes.push(bs[self.area[i] as usize][self.row[i] as usize]);
            }
            return Column::Dict(DictColumn::new(std::sync::Arc::clone(dc.dict()), codes));
        }
        let bs: Vec<StrView<'_>> = build
            .areas()
            .iter()
            .map(|a| StrView::of(a.data().column(bc)))
            .collect();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(
                bs[self.area[i] as usize]
                    .at(self.row[i] as usize)
                    .to_owned(),
            );
        }
        Column::Str(out)
    }
}

/// Compare key columns of two rows for equality.
#[inline]
pub fn rows_equal(
    a: &Batch,
    a_cols: &[usize],
    a_row: usize,
    b: &Batch,
    b_cols: &[usize],
    b_row: usize,
) -> bool {
    debug_assert_eq!(a_cols.len(), b_cols.len());
    a_cols
        .iter()
        .zip(b_cols)
        .all(|(&ca, &cb)| match (a.column(ca), b.column(cb)) {
            (Column::I64(x), Column::I64(y)) => x[a_row] == y[b_row],
            (Column::I32(x), Column::I32(y)) => x[a_row] == y[b_row],
            (Column::I64(x), Column::I32(y)) => x[a_row] == i64::from(y[b_row]),
            (Column::I32(x), Column::I64(y)) => i64::from(x[a_row]) == y[b_row],
            (Column::F64(x), Column::F64(y)) => x[a_row] == y[b_row],
            (Column::Str(x), Column::Str(y)) => x[a_row] == y[b_row],
            (Column::Dict(x), Column::Dict(y)) if x.same_dict(y) => {
                x.codes()[a_row] == y.codes()[b_row]
            }
            (x @ (Column::Str(_) | Column::Dict(_)), y @ (Column::Str(_) | Column::Dict(_))) => {
                x.str_at(a_row) == y.str_at(b_row)
            }
            (x, y) => panic!(
                "incomparable key columns {:?} vs {:?}",
                x.data_type(),
                y.data_type()
            ),
        })
}

/// An owned group key for aggregation hash tables. Mixed-type composite
/// keys fall back to a vector of scalar keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    I64(i64),
    I64x2(i64, i64),
    Str(String),
    Composite(Vec<ScalarKey>),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarKey {
    I64(i64),
    Str(String),
}

impl GroupKey {
    /// Extract the group key of `row` from `cols` of `batch`. F64 group
    /// columns are not supported (TPC-H never groups by floats).
    pub fn extract(batch: &Batch, cols: &[usize], row: usize) -> GroupKey {
        let scalar = |c: usize| match batch.column(c) {
            Column::I64(v) => ScalarKey::I64(v[row]),
            Column::I32(v) => ScalarKey::I64(i64::from(v[row])),
            Column::Str(v) => ScalarKey::Str(v[row].clone()),
            // Dictionary group keys are integer codes end-to-end: the
            // aggregation emits codes and the sink decodes (all fragments
            // of one aggregation share the dictionary, so codes agree).
            Column::Dict(d) => ScalarKey::I64(i64::from(d.codes()[row])),
            Column::F64(_) => panic!("cannot group by F64 column"),
        };
        match cols {
            [] => GroupKey::I64(0),
            [c] => match scalar(*c) {
                ScalarKey::I64(v) => GroupKey::I64(v),
                ScalarKey::Str(s) => GroupKey::Str(s),
            },
            [a, b] => match (scalar(*a), scalar(*b)) {
                (ScalarKey::I64(x), ScalarKey::I64(y)) => GroupKey::I64x2(x, y),
                (x, y) => GroupKey::Composite(vec![x, y]),
            },
            many => GroupKey::Composite(many.iter().map(|&c| scalar(c)).collect()),
        }
    }

    /// Push this key's scalar parts onto output columns (inverse of
    /// `extract`, used when emitting aggregation results).
    pub fn push_into(&self, out: &mut [Column]) {
        match self {
            GroupKey::I64(v) => Self::push_scalar(&mut out[0], &ScalarKey::I64(*v)),
            GroupKey::I64x2(a, b) => {
                Self::push_scalar(&mut out[0], &ScalarKey::I64(*a));
                Self::push_scalar(&mut out[1], &ScalarKey::I64(*b));
            }
            GroupKey::Str(s) => Self::push_scalar(&mut out[0], &ScalarKey::Str(s.clone())),
            GroupKey::Composite(parts) => {
                for (c, p) in out.iter_mut().zip(parts) {
                    Self::push_scalar(c, p);
                }
            }
        }
    }

    fn push_scalar(col: &mut Column, k: &ScalarKey) {
        match (col, k) {
            (Column::I64(v), ScalarKey::I64(x)) => v.push(*x),
            (Column::I32(v), ScalarKey::I64(x)) => v.push(*x as i32),
            (Column::Str(v), ScalarKey::Str(s)) => v.push(s.clone()),
            // Integer keys extracted from a dictionary column land back in
            // a code column sharing the same dictionary.
            (Column::Dict(v), ScalarKey::I64(x)) => v.codes_mut().push(*x as u32),
            (c, k) => panic!("key part {k:?} does not fit column {:?}", c.data_type()),
        }
    }

    /// Stable hash (used to route groups to spill partitions).
    pub fn hash(&self) -> u64 {
        match self {
            GroupKey::I64(v) => hash_i64(*v),
            GroupKey::I64x2(a, b) => hash_combine(hash_i64(*a), hash_i64(*b)),
            GroupKey::Str(s) => hash_bytes(s.as_bytes()),
            GroupKey::Composite(parts) => {
                let mut h = 0;
                for (i, p) in parts.iter().enumerate() {
                    let hp = match p {
                        ScalarKey::I64(v) => hash_i64(*v),
                        ScalarKey::Str(s) => hash_bytes(s.as_bytes()),
                    };
                    h = if i == 0 { hp } else { hash_combine(h, hp) };
                }
                h
            }
        }
    }
}

/// A fast, non-DoS-resistant hasher for internal hash maps (the engine is
/// not exposed to untrusted keys; see the Rust perf guide on hashing).
/// Algorithm follows rustc's FxHash.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
}

/// `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// `HashSet` with the fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, std::hash::BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Batch {
        Batch::from_columns(vec![
            Column::I64(vec![1, 2, 1]),
            Column::Str(vec!["a".into(), "b".into(), "a".into()]),
            Column::I32(vec![10, 20, 10]),
        ])
    }

    fn one_area_set(batch: Batch, types: &[(&str, morsel_storage::DataType)]) -> AreaSet {
        use morsel_storage::{Schema, StorageArea};
        let schema = Schema::new(types.to_vec());
        let mut area = StorageArea::new(morsel_numa::SocketId(0), &schema.data_types());
        area.data_mut().extend_from(&batch);
        AreaSet::new(schema, vec![area])
    }

    #[test]
    fn hash_rows_matches_hash_row() {
        let b = batch();
        let all = hash_rows(&b, &[0, 1], Rows::Range(0, 3));
        for (row, h) in all.iter().enumerate() {
            assert_eq!(*h, hash_row(&b, &[0, 1], row));
        }
        let sel = [2u32, 0];
        let selected = hash_rows(&b, &[0, 1], Rows::Sel(&sel));
        assert_eq!(selected, vec![all[2], all[0]]);
        // Sub-range and slice agree.
        let sub = hash_rows(&b, &[0, 1], Rows::Range(1, 3));
        assert_eq!(sub, all[1..]);
    }

    #[test]
    fn f64_keys_hash_canonically() {
        let b = Batch::from_columns(vec![Column::F64(vec![0.0, -0.0, 1.5, f64::NAN])]);
        let h = hash_rows(&b, &[0], Rows::Range(0, 4));
        // -0.0 and 0.0 compare equal, so they must hash equal.
        assert_eq!(h[0], h[1]);
        assert_ne!(h[0], h[2]);
        assert_eq!(hash_row(&b, &[0], 0), hash_row(&b, &[0], 1));
        assert_eq!(canon_f64_bits(-0.0), canon_f64_bits(0.0));
        assert_ne!(canon_f64_bits(1.0), canon_f64_bits(2.0));
    }

    #[test]
    fn rows_views() {
        let r = Rows::Range(2, 6);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.at(1), 3);
        assert_eq!(r.slice(1..3).at(0), 3);
        let sel = [5u32, 7, 9];
        let s = Rows::Sel(&sel);
        assert_eq!(s.len(), 3);
        assert_eq!(s.at(2), 9);
        assert_eq!(s.slice(1..3).at(0), 7);
        assert_eq!(Rows::range(4..4).len(), 0);
        assert!(Rows::range(4..4).is_empty());
    }

    #[test]
    fn select_and_narrow_compact_in_order() {
        let even = |_: usize, r: usize| r.is_multiple_of(2);
        assert_eq!(Rows::Range(3, 9).select(even), vec![4, 6, 8]);
        assert_eq!(Rows::Range(3, 3).select(even), Vec::<u32>::new());
        assert_eq!(Rows::range(0..3).select(|_, _| true), vec![0, 1, 2]);
        let sel = [9u32, 2, 5, 4];
        assert_eq!(Rows::Sel(&sel).select(even), vec![2, 4]);
        // The position counts from the first row handed in.
        assert_eq!(Rows::Range(3, 9).select(|i, _| i < 2), vec![3, 4]);
        assert_eq!(Rows::Sel(&sel).select(|i, _| i != 1), vec![9, 5, 4]);
        let mut v = vec![1u32, 2, 3, 4, 6];
        narrow(&mut v, even);
        assert_eq!(v, vec![2, 4, 6]);
        narrow(&mut v, |i, _| i == 1);
        assert_eq!(v, vec![4]);
        narrow(&mut v, |_, _| false);
        assert!(v.is_empty());
        narrow(&mut v, even);
        assert!(v.is_empty());
    }

    #[test]
    fn candidates_filter_and_gather() {
        use morsel_storage::DataType;
        // Build side: keys 10, 20, 30 with payloads "a", "b", "c".
        let build = one_area_set(
            Batch::from_columns(vec![
                Column::I64(vec![10, 20, 30]),
                Column::Str(vec!["a".into(), "b".into(), "c".into()]),
            ]),
            &[("bk", DataType::I64), ("bp", DataType::Str)],
        );
        let probe = Batch::from_columns(vec![Column::I64(vec![10, 25, 30])]);
        let mut cand = MatchCandidates::with_capacity(3);
        // Candidates pair probe rows with same-index build rows: only the
        // (0 -> 10) and (2 -> 30) pairs key-match.
        cand.push(0, 0, 0);
        cand.push(1, 0, 1);
        cand.push(2, 0, 2);
        assert_eq!(cand.len(), 3);
        cand.retain_key_equal(&probe, &[0], &build, &[0]);
        assert_eq!(cand.probe_row, vec![0, 2]);
        assert_eq!(cand.locs().collect::<Vec<_>>(), vec![(0, 0), (0, 2)]);
        let payload = cand.gather_build_column(&build, 1);
        assert_eq!(payload.as_str(), &["a".to_owned(), "c".to_owned()]);
        // Filtering to empty keeps the gather well-defined.
        cand.retain_key_equal(
            &Batch::from_columns(vec![Column::I64(vec![99, 99, 99])]),
            &[0],
            &build,
            &[0],
        );
        assert!(cand.is_empty());
        assert_eq!(cand.gather_build_column(&build, 0).len(), 0);
    }

    #[test]
    fn candidates_mixed_width_keys() {
        use morsel_storage::DataType;
        let build = one_area_set(
            Batch::from_columns(vec![Column::I32(vec![10, 20])]),
            &[("bk", DataType::I32)],
        );
        let probe = Batch::from_columns(vec![Column::I64(vec![10, 21])]);
        let mut cand = MatchCandidates::with_capacity(2);
        cand.push(0, 0, 0);
        cand.push(1, 0, 1);
        cand.retain_key_equal(&probe, &[0], &build, &[0]);
        assert_eq!(cand.probe_row, vec![0]);
    }

    #[test]
    fn hash_row_consistency() {
        let b = batch();
        assert_eq!(hash_row(&b, &[0], 0), hash_row(&b, &[0], 2));
        assert_ne!(hash_row(&b, &[0], 0), hash_row(&b, &[0], 1));
        assert_eq!(hash_row(&b, &[0, 1], 0), hash_row(&b, &[0, 1], 2));
        // i32 and i64 with equal values hash identically.
        let b2 = Batch::from_columns(vec![Column::I64(vec![10])]);
        assert_eq!(hash_row(&b, &[2], 0), hash_row(&b2, &[0], 0));
    }

    #[test]
    fn rows_equal_mixed_widths() {
        let b = batch();
        let b2 = Batch::from_columns(vec![Column::I64(vec![10, 99])]);
        assert!(rows_equal(&b, &[2], 0, &b2, &[0], 0));
        assert!(!rows_equal(&b, &[2], 1, &b2, &[0], 0));
        assert!(rows_equal(&b, &[0, 1], 0, &b, &[0, 1], 2));
        assert!(!rows_equal(&b, &[0, 1], 0, &b, &[0, 1], 1));
    }

    #[test]
    fn group_key_shapes() {
        let b = batch();
        assert_eq!(GroupKey::extract(&b, &[0], 1), GroupKey::I64(2));
        assert_eq!(GroupKey::extract(&b, &[1], 0), GroupKey::Str("a".into()));
        assert_eq!(GroupKey::extract(&b, &[0, 2], 0), GroupKey::I64x2(1, 10));
        assert_eq!(GroupKey::extract(&b, &[], 0), GroupKey::I64(0));
        let k3 = GroupKey::extract(&b, &[0, 1, 2], 0);
        assert!(matches!(k3, GroupKey::Composite(ref p) if p.len() == 3));
    }

    #[test]
    fn group_key_roundtrip_through_columns() {
        let b = batch();
        let k = GroupKey::extract(&b, &[0, 1], 1);
        let mut out = vec![Column::I64(vec![]), Column::Str(vec![])];
        k.push_into(&mut out);
        assert_eq!(out[0].as_i64(), &[2]);
        assert_eq!(out[1].as_str(), &["b".to_owned()]);
    }

    #[test]
    fn group_key_hash_matches_equality() {
        let b = batch();
        let a = GroupKey::extract(&b, &[0, 1], 0);
        let c = GroupKey::extract(&b, &[0, 1], 2);
        assert_eq!(a, c);
        assert_eq!(a.hash(), c.hash());
        let d = GroupKey::extract(&b, &[0, 1], 1);
        assert_ne!(a.hash(), d.hash());
    }
}
