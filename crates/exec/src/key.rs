//! Join/group key hashing and row equality over columns.
//!
//! The columnar kernels ([`hash_rows`],
//! [`MatchCandidates::retain_key_equal`], and the group key compiler
//! `KeyLayout`) dispatch once per column and run a monomorphised loop
//! over a whole batch (optionally through a selection vector). The
//! per-row `hash_row` / `rows_equal` they are unit-tested against are
//! compiled for tests only. [`Rows`], the row set every kernel iterates,
//! also carries the one compaction loop all filters share
//! ([`Rows::select`], [`narrow`]). See DESIGN.md §4 for the policy and §3
//! for float-key semantics.

use std::ops::Range;
use std::sync::Arc;

use morsel_storage::{
    hash_bytes, hash_combine, hash_i64, AreaSet, Batch, Column, DataType, DictColumn, Dictionary,
    Encoding, StorageArea, StrColumn,
};

use crate::charge;

/// Canonical bit pattern of an `f64` key: `-0.0` normalizes to `0.0` so
/// that values that compare equal also hash equal, and every NaN becomes
/// the one quiet NaN. A group key *is* these bits, so all NaNs form one
/// group; a join compares candidates with `==`, which is false for NaN,
/// so there a NaN key hashes *somewhere* and never matches (DESIGN.md §3).
#[inline]
pub fn canon_f64_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Hash the key columns `cols` of `batch` at `row`.
#[cfg(test)]
pub fn hash_row(batch: &Batch, cols: &[usize], row: usize) -> u64 {
    let mut h = 0u64;
    for (i, &c) in cols.iter().enumerate() {
        let hc = match batch.column(c) {
            Column::I64(v) => hash_i64(v[row]),
            Column::I32(v) => hash_i64(i64::from(v[row])),
            Column::F64(v) => hash_i64(canon_f64_bits(v[row]) as i64),
            Column::Str(v) => hash_bytes(v.get(row).as_bytes()),
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
/// dispatch.
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
        ($at:expr, $hash_one:expr) => {
            if first {
                for_each_row!(rows, i, r, {
                    let x = $at(r);
                    out[i] = $hash_one(x);
                });
            } else {
                for_each_row!(rows, i, r, {
                    let x = $at(r);
                    out[i] = hash_combine(out[i], $hash_one(x));
                });
            }
        };
    }
    match col {
        Column::I64(v) => fold!(|r| v[r], hash_i64),
        Column::I32(v) => fold!(|r| v[r], |x: i32| hash_i64(i64::from(x))),
        Column::F64(v) => fold!(|r| v[r], |x: f64| hash_i64(canon_f64_bits(x) as i64)),
        Column::Str(v) => fold!(|r| v.get(r), |x: &str| hash_bytes(x.as_bytes())),
        Column::Dict(d) => {
            // One lookup per row instead of a string traversal; identical
            // hashes to the plain-string path (precomputed in the dict).
            let dict = d.dict();
            let codes = d.codes();
            fold!(|r| codes[r], |x: u32| dict.hash_of(x))
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
    /// Column-type dispatch happens once per column, not per row. A string
    /// key column whose `codes` entry is set compares codes:
    /// [`crate::join::ProbeOp::new`] set it because probe and build share
    /// the dictionary.
    pub fn retain_key_equal(
        &mut self,
        probe: &Batch,
        probe_cols: &[usize],
        build: &AreaSet,
        build_cols: &[usize],
        codes: &[bool],
    ) {
        debug_assert_eq!(probe_cols.len(), build_cols.len());
        for (i, (&pc, &bc)) in probe_cols.iter().zip(build_cols).enumerate() {
            if self.is_empty() {
                return;
            }
            let col = probe.column(pc);
            self.retain_column_equal(col, build, bc, codes.get(i) == Some(&true));
        }
    }

    fn retain_column_equal(&mut self, probe_col: &Column, build: &AreaSet, bc: usize, codes: bool) {
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
            (p, morsel_storage::DataType::Str) if codes => {
                // One dictionary on both sides: the branch-free loop
                // compares u32 codes.
                let pc = p.as_dict().expect("a code compare probes codes").codes();
                let bs: Vec<&[u32]> = build.areas().iter().map(|a| area_codes(a, bc)).collect();
                self.retain_where(|p, a, r| pc[p] == bs[a][r]);
            }
            (p @ (Column::Str(_) | Column::Dict(_)), morsel_storage::DataType::Str) => {
                // Strings of either representation: borrowed values.
                let bs: Vec<&Column> = build.areas().iter().map(|a| a.data().column(bc)).collect();
                self.retain_where(|pr, a, r| p.str_at(pr) == bs[a].str_at(r));
            }
            (p, b) => {
                panic!("incomparable key columns {:?} vs {:?}", p.data_type(), b)
            }
        }
    }

    /// Gather one build column for all candidates: typed per-area slices,
    /// one dispatch per column. A string column of the build side's
    /// `dict` gathers codes and stays encoded all the way to the sink;
    /// any other copies its strings' bytes.
    pub fn gather_build_column(
        &self,
        build: &AreaSet,
        bc: usize,
        dict: Option<&Arc<Dictionary>>,
    ) -> Column {
        let areas = build.areas().iter();
        macro_rules! gather {
            ($slices:expr) => {{
                let bs: Vec<_> = areas.map($slices).collect();
                self.locs().map(|(a, r)| bs[a][r]).collect()
            }};
        }
        match (build.schema().dtype(bc), dict) {
            (DataType::I64, _) => Column::I64(gather!(|a| a.data().column(bc).as_i64())),
            (DataType::I32, _) => Column::I32(gather!(|a| a.data().column(bc).as_i32())),
            (DataType::F64, _) => Column::F64(gather!(|a| a.data().column(bc).as_f64())),
            (DataType::Str, Some(dict)) => Column::Dict(DictColumn::new(
                Arc::clone(dict),
                gather!(|a| area_codes(a, bc)),
            )),
            (DataType::Str, None) => {
                let bs: Vec<&Column> = areas.map(|a| a.data().column(bc)).collect();
                Column::Str((self.locs()).map(|(a, r)| bs[a].str_at(r)).collect())
            }
        }
    }
}

/// The codes of column `c` of a storage area its encoding says is
/// coded.
fn area_codes(area: &StorageArea, c: usize) -> &[u32] {
    (area.data().column(c).as_dict())
        .expect("a build column of a known dictionary holds codes")
        .codes()
}

/// Compare key columns of two rows for equality.
#[cfg(test)]
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
            (Column::Str(x), Column::Str(y)) => x.get(a_row) == y.get(b_row),
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

/// Bytes of a group column's fixed-width key slot: integers as they are,
/// a float as its [`canon_f64_bits`], a string coded in a dictionary as
/// its `u32` code (strings never materialise). 0: a plain string, the
/// variable-length part.
fn slot_width(ty: DataType, encoding: &Encoding) -> usize {
    match (ty, encoding) {
        (DataType::I32, _) | (DataType::Str, Encoding::Dict(_)) => 4,
        (DataType::I64 | DataType::F64, _) => 8,
        (DataType::Str, Encoding::Plain) => 0,
    }
}

/// Run `f(position, slot bits)` over the rows of a fixed-width group
/// column (a plain string column has none): the column is matched once,
/// the loop body is `f` inlined.
#[inline(always)]
fn for_slot_bits(col: &Column, rows: Rows<'_>, mut f: impl FnMut(usize, u64)) {
    match col {
        Column::I32(v) => for_each_row!(rows, i, r, f(i, u64::from(v[r] as u32))),
        Column::I64(v) => for_each_row!(rows, i, r, f(i, v[r] as u64)),
        Column::F64(v) => for_each_row!(rows, i, r, f(i, canon_f64_bits(v[r]))),
        Column::Dict(d) => {
            let codes = d.codes();
            for_each_row!(rows, i, r, f(i, u64::from(codes[r])))
        }
        Column::Str(_) => {}
    }
}

/// The group key of one aggregation, compiled once from the group
/// columns' types and encodings (DESIGN.md §4 *The group-by engine*).
/// Fixed slots of at most 16 bytes in total and no string part pack into
/// one `u128`; any other key is a serialised row — the fixed slots, then
/// each string as `u32` length + bytes — so that key equality is one
/// integer or one slice comparison.
#[derive(Debug)]
pub(crate) struct KeyLayout {
    /// Per group column: slot width and byte offset among the fixed slots.
    slots: Vec<(usize, usize)>,
    /// Per group column: its dictionary, if it is dictionary-encoded.
    dicts: Vec<Option<Arc<Dictionary>>>,
    /// Bytes of all fixed slots together.
    fixed: usize,
    /// Whether a key is one `u128` rather than a serialised row.
    pub(crate) inline: bool,
}

impl KeyLayout {
    /// The layout of group columns of `types` stored in `encodings`.
    pub(crate) fn new(types: &[DataType], encodings: &[Encoding]) -> KeyLayout {
        let mut fixed = 0;
        let mut slots = Vec::with_capacity(types.len());
        for (&ty, encoding) in types.iter().zip(encodings) {
            let width = slot_width(ty, encoding);
            slots.push((width, fixed));
            fixed += width;
        }
        KeyLayout {
            inline: fixed <= 16 && slots.iter().all(|&(width, _)| width > 0),
            dicts: encodings.iter().map(|e| e.dict().cloned()).collect(),
            slots,
            fixed,
        }
    }

    /// Bytes the cost model charges for moving `n` group entries with the
    /// keys of `keys` and `aggs` aggregate states — its traffic
    /// accounting ([`charge::agg_entry_bytes`]), not the layout, plus the
    /// bytes of a lone string key.
    pub(crate) fn charged_bytes(&self, keys: &Keys, n: usize, aggs: usize) -> u64 {
        let strings = self.slots.iter().filter(|&&(width, _)| width == 0).count();
        let lone_string = if (self.slots.len(), strings) == (1, 1) {
            keys.bytes.len() - 4 * n
        } else {
            0
        };
        charge::agg_entry_bytes(self.slots.len(), strings, aggs) * n as u64 + lone_string as u64
    }

    /// Hash and pack the group columns of `rows`, one pass per column,
    /// into `hashes` and `keys` (both overwritten). The hash folds
    /// `hash_i64` of each integer, code or canonical float and
    /// `hash_bytes` of each plain string with `hash_combine`; a key of no
    /// columns hashes like the integer 0.
    pub(crate) fn extract(
        &self,
        batch: &Batch,
        cols: &[usize],
        rows: Rows<'_>,
        hashes: &mut Vec<u64>,
        keys: &mut Keys,
    ) {
        let n = rows.len();
        hashes.clear();
        hashes.resize(n, hash_i64(0));
        keys.clear();
        if self.inline {
            keys.inline.resize(n, 0);
        } else {
            // Frame the rows: `ends[i]` first sums row `i`'s strings, then
            // points behind its fixed slots, where the strings will go.
            keys.ends.resize(n, 0);
            for v in self.strings(batch, cols) {
                for_each_row!(rows, i, r, keys.ends[i] += 4 + v.value_len(r));
            }
            let mut start = 0;
            for e in keys.ends.iter_mut() {
                let strings = *e;
                *e = start + self.fixed;
                start = *e + strings;
            }
            keys.bytes.resize(start, 0);
        }
        for (ci, &c) in cols.iter().enumerate() {
            let (col, (width, at)) = (batch.column(c), self.slots[ci]);
            match self.dicts[ci] {
                // A group key hashes a code as the integer it is, not as
                // its string: cheaper, and what routing was calibrated on.
                Some(_) => {
                    let codes = (col.as_dict())
                        .expect("a group column of a dictionary holds codes")
                        .codes();
                    let first = ci == 0;
                    for_each_row!(rows, i, r, {
                        let hc = hash_i64(i64::from(codes[r]));
                        hashes[i] = if first {
                            hc
                        } else {
                            hash_combine(hashes[i], hc)
                        };
                    });
                }
                None => hash_column(col, rows, ci == 0, hashes),
            }
            if self.inline {
                let out = &mut keys.inline;
                for_slot_bits(col, rows, |i, bits| out[i] |= u128::from(bits) << (8 * at));
            } else {
                let (ends, bytes) = (&keys.ends, &mut keys.bytes);
                for_slot_bits(col, rows, |i, bits| {
                    let o = ends[i] - self.fixed + at;
                    bytes[o..o + width].copy_from_slice(&bits.to_le_bytes()[..width]);
                });
            }
        }
        for v in self.strings(batch, cols) {
            let (ends, bytes) = (&mut keys.ends, &mut keys.bytes);
            for_each_row!(rows, i, r, {
                let (s, o) = (v.get(r).as_bytes(), ends[i]);
                bytes[o..o + 4].copy_from_slice(&(s.len() as u32).to_le_bytes());
                bytes[o + 4..o + 4 + s.len()].copy_from_slice(s);
                ends[i] = o + 4 + s.len();
            });
        }
    }

    /// The plain string columns among the group columns `cols` of `batch`:
    /// the variable-length parts of a serialised key.
    fn strings<'a>(
        &'a self,
        batch: &'a Batch,
        cols: &'a [usize],
    ) -> impl Iterator<Item = &'a StrColumn> + 'a {
        (self.slots.iter().zip(cols))
            .filter(|((width, _), _)| *width == 0)
            .map(|(_, &c)| batch.column(c).as_str())
    }

    /// Turn the keys of `n` groups back into group columns of the output
    /// `types`. Codes go straight into a `Dict` column sharing the
    /// pipeline's dictionary; each string is copied out of the arena once.
    pub(crate) fn emit(&self, keys: &Keys, n: usize, types: &[DataType]) -> Vec<Column> {
        // Where the next string of each serialised row starts.
        let mut cursor: Vec<usize> = if self.inline {
            Vec::new()
        } else {
            (0..n).map(|i| keys.start(i) + self.fixed).collect()
        };
        let le = |o: usize, width: usize| -> u64 {
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(&keys.bytes[o..o + width]);
            u64::from_le_bytes(word)
        };
        let word = |i: usize, at: usize, width: usize| -> u64 {
            if self.inline {
                (keys.inline[i] >> (8 * at)) as u64
            } else {
                le(keys.start(i) + at, width)
            }
        };
        let columns = self.slots.iter().zip(&self.dicts).zip(types);
        columns
            .map(|((&(width, at), dict), &ty)| {
                let int = |i: usize| match width {
                    4 => i64::from(word(i, at, 4) as u32 as i32),
                    _ => word(i, at, 8) as i64,
                };
                match (ty, dict) {
                    (DataType::I64, _) => Column::I64((0..n).map(int).collect()),
                    (DataType::I32, _) => Column::I32((0..n).map(|i| int(i) as i32).collect()),
                    (DataType::F64, _) => {
                        Column::F64((0..n).map(|i| f64::from_bits(word(i, at, 8))).collect())
                    }
                    (DataType::Str, Some(dict)) => Column::Dict(DictColumn::new(
                        Arc::clone(dict),
                        (0..n).map(|i| word(i, at, 4) as u32).collect(),
                    )),
                    (DataType::Str, None) => Column::Str(
                        cursor
                            .iter_mut()
                            .map(|o| {
                                let len = le(*o, 4) as usize;
                                let s = &keys.bytes[*o + 4..*o + 4 + len];
                                *o += 4 + len;
                                std::str::from_utf8(s).expect("key bytes came from a str")
                            })
                            .collect(),
                    ),
                }
            })
            .collect()
    }
}

/// The keys of a run of groups under one [`KeyLayout`] — a batch being
/// absorbed, a pre-aggregation table, a spill fragment or a merged
/// partition. Inline layouts fill `inline`; serialised ones append rows
/// to the `bytes` arena, row `i` ending at `ends[i]`.
#[derive(Debug, Default)]
pub(crate) struct Keys {
    inline: Vec<u128>,
    ends: Vec<usize>,
    bytes: Vec<u8>,
}

impl Keys {
    pub(crate) fn clear(&mut self) {
        self.inline.clear();
        self.ends.clear();
        self.bytes.clear();
    }

    #[inline]
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |before| self.ends[before])
    }

    #[inline]
    fn row(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i]]
    }

    /// Whether key `i` here equals key `j` of `other` (same layout).
    #[inline]
    pub(crate) fn eq_at<const INLINE: bool>(&self, i: usize, other: &Keys, j: usize) -> bool {
        if INLINE {
            self.inline[i] == other.inline[j]
        } else {
            self.row(i) == other.row(j)
        }
    }

    /// Append key `j` of `other` (an inline key has no `ends`).
    #[inline]
    pub(crate) fn push_from(&mut self, other: &Keys, j: usize) {
        if other.ends.is_empty() {
            self.inline.push(other.inline[j]);
        } else {
            self.bytes.extend_from_slice(other.row(j));
            self.ends.push(self.bytes.len());
        }
    }
}

/// A fast, non-DoS-resistant hasher for `count(distinct)`'s sets of `i64`
/// (the engine is not exposed to untrusted keys; see the Rust perf guide on
/// hashing).
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
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

/// `HashSet` with the fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, std::hash::BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Batch {
        Batch::from_columns(vec![
            Column::I64(vec![1, 2, 1]),
            Column::Str(["a", "b", "a"].into_iter().collect()),
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
                Column::Str(["a", "b", "c"].into_iter().collect()),
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
        cand.retain_key_equal(&probe, &[0], &build, &[0], &[]);
        assert_eq!(cand.probe_row, vec![0, 2]);
        assert_eq!(cand.locs().collect::<Vec<_>>(), vec![(0, 0), (0, 2)]);
        let payload = cand.gather_build_column(&build, 1, None);
        assert_eq!(payload.as_str().iter().collect::<Vec<_>>(), ["a", "c"]);
        // Filtering to empty keeps the gather well-defined.
        cand.retain_key_equal(
            &Batch::from_columns(vec![Column::I64(vec![99, 99, 99])]),
            &[0],
            &build,
            &[0],
            &[],
        );
        assert!(cand.is_empty());
        assert_eq!(cand.gather_build_column(&build, 0, None).len(), 0);
    }

    /// Every probe row paired with every build row, as if all of them
    /// collided in the hash table: only the key compare separates them. A
    /// hash table yields a candidate only on a full 64-bit hash match, so
    /// no join over real data reaches the compare with unequal keys.
    #[test]
    fn string_candidates_compare_codes_or_values() {
        use morsel_storage::{DataType, DictColumn, Dictionary};
        let dict = Dictionary::from_values(["air", "mail", "ship", "zzz"]);
        let coded = |v: &[&str]| Column::Dict(DictColumn::encode(&dict, v).unwrap());
        let build_keys = ["ship", "air", "zzz", "ship"];
        let build = one_area_set(
            Batch::from_columns(vec![coded(&build_keys), coded(&build_keys)]),
            &[("bk", DataType::Str), ("bp", DataType::Str)],
        );
        let probe_keys = ["air", "mail", "ship"];
        let all_pairs = || {
            let mut cand = MatchCandidates::with_capacity(12);
            for p in 0..3 {
                (0..4).for_each(|r| cand.push(p, 0, r));
            }
            cand
        };
        let want = vec![(0, 1), (2, 0), (2, 3)];
        let plain = Column::Str(probe_keys.into_iter().collect());
        for (probe, codes) in [
            (coded(&probe_keys), true),
            (coded(&probe_keys), false),
            (plain, false),
        ] {
            let mut cand = all_pairs();
            let probe = Batch::from_columns(vec![probe]);
            cand.retain_key_equal(&probe, &[0], &build, &[0], &[codes]);
            let got: Vec<(u32, usize)> = (cand.probe_row.iter().copied())
                .zip(cand.locs().map(|(_, r)| r))
                .collect();
            assert_eq!(got, want, "codes {codes}");
            let payload = cand.gather_build_column(&build, 1, Some(&dict));
            assert!(Arc::ptr_eq(payload.as_dict().unwrap().dict(), &dict));
            assert_eq!(payload.decoded(), cand.gather_build_column(&build, 1, None));
            assert_eq!(
                payload.decoded().as_str().iter().collect::<Vec<_>>(),
                ["air", "ship", "ship"]
            );
        }
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
        cand.retain_key_equal(&probe, &[0], &build, &[0], &[]);
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

    /// The layout of the group columns `cols` as `b` stores them.
    fn layout_of(b: &Batch, cols: &[usize]) -> KeyLayout {
        let (types, encodings): (Vec<DataType>, Vec<Encoding>) = (cols.iter())
            .map(|&c| (b.column(c).data_type(), Encoding::of(b.column(c))))
            .unzip();
        KeyLayout::new(&types, &encodings)
    }

    /// Extract every row of `b` under the layout compiled for `cols`.
    fn extracted(b: &Batch, cols: &[usize]) -> (KeyLayout, Vec<u64>, Keys) {
        let layout = layout_of(b, cols);
        let (mut hashes, mut keys) = (Vec::new(), Keys::default());
        layout.extract(b, cols, Rows::Range(0, b.rows()), &mut hashes, &mut keys);
        (layout, hashes, keys)
    }

    #[test]
    fn group_key_shapes() {
        let b = Batch::from_columns(vec![
            Column::I64(vec![1]),
            Column::Str(["a"].into_iter().collect()),
            Column::I32(vec![10]),
            Column::F64(vec![0.5]),
            Column::Dict(DictColumn::new(Dictionary::from_values(["a"]), vec![0])),
        ]);
        // Up to 16 bytes of fixed slots pack into the inline key ...
        for cols in [
            &[][..],
            &[0],
            &[2],
            &[4],
            &[0, 3],
            &[0, 2, 4],
            &[2, 4, 2, 4],
        ] {
            assert!(layout_of(&b, cols).inline, "{cols:?}");
        }
        // ... a 17th byte or any plain string makes it a serialised row.
        for cols in [&[0, 3, 2][..], &[1], &[0, 1], &[2, 1, 4]] {
            assert!(!layout_of(&b, cols).inline, "{cols:?}");
        }
        // The model's spill charge follows the column count, not the
        // packing: 8, 16, then 12 per part; a lone string adds its length.
        let charge = |cols: &[usize]| {
            let (layout, _, keys) = extracted(&b, cols);
            layout.charged_bytes(&keys, 1, 0)
        };
        assert_eq!(charge(&[]), 8);
        assert_eq!(charge(&[4]), 8);
        assert_eq!(charge(&[1]), 8 + 1);
        assert_eq!(charge(&[0, 2]), 16);
        assert_eq!(charge(&[0, 1]), 24);
        assert_eq!(charge(&[0, 1, 2]), 36);
    }

    #[test]
    fn group_key_roundtrip_through_columns() {
        use morsel_storage::DataType;
        let dict = Dictionary::from_values(["p", "q"]);
        let b = Batch::from_columns(vec![
            Column::I64(vec![i64::MIN, 2, i64::MAX]),
            Column::Str(["", "b\0c", "a"].into_iter().collect()),
            Column::I32(vec![-1, i32::MIN, i32::MAX]),
            Column::F64(vec![-0.0, f64::NAN, 2.5]),
            Column::Dict(DictColumn::new(Arc::clone(&dict), vec![1, 0, 1])),
        ]);
        let types = [
            DataType::I64,
            DataType::Str,
            DataType::I32,
            DataType::F64,
            DataType::Str,
        ];
        // Serialised (all five columns) and inline (the fixed ones).
        for cols in [&[0, 1, 2, 3, 4][..], &[2, 4, 3]] {
            let (layout, _, keys) = extracted(&b, cols);
            let out_types: Vec<DataType> = cols.iter().map(|&c| types[c]).collect();
            let out = layout.emit(&keys, 3, &out_types);
            for (o, &c) in out.iter().zip(cols) {
                match (o, b.column(c)) {
                    (Column::F64(got), Column::F64(_)) => {
                        assert_eq!(got[0].to_bits(), 0f64.to_bits());
                        assert!(got[1].is_nan());
                        assert_eq!(got[2], 2.5);
                    }
                    (Column::Dict(got), Column::Dict(want)) => {
                        assert!(Arc::ptr_eq(got.dict(), &dict));
                        assert_eq!(got.codes(), want.codes());
                    }
                    (got, want) => assert_eq!(got, want),
                }
            }
        }
        // An `I32` slot can land in an `I64` output column and back.
        let (layout, _, keys) = extracted(&b, &[2, 0]);
        let out = layout.emit(&keys, 3, &[DataType::I64, DataType::I32]);
        assert_eq!(
            out[0].as_i64(),
            &[-1, i64::from(i32::MIN), i64::from(i32::MAX)]
        );
        assert_eq!(out[1].as_i32(), &[0, 2, -1]);
    }

    #[test]
    fn group_key_hash_matches_equality() {
        // Rows 0 and 2 agree on every column, row 1 differs; rows 3 and 4
        // are the pair that concatenates alike without length prefixes.
        let s = |v: &[&str]| Column::Str(v.iter().collect());
        let b = Batch::from_columns(vec![
            Column::I64(vec![1, 2, 1, 5, 5]),
            s(&["a", "b", "a", "ab", "a"]),
            s(&["x", "x", "x", "c", "bc"]),
            Column::F64(vec![0.0, 1.0, -0.0, 3.0, 3.0]),
        ]);
        for cols in [&[0][..], &[0, 3], &[1], &[0, 1], &[1, 2], &[3, 0, 2, 1]] {
            let (_, hashes, keys) = extracted(&b, cols);
            let eq = |i, j| {
                if layout_of(&b, cols).inline {
                    keys.eq_at::<true>(i, &keys, j)
                } else {
                    keys.eq_at::<false>(i, &keys, j)
                }
            };
            assert!(eq(0, 2), "{cols:?}");
            assert_eq!(hashes[0], hashes[2], "{cols:?}");
            assert!(!eq(0, 1), "{cols:?}");
            assert_ne!(hashes[0], hashes[1], "{cols:?}");
            if cols.contains(&1) || cols.contains(&2) {
                assert!(!eq(3, 4), "{cols:?}");
            }
        }
        // A sub-range or a selection extracts the same keys and hashes.
        let (layout, all, keys) = extracted(&b, &[0, 1]);
        let (mut hashes, mut picked) = (Vec::new(), Keys::default());
        layout.extract(&b, &[0, 1], Rows::Sel(&[4, 2]), &mut hashes, &mut picked);
        assert_eq!(hashes, vec![all[4], all[2]]);
        assert!(picked.eq_at::<false>(0, &keys, 4) && picked.eq_at::<false>(1, &keys, 2));
    }
}
