//! Columnar storage.
//!
//! HyPer stores relations column-wise (Section 5: "we used the column
//! format in all experiments"). A [`Column`] is one attribute's values for
//! one partition; operators work on contiguous slices of it (one morsel at
//! a time).
//!
//! String attributes have two physical representations under the single
//! logical type [`DataType::Str`]: plain [`StrColumn`] (`u32` offsets into
//! one byte buffer, see [`crate::str_column`]) and dictionary-encoded
//! [`DictColumn`] (sorted shared domain + `u32` codes, see
//! [`crate::dict`]). Which one a relation's column uses is its
//! [`Encoding`], held once by the relation and fixed for every partition
//! (DESIGN.md §14), so codes never meet codes of another dictionary or
//! plain strings: appending no rows is a no-op, an empty plain column
//! takes the dictionary of the codes appended to it, a plain column reads
//! the strings of appended codes, and any other mix is an engine bug that
//! panics.
//!
//! Byte accounting ([`Column::byte_size`], [`Column::selected_bytes`]) is
//! the cost model's, not the allocator's: fixed-width values and codes
//! count their width, a plain string its length plus 8.

use std::sync::Arc;

use crate::dict::{DictColumn, Dictionary};
use crate::str_column::StrColumn;
use crate::value::{DataType, Value, ValueRef};

/// How a column's values are stored: as they are, or as codes into one
/// sorted [`Dictionary`]. Only a string column is ever `Dict`. One
/// dictionary is one encoding: two dictionaries holding the same values
/// are two encodings, so comparing encodings is a pointer comparison.
#[derive(Debug, Clone)]
pub enum Encoding {
    Plain,
    Dict(Arc<Dictionary>),
}

impl Encoding {
    /// The encoding `col` is stored in.
    pub fn of(col: &Column) -> Encoding {
        match col {
            Column::Dict(d) => Encoding::Dict(Arc::clone(d.dict())),
            _ => Encoding::Plain,
        }
    }

    /// Whether `col` is stored in this encoding.
    pub fn stores(&self, col: &Column) -> bool {
        match (self, col) {
            (Encoding::Dict(d), Column::Dict(c)) => Arc::ptr_eq(d, c.dict()),
            (Encoding::Plain, c) => c.as_dict().is_none(),
            (Encoding::Dict(_), _) => false,
        }
    }

    /// The dictionary, when the column is encoded.
    pub fn dict(&self) -> Option<&Arc<Dictionary>> {
        match self {
            Encoding::Dict(d) => Some(d),
            Encoding::Plain => None,
        }
    }
}

impl PartialEq for Encoding {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Encoding::Plain, Encoding::Plain) => true,
            (Encoding::Dict(a), Encoding::Dict(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A single column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    I64(Vec<i64>),
    I32(Vec<i32>),
    F64(Vec<f64>),
    Str(StrColumn),
    /// Dictionary-encoded strings (logical type is still `Str`).
    Dict(DictColumn),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn empty(dt: DataType) -> Self {
        match dt {
            DataType::I64 => Column::I64(Vec::new()),
            DataType::I32 => Column::I32(Vec::new()),
            DataType::F64 => Column::F64(Vec::new()),
            DataType::Str => Column::Str(StrColumn::new()),
        }
    }

    /// Create an empty column with reserved capacity.
    pub fn with_capacity(dt: DataType, cap: usize) -> Self {
        match dt {
            DataType::I64 => Column::I64(Vec::with_capacity(cap)),
            DataType::I32 => Column::I32(Vec::with_capacity(cap)),
            DataType::F64 => Column::F64(Vec::with_capacity(cap)),
            DataType::Str => Column::Str(StrColumn::with_capacity(cap, 0)),
        }
    }

    /// An empty column of type `dt` stored in `encoding`.
    pub fn empty_as(dt: DataType, encoding: &Encoding) -> Self {
        match encoding {
            Encoding::Dict(d) => Column::Dict(DictColumn::empty(Arc::clone(d))),
            Encoding::Plain => Column::empty(dt),
        }
    }

    /// Empty column with the same *physical* representation as `like`
    /// (a dictionary column begets a code column sharing the dictionary).
    /// Gather kernels use this so encoded data never re-materializes.
    pub fn with_capacity_like(like: &Column, cap: usize) -> Self {
        match like {
            Column::Dict(d) => Column::Dict(DictColumn::with_capacity(Arc::clone(d.dict()), cap)),
            other => Column::with_capacity(other.data_type(), cap),
        }
    }

    pub fn data_type(&self) -> DataType {
        match self {
            Column::I64(_) => DataType::I64,
            Column::I32(_) => DataType::I32,
            Column::F64(_) => DataType::F64,
            Column::Str(_) | Column::Dict(_) => DataType::Str,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.len(),
            Column::I32(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Dict(d) => d.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Typed slice accessors. Panic on type mismatch — a schema violation
    /// is an engine bug, not a runtime condition.
    pub fn as_i64(&self) -> &[i64] {
        match self {
            Column::I64(v) => v,
            other => panic!("expected I64 column, got {:?}", other.data_type()),
        }
    }

    pub fn as_i32(&self) -> &[i32] {
        match self {
            Column::I32(v) => v,
            other => panic!("expected I32 column, got {:?}", other.data_type()),
        }
    }

    pub fn as_f64(&self) -> &[f64] {
        match self {
            Column::F64(v) => v,
            other => panic!("expected F64 column, got {:?}", other.data_type()),
        }
    }

    /// The plain string column. Panics on a dictionary column — use
    /// [`Column::str_at`] or [`Column::decoded`] for representation-
    /// agnostic access.
    pub fn as_str(&self) -> &StrColumn {
        match self {
            Column::Str(v) => v,
            Column::Dict(_) => {
                panic!("expected plain Str column, got dictionary-encoded (use str_at/decoded)")
            }
            other => panic!("expected Str column, got {:?}", other.data_type()),
        }
    }

    /// The dictionary representation, when this column is encoded.
    pub fn as_dict(&self) -> Option<&DictColumn> {
        match self {
            Column::Dict(d) => Some(d),
            _ => None,
        }
    }

    /// Borrowed string at row `i`, for either string representation.
    #[inline]
    pub fn str_at(&self, i: usize) -> &str {
        match self {
            Column::Str(v) => v.get(i),
            Column::Dict(d) => d.str_at(i),
            other => panic!("expected string column, got {:?}", other.data_type()),
        }
    }

    /// Value at row `i` as a dynamic [`Value`] (edge use only; slow path —
    /// clones strings; prefer [`Column::value_ref`] when only comparing or
    /// hashing).
    pub fn value(&self, i: usize) -> Value {
        self.value_ref(i).to_value()
    }

    /// Borrowed value at row `i`: no `String` clone for either string
    /// representation. The row-accessor for compare/hash paths.
    #[inline]
    pub fn value_ref(&self, i: usize) -> ValueRef<'_> {
        match self {
            Column::I64(v) => ValueRef::I64(v[i]),
            Column::I32(v) => ValueRef::I32(v[i]),
            Column::F64(v) => ValueRef::F64(v[i]),
            Column::Str(v) => ValueRef::Str(v.get(i)),
            Column::Dict(d) => ValueRef::Str(d.str_at(i)),
        }
    }

    /// The type and, for a string column, the representation, as an
    /// error message names them.
    fn describe(&self) -> String {
        match self {
            Column::Dict(d) => format!("Str coded in {} values", d.dict().len()),
            other => format!("{:?}", other.data_type()),
        }
    }

    /// Plain-string copy of this column (dictionary columns decode; other
    /// types clone). The late-materialization point for result sinks.
    pub fn decoded(&self) -> Column {
        match self {
            Column::Dict(d) => Column::Str(d.decode()),
            other => other.clone(),
        }
    }

    /// Make an empty plain column take `src`'s dictionary, so that an
    /// append into it is a copy of codes; every other pair of columns is
    /// left as it is.
    fn adopt(&mut self, src: &Column) {
        if let (Column::Str(v), Column::Dict(s)) = (&*self, src) {
            if v.is_empty() {
                *self = Column::Dict(DictColumn::empty(Arc::clone(s.dict())));
            }
        }
    }

    /// Append a dynamic value (edge use only; slow path). A string pushed
    /// into a dictionary column must be in its dictionary.
    pub fn push(&mut self, v: Value) {
        match (self, v) {
            (Column::I64(c), Value::I64(x)) => c.push(x),
            (Column::I32(c), Value::I32(x)) => c.push(x),
            (Column::F64(c), Value::F64(x)) => c.push(x),
            (Column::Str(c), Value::Str(x)) => c.push(&x),
            (Column::Dict(d), Value::Str(x)) => {
                let code = (d.dict().code_of(&x))
                    .unwrap_or_else(|| panic!("{x:?} is not in the column's dictionary"));
                d.codes_mut().push(code);
            }
            (c, v) => panic!(
                "cannot push {:?} into {:?} column",
                v.data_type(),
                c.data_type()
            ),
        }
    }

    /// Append row `i` of `src` to this column.
    pub fn push_from(&mut self, src: &Column, i: usize) {
        self.adopt(src);
        match (self, src) {
            (Column::I64(dst), Column::I64(s)) => dst.push(s[i]),
            (Column::I32(dst), Column::I32(s)) => dst.push(s[i]),
            (Column::F64(dst), Column::F64(s)) => dst.push(s[i]),
            (Column::Str(dst), Column::Str(s)) => dst.push(s.get(i)),
            (Column::Str(dst), Column::Dict(s)) => dst.push(s.str_at(i)),
            (Column::Dict(dst), Column::Dict(s)) if same_domain(dst, s) => {
                dst.codes_mut().push(s.codes()[i])
            }
            (dst, s) => {
                panic!("column mismatch: {} vs {}", dst.describe(), s.describe())
            }
        }
    }

    /// Append the rows `sel` of `src` (row indexes into the whole of
    /// `src`), in `sel`'s order. The gather kernel behind every selection
    /// vector's materialization.
    pub fn extend_selected(&mut self, src: &Column, sel: &[u32]) {
        if sel.is_empty() {
            return;
        }
        self.adopt(src);
        match (self, src) {
            (Column::I64(dst), Column::I64(s)) => dst.extend(sel.iter().map(|&i| s[i as usize])),
            (Column::I32(dst), Column::I32(s)) => dst.extend(sel.iter().map(|&i| s[i as usize])),
            (Column::F64(dst), Column::F64(s)) => dst.extend(sel.iter().map(|&i| s[i as usize])),
            (Column::Str(dst), Column::Str(s)) => dst.extend_selected(s, sel),
            (Column::Str(dst), Column::Dict(s)) => {
                dst.extend(sel.iter().map(|&i| s.str_at(i as usize)))
            }
            (Column::Dict(dst), Column::Dict(s)) if same_domain(dst, s) => {
                let codes = s.codes();
                dst.codes_mut()
                    .extend(sel.iter().map(|&i| codes[i as usize]))
            }
            (dst, s) => {
                panic!("column mismatch: {} vs {}", dst.describe(), s.describe())
            }
        }
    }

    /// Append the contiguous row range `[from, to)` of `src` (memcpy-style
    /// fast path used when a scan keeps every row of a morsel).
    pub fn extend_range(&mut self, src: &Column, from: usize, to: usize) {
        if from == to {
            return;
        }
        self.adopt(src);
        match (self, src) {
            (Column::I64(dst), Column::I64(s)) => dst.extend_from_slice(&s[from..to]),
            (Column::I32(dst), Column::I32(s)) => dst.extend_from_slice(&s[from..to]),
            (Column::F64(dst), Column::F64(s)) => dst.extend_from_slice(&s[from..to]),
            (Column::Str(dst), Column::Str(s)) => dst.extend_range(s, from, to),
            (Column::Str(dst), Column::Dict(s)) => dst.extend((from..to).map(|i| s.str_at(i))),
            (Column::Dict(dst), Column::Dict(s)) if same_domain(dst, s) => {
                dst.codes_mut().extend_from_slice(&s.codes()[from..to])
            }
            (dst, s) => {
                panic!("column mismatch: {} vs {}", dst.describe(), s.describe())
            }
        }
    }

    /// Append all rows of `src`.
    pub fn extend_from(&mut self, src: &Column) {
        self.extend_range(src, 0, src.len());
    }

    /// Append all rows of `src`, taking them: an empty column takes
    /// `src`'s buffers instead of copying them.
    pub fn append(&mut self, mut src: Column) {
        match (&mut *self, &mut src) {
            (Column::I64(dst), Column::I64(s)) => dst.append(s),
            (Column::I32(dst), Column::I32(s)) => dst.append(s),
            (Column::F64(dst), Column::F64(s)) => dst.append(s),
            (Column::Str(dst), Column::Str(s)) => dst.append(std::mem::take(s)),
            // Codes are cheap to copy, and an empty plain column adopting a
            // dictionary is the copying path's.
            _ => self.extend_from(&src),
        }
    }

    /// Bytes of rows `[from, to)` as the cost model charges them to the
    /// NUMA traffic counters, in O(1). A plain string is charged its byte
    /// length plus `STR_OFFSET_CHARGE` (8), the model's per-value constant
    /// (the physical offset is 4 bytes; the charge predates it and every
    /// booked figure is calibrated to it); dictionary columns move 4-byte
    /// codes (the whole point of the encoding).
    pub fn byte_size(&self, from: usize, to: usize) -> u64 {
        let rows = (to - from) as u64;
        match self {
            Column::I64(_) | Column::F64(_) => 8 * rows,
            Column::I32(_) | Column::Dict(_) => 4 * rows,
            Column::Str(v) => v.byte_len(from, to) as u64 + STR_OFFSET_CHARGE * rows,
        }
    }

    /// Total approximate bytes of the whole column.
    pub fn total_bytes(&self) -> u64 {
        self.byte_size(0, self.len())
    }

    /// Approximate bytes of the selected rows (same accounting rules as
    /// [`Column::byte_size`]).
    pub fn selected_bytes(&self, sel: &[u32]) -> u64 {
        match self {
            Column::I64(_) | Column::F64(_) => 8 * sel.len() as u64,
            Column::I32(_) | Column::Dict(_) => 4 * sel.len() as u64,
            Column::Str(v) => sel
                .iter()
                .map(|&i| v.value_len(i as usize) as u64 + STR_OFFSET_CHARGE)
                .sum(),
        }
    }
}

/// Whether codes of `src` mean in `dst` what they mean in `src`: both
/// are coded in one dictionary, a pointer comparison. A dictionary is an
/// encoding ([`Encoding`]): two holding the same values are two domains,
/// and every append the engine makes stays within one.
fn same_domain(dst: &DictColumn, src: &DictColumn) -> bool {
    dst.same_dict(src)
}

/// Bytes the cost model charges per plain string value on top of its
/// length ([`Column::byte_size`]).
const STR_OFFSET_CHARGE: u64 = 8;

/// Build a dictionary over plain string columns and encode them, if the
/// domain passes [`crate::dict::worth_encoding`]. `fragments` are the
/// per-partition columns of one logical column; they share the returned
/// dictionary. Returns `None` when the domain is too large (or the
/// fragments are not plain strings).
pub fn encode_fragments(fragments: &[&Column]) -> Option<(Arc<Dictionary>, Vec<Column>)> {
    let mut unique: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for f in fragments {
        let Column::Str(v) = f else {
            return None;
        };
        for s in v.iter() {
            unique.insert(s);
            if !crate::dict::worth_encoding(unique.len()) {
                return None;
            }
        }
    }
    let dict = Dictionary::from_values(unique);
    let encoded = fragments
        .iter()
        .map(|f| {
            Column::Dict(
                DictColumn::encode(&dict, f.as_str().iter())
                    .expect("dictionary was built over these values"),
            )
        })
        .collect();
    Some((dict, encoded))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip() {
        let mut c = Column::empty(DataType::I64);
        c.push(Value::I64(1));
        c.push(Value::I64(2));
        assert_eq!(c.as_i64(), &[1, 2]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.value(1), Value::I64(2));
        assert_eq!(c.value_ref(1), ValueRef::I64(2));
    }

    #[test]
    fn extend_selected_filters() {
        let src = Column::I64(vec![10, 20, 30, 40]);
        let mut dst = Column::empty(DataType::I64);
        dst.extend_selected(&src, &[0, 2]);
        assert_eq!(dst.as_i64(), &[10, 30]);
    }

    #[test]
    fn extend_range_copies_contiguous_rows() {
        let src = Column::I64(vec![10, 20, 30, 40]);
        let mut dst = Column::empty(DataType::I64);
        dst.extend_range(&src, 1, 3);
        assert_eq!(dst.as_i64(), &[20, 30]);
        dst.extend_range(&src, 0, 0);
        assert_eq!(dst.len(), 2);
    }

    #[test]
    fn extend_from_appends_all() {
        let src = Column::Str(["a", "b"].into_iter().collect());
        let mut dst = Column::empty(DataType::Str);
        dst.extend_from(&src);
        dst.extend_from(&src);
        assert_eq!(dst.len(), 4);
    }

    #[test]
    fn push_from_copies_row() {
        let src = Column::F64(vec![1.5, 2.5]);
        let mut dst = Column::empty(DataType::F64);
        dst.push_from(&src, 1);
        assert_eq!(dst.as_f64(), &[2.5]);
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Column::I64(vec![0; 10]).byte_size(2, 5), 24);
        assert_eq!(Column::I32(vec![0; 10]).byte_size(0, 10), 40);
        let s = Column::Str(["ab", "c"].into_iter().collect());
        assert_eq!(s.total_bytes(), (2 + 8) + (1 + 8));
    }

    #[test]
    fn selected_byte_sizes() {
        assert_eq!(Column::I64(vec![0; 10]).selected_bytes(&[1, 5, 9]), 24);
        assert_eq!(Column::I32(vec![0; 10]).selected_bytes(&[0]), 4);
        let s = Column::Str(["ab", "c"].into_iter().collect());
        assert_eq!(s.selected_bytes(&[1]), 1 + 8);
        assert_eq!(s.selected_bytes(&[0, 1]), s.total_bytes());
    }

    #[test]
    #[should_panic(expected = "expected I64")]
    fn type_mismatch_panics() {
        Column::F64(vec![]).as_i64();
    }

    #[test]
    fn with_capacity_type() {
        let c = Column::with_capacity(DataType::Str, 8);
        assert_eq!(c.data_type(), DataType::Str);
        assert!(c.is_empty());
    }

    // ---- dictionary representation ------------------------------------

    fn dict_col(values: &[&str]) -> Column {
        let dict = Dictionary::from_values(values.iter().copied());
        let owned: Vec<String> = values.iter().map(|s| (*s).to_owned()).collect();
        Column::Dict(DictColumn::encode(&dict, &owned).unwrap())
    }

    #[test]
    fn dict_reports_str_type_and_codes_bytes() {
        let c = dict_col(&["x", "y", "x", "x"]);
        assert_eq!(c.data_type(), DataType::Str);
        assert_eq!(c.len(), 4);
        assert_eq!(c.byte_size(0, 4), 16); // 4 bytes per code
        assert_eq!(c.selected_bytes(&[0, 3]), 8);
        assert_eq!(c.str_at(1), "y");
        assert_eq!(c.value(0), Value::Str("x".into()));
        assert_eq!(c.value_ref(1), ValueRef::Str("y"));
    }

    #[test]
    fn empty_plain_column_adopts_dictionary() {
        let src = dict_col(&["b", "a", "b"]);
        let mut dst = Column::empty(DataType::Str);
        dst.extend_selected(&src, &[0, 2]);
        assert!(dst.as_dict().is_some());
        assert!(dst.as_dict().unwrap().same_dict(src.as_dict().unwrap()));
        assert_eq!(dst.str_at(0), "b");
        dst.extend_range(&src, 1, 2);
        dst.push_from(&src, 0);
        assert_eq!(
            dst.decoded().as_str().iter().collect::<Vec<_>>(),
            ["b", "b", "a", "b"]
        );
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn dictionaries_of_equal_values_do_not_append() {
        dict_col(&["a", "b"]).extend_from(&dict_col(&["b", "a"]));
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn codes_of_another_dictionary_do_not_append() {
        dict_col(&["a", "b"]).extend_from(&dict_col(&["c", "d"]));
    }

    #[test]
    fn nonempty_plain_column_decodes_dict_appends() {
        let src = dict_col(&["b", "a"]);
        let mut dst = Column::Str(["z"].into_iter().collect());
        dst.extend_from(&src);
        assert_eq!(dst.as_str().iter().collect::<Vec<_>>(), ["z", "b", "a"]);
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn plain_strings_do_not_append_to_codes() {
        dict_col(&["a"]).extend_from(&Column::Str(["a"].into_iter().collect()));
    }

    #[test]
    fn push_value_into_dict_column() {
        let mut c = dict_col(&["a", "b"]);
        c.push(Value::Str("a".into()));
        assert_eq!(c.as_dict().unwrap().codes(), &[0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "not in the column's dictionary")]
    fn a_value_outside_the_dictionary_does_not_push() {
        dict_col(&["a", "b"]).push(Value::Str("zz".into()));
    }

    #[test]
    fn encodings_compare_by_dictionary() {
        let (a, b) = (dict_col(&["a"]), dict_col(&["a"]));
        assert_eq!(Encoding::of(&a), Encoding::of(&a.clone()));
        assert_ne!(Encoding::of(&a), Encoding::of(&b));
        assert_eq!(Encoding::of(&Column::I64(vec![])), Encoding::Plain);
        let empty = Column::empty_as(DataType::Str, &Encoding::of(&a));
        assert!(empty.as_dict().unwrap().same_dict(a.as_dict().unwrap()));
    }

    #[test]
    fn with_capacity_like_preserves_encoding() {
        let src = dict_col(&["a", "b"]);
        let c = Column::with_capacity_like(&src, 8);
        assert!(c.as_dict().unwrap().same_dict(src.as_dict().unwrap()));
        let plain = Column::with_capacity_like(&Column::I64(vec![1]), 2);
        assert_eq!(plain.data_type(), DataType::I64);
    }

    #[test]
    fn encode_fragments_shares_one_dictionary() {
        let a = Column::Str(["x", "y", "x", "x"].into_iter().collect());
        let b = Column::Str(["y", "y", "x", "y"].into_iter().collect());
        let (dict, encoded) = encode_fragments(&[&a, &b]).unwrap();
        assert_eq!(dict.len(), 2);
        let da = encoded[0].as_dict().unwrap();
        let db = encoded[1].as_dict().unwrap();
        assert!(da.same_dict(db));
        assert_eq!(encoded[0].decoded(), a);
        assert_eq!(encoded[1].decoded(), b);
        // The domain's size decides, not repetition: ten values unique per
        // row encode, a domain past the bound stays plain.
        let uniq = Column::Str((0..10).map(|i| format!("u{i}")).collect());
        assert_eq!(encode_fragments(&[&uniq]).unwrap().0.len(), 10);
        let wide = crate::dict::DICT_MAX_UNIQUE + 1;
        let half = |r: std::ops::Range<usize>| Column::Str(r.map(|i| format!("w{i}")).collect());
        let (lo, hi) = (half(0..wide / 2), half(wide / 2..wide));
        assert!(encode_fragments(&[&lo, &hi]).is_none());
    }

    #[test]
    fn dict_columns_compare_by_content() {
        let a = dict_col(&["a", "b", "a"]);
        let b = dict_col(&["a", "b", "a"]);
        assert_eq!(a, b); // same content, dictionaries built separately
        assert_ne!(a, dict_col(&["a", "b", "b"]));
    }
}
