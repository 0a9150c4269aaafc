//! Columnar storage.
//!
//! HyPer stores relations column-wise (Section 5: "we used the column
//! format in all experiments"). A [`Column`] is one attribute's values for
//! one partition; operators work on contiguous slices of it (one morsel at
//! a time).
//!
//! String attributes have two physical representations under the single
//! logical type [`DataType::Str`]: plain `Vec<String>` and
//! dictionary-encoded [`DictColumn`] (sorted shared domain + `u32` codes,
//! see [`crate::dict`]). Appending dictionary data into an empty plain
//! column *adopts* the source dictionary, so pipeline intermediates stay
//! code-typed end-to-end; a cross-dictionary append falls back to decoded
//! strings (correct, never hit on the single-relation hot paths).

use std::sync::Arc;

use crate::dict::{DictColumn, Dictionary};
use crate::value::{DataType, Value, ValueRef};

/// A single column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    I64(Vec<i64>),
    I32(Vec<i32>),
    F64(Vec<f64>),
    Str(Vec<String>),
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
            DataType::Str => Column::Str(Vec::new()),
        }
    }

    /// Create an empty column with reserved capacity.
    pub fn with_capacity(dt: DataType, cap: usize) -> Self {
        match dt {
            DataType::I64 => Column::I64(Vec::with_capacity(cap)),
            DataType::I32 => Column::I32(Vec::with_capacity(cap)),
            DataType::F64 => Column::F64(Vec::with_capacity(cap)),
            DataType::Str => Column::Str(Vec::with_capacity(cap)),
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

    /// Plain string slice. Panics on a dictionary column — use
    /// [`Column::str_at`] or [`Column::decoded`] for representation-
    /// agnostic access.
    pub fn as_str(&self) -> &[String] {
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
            Column::Str(v) => &v[i],
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
            Column::Str(v) => ValueRef::Str(&v[i]),
            Column::Dict(d) => ValueRef::Str(d.str_at(i)),
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

    /// Decode a dictionary column in place (fallback for cross-dictionary
    /// appends; no-op otherwise).
    fn decode_in_place(&mut self) {
        if let Column::Dict(d) = self {
            *self = Column::Str(d.decode());
        }
    }

    /// Align this column's string representation so that appending from
    /// `src` is a same-representation copy: an *empty* plain column adopts
    /// `src`'s dictionary; a dictionary column facing a foreign dictionary
    /// (or plain strings) decodes itself.
    fn unify_for_append(&mut self, src: &Column) {
        match (&mut *self, src) {
            (Column::Str(v), Column::Dict(s)) if v.is_empty() => {
                *self = Column::Dict(DictColumn::empty(Arc::clone(s.dict())));
            }
            (Column::Dict(d), Column::Dict(s)) if !d.same_dict(s) => self.decode_in_place(),
            (Column::Dict(_), Column::Str(_)) => self.decode_in_place(),
            _ => {}
        }
    }

    /// Append a dynamic value (edge use only; slow path).
    pub fn push(&mut self, v: Value) {
        if let (Column::Dict(d), Value::Str(s)) = (&mut *self, &v) {
            match d.dict().code_of(s) {
                Some(code) => {
                    d.codes_mut().push(code);
                    return;
                }
                None => self.decode_in_place(),
            }
        }
        match (self, v) {
            (Column::I64(c), Value::I64(x)) => c.push(x),
            (Column::I32(c), Value::I32(x)) => c.push(x),
            (Column::F64(c), Value::F64(x)) => c.push(x),
            (Column::Str(c), Value::Str(x)) => c.push(x),
            (c, v) => panic!(
                "cannot push {:?} into {:?} column",
                v.data_type(),
                c.data_type()
            ),
        }
    }

    /// Append row `i` of `src` to this column.
    pub fn push_from(&mut self, src: &Column, i: usize) {
        self.unify_for_append(src);
        match (self, src) {
            (Column::I64(dst), Column::I64(s)) => dst.push(s[i]),
            (Column::I32(dst), Column::I32(s)) => dst.push(s[i]),
            (Column::F64(dst), Column::F64(s)) => dst.push(s[i]),
            (Column::Str(dst), Column::Str(s)) => dst.push(s[i].clone()),
            (Column::Str(dst), Column::Dict(s)) => dst.push(s.str_at(i).to_owned()),
            (Column::Dict(dst), Column::Dict(s)) => dst.codes_mut().push(s.codes()[i]),
            (dst, s) => {
                panic!(
                    "column type mismatch: {:?} vs {:?}",
                    dst.data_type(),
                    s.data_type()
                )
            }
        }
    }

    /// Append the row range `rows` of `src`, filtered by `sel` (row indexes
    /// relative to the whole column of `src`).
    pub fn extend_selected(&mut self, src: &Column, sel: &[u32]) {
        self.unify_for_append(src);
        match (self, src) {
            (Column::I64(dst), Column::I64(s)) => dst.extend(sel.iter().map(|&i| s[i as usize])),
            (Column::I32(dst), Column::I32(s)) => dst.extend(sel.iter().map(|&i| s[i as usize])),
            (Column::F64(dst), Column::F64(s)) => dst.extend(sel.iter().map(|&i| s[i as usize])),
            (Column::Str(dst), Column::Str(s)) => {
                dst.extend(sel.iter().map(|&i| s[i as usize].clone()))
            }
            (Column::Str(dst), Column::Dict(s)) => {
                dst.extend(sel.iter().map(|&i| s.str_at(i as usize).to_owned()))
            }
            (Column::Dict(dst), Column::Dict(s)) => {
                let codes = s.codes();
                dst.codes_mut()
                    .extend(sel.iter().map(|&i| codes[i as usize]))
            }
            (dst, s) => {
                panic!(
                    "column type mismatch: {:?} vs {:?}",
                    dst.data_type(),
                    s.data_type()
                )
            }
        }
    }

    /// Append the contiguous row range `[from, to)` of `src` (memcpy-style
    /// fast path used when a scan keeps every row of a morsel).
    pub fn extend_range(&mut self, src: &Column, from: usize, to: usize) {
        self.unify_for_append(src);
        match (self, src) {
            (Column::I64(dst), Column::I64(s)) => dst.extend_from_slice(&s[from..to]),
            (Column::I32(dst), Column::I32(s)) => dst.extend_from_slice(&s[from..to]),
            (Column::F64(dst), Column::F64(s)) => dst.extend_from_slice(&s[from..to]),
            (Column::Str(dst), Column::Str(s)) => dst.extend_from_slice(&s[from..to]),
            (Column::Str(dst), Column::Dict(s)) => {
                dst.extend((from..to).map(|i| s.str_at(i).to_owned()))
            }
            (Column::Dict(dst), Column::Dict(s)) => {
                dst.codes_mut().extend_from_slice(&s.codes()[from..to])
            }
            (dst, s) => {
                panic!(
                    "column type mismatch: {:?} vs {:?}",
                    dst.data_type(),
                    s.data_type()
                )
            }
        }
    }

    /// Append all rows of `src`.
    pub fn extend_from(&mut self, src: &Column) {
        self.extend_range(src, 0, src.len());
    }

    /// Append all rows of `src`, taking them: plain strings move instead
    /// of being cloned.
    pub fn append(&mut self, mut src: Column) {
        match (&mut *self, &mut src) {
            (Column::I64(dst), Column::I64(s)) => dst.append(s),
            (Column::I32(dst), Column::I32(s)) => dst.append(s),
            (Column::F64(dst), Column::F64(s)) => dst.append(s),
            (Column::Str(dst), Column::Str(s)) => dst.append(s),
            // Codes are cheap to copy, and mixed string representations
            // need the unification the copying path does.
            _ => self.extend_from(&src),
        }
    }

    /// Approximate in-memory bytes of rows `[from, to)`, used to charge the
    /// NUMA traffic counters. Plain strings count their byte length plus
    /// the 8-byte offset a real column store would keep; dictionary
    /// columns move 4-byte codes (the whole point of the encoding).
    pub fn byte_size(&self, from: usize, to: usize) -> u64 {
        match self {
            Column::I64(_) | Column::F64(_) => 8 * (to - from) as u64,
            Column::I32(_) | Column::Dict(_) => 4 * (to - from) as u64,
            Column::Str(v) => v[from..to].iter().map(|s| s.len() as u64 + 8).sum(),
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
            Column::Str(v) => sel.iter().map(|&i| v[i as usize].len() as u64 + 8).sum(),
        }
    }
}

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
        for s in v {
            unique.insert(s.as_str());
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
                DictColumn::encode(&dict, f.as_str())
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
        let src = Column::Str(vec!["a".into(), "b".into()]);
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
        let s = Column::Str(vec!["ab".into(), "c".into()]);
        assert_eq!(s.total_bytes(), (2 + 8) + (1 + 8));
    }

    #[test]
    fn selected_byte_sizes() {
        assert_eq!(Column::I64(vec![0; 10]).selected_bytes(&[1, 5, 9]), 24);
        assert_eq!(Column::I32(vec![0; 10]).selected_bytes(&[0]), 4);
        let s = Column::Str(vec!["ab".into(), "c".into()]);
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
        assert_eq!(dst.decoded().as_str(), &["b", "b", "a", "b"]);
    }

    #[test]
    fn nonempty_plain_column_decodes_dict_appends() {
        let src = dict_col(&["b", "a"]);
        let mut dst = Column::Str(vec!["z".into()]);
        dst.extend_from(&src);
        assert_eq!(dst.as_str(), &["z", "b", "a"]);
    }

    #[test]
    fn cross_dictionary_append_falls_back_to_strings() {
        let mut dst = dict_col(&["a", "b"]);
        let other = dict_col(&["c", "d"]);
        dst.extend_from(&other);
        // Different domains: dst decoded itself.
        assert!(dst.as_dict().is_none());
        assert_eq!(dst.as_str(), &["a", "b", "c", "d"]);
    }

    #[test]
    fn push_value_into_dict_column() {
        let mut c = dict_col(&["a", "b"]);
        c.push(Value::Str("a".into()));
        assert!(c.as_dict().is_some());
        assert_eq!(c.len(), 3);
        // Out-of-domain pushes decode.
        c.push(Value::Str("zz".into()));
        assert!(c.as_dict().is_none());
        assert_eq!(c.str_at(3), "zz");
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
        let a = Column::Str(vec!["x".into(), "y".into(), "x".into(), "x".into()]);
        let b = Column::Str(vec!["y".into(), "y".into(), "x".into(), "y".into()]);
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
