//! Sorted string dictionaries.
//!
//! Low-cardinality string columns are stored as a per-relation
//! [`Dictionary`] (the sorted, deduplicated value domain, shared via `Arc`
//! by every partition) plus a `Vec<u32>` of codes per partition. Because
//! the dictionary is **sorted**, code order equals string order, so
//! comparisons, sorts, and range/prefix predicates all run on integer
//! codes; and because every value's hash is precomputed here, key hashing
//! of a dictionary column is a table lookup that stays consistent with
//! hashing the raw string (two columns with *different* dictionaries still
//! hash and join correctly).
//!
//! Strings decode only at the result sink (late materialization); the
//! whole scan→filter→project→group→sort hot path moves 4-byte codes.

use std::sync::Arc;

use crate::hash::hash_bytes;

/// A sorted, deduplicated string domain with precomputed value hashes.
#[derive(Debug)]
pub struct Dictionary {
    values: Vec<String>,
    hashes: Vec<u64>,
}

impl Dictionary {
    /// Build a dictionary from an already sorted, deduplicated value list.
    ///
    /// # Panics
    /// Panics (debug only) if `values` is not strictly increasing.
    pub fn from_sorted(values: Vec<String>) -> Arc<Self> {
        debug_assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "dictionary values must be sorted and unique"
        );
        let hashes = values.iter().map(|v| hash_bytes(v.as_bytes())).collect();
        Arc::new(Dictionary { values, hashes })
    }

    /// Build a dictionary from arbitrary values (sorts and deduplicates).
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a str>) -> Arc<Self> {
        let mut v: Vec<String> = values.into_iter().map(str::to_owned).collect();
        v.sort_unstable();
        v.dedup();
        Self::from_sorted(v)
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The string for a code.
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// All values in code (= sort) order.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Precomputed hash of a code's string — identical to
    /// `hash_bytes(self.get(code).as_bytes())`.
    #[inline]
    pub fn hash_of(&self, code: u32) -> u64 {
        self.hashes[code as usize]
    }

    /// Code of an exact value, if present (binary search).
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.values
            .binary_search_by(|v| v.as_str().cmp(s))
            .ok()
            .map(|i| i as u32)
    }

    /// Number of dictionary values strictly less than `s`. Since codes are
    /// sort-ordered, `value < s  ⟺  code < lower_bound(s)`.
    pub fn lower_bound(&self, s: &str) -> u32 {
        self.values.partition_point(|v| v.as_str() < s) as u32
    }

    /// Number of dictionary values less than or equal to `s`:
    /// `value <= s  ⟺  code < upper_bound(s)`.
    pub fn upper_bound(&self, s: &str) -> u32 {
        self.values.partition_point(|v| v.as_str() <= s) as u32
    }

    /// Half-open code range `[lo, hi)` of values starting with `prefix`
    /// (prefix-sharing values are contiguous in sort order).
    pub fn prefix_range(&self, prefix: &str) -> (u32, u32) {
        let lo = self.lower_bound(prefix);
        let hi =
            lo as usize + self.values[lo as usize..].partition_point(|v| v.starts_with(prefix));
        (lo, hi as u32)
    }
}

impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other) || self.values == other.values
    }
}

/// One partition's worth of a dictionary-encoded string column.
#[derive(Debug, Clone)]
pub struct DictColumn {
    dict: Arc<Dictionary>,
    codes: Vec<u32>,
}

impl DictColumn {
    pub fn new(dict: Arc<Dictionary>, codes: Vec<u32>) -> Self {
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()));
        DictColumn { dict, codes }
    }

    /// An empty column sharing `dict`.
    pub fn empty(dict: Arc<Dictionary>) -> Self {
        DictColumn {
            dict,
            codes: Vec::new(),
        }
    }

    pub fn with_capacity(dict: Arc<Dictionary>, cap: usize) -> Self {
        DictColumn {
            dict,
            codes: Vec::with_capacity(cap),
        }
    }

    /// Encode plain strings against an existing dictionary. Returns `None`
    /// if any value is missing from the dictionary.
    pub fn encode(dict: &Arc<Dictionary>, values: &[String]) -> Option<Self> {
        let codes = values
            .iter()
            .map(|s| dict.code_of(s))
            .collect::<Option<Vec<u32>>>()?;
        Some(DictColumn {
            dict: Arc::clone(dict),
            codes,
        })
    }

    pub fn dict(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    pub fn codes_mut(&mut self) -> &mut Vec<u32> {
        &mut self.codes
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Borrowed string at row `i` (no allocation).
    #[inline]
    pub fn str_at(&self, i: usize) -> &str {
        self.dict.get(self.codes[i])
    }

    /// Same `Arc` behind both columns (codes directly comparable).
    pub fn same_dict(&self, other: &DictColumn) -> bool {
        Arc::ptr_eq(&self.dict, &other.dict)
    }

    /// Decode every row to an owned string vector (the late-materialization
    /// point).
    pub fn decode(&self) -> Vec<String> {
        self.codes
            .iter()
            .map(|&c| self.dict.get(c).to_owned())
            .collect()
    }
}

impl PartialEq for DictColumn {
    fn eq(&self, other: &Self) -> bool {
        if self.same_dict(other) {
            return self.codes == other.codes;
        }
        self.codes.len() == other.codes.len()
            && (0..self.codes.len()).all(|i| self.str_at(i) == other.str_at(i))
    }
}

/// The largest relation-wide string domain that is dictionary-encoded.
pub const DICT_MAX_UNIQUE: usize = 1024;

/// Whether a string column whose relation-wide domain has `unique`
/// distinct values is dictionary-encoded: by the domain's size alone,
/// whether or not values repeat. A 25-row `nation.n_name` is 25 values, and
/// its 4-byte codes are what probe payloads and group keys carry into the
/// fact pipelines it joins; the bound keeps the per-value work (a `LIKE`
/// or `IN` resolved once per dictionary value) small.
pub fn worth_encoding(unique: usize) -> bool {
    unique <= DICT_MAX_UNIQUE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> Arc<Dictionary> {
        Dictionary::from_values(["cherry", "apple", "banana", "apple", "fig"])
    }

    #[test]
    fn sorted_and_deduplicated() {
        let d = dict();
        assert_eq!(d.len(), 4);
        assert_eq!(d.values(), &["apple", "banana", "cherry", "fig"]);
        assert_eq!(d.get(2), "cherry");
        assert!(!d.is_empty());
    }

    #[test]
    fn code_lookup_and_bounds() {
        let d = dict();
        assert_eq!(d.code_of("banana"), Some(1));
        assert_eq!(d.code_of("durian"), None);
        // value < "banana" ⟺ code < 1
        assert_eq!(d.lower_bound("banana"), 1);
        assert_eq!(d.upper_bound("banana"), 2);
        // A probe between values lands between codes.
        assert_eq!(d.lower_bound("ba"), 1);
        assert_eq!(d.upper_bound("ba"), 1);
        assert_eq!(d.lower_bound(""), 0);
        assert_eq!(d.upper_bound("zzz"), 4);
    }

    #[test]
    fn prefix_ranges() {
        let d = Dictionary::from_values(["ab", "abc", "abd", "ac", "b"]);
        assert_eq!(d.prefix_range("ab"), (0, 3));
        assert_eq!(d.prefix_range("a"), (0, 4));
        assert_eq!(d.prefix_range("b"), (4, 5));
        assert_eq!(d.prefix_range("zz"), (5, 5));
        assert_eq!(d.prefix_range(""), (0, 5));
    }

    #[test]
    fn hashes_match_raw_string_hashes() {
        // Lengths 0–40: every tail length of the word-at-a-time hash.
        let long: String = ('a'..='z').cycle().take(40).collect();
        let d = Dictionary::from_values((0..=40).map(|n| &long[..n]));
        assert_eq!(d.len(), 41);
        for d in [dict(), d] {
            for code in 0..d.len() as u32 {
                assert_eq!(d.hash_of(code), hash_bytes(d.get(code).as_bytes()));
            }
        }
    }

    #[test]
    fn dict_column_roundtrip() {
        let d = dict();
        let col = DictColumn::encode(
            &d,
            &["fig".to_owned(), "apple".to_owned(), "fig".to_owned()],
        )
        .unwrap();
        assert_eq!(col.codes(), &[3, 0, 3]);
        assert_eq!(col.str_at(1), "apple");
        assert_eq!(col.decode(), vec!["fig", "apple", "fig"]);
        assert!(DictColumn::encode(&d, &["durian".to_owned()]).is_none());
    }

    #[test]
    fn cross_dictionary_equality_compares_strings() {
        let a = DictColumn::encode(&dict(), &["apple".to_owned(), "fig".to_owned()]).unwrap();
        let d2 = Dictionary::from_values(["apple", "fig", "zzz"]);
        let b = DictColumn::encode(&d2, &["apple".to_owned(), "fig".to_owned()]).unwrap();
        assert!(!a.same_dict(&b));
        assert_eq!(a, b);
        let c = DictColumn::encode(&d2, &["apple".to_owned(), "zzz".to_owned()]).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn encoding_heuristic() {
        assert!(worth_encoding(7));
        assert!(worth_encoding(25)); // nation.n_name: unique per row
        assert!(worth_encoding(DICT_MAX_UNIQUE));
        assert!(!worth_encoding(DICT_MAX_UNIQUE + 1)); // domain too large
        assert!(!worth_encoding(5000));
    }
}
