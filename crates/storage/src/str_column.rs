//! Plain (un-encoded) string columns: every value's bytes in one buffer.
//!
//! A [`StrColumn`] keeps `len + 1` ascending `u32` offsets and one byte
//! buffer; value `i` is `bytes[offsets[i]..offsets[i + 1]]`. A column of
//! n strings is therefore two allocations, not n + 1, and the copying
//! kernels — [`StrColumn::extend_range`], [`StrColumn::extend_selected`],
//! [`StrColumn::append`] — are offset arithmetic plus byte copies; no value
//! is ever a heap object of its own. The byte buffer is a `String`, so the
//! UTF-8 invariant every borrowed `&str` relies on is held by its type.
//!
//! Offsets are 4 bytes: one fragment (a partition, a pipeline
//! intermediate) holds at most `u32::MAX` bytes of text. Crossing that
//! bound is an assertion failure, never a silent wrap.

use std::fmt;

/// One fragment of plain strings: offsets plus one byte buffer.
#[derive(Clone, PartialEq, Eq)]
pub struct StrColumn {
    /// `len + 1` entries, starting at 0; value `i` ends at `offsets[i + 1]`.
    offsets: Vec<u32>,
    bytes: String,
}

/// The end offset of `added` bytes appended behind `base`.
///
/// # Panics
/// Panics when the fragment would pass `u32::MAX` bytes.
fn end_offset(base: u32, added: usize) -> u32 {
    u32::try_from(added)
        .ok()
        .and_then(|n| base.checked_add(n))
        .unwrap_or_else(|| {
            panic!("string column fragment exceeds u32::MAX bytes ({base} + {added})")
        })
}

impl StrColumn {
    pub fn new() -> Self {
        StrColumn::with_capacity(0, 0)
    }

    /// An empty column with room for `rows` values of `bytes` total bytes.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StrColumn {
            offsets,
            bytes: String::with_capacity(bytes),
        }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Borrowed value at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Byte length of value `i`.
    #[inline]
    pub fn value_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Total value bytes of rows `[from, to)`: one subtraction.
    #[inline]
    pub fn byte_len(&self, from: usize, to: usize) -> usize {
        (self.offsets[to] - self.offsets[from]) as usize
    }

    /// Every value, in row order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bounds: self.offsets.windows(2),
            bytes: &self.bytes,
        }
    }

    fn end(&self) -> u32 {
        *self.offsets.last().expect("offsets start with 0")
    }

    /// Append one value.
    pub fn push(&mut self, s: &str) {
        let end = end_offset(self.end(), s.len());
        self.bytes.push_str(s);
        self.offsets.push(end);
    }

    /// Append one value that `write` produces by appending to the byte
    /// buffer (and only appending): text generators write straight into
    /// the column instead of allocating a `String` per row.
    pub fn push_with(&mut self, write: impl FnOnce(&mut String)) {
        let start = self.bytes.len();
        write(&mut self.bytes);
        assert!(self.bytes.len() >= start, "push_with may only append");
        let end = end_offset(self.end(), self.bytes.len() - start);
        self.offsets.push(end);
    }

    /// Append one formatted value: `col.push_fmt(format_args!(..))`.
    pub fn push_fmt(&mut self, args: fmt::Arguments<'_>) {
        self.push_with(|s| fmt::Write::write_fmt(s, args).expect("a String never fails a write"));
    }

    /// Append rows `[from, to)` of `src`: one byte copy and a shifted copy
    /// of their offsets.
    pub fn extend_range(&mut self, src: &StrColumn, from: usize, to: usize) {
        let (lo, hi) = (src.offsets[from], src.offsets[to]);
        let base = self.end();
        end_offset(base, (hi - lo) as usize);
        self.bytes.push_str(&src.bytes[lo as usize..hi as usize]);
        self.offsets
            .extend(src.offsets[from + 1..=to].iter().map(|&o| o - lo + base));
    }

    /// Append the rows `sel` of `src` (indexes into the whole of `src`),
    /// reserving their exact byte total first.
    pub fn extend_selected(&mut self, src: &StrColumn, sel: &[u32]) {
        let added: usize = sel.iter().map(|&i| src.value_len(i as usize)).sum();
        let mut end = self.end();
        end_offset(end, added);
        self.bytes.reserve(added);
        self.offsets.reserve(sel.len());
        for &i in sel {
            let (lo, hi) = (src.offsets[i as usize], src.offsets[i as usize + 1]);
            self.bytes.push_str(&src.bytes[lo as usize..hi as usize]);
            end += hi - lo;
            self.offsets.push(end);
        }
    }

    /// Append all rows of `src`, taking its buffers when this column is
    /// empty.
    pub fn append(&mut self, src: StrColumn) {
        if self.is_empty() {
            *self = src;
        } else {
            self.extend_range(&src, 0, src.len());
        }
    }
}

impl Default for StrColumn {
    fn default() -> Self {
        StrColumn::new()
    }
}

/// Iterator over a [`StrColumn`]'s values.
#[derive(Clone)]
pub struct Iter<'a> {
    bounds: std::slice::Windows<'a, u32>,
    bytes: &'a str,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let w = self.bounds.next()?;
        Some(&self.bytes[w[0] as usize..w[1] as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.bounds.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a StrColumn {
    type Item = &'a str;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for StrColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: AsRef<str>> Extend<S> for StrColumn {
    fn extend<I: IntoIterator<Item = S>>(&mut self, iter: I) {
        for s in iter {
            self.push(s.as_ref());
        }
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrColumn {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut c = StrColumn::new();
        c.extend(iter);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_delimit_values() {
        let mut c: StrColumn = ["ab", "", "漢字"].into_iter().collect();
        c.push_fmt(format_args!("n{}", 7));
        c.push_with(|s| s.push('é'));
        assert_eq!(c.len(), 5);
        assert_eq!(c.iter().collect::<Vec<_>>(), ["ab", "", "漢字", "n7", "é"]);
        assert_eq!((c.get(1), c.get(2)), ("", "漢字"));
        assert_eq!(
            (c.value_len(2), c.byte_len(0, 3), c.byte_len(1, 1)),
            (6, 8, 0)
        );
        assert_eq!(format!("{c:?}"), r#"["ab", "", "漢字", "n7", "é"]"#);
        assert!(StrColumn::new().is_empty());
    }

    #[test]
    fn end_offset_reaches_the_limit_exactly() {
        assert_eq!(end_offset(u32::MAX - 3, 3), u32::MAX);
        assert_eq!(end_offset(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX bytes")]
    fn end_offset_past_the_limit_panics() {
        end_offset(u32::MAX - 2, 3);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX bytes")]
    fn end_offset_of_an_oversized_value_panics() {
        end_offset(0, u32::MAX as usize + 1);
    }
}
