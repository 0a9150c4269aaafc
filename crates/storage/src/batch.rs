//! Row batches: equal-length column sets.

use crate::column::{Column, Encoding};
use crate::value::{DataType, Value};

/// A set of equal-length columns — the unit of materialized data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    columns: Vec<Column>,
    rows: usize,
}

impl Batch {
    /// An empty batch with columns of the given types.
    pub fn empty(types: &[DataType]) -> Self {
        Batch {
            columns: types.iter().map(|&t| Column::empty(t)).collect(),
            rows: 0,
        }
    }

    /// An empty batch with columns of the given types, each stored in its
    /// encoding (one per type).
    pub fn empty_as(types: &[DataType], encodings: &[Encoding]) -> Self {
        assert_eq!(types.len(), encodings.len(), "one encoding per column");
        Batch {
            columns: (types.iter().zip(encodings))
                .map(|(&t, e)| Column::empty_as(t, e))
                .collect(),
            rows: 0,
        }
    }

    /// Build a batch from columns.
    ///
    /// # Panics
    /// Panics if column lengths differ.
    pub fn from_columns(columns: Vec<Column>) -> Self {
        let rows = columns.first().map_or(0, Column::len);
        for c in &columns {
            assert_eq!(c.len(), rows, "batch columns must have equal lengths");
        }
        Batch { columns, rows }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn width(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Take the batch apart into its columns (no copy).
    pub fn into_columns(self) -> Vec<Column> {
        self.columns
    }

    /// One full row as dynamic values (edge use: tests, result printing).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Append a row of dynamic values (edge use).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push(v);
        }
        self.rows += 1;
    }

    /// Append the selected rows of `src` (same schema).
    pub fn extend_selected(&mut self, src: &Batch, sel: &[u32]) {
        assert_eq!(self.width(), src.width(), "batch arity mismatch");
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.extend_selected(s, sel);
        }
        self.rows += sel.len();
    }

    /// Append all rows of `src` (same schema).
    pub fn extend_from(&mut self, src: &Batch) {
        assert_eq!(self.width(), src.width(), "batch arity mismatch");
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.extend_from(s);
        }
        self.rows += src.rows;
    }

    /// Append all rows of `src` (same schema), taking them.
    pub fn append(&mut self, src: Batch) {
        assert_eq!(self.width(), src.width(), "batch arity mismatch");
        self.rows += src.rows;
        for (dst, s) in self.columns.iter_mut().zip(src.columns) {
            dst.append(s);
        }
    }

    /// Append row `i` of `src` (same schema).
    pub fn push_from(&mut self, src: &Batch, i: usize) {
        assert_eq!(self.width(), src.width(), "batch arity mismatch");
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.push_from(s, i);
        }
        self.rows += 1;
    }

    /// Approximate bytes of rows `[from, to)` across all columns.
    pub fn byte_size(&self, from: usize, to: usize) -> u64 {
        self.columns.iter().map(|c| c.byte_size(from, to)).sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.byte_size(0, self.rows)
    }

    /// Approximate bytes of the selected rows across all columns.
    pub fn selected_bytes(&self, sel: &[u32]) -> u64 {
        self.columns.iter().map(|c| c.selected_bytes(sel)).sum()
    }

    /// Sort all rows by the given key extraction on row indices and return
    /// a reordered copy. Used by tests and the result comparator.
    pub fn reordered(&self, perm: &[u32]) -> Batch {
        let mut out = Batch::empty(
            &self
                .columns
                .iter()
                .map(Column::data_type)
                .collect::<Vec<_>>(),
        );
        out.extend_selected(self, perm);
        out
    }

    /// Compact copy of the selected rows (capacity-exact gather; the
    /// pipeline's selection-vector materialization point). Dictionary
    /// columns gather codes and keep their encoding.
    pub fn gather(&self, sel: &[u32]) -> Batch {
        let cols: Vec<Column> = self
            .columns
            .iter()
            .map(|c| {
                let mut out = Column::with_capacity_like(c, sel.len());
                out.extend_selected(c, sel);
                out
            })
            .collect();
        Batch {
            columns: cols,
            rows: sel.len(),
        }
    }

    /// Copy with every dictionary column decoded to plain strings — the
    /// late-materialization point for query results.
    pub fn decoded(&self) -> Batch {
        Batch {
            columns: self.columns.iter().map(Column::decoded).collect(),
            rows: self.rows,
        }
    }

    /// Replace column `i` (same length required; used by load-time
    /// dictionary encoding).
    pub fn replace_column(&mut self, i: usize, col: Column) {
        assert_eq!(col.len(), self.rows, "replacement column length mismatch");
        self.columns[i] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Batch {
        Batch::from_columns(vec![
            Column::I64(vec![3, 1, 2]),
            Column::Str(["c", "a", "b"].into_iter().collect()),
        ])
    }

    #[test]
    fn construction_and_access() {
        let b = sample();
        assert_eq!(b.rows(), 3);
        assert_eq!(b.width(), 2);
        assert_eq!(b.row(1), vec![Value::I64(1), Value::Str("a".into())]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn unequal_columns_rejected() {
        Batch::from_columns(vec![Column::I64(vec![1]), Column::I64(vec![1, 2])]);
    }

    #[test]
    fn push_and_extend() {
        let mut b = Batch::empty(&[DataType::I64, DataType::Str]);
        b.push_row(vec![Value::I64(9), Value::Str("x".into())]);
        b.extend_from(&sample());
        assert_eq!(b.rows(), 4);
        b.extend_selected(&sample(), &[2]);
        assert_eq!(b.rows(), 5);
        assert_eq!(b.column(0).as_i64(), &[9, 3, 1, 2, 2]);
        // `append` takes the rows; an empty plain column still adopts a
        // dictionary column's encoding, as the copying appends do.
        b.append(sample());
        assert_eq!(b.rows(), 8);
        assert_eq!(b.column(0).as_i64()[5..], [3, 1, 2]);
        let strs: Vec<&str> = b.column(1).as_str().iter().skip(4).collect();
        assert_eq!(strs, ["b", "c", "a", "b"]);
        let dict = crate::Dictionary::from_values(["p", "q"]);
        let coded = || Column::Dict(crate::DictColumn::new(dict.clone(), vec![1, 0]));
        let mut d = Batch::empty(&[DataType::Str]);
        d.append(Batch::from_columns(vec![coded()]));
        d.append(Batch::from_columns(vec![coded()]));
        assert_eq!(
            d.column(0).as_dict().expect("kept encoded").codes(),
            &[1, 0, 1, 0]
        );
    }

    #[test]
    fn push_from_row() {
        let mut b = Batch::empty(&[DataType::I64, DataType::Str]);
        b.push_from(&sample(), 0);
        assert_eq!(b.row(0), vec![Value::I64(3), Value::Str("c".into())]);
    }

    #[test]
    fn reorder() {
        let b = sample().reordered(&[1, 2, 0]);
        assert_eq!(b.column(0).as_i64(), &[1, 2, 3]);
    }

    #[test]
    fn gather_compacts_selection() {
        let b = sample().gather(&[2, 0]);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.column(0).as_i64(), &[2, 3]);
        assert_eq!(b.column(1).as_str().iter().collect::<Vec<_>>(), ["b", "c"]);
        assert_eq!(sample().gather(&[]).rows(), 0);
    }

    #[test]
    fn byte_accounting() {
        let b = sample();
        assert_eq!(b.byte_size(0, 1), 8 + (1 + 8));
        assert!(b.total_bytes() > 0);
    }
}
