//! Plans for the DML statements (`INSERT`/`UPDATE`/`DELETE`).
//!
//! DML has no join order to enumerate — a bound statement names one
//! target table, an optional predicate, and its payload — so the
//! "plan" here is a carrier the service layer executes against a
//! transactional database, plus the two things a plan owes its
//! callers: a cardinality estimate (how many rows this statement will
//! touch, from the same [`Estimator`] the read-side planner uses) and
//! an `EXPLAIN` rendering.

use std::fmt;

use morsel_exec::expr::Expr;
use morsel_storage::{Relation, Value};

use crate::estimate::{ColEst, Estimator};

/// Which DML statement a [`DmlPlan`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmlKind {
    Insert,
    Update,
    Delete,
}

impl DmlKind {
    pub fn verb(self) -> &'static str {
        match self {
            DmlKind::Insert => "INSERT",
            DmlKind::Update => "UPDATE",
            DmlKind::Delete => "DELETE",
        }
    }
}

/// A bound, estimable DML statement against one table.
#[derive(Debug, Clone)]
pub struct DmlPlan {
    pub kind: DmlKind,
    pub table: String,
    /// Row filter (`WHERE`), with column indices resolved against the
    /// target table's schema. `None` means every row.
    pub predicate: Option<Expr>,
    /// `INSERT` payload, already in schema column order.
    pub rows: Vec<Vec<Value>>,
    /// `UPDATE` assignments: `(column index, new value)`.
    pub sets: Vec<(usize, Value)>,
    /// Rows this statement is expected to touch (see [`DmlPlan::estimate`]).
    pub estimated_rows: f64,
}

impl DmlPlan {
    pub fn insert(table: &str, rows: Vec<Vec<Value>>) -> Self {
        let n = rows.len() as f64;
        DmlPlan {
            kind: DmlKind::Insert,
            table: table.to_owned(),
            predicate: None,
            rows,
            sets: Vec::new(),
            estimated_rows: n,
        }
    }

    pub fn update(table: &str, predicate: Option<Expr>, sets: Vec<(usize, Value)>) -> Self {
        DmlPlan {
            kind: DmlKind::Update,
            table: table.to_owned(),
            predicate,
            rows: Vec::new(),
            sets,
            estimated_rows: 0.0,
        }
    }

    pub fn delete(table: &str, predicate: Option<Expr>) -> Self {
        DmlPlan {
            kind: DmlKind::Delete,
            table: table.to_owned(),
            predicate,
            rows: Vec::new(),
            sets: Vec::new(),
            estimated_rows: 0.0,
        }
    }

    /// Fill `estimated_rows` from the target relation's statistics —
    /// the same per-column min/max/NDV sketches and selectivity model
    /// the read-side planner costs scans with. Inserts already know
    /// their exact row count; updates and deletes estimate
    /// `|T| * sel(predicate)`.
    pub fn estimate(mut self, relation: &Relation) -> Self {
        if self.kind == DmlKind::Insert {
            return self;
        }
        let total = relation.total_rows() as f64;
        self.estimated_rows = match &self.predicate {
            None => total,
            Some(pred) => {
                let stats = relation.stats();
                let cols: Vec<ColEst> = stats.columns.iter().map(ColEst::from_stats).collect();
                let types = relation.schema().data_types();
                (total * Estimator::default().selectivity(pred, &cols, &types)).max(1.0)
            }
        };
        self
    }

    /// One-line-per-clause `EXPLAIN` rendering, matching the read-side
    /// explain style.
    pub fn explain(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for DmlPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {}  (est. {:.0} rows)",
            self.kind.verb(),
            self.table,
            self.estimated_rows
        )?;
        match self.kind {
            DmlKind::Insert => writeln!(f, "  values: {} rows", self.rows.len())?,
            DmlKind::Update => {
                let cols: Vec<String> = self
                    .sets
                    .iter()
                    .map(|(c, v)| format!("#{c} = {v}"))
                    .collect();
                writeln!(f, "  set: {}", cols.join(", "))?;
            }
            DmlKind::Delete => {}
        }
        if let Some(p) = &self.predicate {
            writeln!(f, "  where: {p:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_exec::expr::{col, eq, lit};
    use morsel_storage::{Batch, Column, DataType, Schema};

    fn rel(n: i64) -> Relation {
        Relation::single(
            Schema::new(vec![("k", DataType::I64), ("v", DataType::I64)]),
            Batch::from_columns(vec![
                Column::I64((0..n).collect()),
                Column::I64(vec![0; n as usize]),
            ]),
        )
    }

    #[test]
    fn insert_estimate_is_exact() {
        let p =
            DmlPlan::insert("t", vec![vec![Value::I64(1), Value::I64(2)]; 3]).estimate(&rel(100));
        assert_eq!(p.estimated_rows, 3.0);
        assert!(p.explain().contains("INSERT t"));
    }

    #[test]
    fn point_update_estimates_from_stats() {
        let p = DmlPlan::update("t", Some(eq(col(0), lit(7))), vec![(1, Value::I64(9))])
            .estimate(&rel(1000));
        // Unique key column: a point predicate should estimate ~1 row,
        // far below the table size.
        assert!(p.estimated_rows < 20.0, "{}", p.estimated_rows);
        assert!(p.explain().contains("UPDATE t"));
        assert!(p.explain().contains("#1 = 9"));
    }

    #[test]
    fn unfiltered_delete_estimates_full_table() {
        let p = DmlPlan::delete("t", None).estimate(&rel(250));
        assert_eq!(p.estimated_rows, 250.0);
    }
}
