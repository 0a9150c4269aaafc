//! # morsel-sql
//!
//! The SQL text front end for the morsel-driven engine: a hand-rolled
//! lexer, a recursive-descent parser ([`parser`]), and a binder
//! ([`binder`]) that resolves names against a [`Catalog`] and emits
//! the planner's [`LogicalPlan`]. Everything below —
//! DPccp join ordering, cardinality estimation, lowering, and the
//! morsel-driven executor — consumes the bound plan unchanged, so
//! `SELECT` text and hand-built logical plans take exactly the same
//! path after binding.
//!
//! The supported subset covers the workloads this reproduction ships:
//! projections with arithmetic and `CASE WHEN`, the standard aggregates
//! (`SUM`/`MIN`/`MAX`/`AVG`/`COUNT`, plus `COUNT(DISTINCT ...)`),
//! multi-table `FROM` with equi-joins written either as `WHERE`
//! equalities or `JOIN ... ON`, the dialect joins `SEMI`/`ANTI`/`COUNT
//! JOIN`, derived tables, `BETWEEN`/`IN`/`LIKE`, `EXTRACT(YEAR ...)`,
//! `SUBSTRING`, `GROUP BY`/`HAVING`, and `ORDER BY ... LIMIT`.
//! See DESIGN.md §10 for the grammar and the binder's rules.
//!
//! ```no_run
//! use morsel_sql::plan_sql;
//! # fn main() -> Result<(), morsel_sql::SqlError> {
//! # let catalog = morsel_storage::Catalog::new();
//! let logical = plan_sql(
//!     &catalog,
//!     "SELECT n_name, SUM(l_extendedprice) AS revenue \
//!      FROM lineitem, orders, customer, nation \
//!      WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey \
//!        AND c_nationkey = n_nationkey \
//!      GROUP BY n_name ORDER BY revenue DESC",
//! )?;
//! # let _ = logical; Ok(())
//! # }
//! ```

pub mod ast;
pub mod binder;
pub mod error;
pub mod lexer;
pub mod normalize;
pub mod parser;

pub use ast::{Select, Statement};
pub use binder::{Binder, BoundStatement};
pub use error::{Span, SqlError};
pub use normalize::{shape_of, LiteralValue, ShapeKey};
pub use parser::{parse, parse_statement};

use morsel_planner::LogicalPlan;
use morsel_storage::Catalog;

/// Parse and bind one `SELECT` statement: text → [`LogicalPlan`].
pub fn plan_sql(catalog: &Catalog, sql: &str) -> Result<LogicalPlan, SqlError> {
    let ast = parse(sql)?;
    Binder::new(catalog).bind(&ast)
}

/// Parse and bind any statement — `SELECT` or DML.
pub fn plan_statement(catalog: &Catalog, sql: &str) -> Result<BoundStatement, SqlError> {
    let ast = parse_statement(sql)?;
    Binder::new(catalog).bind_statement(&ast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use morsel_storage::{Batch, Column, DataType, Relation, Schema};

    /// A two-table mini catalog: `emp(id, dept, salary, name)` and
    /// `dept(dept_id, dept_name)`.
    fn mini_catalog() -> Catalog {
        let emp = Relation::single(
            Schema::new(vec![
                ("id", DataType::I64),
                ("dept", DataType::I64),
                ("salary", DataType::I64),
                ("name", DataType::Str),
            ]),
            Batch::from_columns(vec![
                Column::I64(vec![1, 2, 3, 4]),
                Column::I64(vec![10, 10, 20, 20]),
                Column::I64(vec![100, 200, 300, 400]),
                Column::Str(["a", "b", "c", "d"].into_iter().collect()),
            ]),
        );
        let dept = Relation::single(
            Schema::new(vec![
                ("dept_id", DataType::I64),
                ("dept_name", DataType::Str),
            ]),
            Batch::from_columns(vec![
                Column::I64(vec![10, 20]),
                Column::Str(["eng", "ops"].into_iter().collect()),
            ]),
        );
        Catalog::new()
            .with_table("emp", Arc::new(emp))
            .with_table("dept", Arc::new(dept))
    }

    #[test]
    fn binds_single_table_aggregate() {
        let cat = mini_catalog();
        let plan = plan_sql(
            &cat,
            "SELECT dept, SUM(salary) AS total, COUNT(*) AS n FROM emp \
             WHERE salary > 150 GROUP BY dept ORDER BY dept",
        )
        .unwrap();
        assert_eq!(plan.schema().names(), vec!["dept", "total", "n"]);
        assert_eq!(plan.scan_count(), 1);
    }

    #[test]
    fn binds_join_via_where_equality() {
        let cat = mini_catalog();
        let plan = plan_sql(
            &cat,
            "SELECT dept_name, SUM(salary) AS total FROM emp, dept \
             WHERE dept = dept_id GROUP BY dept_name",
        )
        .unwrap();
        assert_eq!(plan.scan_count(), 2);
        assert_eq!(plan.schema().names(), vec!["dept_name", "total"]);
    }

    #[test]
    fn binds_explicit_join_with_projection_over_aggregates() {
        let cat = mini_catalog();
        let plan = plan_sql(
            &cat,
            "SELECT dept_name, SUM(salary) * 1.0 / COUNT(*) AS avg_pay \
             FROM emp JOIN dept ON dept = dept_id GROUP BY dept_name \
             ORDER BY avg_pay DESC LIMIT 1",
        )
        .unwrap();
        let schema = plan.schema();
        assert_eq!(schema.names(), vec!["dept_name", "avg_pay"]);
        assert_eq!(schema.dtype(1), DataType::F64);
    }

    /// `unwrap_err` without requiring `Debug` on `LogicalPlan`.
    fn bind_err(cat: &Catalog, sql: &str) -> SqlError {
        match plan_sql(cat, sql) {
            Ok(_) => panic!("expected a bind error for {sql:?}"),
            Err(e) => e,
        }
    }

    #[test]
    fn unknown_column_error_has_position() {
        let cat = mini_catalog();
        let sql = "SELECT salry FROM emp";
        let err = bind_err(&cat, sql);
        assert!(err.message.contains("unknown column"), "{err:?}");
        assert_eq!(&sql[err.span.start..err.span.end], "salry");
    }

    #[test]
    fn ambiguous_column_error_names_both_tables() {
        let cat = mini_catalog().with_table("emp2", cat_clone_emp());
        let sql = "SELECT salary FROM emp, emp2 WHERE emp.id = emp2.id";
        let err = bind_err(&cat, sql);
        assert!(err.message.contains("ambiguous"), "{err:?}");
        assert!(err.message.contains("emp2"), "{err:?}");
        assert_eq!(&sql[err.span.start..err.span.end], "salary");
    }

    fn cat_clone_emp() -> Arc<Relation> {
        let emp = Relation::single(
            Schema::new(vec![("id", DataType::I64), ("salary", DataType::I64)]),
            Batch::from_columns(vec![Column::I64(vec![1]), Column::I64(vec![5])]),
        );
        Arc::new(emp)
    }

    #[test]
    fn type_mismatch_error_has_position() {
        let cat = mini_catalog();
        let sql = "SELECT id FROM emp WHERE name > 5";
        let err = bind_err(&cat, sql);
        assert!(
            err.message.contains("cannot compare string to integer"),
            "{err:?}"
        );
        assert_eq!(&sql[err.span.start..err.span.end], "name > 5");
    }

    #[test]
    fn disconnected_table_is_an_error() {
        let cat = mini_catalog();
        let err = bind_err(&cat, "SELECT id FROM emp, dept");
        assert!(err.message.contains("not connected"), "{err:?}");
    }

    #[test]
    fn unknown_table_lists_catalog() {
        let cat = mini_catalog();
        let err = bind_err(&cat, "SELECT x FROM nope");
        assert!(err.message.contains("unknown table `nope`"), "{err:?}");
        assert!(err.message.contains("emp"), "{err:?}");
    }

    #[test]
    fn having_filters_on_aggregate_output() {
        let cat = mini_catalog();
        let plan = plan_sql(
            &cat,
            "SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept \
             HAVING SUM(salary) > 250",
        )
        .unwrap();
        assert_eq!(plan.schema().names(), vec!["dept", "total"]);
    }

    #[test]
    fn order_by_unknown_output_column() {
        let cat = mini_catalog();
        let err = bind_err(&cat, "SELECT id FROM emp ORDER BY salary");
        assert!(err.message.contains("ORDER BY"), "{err:?}");
    }

    fn bound_dml(cat: &Catalog, sql: &str) -> morsel_planner::DmlPlan {
        match plan_statement(cat, sql) {
            Ok(BoundStatement::Dml(p)) => p,
            Ok(BoundStatement::Select(_)) => panic!("{sql:?} bound to a SELECT"),
            Err(e) => panic!("bind of {sql:?} failed: {e:?}"),
        }
    }

    #[test]
    fn binds_insert_with_column_permutation() {
        let cat = mini_catalog();
        let p = bound_dml(
            &cat,
            "INSERT INTO emp (name, id, salary, dept) VALUES ('e', 5, 500, 10)",
        );
        assert_eq!(p.kind, morsel_planner::DmlKind::Insert);
        // Values land in schema order: (id, dept, salary, name).
        use morsel_storage::Value;
        assert_eq!(
            p.rows,
            vec![vec![
                Value::I64(5),
                Value::I64(10),
                Value::I64(500),
                Value::Str("e".into())
            ]]
        );
        assert_eq!(p.estimated_rows, 1.0);
    }

    #[test]
    fn binds_update_predicate_against_table_schema() {
        let cat = mini_catalog();
        let p = bound_dml(
            &cat,
            "UPDATE emp SET salary = 999 WHERE dept = 10 AND id > 1",
        );
        assert_eq!(p.kind, morsel_planner::DmlKind::Update);
        assert_eq!(p.sets, vec![(2, morsel_storage::Value::I64(999))]);
        assert!(p.predicate.is_some());
        assert!(p.estimated_rows > 0.0);
        assert!(p.explain().contains("UPDATE emp"));
    }

    #[test]
    fn binds_delete_and_estimates_from_stats() {
        let cat = mini_catalog();
        let p = bound_dml(&cat, "DELETE FROM emp WHERE salary > 250");
        assert_eq!(p.kind, morsel_planner::DmlKind::Delete);
        // 2 of 4 rows exceed 250; the estimate should be in that
        // neighborhood, not the full table.
        assert!(p.estimated_rows <= 4.0 && p.estimated_rows >= 1.0);
        let full = bound_dml(&cat, "DELETE FROM emp");
        assert_eq!(full.estimated_rows, 4.0);
    }

    #[test]
    fn dml_bind_errors_carry_spans() {
        let cat = mini_catalog();
        let sql = "UPDATE emp SET salry = 1";
        let err = match plan_statement(&cat, sql) {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert!(err.message.contains("unknown column"), "{err:?}");
        assert_eq!(&sql[err.span.start..err.span.end], "salry = 1");

        let err = match plan_statement(&cat, "INSERT INTO emp VALUES (1, 2)") {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert!(err.message.contains("4"), "{err:?}");

        let err = match plan_statement(&cat, "INSERT INTO emp VALUES (1, 2, 3, 4)") {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert!(err.message.contains("Str literal"), "{err:?}");

        let err = match plan_statement(&cat, "DELETE FROM emp WHERE salary + 1") {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert!(err.message.contains("boolean"), "{err:?}");
    }

    #[test]
    fn select_through_plan_statement_is_unchanged() {
        let cat = mini_catalog();
        let sql = "SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept";
        let via_stmt = match plan_statement(&cat, sql) {
            Ok(BoundStatement::Select(p)) => p,
            _ => panic!("expected a select"),
        };
        let direct = plan_sql(&cat, sql).unwrap();
        assert_eq!(via_stmt.schema().names(), direct.schema().names());
    }
}
