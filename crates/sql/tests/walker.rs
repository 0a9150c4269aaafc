//! The AST walker reaches every child slot. For each `ExprKind` variant
//! with children and each of its slots, an aggregate, a placeholder and
//! a literal placed in that slot must be seen by the walker's three
//! kinds of caller: `Expr::has_agg`, `param_count` and `shape_of`'s
//! literal vector. The same holds for each clause of a `SELECT` scope
//! and for a derived table's.

use morsel_sql::ast::{AggFunc, BinOp, Expr, ExprKind, Select};
use morsel_sql::error::Span;
use morsel_sql::normalize::{param_count, shape_of, LiteralValue};
use morsel_sql::parse;

fn mk(kind: ExprKind) -> Expr {
    Expr::new(kind, Span::default())
}

fn col() -> Expr {
    mk(ExprKind::Column {
        table: None,
        name: "c".to_owned(),
    })
}

/// Builds one variant from a supply of children, drawn in print order.
type Build = fn(&mut dyn FnMut() -> Box<Expr>) -> ExprKind;

/// Every variant that has children.
const VARIANTS: &[Build] = &[
    |c| ExprKind::Binary {
        op: BinOp::Lt,
        left: c(),
        right: c(),
    },
    |c| ExprKind::Not(c()),
    |c| ExprKind::Between {
        expr: c(),
        negated: false,
        lo: c(),
        hi: c(),
    },
    |c| ExprKind::InList {
        expr: c(),
        negated: false,
        list: vec![*c(), *c(), *c()],
    },
    |c| ExprKind::Like {
        expr: c(),
        negated: false,
        pattern: "%x".to_owned(),
    },
    |c| ExprKind::Case {
        cond: c(),
        then: c(),
        else_: c(),
    },
    |c| ExprKind::ExtractYear(c()),
    |c| ExprKind::Substring {
        expr: c(),
        from: 1,
        len: 2,
    },
    |c| ExprKind::Agg {
        func: AggFunc::Sum,
        distinct: false,
        arg: Some(c()),
    },
];

/// How many child slots `kind` has. Exhaustive on purpose: a new variant
/// does not compile until it is counted here, which is the reminder to
/// give it a row in `VARIANTS`.
fn slots(kind: &ExprKind) -> usize {
    match kind {
        ExprKind::Column { .. }
        | ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str(_)
        | ExprKind::Date { .. }
        | ExprKind::Param(_) => 0,
        ExprKind::Not(_)
        | ExprKind::ExtractYear(_)
        | ExprKind::Like { .. }
        | ExprKind::Substring { .. } => 1,
        ExprKind::Binary { .. } => 2,
        ExprKind::Between { .. } | ExprKind::Case { .. } => 3,
        ExprKind::InList { list, .. } => 1 + list.len(),
        ExprKind::Agg { arg, .. } => usize::from(arg.is_some()),
    }
}

/// One expression per child slot of every variant, with `fill` in that
/// slot and a bare column in all the others.
fn fill_each_slot(fill: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    for build in VARIANTS {
        let n = slots(&build(&mut || Box::new(col())));
        for slot in 0..n {
            let mut next = 0;
            out.push(mk(build(&mut || {
                next += 1;
                Box::new(if next - 1 == slot {
                    fill.clone()
                } else {
                    col()
                })
            })));
        }
    }
    assert_eq!(out.len(), 17, "child-slot census changed");
    out
}

fn select_of(e: &Expr) -> Select {
    parse(&format!("SELECT {e} FROM t")).unwrap()
}

fn count_literal(s: &Select, lit: &LiteralValue) -> usize {
    shape_of(s).1.iter().filter(|l| *l == lit).count()
}

#[test]
fn every_child_slot_is_walked() {
    let count_star = mk(ExprKind::Agg {
        func: AggFunc::Count,
        distinct: false,
        arg: None,
    });
    for e in fill_each_slot(&count_star) {
        assert!(e.has_agg(), "has_agg missed the aggregate in {e}");
    }
    for e in fill_each_slot(&mk(ExprKind::Param(4))) {
        assert_eq!(
            param_count(&select_of(&e)),
            5,
            "param_count missed $5 in {e}"
        );
    }
    let seven = LiteralValue::Int(7);
    for e in fill_each_slot(&mk(ExprKind::Int(7))) {
        let s = select_of(&e);
        assert_eq!(count_literal(&s, &seven), 1, "shape_of missed 7 in {s}");
    }
}

#[test]
fn every_scope_clause_and_derived_table_is_walked() {
    const CLAUSES: &[&str] = &[
        "SELECT {} FROM t",
        "SELECT a FROM t JOIN u ON {}",
        "SELECT a FROM t WHERE {}",
        "SELECT a FROM t GROUP BY {}",
        "SELECT a FROM t HAVING {}",
        "SELECT a FROM (SELECT {} AS b FROM t) AS d",
        "SELECT a FROM t, (SELECT b FROM u WHERE {}) AS d",
    ];
    for clause in CLAUSES {
        let with = |hole: &str| parse(&clause.replace("{}", hole)).unwrap();
        assert_eq!(
            param_count(&with("$5")),
            5,
            "param_count missed $5 in {clause}"
        );
        let s = with("7");
        assert_eq!(
            count_literal(&s, &LiteralValue::Int(7)),
            1,
            "shape_of missed 7 in {s}"
        );
    }
}
