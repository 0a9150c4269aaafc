//! Cache-key (shape) property tests.
//!
//! The plan cache's key function `normalize::shape_of` must be exactly
//! as coarse as intended: queries that differ only in literal values,
//! whitespace, or table-alias spelling share a key; queries that differ
//! structurally never collide. Both directions are checked against an
//! *independent* oracle — a stripped AST (literals replaced by one
//! sentinel, table bindings renamed positionally by tree rewriting)
//! compared with the parser's span-insensitive structural equality —
//! over 256 random ASTs from the generator the parser round-trip
//! property shares (`common/mod.rs`).

mod common;

use common::Gen;
use morsel_sql::ast::{Expr, ExprKind, JoinOp, Select, TableFactor};
use morsel_sql::normalize::shape_of;
use morsel_sql::parse;
use proptest::prelude::*;

// ----------------------------------------------------- tree rewriters

/// Apply `f` to every expression of `s`, in place — this scope only
/// (`each_scope_expr` does not descend into derived subqueries; callers
/// that want the whole tree recurse on `TableFactor::Derived`
/// themselves, since scoping matters to them).
fn each_scope_expr(s: &mut Select, f: &mut impl FnMut(&mut Expr)) {
    for item in &mut s.items {
        f(&mut item.expr);
    }
    for tref in &mut s.from {
        match &mut tref.join {
            JoinOp::Comma => {}
            JoinOp::Inner(on) | JoinOp::Semi(on) | JoinOp::Anti(on) | JoinOp::CountMatches(on) => {
                f(on)
            }
        }
    }
    if let Some(w) = &mut s.where_clause {
        f(w);
    }
    for g in &mut s.group_by {
        f(g);
    }
    if let Some(h) = &mut s.having {
        f(h);
    }
}

fn each_subexpr(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    f(e);
    match &mut e.kind {
        ExprKind::Column { .. }
        | ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str(_)
        | ExprKind::Date { .. }
        | ExprKind::Param(_) => {}
        ExprKind::Binary { left, right, .. } => {
            each_subexpr(left, f);
            each_subexpr(right, f);
        }
        ExprKind::Not(x) | ExprKind::ExtractYear(x) => each_subexpr(x, f),
        ExprKind::Between { expr, lo, hi, .. } => {
            each_subexpr(expr, f);
            each_subexpr(lo, f);
            each_subexpr(hi, f);
        }
        ExprKind::InList { expr, list, .. } => {
            each_subexpr(expr, f);
            for item in list {
                each_subexpr(item, f);
            }
        }
        ExprKind::Like { expr, .. } | ExprKind::Substring { expr, .. } => each_subexpr(expr, f),
        ExprKind::Case { cond, then, else_ } => {
            each_subexpr(cond, f);
            each_subexpr(then, f);
            each_subexpr(else_, f);
        }
        ExprKind::Agg { arg, .. } => {
            if let Some(a) = arg {
                each_subexpr(a, f);
            }
        }
    }
}

/// Replace every literal with a *different* value of the same kind,
/// leaving the structure untouched.
fn mutate_literals(s: &mut Select, g: &mut Gen) {
    let mut mutate = |e: &mut Expr| {
        each_subexpr(e, &mut |x| match &mut x.kind {
            ExprKind::Int(v) => *v = v.wrapping_add(1 + g.below(1_000) as i64),
            ExprKind::Float(v) => *v = (*v + 1.5) * 3.0,
            ExprKind::Str(v) => v.push_str("-prime"),
            ExprKind::Date { d, .. } => *d = 1 + (*d % 28),
            ExprKind::Like { pattern, .. } => pattern.push('%'),
            _ => {}
        })
    };
    each_scope_expr(s, &mut mutate);
    for tref in &mut s.from {
        if let TableFactor::Derived { query, .. } = &mut tref.factor {
            mutate_literals(query, g);
        }
    }
}

/// Rename every table binding of every scope to `{prefix}{depth}_{i}`,
/// rewriting qualified column references (first matching binding wins,
/// mirroring the shape normalizer's scope lookup).
fn rename_bindings(s: &mut Select, prefix: &str, depth: usize) {
    let old: Vec<String> = s
        .from
        .iter()
        .map(|t| t.factor.binding_name().to_owned())
        .collect();
    let new: Vec<String> = (0..s.from.len())
        .map(|i| format!("{prefix}{depth}_{i}"))
        .collect();
    let mut fix = |e: &mut Expr| {
        each_subexpr(e, &mut |x| {
            if let ExprKind::Column { table: Some(t), .. } = &mut x.kind {
                if let Some(i) = old.iter().position(|o| o == t) {
                    *t = new[i].clone();
                }
            }
        })
    };
    each_scope_expr(s, &mut fix);
    for (i, tref) in s.from.iter_mut().enumerate() {
        match &mut tref.factor {
            TableFactor::Table { alias, .. } => *alias = Some(new[i].clone()),
            TableFactor::Derived { query, alias, .. } => {
                *alias = new[i].clone();
                rename_bindings(query, prefix, depth + 1);
            }
        }
    }
}

/// The independent oracle: literal-blind, binding-blind structural form.
/// Every literal collapses to one sentinel (`0` — the key does not
/// distinguish literal *types* either; the cache's literal-vector guard
/// does) and bindings are renamed positionally. Two queries must share a
/// [`morsel_sql::ShapeKey`] exactly when their stripped forms are equal
/// under the AST's span-insensitive equality.
fn strip(s: &Select) -> Select {
    let mut out = s.clone();
    let mut strip_lits = |e: &mut Expr| {
        each_subexpr(e, &mut |x| match &mut x.kind {
            ExprKind::Int(_)
            | ExprKind::Float(_)
            | ExprKind::Str(_)
            | ExprKind::Date { .. }
            | ExprKind::Param(_) => x.kind = ExprKind::Int(0),
            ExprKind::Like { pattern, .. } => pattern.clear(),
            _ => {}
        })
    };
    each_scope_expr(&mut out, &mut strip_lits);
    for tref in &mut out.from {
        if let TableFactor::Derived { query, .. } = &mut tref.factor {
            **query = strip(query);
        }
    }
    rename_bindings(&mut out, "_n", 0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Literal churn, whitespace churn (via reprint → reparse), and
    /// table-alias renaming all preserve the cache key.
    #[test]
    fn equivalent_spellings_share_one_key(seed in 0u64..4096) {
        let ast = Gen::new(seed).select(2);
        let (key, _) = shape_of(&ast);

        // Whitespace/formatting: the key is computed from the AST, so
        // any reformatting that reparses to the same tree is free.
        let printed = ast.to_string();
        let reparsed = parse(&printed).unwrap_or_else(|e| {
            panic!("seed {seed}: reparse failed: {}\n{printed}", e.render(&printed))
        });
        prop_assert_eq!(&shape_of(&reparsed).0, &key, "reprint changed the key: {}", printed);

        // Different literal values, same structure.
        let mut lit = ast.clone();
        mutate_literals(&mut lit, &mut Gen::new(seed ^ 0xA5A5_A5A5));
        prop_assert_eq!(&shape_of(&lit).0, &key, "literal values leaked into the key");
        prop_assert_eq!(strip(&lit), strip(&ast), "oracle disagrees: literal mutation changed structure");

        // Different table-alias spellings, same structure.
        let mut renamed = ast.clone();
        rename_bindings(&mut renamed, "zz", 0);
        prop_assert_eq!(&shape_of(&renamed).0, &key, "table aliases leaked into the key");
        prop_assert_eq!(strip(&renamed), strip(&ast), "oracle disagrees: renaming changed structure");
    }

    /// Keys collide exactly when the stripped ASTs agree: no structural
    /// collision can share a key, and no equivalent pair may split.
    #[test]
    fn keys_collide_exactly_when_structures_agree(seed in 0u64..4096) {
        let a = Gen::new(seed).select(2);
        let b = Gen::new(seed.wrapping_add(0x1234_5678)).select(2);
        let keys_equal = shape_of(&a).0 == shape_of(&b).0;
        let oracle_equal = strip(&a) == strip(&b);
        prop_assert_eq!(
            keys_equal, oracle_equal,
            "key/oracle disagreement\n  a: {}\n  b: {}", a, b
        );
    }
}

/// The 25 shipped fixtures are pairwise structurally distinct; their
/// keys must be too — and stable across reprinting.
#[test]
fn fixture_shapes_are_pairwise_distinct() {
    let mut keys: Vec<(String, morsel_sql::ShapeKey)> = Vec::new();
    for (q, sql) in morsel_queries::tpch_sql::all() {
        keys.push((format!("tpch-{q}"), shape_of(&parse(sql).unwrap()).0));
    }
    for (id, sql) in morsel_queries::ssb_sql::all() {
        keys.push((format!("ssb-{id}"), shape_of(&parse(sql).unwrap()).0));
    }
    assert_eq!(keys.len(), 25, "fixture census changed");
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            assert_ne!(
                keys[i].1, keys[j].1,
                "{} and {} collide",
                keys[i].0, keys[j].0
            );
        }
    }
}
