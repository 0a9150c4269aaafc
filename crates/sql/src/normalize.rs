//! Query-shape normalization and prepared-statement parameter binding.
//!
//! A [`ShapeKey`] identifies what a query *does* independently of what
//! it mentions. [`shape_of`] normalizes a copy of the query and prints
//! it with the AST's one printer ([`std::fmt::Display`]), so two texts
//! get the same key exactly when their ASTs are equal after
//!
//! 1. stripping every literal (integers, floats, strings, dates, `LIKE`
//!    patterns) to one hole — the stripped values come back as the
//!    [`LiteralValue`] vector, in canonical order: each scope's derived
//!    tables first, then its own expressions in pre-order — and
//! 2. renaming every *table* binding positionally (`_r1`, `_r2`, … in
//!    `FROM` order, qualified column references rewritten to match), so
//!    `FROM nation n1` and `FROM nation x` — or no alias at all —
//!    normalize identically.
//!
//! Whitespace insensitivity is inherited from the parser (the key is
//! computed from the AST, never the text). Select-item aliases, `ORDER
//! BY`, `LIMIT`, and `SUBSTRING` offsets stay in the key: they change
//! the output schema or the plan structure, so queries differing there
//! must not share a cached plan.
//!
//! Placeholders ([`ExprKind::Param`]) normalize to the same hole as a
//! literal, so a prepared template and the concrete query it binds to
//! share one shape. [`bind_params`] splices [`LiteralValue`]s over the
//! placeholders to produce the concrete, bindable AST.

use crate::ast::{ExprKind, Select, TableFactor};
use crate::error::{Span, SqlError};

/// A concrete literal stripped from (or bound into) a query.
///
/// Equality and hashing are bitwise for floats, so a literal vector is
/// usable as a cache guard: a cached plan is reusable only for the
/// exact literal values it was planned with (plans embed folded
/// constants, and cardinality estimates depend on them).
#[derive(Debug, Clone, PartialEq)]
pub enum LiteralValue {
    Int(i64),
    Float(f64),
    Str(String),
    Date { y: i32, m: u32, d: u32 },
}

impl LiteralValue {
    fn to_expr_kind(&self) -> ExprKind {
        match self {
            LiteralValue::Int(v) => ExprKind::Int(*v),
            LiteralValue::Float(v) => ExprKind::Float(*v),
            LiteralValue::Str(s) => ExprKind::Str(s.clone()),
            LiteralValue::Date { y, m, d } => ExprKind::Date {
                y: *y,
                m: *m,
                d: *d,
            },
        }
    }

    /// Bitwise equality (floats compared by bits, so `NaN == NaN` and a
    /// cached guard never wobbles on representation).
    pub fn same(&self, other: &LiteralValue) -> bool {
        match (self, other) {
            (LiteralValue::Float(a), LiteralValue::Float(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }
}

/// Are two literal vectors identical (bitwise on floats)?
pub fn same_literals(a: &[LiteralValue], b: &[LiteralValue]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same(y))
}

/// The normalized shape of one query: the plan-cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey(String);

impl ShapeKey {
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ShapeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Normalize a parsed query: its [`ShapeKey`] plus the literal values
/// stripped out of it, in canonical order (see the module docs).
pub fn shape_of(select: &Select) -> (ShapeKey, Vec<LiteralValue>) {
    let mut normalized = select.clone();
    let mut literals = Vec::new();
    normalize(&mut normalized, &mut literals);
    (ShapeKey(normalized.to_string()), literals)
}

/// What every literal, placeholder and `LIKE` pattern becomes in a
/// normalized query: one placeholder, whatever it replaced.
const HOLE: ExprKind = ExprKind::Param(0);

/// Normalize `s` in place, its derived tables first: rename this scope's
/// bindings and the qualified references that resolve to them, and move
/// each literal into `literals`, leaving a hole.
fn normalize(s: &mut Select, literals: &mut Vec<LiteralValue>) {
    // One binding scope per SELECT: the subset has no correlated
    // references, so a scope is exactly its own FROM list.
    let mut bindings = Vec::with_capacity(s.from.len());
    for (i, tref) in s.from.iter_mut().enumerate() {
        let renamed = format!("_r{}", i + 1);
        bindings.push(match &mut tref.factor {
            TableFactor::Table { name, alias, .. } => {
                alias.replace(renamed).unwrap_or_else(|| name.clone())
            }
            TableFactor::Derived { query, alias, .. } => {
                normalize(query, literals);
                std::mem::replace(alias, renamed)
            }
        });
    }
    for e in s.scope_exprs_mut() {
        e.walk_mut(&mut |x| {
            let stripped = match &mut x.kind {
                ExprKind::Column { table: Some(t), .. } => {
                    // First match wins; the binder rejects a duplicate
                    // binding anyway.
                    if let Some(i) = bindings.iter().position(|b| b == t) {
                        *t = format!("_r{}", i + 1);
                    }
                    return false;
                }
                ExprKind::Like { pattern, .. } => {
                    literals.push(LiteralValue::Str(std::mem::take(pattern)));
                    return true;
                }
                ExprKind::Int(v) => Some(LiteralValue::Int(*v)),
                ExprKind::Float(v) => Some(LiteralValue::Float(*v)),
                ExprKind::Str(v) => Some(LiteralValue::Str(std::mem::take(v))),
                ExprKind::Date { y, m, d } => Some(LiteralValue::Date {
                    y: *y,
                    m: *m,
                    d: *d,
                }),
                // A placeholder is already a hole; it contributes no
                // literal (values arrive at bind time), so a template
                // and its bound form share a shape.
                ExprKind::Param(_) => None,
                _ => return true,
            };
            literals.extend(stripped);
            x.kind = HOLE;
            false
        });
    }
}

/// How many parameters a template needs: one past the highest
/// placeholder index (0 for a query without placeholders).
pub fn param_count(select: &Select) -> usize {
    let mut count = 0;
    for e in select.scope_exprs() {
        e.walk(&mut |x| {
            if let ExprKind::Param(i) = x.kind {
                count = count.max(i + 1);
            }
            true
        });
    }
    for tref in &select.from {
        if let TableFactor::Derived { query, .. } = &tref.factor {
            count = count.max(param_count(query));
        }
    }
    count
}

/// Splice `params` over the placeholders of `template`, producing the
/// concrete AST a binder can consume. Requires exactly
/// [`param_count`] values, which covers every placeholder index.
pub fn bind_params(template: &Select, params: &[LiteralValue]) -> Result<Select, SqlError> {
    let need = param_count(template);
    if params.len() != need {
        return Err(SqlError::new(
            format!(
                "statement takes {need} parameter(s), {} provided",
                params.len()
            ),
            Span::default(),
        ));
    }
    let mut bound = template.clone();
    splice(&mut bound, params);
    Ok(bound)
}

fn splice(s: &mut Select, params: &[LiteralValue]) {
    for e in s.scope_exprs_mut() {
        e.walk_mut(&mut |x| {
            if let ExprKind::Param(i) = x.kind {
                x.kind = params[i].to_expr_kind();
            }
            true
        });
    }
    for tref in &mut s.from {
        if let TableFactor::Derived { query, .. } = &mut tref.factor {
            splice(query, params);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn key(sql: &str) -> ShapeKey {
        shape_of(&parse(sql).unwrap()).0
    }

    #[test]
    fn literals_and_whitespace_do_not_change_the_shape() {
        let a = key("SELECT SUM(x) AS s FROM t WHERE a > 5 AND b = 'ASIA'");
        let b = key("SELECT  SUM( x )  AS s\n FROM t\n WHERE a > 99 AND b = 'EUROPE'");
        assert_eq!(a, b);
        let (_, lits) =
            shape_of(&parse("SELECT SUM(x) AS s FROM t WHERE a > 5 AND b = 'ASIA'").unwrap());
        assert_eq!(
            lits,
            vec![LiteralValue::Int(5), LiteralValue::Str("ASIA".to_owned())]
        );
    }

    #[test]
    fn table_aliases_normalize_positionally() {
        let a =
            key("SELECT n1.n_name FROM nation AS n1, region WHERE n1.n_regionkey = r_regionkey");
        let b = key("SELECT x.n_name FROM nation x, region WHERE x.n_regionkey = r_regionkey");
        let c =
            key("SELECT nation.n_name FROM nation, region WHERE nation.n_regionkey = r_regionkey");
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn each_scope_renames_its_own_bindings() {
        // Both scopes bind `t`: the derived table's `t.a` is its own
        // `lineitem`, the outer `t.b` the outer `orders`.
        let (a, lits) = shape_of(
            &parse(
                "SELECT t.b FROM (SELECT t.a AS a FROM lineitem AS t WHERE t.a > 1) AS d, \
                 orders AS t WHERE t.b = 2",
            )
            .unwrap(),
        );
        let b = key(
            "SELECT y.b FROM (SELECT x.a AS a FROM lineitem AS x WHERE x.a > 1) AS d, \
             orders AS y WHERE y.b = 2",
        );
        assert_eq!(a, b);
        assert_eq!(lits, vec![LiteralValue::Int(1), LiteralValue::Int(2)]);
    }

    #[test]
    fn output_aliases_and_limits_stay_significant() {
        assert_ne!(
            key("SELECT SUM(x) AS a FROM t"),
            key("SELECT SUM(x) AS b FROM t"),
            "select-item aliases change the output schema"
        );
        assert_ne!(
            key("SELECT x FROM t ORDER BY x LIMIT 5"),
            key("SELECT x FROM t ORDER BY x LIMIT 6"),
            "limit changes the plan structure"
        );
    }

    #[test]
    fn templates_share_shape_with_their_bound_form() {
        let template = parse("SELECT x FROM t WHERE a > ? AND b = $2").unwrap();
        assert_eq!(param_count(&template), 2);
        let bound = bind_params(
            &template,
            &[LiteralValue::Int(7), LiteralValue::Str("z".to_owned())],
        )
        .unwrap();
        assert_eq!(shape_of(&template).0, shape_of(&bound).0);
        assert_eq!(
            shape_of(&bound).1,
            vec![LiteralValue::Int(7), LiteralValue::Str("z".to_owned())]
        );
        // Wrong arity is an error, not a partial splice.
        assert!(bind_params(&template, &[LiteralValue::Int(7)]).is_err());
    }

    #[test]
    fn float_guard_is_bitwise() {
        assert!(LiteralValue::Float(f64::NAN).same(&LiteralValue::Float(f64::NAN)));
        assert!(!LiteralValue::Float(0.1).same(&LiteralValue::Float(0.2)));
        assert!(!LiteralValue::Int(1).same(&LiteralValue::Float(1.0)));
        assert!(same_literals(
            &[LiteralValue::Int(1)],
            &[LiteralValue::Int(1)]
        ));
    }
}
