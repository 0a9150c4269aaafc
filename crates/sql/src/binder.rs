//! The binder: a parsed [`Select`] plus a [`Catalog`] → a
//! [`LogicalPlan`] for the cost-based planner.
//!
//! Binding does the semantic half of the front end:
//!
//! * **Name resolution** — qualified (`n1.n_name`) and unqualified
//!   column references resolve against every `FROM` source; unknown and
//!   ambiguous names are errors carrying the reference's span.
//!   When the same column name is exposed by several sources (a self
//!   join), each copy gets an alias-qualified *working name*
//!   (`n1.n_name`) so the join output schema stays collision-free.
//! * **Predicate placement** — `WHERE` is split into conjuncts:
//!   single-table predicates become scan filters, `a.x = b.y`
//!   equalities become join keys (several between the same pair form
//!   one composite key, closing join-graph cycles), and anything else
//!   lands in a post-join filter. `JOIN ... ON` keys are taken
//!   literally.
//! * **Typing** — a four-family lattice (integer, float, string,
//!   boolean) checked bottom-up; mismatches (comparing a string column
//!   to an integer, `AVG` over a string) are bind errors with spans,
//!   not executor panics.
//! * **Aggregation shaping** — grouped queries are rewritten into the
//!   algebra's project → aggregate → project sandwich: group
//!   expressions and aggregate inputs are computed below the aggregate,
//!   select expressions *over* aggregates (`SUM(a) * 1.0 / SUM(b)`)
//!   above it, and `HAVING` becomes a filter on the aggregate's output.
//!
//! The emitted plan uses only what the planner already understands —
//! join order and build/probe sides remain entirely the enumerator's
//! choice.

use std::collections::BTreeSet;
use std::sync::Arc;

use morsel_exec::expr as ex;
use morsel_exec::join::JoinKind;
use morsel_planner::{AggSpec, DmlPlan, LogicalPlan, OrderBy};
use morsel_storage::{date, Catalog, DataType, Relation, Schema, Value};

use crate::ast::{
    AggFunc, BinOp, Delete, Expr, ExprKind, Insert, JoinOp, Select, Statement, TableFactor, Update,
};
use crate::error::{Span, SqlError};

/// A bound statement, ready for the planner or a transactional
/// executor. Reads become [`LogicalPlan`]s exactly as before; writes
/// become [`DmlPlan`]s with the predicate's column indices resolved
/// against the target table schema and literal payloads coerced to the
/// column types.
pub enum BoundStatement {
    Select(LogicalPlan),
    Dml(DmlPlan),
}

/// Binds parsed statements against a catalog.
pub struct Binder<'a> {
    catalog: &'a Catalog,
}

impl<'a> Binder<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        Binder { catalog }
    }

    /// Bind a `SELECT` to a logical plan.
    pub fn bind(&self, select: &Select) -> Result<LogicalPlan, SqlError> {
        BindCtx::build(self.catalog, select)?.bind()
    }

    /// Bind any statement. DML estimates touched-row counts from the
    /// target relation's statistics on the way through.
    pub fn bind_statement(&self, stmt: &Statement) -> Result<BoundStatement, SqlError> {
        match stmt {
            Statement::Select(s) => Ok(BoundStatement::Select(self.bind(s)?)),
            Statement::Insert(i) => self.bind_insert(i).map(BoundStatement::Dml),
            Statement::Update(u) => self.bind_update(u).map(BoundStatement::Dml),
            Statement::Delete(d) => self.bind_delete(d).map(BoundStatement::Dml),
        }
    }

    fn target(&self, table: &str, span: Span) -> Result<Arc<Relation>, SqlError> {
        self.catalog.get(table).cloned().ok_or_else(|| {
            SqlError::new(
                format!(
                    "unknown table `{table}` (known: {})",
                    self.catalog.names().join(", ")
                ),
                span,
            )
        })
    }

    fn bind_insert(&self, ins: &Insert) -> Result<DmlPlan, SqlError> {
        let rel = self.target(&ins.table, ins.span)?;
        let schema = rel.schema();
        // The column list (when given) must be a permutation of the
        // whole schema: partial inserts would need per-column defaults
        // the engine does not have.
        let order: Vec<usize> = if ins.columns.is_empty() {
            (0..schema.len()).collect()
        } else {
            if ins.columns.len() != schema.len() {
                return Err(SqlError::new(
                    format!(
                        "INSERT must name every column of `{}` ({} given, {} in the table)",
                        ins.table,
                        ins.columns.len(),
                        schema.len()
                    ),
                    ins.span,
                ));
            }
            let mut order = Vec::with_capacity(ins.columns.len());
            for c in &ins.columns {
                let Some(i) = schema.names().iter().position(|&n| n == c) else {
                    return Err(SqlError::new(
                        format!("unknown column `{c}` in `{}`", ins.table),
                        ins.span,
                    ));
                };
                if order.contains(&i) {
                    return Err(SqlError::new(
                        format!("column `{c}` named twice in INSERT"),
                        ins.span,
                    ));
                }
                order.push(i);
            }
            order
        };
        let mut rows = Vec::with_capacity(ins.rows.len());
        for row in &ins.rows {
            if row.len() != order.len() {
                return Err(SqlError::new(
                    format!(
                        "VALUES row has {} values, expected {}",
                        row.len(),
                        order.len()
                    ),
                    row.first().map_or(ins.span, |e| e.span),
                ));
            }
            let mut out = vec![Value::I64(0); schema.len()];
            for (slot, e) in order.iter().zip(row) {
                out[*slot] = literal_value(e, schema.dtype(*slot))?;
            }
            rows.push(out);
        }
        Ok(DmlPlan::insert(&ins.table, rows).estimate(&rel))
    }

    fn bind_update(&self, upd: &Update) -> Result<DmlPlan, SqlError> {
        let rel = self.target(&upd.table, upd.span)?;
        let schema = rel.schema();
        let mut sets = Vec::with_capacity(upd.sets.len());
        for item in &upd.sets {
            let Some(i) = schema.names().iter().position(|&n| n == item.column) else {
                return Err(SqlError::new(
                    format!("unknown column `{}` in `{}`", item.column, upd.table),
                    item.span,
                ));
            };
            if sets.iter().any(|&(j, _)| j == i) {
                return Err(SqlError::new(
                    format!("column `{}` assigned twice", item.column),
                    item.span,
                ));
            }
            sets.push((i, literal_value(&item.value, schema.dtype(i))?));
        }
        let predicate = bind_table_predicate(&upd.table, schema, upd.where_clause.as_ref())?;
        Ok(DmlPlan::update(&upd.table, predicate, sets).estimate(&rel))
    }

    fn bind_delete(&self, del: &Delete) -> Result<DmlPlan, SqlError> {
        let rel = self.target(&del.table, del.span)?;
        let predicate = bind_table_predicate(&del.table, rel.schema(), del.where_clause.as_ref())?;
        Ok(DmlPlan::delete(&del.table, predicate).estimate(&rel))
    }
}

/// Bind a DML `WHERE` clause against a single table's schema.
fn bind_table_predicate(
    table: &str,
    schema: &Schema,
    pred: Option<&Expr>,
) -> Result<Option<ex::Expr>, SqlError> {
    let Some(pred) = pred else { return Ok(None) };
    let lookup = |qual: Option<&str>, name: &str, span: Span| {
        if let Some(q) = qual {
            if q != table {
                return Err(SqlError::new(
                    format!("`{q}` does not name the target table `{table}`"),
                    span,
                ));
            }
        }
        match schema.names().iter().position(|&n| n == name) {
            Some(i) => Ok((i, Ty::of(schema.dtype(i)))),
            None => Err(SqlError::new(
                format!("unknown column `{name}` in `{table}`"),
                span,
            )),
        }
    };
    let (bound, ty) = bind_scalar(pred, &lookup, None)?;
    expect_bool(ty, pred.span)?;
    Ok(Some(bound))
}

/// Evaluate a literal AST expression to a [`Value`] of the column's
/// type. DML payloads are literal-only: computed values belong in a
/// query, and keeping VALUES constant keeps the WAL record a plain
/// row image.
fn literal_value(e: &Expr, dt: DataType) -> Result<Value, SqlError> {
    let fail =
        |got: &str| SqlError::new(format!("expected a {dt:?} literal here, got {got}"), e.span);
    match (&e.kind, dt) {
        (ExprKind::Int(v), DataType::I64) => Ok(Value::I64(*v)),
        (ExprKind::Int(v), DataType::I32) => i32::try_from(*v)
            .map(Value::I32)
            .map_err(|_| fail("an out-of-range integer")),
        (ExprKind::Int(v), DataType::F64) => Ok(Value::F64(*v as f64)),
        (ExprKind::Float(v), DataType::F64) => Ok(Value::F64(*v)),
        (ExprKind::Str(s), DataType::Str) => Ok(Value::Str(s.clone())),
        (ExprKind::Date { y, m, d }, DataType::I32) => Ok(Value::I32(date(*y, *m, *d))),
        (ExprKind::Date { y, m, d }, DataType::I64) => Ok(Value::I64(i64::from(date(*y, *m, *d)))),
        (ExprKind::Int(_), _) => Err(fail("an integer")),
        (ExprKind::Float(_), _) => Err(fail("a float")),
        (ExprKind::Str(_), _) => Err(fail("a string")),
        (ExprKind::Date { .. }, _) => Err(fail("a date")),
        _ => Err(fail("a non-literal expression")),
    }
}

/// The type families the engine distinguishes at bind time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Float,
    Str,
    Bool,
}

impl Ty {
    fn of(dt: DataType) -> Ty {
        match dt {
            DataType::I64 | DataType::I32 => Ty::Int,
            DataType::F64 => Ty::Float,
            DataType::Str => Ty::Str,
        }
    }

    fn describe(self) -> &'static str {
        match self {
            Ty::Int => "integer",
            Ty::Float => "float",
            Ty::Str => "string",
            Ty::Bool => "boolean",
        }
    }

    fn numeric(self) -> bool {
        matches!(self, Ty::Int | Ty::Float)
    }
}

enum SourceKind {
    Table(Arc<Relation>),
    Derived(LogicalPlan),
}

/// One `FROM` entry after resolution.
struct Source {
    alias: String,
    schema: Schema,
    /// Globally unique working name per schema column.
    working: Vec<String>,
    kind: SourceKind,
}

/// A resolved column reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Res {
    Col {
        src: usize,
        col: usize,
    },
    /// A join-generated column (`match_count` from `COUNT JOIN`).
    Generated,
}

/// Where a `WHERE` conjunct belongs.
enum Conjunct<'s> {
    Scan { src: usize, pred: &'s Expr },
    Join(JoinPred<'s>),
    Residual(&'s Expr),
}

/// A `a.x = b.y` equality between two sources.
struct JoinPred<'s> {
    a: (usize, usize),
    b: (usize, usize),
    pred: &'s Expr,
    used: bool,
}

/// One collected aggregate call.
struct AggSlot {
    call: Expr,
    func: AggFunc,
    distinct: bool,
    /// Input column name in the pre-aggregation schema (None for COUNT).
    input: Option<String>,
    /// Bound input expression (a bare `col(i)` or a computed tree).
    input_expr: Option<ex::Expr>,
    /// Whether the argument was a bare column reference.
    bare: bool,
    out_name: String,
    out_ty: Ty,
}

struct GroupItem {
    /// The (alias-substituted) source expression.
    ast: Expr,
    /// Output column name.
    name: String,
    /// Bound expression plus its type.
    bound: ex::Expr,
    ty: Ty,
    /// A bare column whose working name equals `name`.
    passthrough: bool,
}

struct ShapedAgg {
    groups: Vec<GroupItem>,
    slots: Vec<AggSlot>,
    /// Pre-aggregation projection: group entries, then aggregate inputs.
    pre_entries: Vec<(String, ex::Expr)>,
    /// The input plan already carries every needed column by name.
    all_passthrough: bool,
    out_names: Vec<String>,
}

type Lookup<'x> = &'x dyn Fn(Option<&str>, &str, Span) -> Result<(usize, Ty), SqlError>;

/// A `(source, column)` coordinate pair for the two sides of a join key.
type KeyPair = ((usize, usize), (usize, usize));

struct BindCtx<'s> {
    select: &'s Select,
    sources: Vec<Source>,
    /// Join-generated output columns (at most `match_count` today).
    generated: Vec<String>,
}

impl<'s> BindCtx<'s> {
    fn build(catalog: &Catalog, select: &'s Select) -> Result<Self, SqlError> {
        if select.from.is_empty() {
            return Err(SqlError::new("query needs a FROM clause", Span::default()));
        }
        let mut sources: Vec<Source> = Vec::new();
        for tref in &select.from {
            let (alias, schema, kind) = match &tref.factor {
                TableFactor::Table { name, alias, span } => {
                    let rel = catalog.get(name).ok_or_else(|| {
                        SqlError::new(
                            format!(
                                "unknown table `{name}` (known: {})",
                                catalog.names().join(", ")
                            ),
                            *span,
                        )
                    })?;
                    (
                        alias.clone().unwrap_or_else(|| name.clone()),
                        rel.schema().clone(),
                        SourceKind::Table(rel.clone()),
                    )
                }
                TableFactor::Derived { query, alias, .. } => {
                    let plan = Binder::new(catalog).bind(query)?;
                    (alias.clone(), plan.schema(), SourceKind::Derived(plan))
                }
            };
            if sources.iter().any(|s| s.alias == alias) {
                return Err(SqlError::new(
                    format!("duplicate table alias `{alias}`"),
                    tref.factor.span(),
                ));
            }
            sources.push(Source {
                alias,
                schema,
                working: Vec::new(),
                kind,
            });
        }
        // Working names: bare when globally unique, alias-qualified when
        // several sources expose the same column name.
        let mut counts = std::collections::BTreeMap::new();
        for s in &sources {
            for n in s.schema.names() {
                *counts.entry(n.to_owned()).or_insert(0usize) += 1;
            }
        }
        for s in &mut sources {
            s.working = s
                .schema
                .names()
                .iter()
                .map(|&n| {
                    if counts[n] > 1 {
                        format!("{}.{}", s.alias, n)
                    } else {
                        n.to_owned()
                    }
                })
                .collect();
        }
        let mut generated = Vec::new();
        for tref in &select.from {
            if matches!(tref.join, JoinOp::CountMatches(_)) {
                if !generated.is_empty() {
                    return Err(SqlError::new(
                        "at most one COUNT JOIN per query",
                        tref.factor.span(),
                    ));
                }
                generated.push("match_count".to_owned());
            }
        }
        Ok(BindCtx {
            select,
            sources,
            generated,
        })
    }

    // ---- name resolution ------------------------------------------------

    fn resolve(&self, table: Option<&str>, name: &str, span: Span) -> Result<Res, SqlError> {
        if let Some(t) = table {
            let src = self
                .sources
                .iter()
                .position(|s| s.alias == t)
                .ok_or_else(|| SqlError::new(format!("unknown table alias `{t}`"), span))?;
            let schema = &self.sources[src].schema;
            let col = schema
                .names()
                .iter()
                .position(|&n| n == name)
                .ok_or_else(|| {
                    SqlError::new(format!("table `{t}` has no column `{name}`"), span)
                })?;
            return Ok(Res::Col { src, col });
        }
        let mut hits = Vec::new();
        for (i, s) in self.sources.iter().enumerate() {
            if let Some(c) = s.schema.names().iter().position(|&n| n == name) {
                hits.push((i, c));
            }
        }
        match hits.len() {
            0 if self.generated.iter().any(|g| g == name) => Ok(Res::Generated),
            0 => Err(SqlError::new(format!("unknown column `{name}`"), span)),
            1 => Ok(Res::Col {
                src: hits[0].0,
                col: hits[0].1,
            }),
            _ => {
                let aliases: Vec<&str> = hits
                    .iter()
                    .map(|&(i, _)| self.sources[i].alias.as_str())
                    .collect();
                Err(SqlError::new(
                    format!(
                        "ambiguous column `{name}` (in {}); qualify it",
                        aliases.join(", ")
                    ),
                    span,
                ))
            }
        }
    }

    fn working_name(&self, res: Res) -> &str {
        match res {
            Res::Col { src, col } => &self.sources[src].working[col],
            Res::Generated => &self.generated[0],
        }
    }

    fn res_ty(&self, res: Res) -> Ty {
        match res {
            Res::Col { src, col } => Ty::of(self.sources[src].schema.dtype(col)),
            Res::Generated => Ty::Int,
        }
    }

    /// Record resolved refs into per-source used sets. With
    /// `allow_aliases`, unqualified names matching a select alias are
    /// skipped (GROUP BY / HAVING may reference output names).
    fn collect_refs(
        &self,
        e: &Expr,
        used: &mut [BTreeSet<usize>],
        allow_aliases: bool,
    ) -> Result<(), SqlError> {
        each_column(e, |table, name, span| {
            match self.resolve(table, name, span) {
                Ok(Res::Col { src, col }) => {
                    used[src].insert(col);
                    Ok(())
                }
                Ok(Res::Generated) => Ok(()),
                Err(err) => {
                    let is_alias = allow_aliases
                        && table.is_none()
                        && self
                            .select
                            .items
                            .iter()
                            .any(|i| i.alias.as_deref() == Some(name));
                    if is_alias {
                        Ok(())
                    } else {
                        Err(err)
                    }
                }
            }
        })
    }

    /// The sources an expression touches; `None` when it reads a
    /// join-generated column (pinning it after the joins).
    fn sources_of(&self, e: &Expr) -> Result<Option<BTreeSet<usize>>, SqlError> {
        let mut srcs = BTreeSet::new();
        let mut generated = false;
        each_column(e, |table, name, span| {
            match self.resolve(table, name, span)? {
                Res::Col { src, .. } => {
                    srcs.insert(src);
                }
                Res::Generated => generated = true,
            }
            Ok(())
        })?;
        Ok(if generated { None } else { Some(srcs) })
    }

    // ---- scalar binding (see the free `bind_scalar` below) --------------
}

/// Bind a scalar expression through a column-lookup closure. `aggs`
/// carries the collected aggregate slots (and the index where their
/// output columns start) when aggregate references are legal here. A
/// free function (not a `BindCtx` method) so single-table DML binding
/// reuses it without a join context.
fn bind_scalar(
    e: &Expr,
    lookup: Lookup<'_>,
    aggs: Option<(&[AggSlot], usize)>,
) -> Result<(ex::Expr, Ty), SqlError> {
    match &e.kind {
        ExprKind::Column { table, name } => {
            let (i, ty) = lookup(table.as_deref(), name, e.span)?;
            Ok((ex::col(i), ty))
        }
        ExprKind::Int(v) => Ok((ex::lit(*v), Ty::Int)),
        ExprKind::Float(v) => Ok((ex::litf(*v), Ty::Float)),
        ExprKind::Str(s) => Ok((ex::lits(s), Ty::Str)),
        ExprKind::Date { y, m, d } => Ok((ex::lit(i64::from(date(*y, *m, *d))), Ty::Int)),
        // Placeholders are a prepare-time construct: normalize::bind_params
        // splices concrete literals over them before binding.
        ExprKind::Param(i) => Err(SqlError::new(
            format!("unbound parameter ${}: bind a value before planning", i + 1),
            e.span,
        )),
        ExprKind::Binary { op, left, right } => {
            let (le, lt) = bind_scalar(left, lookup, aggs)?;
            let (re, rt) = bind_scalar(right, lookup, aggs)?;
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    if !lt.numeric() || !rt.numeric() {
                        return Err(SqlError::new(
                            format!(
                                "arithmetic needs numeric operands, got {} and {}",
                                lt.describe(),
                                rt.describe()
                            ),
                            e.span,
                        ));
                    }
                    let out = if lt == Ty::Float || rt == Ty::Float {
                        Ty::Float
                    } else {
                        Ty::Int
                    };
                    let built = match op {
                        BinOp::Add => ex::add(le, re),
                        BinOp::Sub => ex::sub(le, re),
                        BinOp::Mul => ex::mul(le, re),
                        _ => ex::div(le, re),
                    };
                    Ok((built, out))
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let compatible =
                        (lt.numeric() && rt.numeric()) || (lt == Ty::Str && rt == Ty::Str);
                    if !compatible {
                        return Err(SqlError::new(
                            format!("cannot compare {} to {}", lt.describe(), rt.describe()),
                            e.span,
                        ));
                    }
                    let cmp_op = match op {
                        BinOp::Eq => ex::CmpOp::Eq,
                        BinOp::Ne => ex::CmpOp::Ne,
                        BinOp::Lt => ex::CmpOp::Lt,
                        BinOp::Le => ex::CmpOp::Le,
                        BinOp::Gt => ex::CmpOp::Gt,
                        _ => ex::CmpOp::Ge,
                    };
                    Ok((ex::cmp(cmp_op, le, re), Ty::Bool))
                }
                BinOp::And | BinOp::Or => {
                    if lt != Ty::Bool || rt != Ty::Bool {
                        return Err(SqlError::new(
                            format!(
                                "{} needs boolean operands, got {} and {}",
                                op.symbol(),
                                lt.describe(),
                                rt.describe()
                            ),
                            e.span,
                        ));
                    }
                    let built = if *op == BinOp::And {
                        ex::and(le, re)
                    } else {
                        ex::or(le, re)
                    };
                    Ok((built, Ty::Bool))
                }
            }
        }
        ExprKind::Not(x) => {
            let (xe, xt) = bind_scalar(x, lookup, aggs)?;
            if xt != Ty::Bool {
                return Err(SqlError::new(
                    format!("NOT needs a boolean operand, got {}", xt.describe()),
                    e.span,
                ));
            }
            Ok((ex::not(xe), Ty::Bool))
        }
        ExprKind::Between {
            expr,
            negated,
            lo,
            hi,
        } => {
            let (xe, xt) = bind_scalar(expr, lookup, aggs)?;
            let (loe, lot) = bind_scalar(lo, lookup, aggs)?;
            let (hie, hit) = bind_scalar(hi, lookup, aggs)?;
            let families_ok = (xt.numeric() && lot.numeric() && hit.numeric())
                || (xt == Ty::Str && lot == Ty::Str && hit == Ty::Str);
            if !families_ok {
                return Err(SqlError::new(
                    format!(
                        "BETWEEN over mixed types: {} vs {} and {}",
                        xt.describe(),
                        lot.describe(),
                        hit.describe()
                    ),
                    e.span,
                ));
            }
            let built = match (xt, const_i64(lo), const_i64(hi)) {
                (Ty::Int, Some(l), Some(h)) => ex::between(xe, l, h),
                _ => ex::and(ex::ge(xe.clone(), loe), ex::le(xe, hie)),
            };
            Ok((maybe_not(built, *negated), Ty::Bool))
        }
        ExprKind::InList {
            expr,
            negated,
            list,
        } => {
            let (xe, xt) = bind_scalar(expr, lookup, aggs)?;
            match xt {
                Ty::Int => {
                    let mut vals = Vec::with_capacity(list.len());
                    for item in list {
                        vals.push(const_i64(item).ok_or_else(|| {
                            SqlError::new(
                                "IN list over an integer needs integer or date literals",
                                item.span,
                            )
                        })?);
                    }
                    Ok((maybe_not(ex::in_i64(xe, vals), *negated), Ty::Bool))
                }
                Ty::Str => {
                    let mut vals = Vec::with_capacity(list.len());
                    for item in list {
                        match &item.kind {
                            ExprKind::Str(s) => vals.push(s.clone()),
                            _ => {
                                return Err(SqlError::new(
                                    "IN list over a string needs string literals",
                                    item.span,
                                ))
                            }
                        }
                    }
                    let built = ex::Expr::InStr(Box::new(xe), vals);
                    Ok((maybe_not(built, *negated), Ty::Bool))
                }
                other => Err(SqlError::new(
                    format!("IN over unsupported type {}", other.describe()),
                    e.span,
                )),
            }
        }
        ExprKind::Like {
            expr,
            negated,
            pattern,
        } => {
            let (xe, xt) = bind_scalar(expr, lookup, aggs)?;
            if xt != Ty::Str {
                return Err(SqlError::new(
                    format!("LIKE needs a string, got {}", xt.describe()),
                    e.span,
                ));
            }
            // `abc%` is a pure prefix test; use the dedicated
            // operator (dictionary scans turn it into a code range).
            // A `_` in it is a wildcard, which a prefix test is not.
            let built = match pattern.strip_suffix('%') {
                Some(prefix) if !prefix.is_empty() && !prefix.contains(['%', '_']) => {
                    ex::prefix(xe, prefix)
                }
                _ => ex::like(xe, pattern),
            };
            Ok((maybe_not(built, *negated), Ty::Bool))
        }
        ExprKind::Case { cond, then, else_ } => {
            let (ce, ct) = bind_scalar(cond, lookup, aggs)?;
            if ct != Ty::Bool {
                return Err(SqlError::new(
                    format!("CASE WHEN needs a boolean, got {}", ct.describe()),
                    cond.span,
                ));
            }
            let (te, tt) = bind_scalar(then, lookup, aggs)?;
            let (ee, et) = bind_scalar(else_, lookup, aggs)?;
            if tt != et {
                return Err(SqlError::new(
                    format!(
                        "CASE branches disagree: {} vs {}",
                        tt.describe(),
                        et.describe()
                    ),
                    e.span,
                ));
            }
            Ok((ex::case(ce, te, ee), tt))
        }
        ExprKind::ExtractYear(x) => {
            let (xe, xt) = bind_scalar(x, lookup, aggs)?;
            if xt != Ty::Int {
                return Err(SqlError::new(
                    format!(
                        "EXTRACT(YEAR ...) needs a date (integer) column, got {}",
                        xt.describe()
                    ),
                    e.span,
                ));
            }
            Ok((ex::year_of(xe), Ty::Int))
        }
        ExprKind::Substring { expr, from, len } => {
            let (xe, xt) = bind_scalar(expr, lookup, aggs)?;
            if xt != Ty::Str {
                return Err(SqlError::new(
                    format!("SUBSTRING needs a string, got {}", xt.describe()),
                    e.span,
                ));
            }
            Ok((ex::substr(xe, *from as usize, *len as usize), Ty::Str))
        }
        ExprKind::Agg { .. } => match aggs {
            Some((slots, base)) => {
                let idx = slots
                    .iter()
                    .position(|s| &s.call == e)
                    .expect("aggregate slots collected before binding");
                Ok((ex::col(base + idx), slots[idx].out_ty))
            }
            None => Err(SqlError::new(
                "aggregate calls are not allowed here",
                e.span,
            )),
        },
    }
}

impl<'s> BindCtx<'s> {
    /// Bind a predicate against one base source's schema (scan filter).
    fn bind_on_source(&self, src: usize, e: &Expr) -> Result<ex::Expr, SqlError> {
        let schema = &self.sources[src].schema;
        let lookup =
            |table: Option<&str>, name: &str, span: Span| match self.resolve(table, name, span)? {
                Res::Col { src: s, col } if s == src => Ok((col, Ty::of(schema.dtype(col)))),
                _ => Err(SqlError::new(
                    format!(
                        "column `{name}` does not belong to `{}`",
                        self.sources[src].alias
                    ),
                    span,
                )),
            };
        let (bound, ty) = bind_scalar(e, &lookup, None)?;
        expect_bool(ty, e.span)?;
        Ok(bound)
    }

    /// Column lookup against the joined plan's canonical schema.
    fn joined_lookup<'b>(
        &'b self,
        schema: &'b Schema,
    ) -> impl Fn(Option<&str>, &str, Span) -> Result<(usize, Ty), SqlError> + 'b {
        move |table, name, span| {
            let res = self.resolve(table, name, span)?;
            let w = self.working_name(res);
            match schema.names().iter().position(|&n| n == w) {
                Some(i) => Ok((i, Ty::of(schema.dtype(i)))),
                None => Err(SqlError::new(
                    format!("column `{name}` is not visible here (removed by a semi/anti join)"),
                    span,
                )),
            }
        }
    }

    fn bind_on_joined(&self, plan: &LogicalPlan, e: &Expr) -> Result<ex::Expr, SqlError> {
        let schema = plan.schema();
        let lookup = self.joined_lookup(&schema);
        let (bound, ty) = bind_scalar(e, &lookup, None)?;
        expect_bool(ty, e.span)?;
        Ok(bound)
    }

    // ---- the main pipeline ----------------------------------------------

    fn bind(self) -> Result<LogicalPlan, SqlError> {
        let select = self.select;

        // Split WHERE into conjuncts and classify them.
        let mut conjuncts = Vec::new();
        if let Some(w) = &select.where_clause {
            split_and(w, &mut conjuncts);
        }
        let mut scan_filters: Vec<Vec<&Expr>> = vec![Vec::new(); self.sources.len()];
        let mut join_preds: Vec<JoinPred<'s>> = Vec::new();
        let mut residual: Vec<&Expr> = Vec::new();
        for c in conjuncts {
            match self.classify(c)? {
                Conjunct::Scan { src, pred } => scan_filters[src].push(pred),
                Conjunct::Join(jp) => join_preds.push(jp),
                Conjunct::Residual(p) => residual.push(p),
            }
        }

        let has_agg = !select.group_by.is_empty()
            || select.having.is_some()
            || select.items.iter().any(|i| i.expr.has_agg());

        // Fast path: one base table, everything folds into the scan.
        if self.sources.len() == 1
            && matches!(self.sources[0].kind, SourceKind::Table(_))
            && residual.is_empty()
        {
            let filters = std::mem::take(&mut scan_filters[0]);
            return self.bind_single_table(&filters, has_agg);
        }

        // Per-source referenced-column sets drive scan projections.
        let mut used: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.sources.len()];
        for item in &select.items {
            self.collect_refs(&item.expr, &mut used, false)?;
        }
        for g in &select.group_by {
            self.collect_refs(g, &mut used, true)?;
        }
        if let Some(h) = &select.having {
            self.collect_refs(h, &mut used, true)?;
        }
        for p in &residual {
            self.collect_refs(p, &mut used, false)?;
        }
        for jp in &join_preds {
            used[jp.a.0].insert(jp.a.1);
            used[jp.b.0].insert(jp.b.1);
        }
        for tref in &select.from {
            if let Some(on) = tref.join.on() {
                self.collect_refs(on, &mut used, false)?;
            }
        }

        // Base plans per source.
        let mut base_plans: Vec<Option<LogicalPlan>> = Vec::new();
        for (i, s) in self.sources.iter().enumerate() {
            let plan = match &s.kind {
                SourceKind::Table(rel) => {
                    let mut cols: Vec<usize> = used[i].iter().copied().collect();
                    if cols.is_empty() {
                        cols.push(0); // scans project at least one column
                    }
                    let filter = self.fold_scan_filter(i, &scan_filters[i])?;
                    LogicalPlan::Scan {
                        table: s.alias.clone(),
                        relation: rel.clone(),
                        filter,
                        project: cols
                            .iter()
                            .map(|&c| (s.working[c].clone(), ex::col(c)))
                            .collect(),
                    }
                }
                SourceKind::Derived(plan) => {
                    let mut plan = plan.clone();
                    if s.working.iter().zip(s.schema.names()).any(|(w, n)| w != n) {
                        let renames: Vec<(&str, ex::Expr)> = s
                            .working
                            .iter()
                            .enumerate()
                            .map(|(c, w)| (w.as_str(), ex::col(c)))
                            .collect();
                        plan = plan.project(renames);
                    }
                    for pred in &scan_filters[i] {
                        let bound = self.bind_on_derived(i, pred)?;
                        plan = plan.filter(bound);
                    }
                    plan
                }
            };
            base_plans.push(Some(plan));
        }

        // Assemble the join tree, then re-apply what didn't become a key.
        let mut plan = self.build_join_tree(&mut base_plans, &mut join_preds)?;
        for jp in join_preds.iter().filter(|p| !p.used) {
            // Cycle-closing equalities between already-joined sides.
            let bound = self.bind_on_joined(&plan, jp.pred)?;
            plan = plan.filter(bound);
        }
        for p in residual {
            let bound = self.bind_on_joined(&plan, p)?;
            plan = plan.filter(bound);
        }

        if has_agg {
            let schema = plan.schema();
            let shaped = {
                let lookup = self.joined_lookup(&schema);
                self.shape_aggregate(&lookup)?
            };
            let input = if shaped.all_passthrough {
                plan
            } else {
                let mut entries = shaped.pre_entries.clone();
                if entries.is_empty() {
                    // Scalar aggregate over a join: keep one column.
                    entries.push((schema.name(0).to_owned(), ex::col(0)));
                }
                plan.project(
                    entries
                        .iter()
                        .map(|(n, e)| (n.as_str(), e.clone()))
                        .collect(),
                )
            };
            self.finish_aggregate(input, shaped)
        } else {
            let out = self.bind_plain_projection(plan)?;
            self.bind_sort(out)
        }
    }

    /// Fold a source's scan-filter conjuncts into one predicate.
    fn fold_scan_filter(&self, src: usize, preds: &[&Expr]) -> Result<Option<ex::Expr>, SqlError> {
        let mut out: Option<ex::Expr> = None;
        for p in preds {
            let bound = self.bind_on_source(src, p)?;
            out = Some(match out {
                None => bound,
                Some(acc) => ex::and(acc, bound),
            });
        }
        Ok(out)
    }

    /// Bind a predicate against a derived source's output schema.
    fn bind_on_derived(&self, src: usize, e: &Expr) -> Result<ex::Expr, SqlError> {
        let s = &self.sources[src];
        let lookup =
            |table: Option<&str>, name: &str, span: Span| match self.resolve(table, name, span)? {
                Res::Col { src: rs, col } if rs == src => Ok((col, Ty::of(s.schema.dtype(col)))),
                _ => Err(SqlError::new(
                    format!("column `{name}` does not belong to `{}`", s.alias),
                    span,
                )),
            };
        let (bound, ty) = bind_scalar(e, &lookup, None)?;
        expect_bool(ty, e.span)?;
        Ok(bound)
    }

    fn classify(&self, pred: &'s Expr) -> Result<Conjunct<'s>, SqlError> {
        if let ExprKind::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &pred.kind
        {
            if let (
                ExprKind::Column {
                    table: lt,
                    name: ln,
                },
                ExprKind::Column {
                    table: rt,
                    name: rn,
                },
            ) = (&left.kind, &right.kind)
            {
                let lres = self.resolve(lt.as_deref(), ln, left.span)?;
                let rres = self.resolve(rt.as_deref(), rn, right.span)?;
                if let (Res::Col { src: ls, col: lc }, Res::Col { src: rs, col: rc }) = (lres, rres)
                {
                    if ls != rs {
                        let (lt_, rt_) = (self.res_ty(lres), self.res_ty(rres));
                        if lt_ != rt_ {
                            return Err(SqlError::new(
                                format!(
                                    "type mismatch in join predicate: {} vs {}",
                                    lt_.describe(),
                                    rt_.describe()
                                ),
                                pred.span,
                            ));
                        }
                        return Ok(Conjunct::Join(JoinPred {
                            a: (ls, lc),
                            b: (rs, rc),
                            pred,
                            used: false,
                        }));
                    }
                }
            }
        }
        match self.sources_of(pred)? {
            Some(srcs) if srcs.len() == 1 => Ok(Conjunct::Scan {
                src: *srcs.iter().next().unwrap(),
                pred,
            }),
            _ => Ok(Conjunct::Residual(pred)),
        }
    }

    fn build_join_tree(
        &self,
        base: &mut [Option<LogicalPlan>],
        preds: &mut [JoinPred<'s>],
    ) -> Result<LogicalPlan, SqlError> {
        let select = self.select;
        let mut tree = base[0].take().expect("first source plan");
        let mut tree_srcs: Vec<usize> = vec![0];
        let mut pending: Vec<usize> = Vec::new();

        for (i, tref) in select.from.iter().enumerate().skip(1) {
            match &tref.join {
                JoinOp::Comma => {
                    pending.push(i);
                    tree = self.drain_pending(tree, &mut tree_srcs, &mut pending, base, preds);
                }
                JoinOp::Inner(on)
                | JoinOp::Semi(on)
                | JoinOp::Anti(on)
                | JoinOp::CountMatches(on) => {
                    let kind = match &tref.join {
                        JoinOp::Inner(_) => JoinKind::Inner,
                        JoinOp::Semi(_) => JoinKind::Semi,
                        JoinOp::Anti(_) => JoinKind::Anti,
                        JoinOp::CountMatches(_) => JoinKind::Count,
                        JoinOp::Comma => unreachable!(),
                    };
                    let mut on_conjuncts = Vec::new();
                    split_and(on, &mut on_conjuncts);
                    let mut left_keys = Vec::new();
                    let mut right_keys = Vec::new();
                    for c in on_conjuncts {
                        let (tree_side, new_side) = self.on_key_pair(c, &tree_srcs, i)?;
                        left_keys.push(self.sources[tree_side.0].working[tree_side.1].clone());
                        right_keys.push(self.sources[new_side.0].working[new_side.1].clone());
                    }
                    let right = base[i].take().expect("join source plan");
                    tree = tree.join_kind(
                        right,
                        &left_keys.iter().map(String::as_str).collect::<Vec<_>>(),
                        &right_keys.iter().map(String::as_str).collect::<Vec<_>>(),
                        kind,
                    );
                    tree_srcs.push(i);
                    tree = self.drain_pending(tree, &mut tree_srcs, &mut pending, base, preds);
                }
            }
        }
        if let Some(&stuck) = pending.first() {
            return Err(SqlError::new(
                format!(
                    "table `{}` is not connected to the rest of the query by any \
                     equi-join predicate",
                    self.sources[stuck].alias
                ),
                select.from[stuck].factor.span(),
            ));
        }
        Ok(tree)
    }

    /// Attach comma-listed tables reachable through WHERE equi-predicates
    /// (all matching predicates between a pair become one composite key).
    fn drain_pending(
        &self,
        mut tree: LogicalPlan,
        tree_srcs: &mut Vec<usize>,
        pending: &mut Vec<usize>,
        base: &mut [Option<LogicalPlan>],
        preds: &mut [JoinPred<'s>],
    ) -> LogicalPlan {
        loop {
            let mut attached = None;
            for (pi, &p) in pending.iter().enumerate() {
                let mut left_keys = Vec::new();
                let mut right_keys = Vec::new();
                let mut hit = Vec::new();
                for (ji, jp) in preds.iter().enumerate() {
                    if jp.used {
                        continue;
                    }
                    let pair = if jp.a.0 == p && tree_srcs.contains(&jp.b.0) {
                        Some((jp.b, jp.a))
                    } else if jp.b.0 == p && tree_srcs.contains(&jp.a.0) {
                        Some((jp.a, jp.b))
                    } else {
                        None
                    };
                    if let Some((tree_side, new_side)) = pair {
                        left_keys.push(self.sources[tree_side.0].working[tree_side.1].clone());
                        right_keys.push(self.sources[new_side.0].working[new_side.1].clone());
                        hit.push(ji);
                    }
                }
                if !left_keys.is_empty() {
                    let right = base[p].take().expect("pending source plan");
                    tree = tree.join(
                        right,
                        &left_keys.iter().map(String::as_str).collect::<Vec<_>>(),
                        &right_keys.iter().map(String::as_str).collect::<Vec<_>>(),
                    );
                    tree_srcs.push(p);
                    for ji in hit {
                        preds[ji].used = true;
                    }
                    attached = Some(pi);
                    break;
                }
            }
            match attached {
                Some(pi) => {
                    pending.remove(pi);
                }
                None => return tree,
            }
        }
    }

    fn on_key_pair(
        &self,
        c: &Expr,
        tree_srcs: &[usize],
        new_src: usize,
    ) -> Result<KeyPair, SqlError> {
        if let ExprKind::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &c.kind
        {
            if let (
                ExprKind::Column {
                    table: lt,
                    name: ln,
                },
                ExprKind::Column {
                    table: rt,
                    name: rn,
                },
            ) = (&left.kind, &right.kind)
            {
                let l = self.resolve(lt.as_deref(), ln, left.span)?;
                let r = self.resolve(rt.as_deref(), rn, right.span)?;
                if let (Res::Col { src: ls, col: lc }, Res::Col { src: rs, col: rc }) = (l, r) {
                    if self.res_ty(l) != self.res_ty(r) {
                        return Err(SqlError::new(
                            format!(
                                "type mismatch in join predicate: {} vs {}",
                                self.res_ty(l).describe(),
                                self.res_ty(r).describe()
                            ),
                            c.span,
                        ));
                    }
                    if tree_srcs.contains(&ls) && rs == new_src {
                        return Ok(((ls, lc), (rs, rc)));
                    }
                    if tree_srcs.contains(&rs) && ls == new_src {
                        return Ok(((rs, rc), (ls, lc)));
                    }
                }
            }
        }
        Err(SqlError::new(
            "ON clause must be a conjunction of `left.col = right.col` equalities \
             between the two join sides",
            c.span,
        ))
    }

    // ---- projection / aggregation / sort --------------------------------

    fn output_names(&self) -> Result<Vec<String>, SqlError> {
        let mut names = Vec::new();
        for (i, item) in self.select.items.iter().enumerate() {
            let name = match (&item.alias, &item.expr.kind) {
                (Some(a), _) => a.clone(),
                (None, ExprKind::Column { name, .. }) => name.clone(),
                (None, _) => format!("_col{i}"),
            };
            if names.contains(&name) {
                return Err(SqlError::new(
                    format!("duplicate output column `{name}`; add an AS alias"),
                    item.expr.span,
                ));
            }
            names.push(name);
        }
        Ok(names)
    }

    fn bind_plain_projection(&self, plan: LogicalPlan) -> Result<LogicalPlan, SqlError> {
        let names = self.output_names()?;
        let schema = plan.schema();
        let mut entries: Vec<(String, ex::Expr)> = Vec::new();
        {
            let lookup = self.joined_lookup(&schema);
            for (item, name) in self.select.items.iter().zip(&names) {
                let (bound, _) = bind_scalar(&item.expr, &lookup, None)?;
                entries.push((name.clone(), bound));
            }
        }
        Ok(plan.project(
            entries
                .iter()
                .map(|(n, e)| (n.as_str(), e.clone()))
                .collect(),
        ))
    }

    /// One base table, no joins: fold everything into the scan.
    fn bind_single_table(self, filters: &[&Expr], has_agg: bool) -> Result<LogicalPlan, SqlError> {
        let filter = self.fold_scan_filter(0, filters)?;
        let (relation, alias) = match &self.sources[0].kind {
            SourceKind::Table(rel) => (rel.clone(), self.sources[0].alias.clone()),
            SourceKind::Derived(_) => unreachable!("single-table path requires a base table"),
        };
        let schema = self.sources[0].schema.clone();
        let lookup =
            |table: Option<&str>, name: &str, span: Span| match self.resolve(table, name, span)? {
                Res::Col { col, .. } => Ok((col, Ty::of(schema.dtype(col)))),
                Res::Generated => Err(SqlError::new(format!("unknown column `{name}`"), span)),
            };
        if !has_agg {
            let names = self.output_names()?;
            let mut project = Vec::new();
            for (item, name) in self.select.items.iter().zip(&names) {
                let (bound, _) = bind_scalar(&item.expr, &lookup, None)?;
                project.push((name.clone(), bound));
            }
            let plan = LogicalPlan::Scan {
                table: alias,
                relation,
                filter,
                project,
            };
            return self.bind_sort(plan);
        }
        // Aggregation over one table: group expressions and aggregate
        // inputs are computed by the scan projection itself — the shape
        // the hand-authored plans use (e.g. Q1).
        let shaped = self.shape_aggregate(&lookup)?;
        let mut project = shaped.pre_entries.clone();
        if project.is_empty() {
            // COUNT(*) with no group columns still scans one column.
            project.push((schema.name(0).to_owned(), ex::col(0)));
        }
        let plan = LogicalPlan::Scan {
            table: alias,
            relation,
            filter,
            project,
        };
        self.finish_aggregate(plan, shaped)
    }

    fn shape_aggregate(&self, lookup: Lookup<'_>) -> Result<ShapedAgg, SqlError> {
        let select = self.select;
        let out_names = self.output_names()?;

        // Group items, with select-alias substitution.
        let mut groups: Vec<GroupItem> = Vec::new();
        for (gi, g) in select.group_by.iter().enumerate() {
            let (ast, name) = match &g.kind {
                ExprKind::Column { table, name } => {
                    match self.resolve(table.as_deref(), name, g.span) {
                        Ok(res) => (g.clone(), self.working_name(res).to_owned()),
                        Err(err) => {
                            let alias_hit = if table.is_none() {
                                select
                                    .items
                                    .iter()
                                    .zip(&out_names)
                                    .find(|(item, _)| item.alias.as_deref() == Some(name))
                                    .map(|(item, n)| (item.expr.clone(), n.clone()))
                            } else {
                                None
                            };
                            match alias_hit {
                                Some((expr, n)) => (expr, n),
                                None => return Err(err),
                            }
                        }
                    }
                }
                _ => {
                    let name = select
                        .items
                        .iter()
                        .zip(&out_names)
                        .find(|(item, _)| &item.expr == g)
                        .map(|(_, n)| n.clone())
                        .unwrap_or_else(|| format!("_group{gi}"));
                    (g.clone(), name)
                }
            };
            if ast.has_agg() {
                return Err(SqlError::new(
                    "GROUP BY cannot contain aggregate calls",
                    g.span,
                ));
            }
            let (bound, ty) = bind_scalar(&ast, lookup, None)?;
            let passthrough = match &ast.kind {
                ExprKind::Column { table, name: n } => {
                    let res = self.resolve(table.as_deref(), n, ast.span)?;
                    self.working_name(res) == name
                }
                _ => false,
            };
            groups.push(GroupItem {
                ast,
                name,
                bound,
                ty,
                passthrough,
            });
        }

        // Aggregate calls from the select list and HAVING, deduplicated;
        // an aggregate's argument is not searched (nesting is an error
        // `make_slot` reports).
        let mut calls: Vec<&Expr> = Vec::new();
        for site in select.items.iter().map(|i| &i.expr).chain(&select.having) {
            site.walk(&mut |e| {
                let is_agg = matches!(e.kind, ExprKind::Agg { .. });
                if is_agg && !calls.contains(&e) {
                    calls.push(e);
                }
                !is_agg
            });
        }
        let mut slots: Vec<AggSlot> = Vec::with_capacity(calls.len());
        for (idx, call) in calls.into_iter().enumerate() {
            let out_name = select
                .items
                .iter()
                .zip(&out_names)
                .find(|(item, _)| &item.expr == call)
                .map(|(_, n)| n.clone())
                .unwrap_or_else(|| format!("_agg{idx}"));
            slots.push(self.make_slot(call, out_name, lookup, idx)?);
        }

        // Pre-aggregation entries: groups first, then aggregate inputs.
        let mut pre_entries: Vec<(String, ex::Expr)> = groups
            .iter()
            .map(|g| (g.name.clone(), g.bound.clone()))
            .collect();
        for slot in &slots {
            if let (Some(input), Some(expr)) = (&slot.input, &slot.input_expr) {
                if !pre_entries.iter().any(|(n, _)| n == input) {
                    pre_entries.push((input.clone(), expr.clone()));
                }
            }
        }
        let all_passthrough = groups.iter().all(|g| g.passthrough)
            && slots.iter().all(|s| s.input.is_none() || s.bare);
        Ok(ShapedAgg {
            groups,
            slots,
            pre_entries,
            all_passthrough,
            out_names,
        })
    }

    fn make_slot(
        &self,
        call: &Expr,
        out_name: String,
        lookup: Lookup<'_>,
        idx: usize,
    ) -> Result<AggSlot, SqlError> {
        let (func, distinct, arg) = match &call.kind {
            ExprKind::Agg {
                func,
                distinct,
                arg,
            } => (*func, *distinct, arg.as_deref()),
            _ => unreachable!("only aggregate calls get a slot"),
        };
        let mut input = None;
        let mut input_expr = None;
        let mut bare = false;
        let mut arg_ty = Ty::Int;
        if let Some(a) = arg {
            if a.has_agg() {
                return Err(SqlError::new("nested aggregate calls", a.span));
            }
            let (bound, ty) = bind_scalar(a, lookup, None)?;
            arg_ty = ty;
            if let ExprKind::Column { table, name } = &a.kind {
                let res = self.resolve(table.as_deref(), name, a.span)?;
                input = Some(self.working_name(res).to_owned());
                bare = true;
            } else {
                input = Some(format!("_in{idx}"));
            }
            input_expr = Some(bound);
        }
        let out_ty = match func {
            AggFunc::Count => Ty::Int,
            AggFunc::Sum => {
                if !arg_ty.numeric() {
                    return Err(SqlError::new(
                        format!("SUM needs a numeric argument, got {}", arg_ty.describe()),
                        call.span,
                    ));
                }
                arg_ty
            }
            AggFunc::Min | AggFunc::Max => {
                if arg_ty != Ty::Int {
                    return Err(SqlError::new(
                        format!(
                            "{} supports integer columns only, got {}",
                            func.name(),
                            arg_ty.describe()
                        ),
                        call.span,
                    ));
                }
                Ty::Int
            }
            AggFunc::Avg => {
                if arg_ty != Ty::Int {
                    return Err(SqlError::new(
                        format!(
                            "AVG supports integer columns only, got {}",
                            arg_ty.describe()
                        ),
                        call.span,
                    ));
                }
                Ty::Float
            }
        };
        if distinct {
            if func != AggFunc::Count {
                return Err(SqlError::new(
                    "DISTINCT is only supported inside COUNT",
                    call.span,
                ));
            }
            if arg_ty != Ty::Int {
                return Err(SqlError::new(
                    format!(
                        "COUNT(DISTINCT ...) supports integer columns only, got {}",
                        arg_ty.describe()
                    ),
                    call.span,
                ));
            }
        }
        Ok(AggSlot {
            call: call.clone(),
            func,
            distinct,
            input,
            input_expr,
            bare,
            out_name,
            out_ty,
        })
    }

    fn finish_aggregate(
        self,
        input: LogicalPlan,
        shaped: ShapedAgg,
    ) -> Result<LogicalPlan, SqlError> {
        let ShapedAgg {
            groups,
            slots,
            out_names,
            ..
        } = shaped;
        let group_names: Vec<&str> = groups.iter().map(|g| g.name.as_str()).collect();
        let aggs: Vec<(&str, AggSpec)> = slots
            .iter()
            .map(|s| {
                let input = || s.input.clone().expect("argument checked at slot creation");
                let spec = match (s.func, s.distinct) {
                    (AggFunc::Count, true) => AggSpec::CountDistinct(input()),
                    // COUNT(x) == COUNT(*): the engine has no NULLs.
                    (AggFunc::Count, false) => AggSpec::Count,
                    (AggFunc::Sum, _) => AggSpec::Sum(input()),
                    (AggFunc::Min, _) => AggSpec::Min(input()),
                    (AggFunc::Max, _) => AggSpec::Max(input()),
                    (AggFunc::Avg, _) => AggSpec::Avg(input()),
                };
                (s.out_name.as_str(), spec)
            })
            .collect();
        let mut plan = input.aggregate(&group_names, aggs);

        // Environment over the aggregate's output: group columns by
        // name/alias, aggregate calls by slot, nothing else. Subtrees
        // that *are* a group expression (e.g. `EXTRACT(YEAR FROM
        // o_orderdate)` when that is what was grouped on) are replaced
        // by references to the group column first, top-down. Aggregate
        // arguments are left alone: they live below the aggregate and
        // are matched by slot instead.
        let bind_over_aggregate = |e: &Expr| -> Result<(ex::Expr, Ty), SqlError> {
            let mut e = e.clone();
            e.walk_mut(&mut |x| {
                if let Some(g) = groups.iter().find(|g| g.ast == *x) {
                    x.kind = ExprKind::Column {
                        table: None,
                        name: g.name.clone(),
                    };
                    return false;
                }
                !matches!(x.kind, ExprKind::Agg { .. })
            });
            let lookup = |table: Option<&str>, name: &str, span: Span| {
                if table.is_none() {
                    if let Some(i) = groups.iter().position(|g| g.name == name) {
                        return Ok((i, groups[i].ty));
                    }
                    if let Some(i) = slots.iter().position(|s| s.out_name == name) {
                        return Ok((groups.len() + i, slots[i].out_ty));
                    }
                }
                let res = self.resolve(table, name, span)?;
                let w = self.working_name(res);
                if let Some(i) = groups.iter().position(|g| g.name == w) {
                    return Ok((i, groups[i].ty));
                }
                Err(SqlError::new(
                    format!("column `{name}` must appear in GROUP BY or inside an aggregate"),
                    span,
                ))
            };
            bind_scalar(&e, &lookup, Some((&slots, groups.len())))
        };

        if let Some(h) = &self.select.having {
            let (bound, ty) = bind_over_aggregate(h)?;
            expect_bool(ty, h.span)?;
            plan = plan.filter(bound);
        }

        // Post-aggregation projection, skipped when the select list is
        // exactly the aggregate's natural output.
        let identity = out_names.len() == groups.len() + slots.len()
            && self.select.items.iter().enumerate().all(|(i, item)| {
                if i < groups.len() {
                    item.expr == groups[i].ast && out_names[i] == groups[i].name
                } else {
                    let s = &slots[i - groups.len()];
                    item.expr == s.call && out_names[i] == s.out_name
                }
            });
        if !identity {
            let mut entries = Vec::new();
            for (item, name) in self.select.items.iter().zip(&out_names) {
                let (bound, _) = bind_over_aggregate(&item.expr)?;
                entries.push((name.clone(), bound));
            }
            plan = plan.project(
                entries
                    .iter()
                    .map(|(n, e)| (n.as_str(), e.clone()))
                    .collect(),
            );
        }
        self.bind_sort(plan)
    }

    fn bind_sort(&self, plan: LogicalPlan) -> Result<LogicalPlan, SqlError> {
        let select = self.select;
        if select.order_by.is_empty() {
            if select.limit.is_some() {
                return Err(SqlError::new(
                    "LIMIT requires an ORDER BY clause",
                    select.limit_span,
                ));
            }
            return Ok(plan);
        }
        let schema = plan.schema();
        let names: Vec<&str> = schema.names();
        let mut keys = Vec::new();
        for o in &select.order_by {
            if !names.contains(&o.name.as_str()) {
                return Err(SqlError::new(
                    format!(
                        "ORDER BY column `{}` is not in the output (have: {})",
                        o.name,
                        names.join(", ")
                    ),
                    o.span,
                ));
            }
            keys.push(OrderBy {
                column: o.name.clone(),
                descending: o.desc,
            });
        }
        Ok(plan.sort(keys, select.limit))
    }
}

fn expect_bool(ty: Ty, span: Span) -> Result<(), SqlError> {
    if ty == Ty::Bool {
        Ok(())
    } else {
        Err(SqlError::new(
            format!("expected a boolean predicate, got {}", ty.describe()),
            span,
        ))
    }
}

fn maybe_not(e: ex::Expr, negated: bool) -> ex::Expr {
    if negated {
        ex::not(e)
    } else {
        e
    }
}

fn const_i64(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::Int(v) => Some(*v),
        ExprKind::Date { y, m, d } => Some(i64::from(date(*y, *m, *d))),
        _ => None,
    }
}

fn split_and<'s>(e: &'s Expr, out: &mut Vec<&'s Expr>) {
    if let ExprKind::Binary {
        op: BinOp::And,
        left,
        right,
    } = &e.kind
    {
        split_and(left, out);
        split_and(right, out);
    } else {
        out.push(e);
    }
}

/// Visit every column reference in `e` in pre-order, stopping at the
/// first error `f` returns.
fn each_column(
    e: &Expr,
    mut f: impl FnMut(Option<&str>, &str, Span) -> Result<(), SqlError>,
) -> Result<(), SqlError> {
    let mut result = Ok(());
    e.walk(&mut |x| {
        if let (Ok(()), ExprKind::Column { table, name }) = (&result, &x.kind) {
            result = f(table.as_deref(), name, x.span);
        }
        result.is_ok()
    });
    result
}
