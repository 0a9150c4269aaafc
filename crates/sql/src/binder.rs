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
//!   (`n1.n_name`), which labels it in `EXPLAIN` and the result schema.
//!   The plan itself addresses columns by position: join keys, group
//!   columns, aggregate inputs and sort keys are indexes the binder
//!   takes from the columns it tracks for each node it builds.
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

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use morsel_exec::agg::AggFn;
use morsel_exec::expr as ex;
use morsel_exec::join::JoinKind;
use morsel_exec::sort::SortKey;
use morsel_planner::{DmlPlan, LogicalPlan};
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
                let Some(i) = schema.position(c) else {
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
            let Some(i) = schema.position(&item.column) else {
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
        match schema.position(name) {
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
    /// A derived table's plan and its output schema.
    Derived(LogicalPlan, Schema),
}

/// One `FROM` entry after resolution.
struct Source {
    alias: String,
    /// Per schema column: whether another source exposes the same name,
    /// so its working name is alias-qualified ([`BindCtx::working`]).
    clash: Vec<bool>,
    kind: SourceKind,
}

impl Source {
    fn schema(&self) -> &Schema {
        match &self.kind {
            SourceKind::Table(rel) => rel.schema(),
            SourceKind::Derived(_, schema) => schema,
        }
    }
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
struct AggSlot<'s> {
    call: &'s Expr,
    /// The executor's aggregate over its input column, picked from the
    /// checked argument type.
    agg: fn(usize) -> AggFn,
    /// The argument's entry among the pre-aggregation columns (None for
    /// `COUNT(*)`).
    input: Option<usize>,
    out_name: String,
    out_ty: Ty,
}

struct GroupItem<'s> {
    /// The (alias-substituted) source expression.
    ast: &'s Expr,
    /// Output column name.
    name: String,
    ty: Ty,
    /// The column a `GROUP BY` column reference names, which passes
    /// through under its working name.
    passthrough: Option<Res>,
}

struct ShapedAgg<'s> {
    groups: Vec<GroupItem<'s>>,
    slots: Vec<AggSlot<'s>>,
    /// Pre-aggregation projection: group entries, then aggregate inputs.
    pre_entries: Vec<(String, ex::Expr)>,
    /// Every entry is a joined column under its working name, so the
    /// joined plan is the aggregate's input as it stands.
    all_passthrough: bool,
    out_names: Vec<String>,
}

type Lookup<'x> = &'x dyn Fn(Option<&str>, &str, Span) -> Result<(usize, Ty), SqlError>;

/// What an expression over an aggregate's output reads: a subtree equal
/// to group expression `i` reads group column `i`, and an aggregate call
/// reads its slot's column, slot `i` at `groups.len() + i`.
struct Over<'a, 's> {
    groups: &'a [GroupItem<'s>],
    slots: &'a [AggSlot<'s>],
}

/// A `(source, column)` coordinate pair for the two sides of a join key.
type KeyPair = ((usize, usize), (usize, usize));

/// A join key as the join takes it: the tree's output column, and the
/// joined source's `(source, column)`.
type JoinKey = (usize, (usize, usize));

/// The join tree under construction: its plan and its output columns in
/// order — what its canonical schema holds, without deriving it.
struct JoinedTree {
    plan: LogicalPlan,
    cols: Vec<Res>,
}

impl JoinedTree {
    /// Where source column `(src, col)` sits in this tree's output, if
    /// the tree outputs it (a semi or anti join's right side it does not).
    fn column_of(&self, (src, col): (usize, usize)) -> Option<usize> {
        self.cols.iter().position(|&r| r == Res::Col { src, col })
    }

    /// Join source `src`'s base plan on `keys`, this tree's first. The
    /// source's key is its position among the columns the base plan
    /// outputs.
    fn join(
        self,
        right: LogicalPlan,
        src: usize,
        keys: &[JoinKey],
        kind: JoinKind,
        base_cols: &[Vec<usize>],
    ) -> Self {
        let JoinedTree { plan, mut cols } = self;
        let right_key = |&(_, (_, c)): &JoinKey| {
            (base_cols[src].iter().position(|&x| x == c)).expect("join keys are scanned")
        };
        let plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            left_keys: keys.iter().map(|&(at, _)| at).collect(),
            right_keys: keys.iter().map(right_key).collect(),
            kind,
        };
        match kind {
            JoinKind::Inner => cols.extend(source_columns(base_cols, src)),
            JoinKind::Semi | JoinKind::Anti => {}
            JoinKind::Count => cols.push(Res::Generated),
        }
        JoinedTree { plan, cols }
    }
}

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
            let (alias, kind) = match &tref.factor {
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
                        SourceKind::Table(rel.clone()),
                    )
                }
                TableFactor::Derived { query, alias, .. } => {
                    let plan = Binder::new(catalog).bind(query)?;
                    let schema = plan.schema();
                    (alias.clone(), SourceKind::Derived(plan, schema))
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
                clash: Vec::new(),
                kind,
            });
        }
        // Working names: bare when globally unique, alias-qualified when
        // several sources expose the same column name.
        let columns = sources.iter().map(|s| s.schema().len()).sum();
        let mut counts: HashMap<&str, usize> = HashMap::with_capacity(columns);
        for s in &sources {
            for f in s.schema().fields() {
                *counts.entry(&f.name).or_default() += 1;
            }
        }
        let clashes: Vec<Vec<bool>> = (sources.iter())
            .map(|s| {
                s.schema()
                    .fields()
                    .iter()
                    .map(|f| counts[f.name.as_str()] > 1)
                    .collect()
            })
            .collect();
        for (s, clash) in sources.iter_mut().zip(clashes) {
            s.clash = clash;
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
            let col = self.sources[src].schema().position(name).ok_or_else(|| {
                SqlError::new(format!("table `{t}` has no column `{name}`"), span)
            })?;
            return Ok(Res::Col { src, col });
        }
        let mut hits = (self.sources.iter().enumerate())
            .filter_map(|(src, s)| Some((src, s.schema().position(name)?)));
        match (hits.next(), hits.next()) {
            (None, _) if self.generated.iter().any(|g| g == name) => Ok(Res::Generated),
            (None, _) => Err(SqlError::new(format!("unknown column `{name}`"), span)),
            (Some((src, col)), None) => Ok(Res::Col { src, col }),
            (Some(_), Some(_)) => {
                let aliases: Vec<&str> = (self.sources.iter())
                    .filter(|s| s.schema().position(name).is_some())
                    .map(|s| s.alias.as_str())
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

    /// A source column's globally unique working name: bare, or
    /// alias-qualified (`n1.n_name`) when another source exposes the
    /// same name. Built only for the columns a statement names.
    fn working(&self, src: usize, col: usize) -> Cow<'_, str> {
        let s = &self.sources[src];
        let name = s.schema().name(col);
        if s.clash[col] {
            Cow::Owned(format!("{}.{name}", s.alias))
        } else {
            Cow::Borrowed(name)
        }
    }

    fn working_name(&self, res: Res) -> Cow<'_, str> {
        match res {
            Res::Col { src, col } => self.working(src, col),
            Res::Generated => Cow::Borrowed(&self.generated[0]),
        }
    }

    fn res_ty(&self, res: Res) -> Ty {
        match res {
            Res::Col { src, col } => Ty::of(self.sources[src].schema().dtype(col)),
            Res::Generated => Ty::Int,
        }
    }

    /// Record resolved refs into per-source used sets. With
    /// `allow_aliases`, unqualified names matching a select alias are
    /// skipped (GROUP BY / HAVING may reference output names).
    fn collect_refs(
        &self,
        e: &Expr,
        used: &mut [Vec<bool>],
        allow_aliases: bool,
    ) -> Result<(), SqlError> {
        each_column(e, |table, name, span| {
            match self.resolve(table, name, span) {
                Ok(Res::Col { src, col }) => {
                    used[src][col] = true;
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

    /// The one source an expression reads, if it reads exactly one and
    /// no join-generated column (which pins it after the joins).
    fn single_source(&self, e: &Expr) -> Result<Option<usize>, SqlError> {
        let mut only: Option<usize> = None;
        let mut single = true;
        each_column(e, |table, name, span| {
            match self.resolve(table, name, span)? {
                Res::Col { src, .. } if only.is_none_or(|o| o == src) => only = Some(src),
                _ => single = false,
            }
            Ok(())
        })?;
        Ok(only.filter(|_| single))
    }

    // ---- scalar binding (see the free `bind_scalar` below) --------------
}

/// Bind a scalar expression through a column-lookup closure. `over` is
/// the aggregate's output when the expression is evaluated above one
/// (HAVING and the select list of a grouped query); aggregate calls are
/// legal only there. A free function (not a `BindCtx` method) so
/// single-table DML binding reuses it without a join context.
fn bind_scalar(
    e: &Expr,
    lookup: Lookup<'_>,
    over: Option<&Over>,
) -> Result<(ex::Expr, Ty), SqlError> {
    if let Some(groups) = over.map(|o| o.groups) {
        if let Some(i) = groups.iter().position(|g| *g.ast == *e) {
            return Ok((ex::col(i), groups[i].ty));
        }
    }
    match &e.kind {
        ExprKind::Column { table, name } => {
            let (i, ty) = lookup(table.as_deref(), name, e.span)?;
            Ok((ex::col(i), ty))
        }
        ExprKind::Int(v) => Ok((ex::lit(*v), Ty::Int)),
        ExprKind::Float(v) => Ok((ex::litf(*v), Ty::Float)),
        ExprKind::Str(s) => Ok((ex::lits(s), Ty::Str)),
        ExprKind::Date { y, m, d } => Ok((ex::lit(i64::from(date(*y, *m, *d))), Ty::Int)),
        ExprKind::Binary { op, left, right } => {
            let (le, lt) = bind_scalar(left, lookup, over)?;
            let (re, rt) = bind_scalar(right, lookup, over)?;
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
            let (xe, xt) = bind_scalar(x, lookup, over)?;
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
            let (xe, xt) = bind_scalar(expr, lookup, over)?;
            let (loe, lot) = bind_scalar(lo, lookup, over)?;
            let (hie, hit) = bind_scalar(hi, lookup, over)?;
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
            let (xe, xt) = bind_scalar(expr, lookup, over)?;
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
            let (xe, xt) = bind_scalar(expr, lookup, over)?;
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
            let (ce, ct) = bind_scalar(cond, lookup, over)?;
            if ct != Ty::Bool {
                return Err(SqlError::new(
                    format!("CASE WHEN needs a boolean, got {}", ct.describe()),
                    cond.span,
                ));
            }
            let (te, tt) = bind_scalar(then, lookup, over)?;
            let (ee, et) = bind_scalar(else_, lookup, over)?;
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
            let (xe, xt) = bind_scalar(x, lookup, over)?;
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
            let (xe, xt) = bind_scalar(expr, lookup, over)?;
            if xt != Ty::Str {
                return Err(SqlError::new(
                    format!("SUBSTRING needs a string, got {}", xt.describe()),
                    e.span,
                ));
            }
            Ok((ex::substr(xe, *from as usize, *len as usize), Ty::Str))
        }
        ExprKind::Agg { .. } => match over {
            Some(Over { groups, slots }) => {
                let idx = slots
                    .iter()
                    .position(|s| *s.call == *e)
                    .expect("aggregate slots collected before binding");
                Ok((ex::col(groups.len() + idx), slots[idx].out_ty))
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
        let schema = self.sources[src].schema();
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

    /// Column lookup against the joined plan's output, whose columns are
    /// `joined`, in order.
    fn joined_lookup<'b>(
        &'b self,
        joined: &'b [Res],
    ) -> impl Fn(Option<&str>, &str, Span) -> Result<(usize, Ty), SqlError> + 'b {
        move |table, name, span| {
            let res = self.resolve(table, name, span)?;
            match joined.iter().position(|&r| r == res) {
                Some(i) => Ok((i, self.res_ty(res))),
                None => Err(SqlError::new(
                    format!("column `{name}` is not visible here (removed by a semi/anti join)"),
                    span,
                )),
            }
        }
    }

    fn bind_on_joined(&self, joined: &[Res], e: &Expr) -> Result<ex::Expr, SqlError> {
        let lookup = self.joined_lookup(joined);
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

        // Per-source referenced-column sets drive scan projections.
        let mut used: Vec<Vec<bool>> = (self.sources.iter())
            .map(|s| vec![false; s.schema().len()])
            .collect();
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
            used[jp.a.0][jp.a.1] = true;
            used[jp.b.0][jp.b.1] = true;
        }
        for tref in &select.from {
            if let Some(on) = tref.join.on() {
                self.collect_refs(on, &mut used, false)?;
            }
        }

        // Base plans per source, and the source columns each outputs.
        let mut base_plans: Vec<Option<LogicalPlan>> = Vec::new();
        let mut base_cols: Vec<Vec<usize>> = Vec::new();
        for (i, s) in self.sources.iter().enumerate() {
            let (plan, cols) = match &s.kind {
                SourceKind::Table(rel) => {
                    let mut cols: Vec<usize> = (0..used[i].len()).filter(|&c| used[i][c]).collect();
                    if cols.is_empty() {
                        cols.push(0); // scans project at least one column
                    }
                    let filter = self.fold_scan_filter(i, &scan_filters[i])?;
                    let scan = LogicalPlan::Scan {
                        table: s.alias.clone(),
                        relation: rel.clone(),
                        filter,
                        project: cols
                            .iter()
                            .map(|&c| (self.working(i, c).into_owned(), ex::col(c)))
                            .collect(),
                    };
                    (scan, cols)
                }
                SourceKind::Derived(plan, schema) => {
                    let mut plan = plan.clone();
                    if s.clash.contains(&true) {
                        plan = LogicalPlan::Project {
                            input: Box::new(plan),
                            project: (0..s.clash.len())
                                .map(|c| (self.working(i, c).into_owned(), ex::col(c)))
                                .collect(),
                        };
                    }
                    for pred in &scan_filters[i] {
                        let bound = self.bind_on_derived(i, pred)?;
                        plan = plan.filter(bound);
                    }
                    (plan, (0..schema.len()).collect())
                }
            };
            base_plans.push(Some(plan));
            base_cols.push(cols);
        }

        // Assemble the join tree, then re-apply what didn't become a key.
        let tree = self.build_join_tree(&mut base_plans, &base_cols, &mut join_preds)?;
        let (mut plan, joined) = (tree.plan, tree.cols);
        for jp in join_preds.iter().filter(|p| !p.used) {
            // Cycle-closing equalities between already-joined sides.
            let bound = self.bind_on_joined(&joined, jp.pred)?;
            plan = plan.filter(bound);
        }
        for p in residual {
            let bound = self.bind_on_joined(&joined, p)?;
            plan = plan.filter(bound);
        }

        if has_agg {
            let shaped = {
                let lookup = self.joined_lookup(&joined);
                self.shape_aggregate(&lookup)?
            };
            self.finish_aggregate(plan, shaped)
        } else {
            self.bind_plain_projection(plan, &joined)
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
                Res::Col { src: rs, col } if rs == src => Ok((col, Ty::of(s.schema().dtype(col)))),
                _ => Err(SqlError::new(
                    format!("column `{name}` does not belong to `{}`", s.alias),
                    span,
                )),
            };
        let (bound, ty) = bind_scalar(e, &lookup, None)?;
        expect_bool(ty, e.span)?;
        Ok(bound)
    }

    /// Recognize `x = y` between columns of two different sources and
    /// return their `(source, column)` ends, left then right. Both the
    /// WHERE and the ON spelling of a join key come through here, so a
    /// type mismatch between the two columns is one error, pointing at
    /// the whole equality.
    fn column_equality(&self, pred: &Expr) -> Result<Option<KeyPair>, SqlError> {
        let ExprKind::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &pred.kind
        else {
            return Ok(None);
        };
        let (
            ExprKind::Column {
                table: lt,
                name: ln,
            },
            ExprKind::Column {
                table: rt,
                name: rn,
            },
        ) = (&left.kind, &right.kind)
        else {
            return Ok(None);
        };
        let l = self.resolve(lt.as_deref(), ln, left.span)?;
        let r = self.resolve(rt.as_deref(), rn, right.span)?;
        let (Res::Col { src: ls, col: lc }, Res::Col { src: rs, col: rc }) = (l, r) else {
            return Ok(None);
        };
        if ls == rs {
            return Ok(None);
        }
        let (lty, rty) = (self.res_ty(l), self.res_ty(r));
        if lty != rty {
            return Err(SqlError::new(
                format!(
                    "type mismatch in join predicate: {} vs {}",
                    lty.describe(),
                    rty.describe()
                ),
                pred.span,
            ));
        }
        Ok(Some(((ls, lc), (rs, rc))))
    }

    fn classify(&self, pred: &'s Expr) -> Result<Conjunct<'s>, SqlError> {
        if let Some((a, b)) = self.column_equality(pred)? {
            return Ok(Conjunct::Join(JoinPred {
                a,
                b,
                pred,
                used: false,
            }));
        }
        match self.single_source(pred)? {
            Some(src) => Ok(Conjunct::Scan { src, pred }),
            None => Ok(Conjunct::Residual(pred)),
        }
    }

    /// Join the sources' base plans in `FROM` order.
    fn build_join_tree(
        &self,
        base: &mut [Option<LogicalPlan>],
        base_cols: &[Vec<usize>],
        preds: &mut [JoinPred<'s>],
    ) -> Result<JoinedTree, SqlError> {
        let select = self.select;
        let mut tree = JoinedTree {
            plan: base[0].take().expect("first source plan"),
            cols: source_columns(base_cols, 0).collect(),
        };
        let mut pending: Vec<usize> = Vec::new();

        for (i, tref) in select.from.iter().enumerate().skip(1) {
            match &tref.join {
                JoinOp::Comma => {
                    pending.push(i);
                    tree = self.drain_pending(tree, &mut pending, base, base_cols, preds);
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
                    let mut keys = Vec::with_capacity(on_conjuncts.len());
                    for c in on_conjuncts {
                        keys.push(self.on_key_pair(c, &tree, i)?);
                    }
                    let right = base[i].take().expect("join source plan");
                    tree = tree.join(right, i, &keys, kind, base_cols);
                    tree = self.drain_pending(tree, &mut pending, base, base_cols, preds);
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
        mut tree: JoinedTree,
        pending: &mut Vec<usize>,
        base: &mut [Option<LogicalPlan>],
        base_cols: &[Vec<usize>],
        preds: &mut [JoinPred<'s>],
    ) -> JoinedTree {
        loop {
            let mut attached = None;
            for (pi, &p) in pending.iter().enumerate() {
                let mut keys = Vec::new();
                let mut hit = Vec::new();
                for (ji, jp) in preds.iter().enumerate() {
                    if jp.used {
                        continue;
                    }
                    let key = if jp.a.0 == p {
                        tree.column_of(jp.b).map(|at| (at, jp.a))
                    } else if jp.b.0 == p {
                        tree.column_of(jp.a).map(|at| (at, jp.b))
                    } else {
                        None
                    };
                    if let Some(key) = key {
                        keys.push(key);
                        hit.push(ji);
                    }
                }
                if !hit.is_empty() {
                    let right = base[p].take().expect("pending source plan");
                    tree = tree.join(right, p, &keys, JoinKind::Inner, base_cols);
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

    /// An `ON` conjunct as a join key between `tree` and `new_src`.
    fn on_key_pair(
        &self,
        c: &Expr,
        tree: &JoinedTree,
        new_src: usize,
    ) -> Result<JoinKey, SqlError> {
        if let Some((l, r)) = self.column_equality(c)? {
            for (old, new) in [(l, r), (r, l)] {
                if let (Some(at), true) = (tree.column_of(old), new.0 == new_src) {
                    return Ok((at, new));
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

    /// Project the select list over the joined plan, whose columns are
    /// `joined`, then sort.
    fn bind_plain_projection(
        &self,
        plan: LogicalPlan,
        joined: &[Res],
    ) -> Result<LogicalPlan, SqlError> {
        let names = self.output_names()?;
        let lookup = self.joined_lookup(joined);
        let mut project = Vec::with_capacity(names.len());
        for (item, name) in self.select.items.iter().zip(&names) {
            let (bound, _) = bind_scalar(&item.expr, &lookup, None)?;
            project.push((name.clone(), bound));
        }
        let plan = LogicalPlan::Project {
            input: Box::new(plan),
            project,
        };
        self.bind_sort(plan, &names)
    }

    fn shape_aggregate(&self, lookup: Lookup<'_>) -> Result<ShapedAgg<'s>, SqlError> {
        let select: &'s Select = self.select;
        let out_names = self.output_names()?;

        // Group items, with select-alias substitution. The
        // pre-aggregation entries: groups first, then aggregate inputs.
        let mut groups: Vec<GroupItem<'s>> = Vec::new();
        let mut pre_entries: Vec<(String, ex::Expr)> = Vec::new();
        for (gi, g) in select.group_by.iter().enumerate() {
            let (ast, name, passthrough) = match &g.kind {
                ExprKind::Column { table, name } => {
                    match self.resolve(table.as_deref(), name, g.span) {
                        Ok(res) => (g, self.working_name(res).into_owned(), Some(res)),
                        Err(err) => {
                            let alias_hit = if table.is_none() {
                                select
                                    .items
                                    .iter()
                                    .zip(&out_names)
                                    .find(|(item, _)| item.alias.as_deref() == Some(name))
                                    .map(|(item, n)| (&item.expr, n.clone()))
                            } else {
                                None
                            };
                            match alias_hit {
                                Some((expr, n)) => (expr, n, None),
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
                    (g, name, None)
                }
            };
            if ast.has_agg() {
                return Err(SqlError::new(
                    "GROUP BY cannot contain aggregate calls",
                    g.span,
                ));
            }
            let (bound, ty) = bind_scalar(ast, lookup, None)?;
            pre_entries.push((name.clone(), bound));
            groups.push(GroupItem {
                ast,
                name,
                ty,
                passthrough,
            });
        }

        // Aggregate calls from the select list and HAVING, deduplicated;
        // an aggregate's argument is not searched (nesting is an error
        // `make_slot` reports).
        let mut calls: Vec<&'s Expr> = Vec::new();
        for site in select.items.iter().map(|i| &i.expr).chain(&select.having) {
            site.walk(&mut |e| {
                let is_agg = matches!(e.kind, ExprKind::Agg { .. });
                if is_agg && !calls.contains(&e) {
                    calls.push(e);
                }
                !is_agg
            });
        }
        // Each argument is an entry after the groups'; a bare column that
        // already is one is shared.
        let mut bare_args = true;
        let mut slots: Vec<AggSlot<'s>> = Vec::with_capacity(calls.len());
        for (idx, call) in calls.into_iter().enumerate() {
            let out_name = select
                .items
                .iter()
                .zip(&out_names)
                .find(|(item, _)| &item.expr == call)
                .map(|(_, n)| n.clone())
                .unwrap_or_else(|| format!("_agg{idx}"));
            let (mut slot, arg) = self.make_slot(call, out_name, lookup, idx)?;
            if let Some((name, expr)) = arg {
                let bare = bare_col(&expr);
                bare_args &= bare.is_some();
                let shared = bare
                    .and_then(|c| (pre_entries.iter()).position(|(_, e)| bare_col(e) == Some(c)));
                slot.input = Some(shared.unwrap_or_else(|| {
                    pre_entries.push((name, expr));
                    pre_entries.len() - 1
                }));
            }
            slots.push(slot);
        }
        let all_passthrough = bare_args && groups.iter().all(|g| g.passthrough.is_some());
        Ok(ShapedAgg {
            groups,
            slots,
            pre_entries,
            all_passthrough,
            out_names,
        })
    }

    /// A slot for an aggregate call, and its argument as a named
    /// pre-aggregation entry: a bare column under its working name, a
    /// computed one as `_in<idx>`.
    fn make_slot(
        &self,
        call: &'s Expr,
        out_name: String,
        lookup: Lookup<'_>,
        idx: usize,
    ) -> Result<(AggSlot<'s>, Option<(String, ex::Expr)>), SqlError> {
        let (func, distinct, arg) = match &call.kind {
            ExprKind::Agg {
                func,
                distinct,
                arg,
            } => (*func, *distinct, arg.as_deref()),
            _ => unreachable!("only aggregate calls get a slot"),
        };
        let mut entry = None;
        let mut arg_ty = Ty::Int;
        if let Some(a) = arg {
            if a.has_agg() {
                return Err(SqlError::new("nested aggregate calls", a.span));
            }
            let (bound, ty) = bind_scalar(a, lookup, None)?;
            arg_ty = ty;
            let name = if let ExprKind::Column { table, name } = &a.kind {
                let res = self.resolve(table.as_deref(), name, a.span)?;
                self.working_name(res).into_owned()
            } else {
                format!("_in{idx}")
            };
            entry = Some((name, bound));
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
        let agg: fn(usize) -> AggFn = match (func, distinct) {
            (AggFunc::Count, true) => AggFn::CountDistinctI64,
            // COUNT(x) == COUNT(*): the engine has no NULLs.
            (AggFunc::Count, false) => |_| AggFn::Count,
            (AggFunc::Sum, _) if arg_ty == Ty::Float => AggFn::SumF64,
            (AggFunc::Sum, _) => AggFn::SumI64,
            (AggFunc::Min, _) => AggFn::MinI64,
            (AggFunc::Max, _) => AggFn::MaxI64,
            (AggFunc::Avg, _) => AggFn::AvgI64,
        };
        let slot = AggSlot {
            call,
            agg,
            input: None,
            out_name,
            out_ty,
        };
        Ok((slot, entry))
    }

    /// Aggregate `joined` (the plan over the joined sources) as shaped.
    /// Its input is `joined` itself when every entry passes through,
    /// each read at its joined column, else the pre-aggregation
    /// projection, each entry read at its own position.
    fn finish_aggregate(
        self,
        joined: LogicalPlan,
        shaped: ShapedAgg<'s>,
    ) -> Result<LogicalPlan, SqlError> {
        let ShapedAgg {
            groups,
            slots,
            pre_entries,
            all_passthrough,
            out_names,
        } = shaped;
        let (input, at): (LogicalPlan, Vec<usize>) = if all_passthrough {
            let at = (pre_entries.iter())
                .map(|(_, e)| bare_col(e).expect("a passthrough entry is a bare column"))
                .collect();
            (joined, at)
        } else {
            let at = (0..pre_entries.len()).collect();
            let project = LogicalPlan::Project {
                input: Box::new(joined),
                project: pre_entries,
            };
            (project, at)
        };
        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group: at[..groups.len()].to_vec(),
            aggs: (slots.iter())
                .map(|s| {
                    let agg = s.input.map_or(AggFn::Count, |i| (s.agg)(at[i]));
                    (s.out_name.clone(), agg)
                })
                .collect(),
        };

        // Environment over the aggregate's output: group columns by
        // name/alias, aggregate calls by slot, nothing else. Subtrees
        // that *are* a group expression (e.g. `EXTRACT(YEAR FROM
        // o_orderdate)` when that is what was grouped on) read the group
        // column, top-down ([`Over`]). Aggregate arguments are left
        // alone: they live below the aggregate and are matched by slot
        // instead.
        let over = Over {
            groups: &groups,
            slots: &slots,
        };
        let bind_over_aggregate = |e: &Expr| -> Result<(ex::Expr, Ty), SqlError> {
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
                if let Some(i) = groups.iter().position(|g| g.passthrough == Some(res)) {
                    return Ok((i, groups[i].ty));
                }
                Err(SqlError::new(
                    format!("column `{name}` must appear in GROUP BY or inside an aggregate"),
                    span,
                ))
            };
            bind_scalar(e, &lookup, Some(&over))
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
                    item.expr == *groups[i].ast && out_names[i] == groups[i].name
                } else {
                    let s = &slots[i - groups.len()];
                    item.expr == *s.call && out_names[i] == s.out_name
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
        // Whether projected or not, the output columns are `out_names`.
        self.bind_sort(plan, &out_names)
    }

    /// Sort `plan`, whose output columns are `names`, by ORDER BY.
    fn bind_sort(&self, plan: LogicalPlan, names: &[String]) -> Result<LogicalPlan, SqlError> {
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
        let mut keys = Vec::with_capacity(select.order_by.len());
        for o in &select.order_by {
            let Some(col) = names.iter().position(|n| *n == o.name) else {
                return Err(SqlError::new(
                    format!(
                        "ORDER BY column `{}` is not in the output (have: {})",
                        o.name,
                        names.join(", ")
                    ),
                    o.span,
                ));
            };
            keys.push(SortKey { col, desc: o.desc });
        }
        Ok(plan.sort(keys, select.limit))
    }
}

/// The column a bound expression reads, if it is a bare column.
fn bare_col(e: &ex::Expr) -> Option<usize> {
    match e {
        ex::Expr::Col(c) => Some(*c),
        _ => None,
    }
}

/// The columns source `src`'s base plan outputs.
fn source_columns(base_cols: &[Vec<usize>], src: usize) -> impl Iterator<Item = Res> + '_ {
    base_cols[src].iter().map(move |&col| Res::Col { src, col })
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

#[cfg(test)]
mod tests {
    use morsel_datagen::{generate_tpch, TpchConfig};
    use morsel_numa::Topology;

    #[test]
    fn where_and_on_join_keys_share_one_recognizer() {
        let cat = generate_tpch(TpchConfig::scaled(0.001), &Topology::laptop()).catalog();
        for sql in [
            "SELECT l_orderkey FROM lineitem, orders WHERE l_comment = o_orderkey",
            "SELECT l_orderkey FROM lineitem JOIN orders ON l_comment = o_orderkey",
        ] {
            let err = crate::plan_sql(&cat, sql).err().expect("a bind error");
            assert_eq!(
                err.message, "type mismatch in join predicate: string vs integer",
                "{sql}"
            );
            assert_eq!(&sql[err.span.start..err.span.end], "l_comment = o_orderkey");
        }
        // An equality within one side is no join key, whatever its types.
        let sql = "SELECT n_name FROM nation AS n JOIN region AS r ON n.n_name = n.n_regionkey";
        let err = crate::plan_sql(&cat, sql).err().expect("a bind error");
        assert!(err.message.starts_with("ON clause must be"), "{err}");
        assert_eq!(
            &sql[err.span.start..err.span.end],
            "n.n_name = n.n_regionkey"
        );
    }

    /// A semi join's right side outputs no column, so no later join can
    /// key on one: binding refuses it rather than hand the planner a key
    /// that indexes nothing.
    #[test]
    fn a_key_on_a_semi_joined_column_is_a_bind_error() {
        let cat = generate_tpch(TpchConfig::scaled(0.001), &Topology::laptop()).catalog();
        let semi = "SELECT o_orderkey FROM orders SEMI JOIN lineitem ON o_orderkey = l_orderkey";
        for (sql, message, span) in [
            (
                format!("{semi} JOIN part ON l_partkey = p_partkey"),
                "ON clause must be",
                "l_partkey = p_partkey",
            ),
            (
                format!("{semi}, part WHERE l_partkey = p_partkey"),
                "table `part` is not connected",
                "part",
            ),
        ] {
            let err = crate::plan_sql(&cat, &sql).err().expect("a bind error");
            assert!(err.message.starts_with(message), "{sql}: {err}");
            assert_eq!(&sql[err.span.start..err.span.end], span, "{sql}");
        }
    }

    /// An aggregate's argument shares a pre-aggregation column only with
    /// the same column, not with a computed group its alias names alike.
    #[test]
    fn an_aggregate_argument_is_not_a_group_that_shares_its_name() {
        let cat = generate_tpch(TpchConfig::scaled(0.001), &Topology::laptop()).catalog();
        let sql = "SELECT EXTRACT(YEAR FROM o_orderdate) AS o_custkey, SUM(o_custkey) AS s \
                   FROM orders GROUP BY EXTRACT(YEAR FROM o_orderdate)";
        let Ok(super::LogicalPlan::Aggregate { group, aggs, .. }) = crate::plan_sql(&cat, sql)
        else {
            panic!("the select list is the aggregate's own output");
        };
        assert_eq!((group, aggs[0].1), (vec![0], super::AggFn::SumI64(1)));
    }
}
