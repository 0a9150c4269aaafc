//! The SQL abstract syntax tree, with spans, a canonical printer and the
//! one walker over it.
//!
//! Equality on AST nodes ignores spans (two trees are equal when they
//! describe the same query, wherever the text came from), which is what
//! the round-trip property tests rely on: pretty-print a tree with
//! [`fmt::Display`], re-parse it, and the result compares equal even
//! though every span moved. The printer fully parenthesizes operators,
//! so printed text never depends on precedence.
//!
//! Every generic traversal in this crate goes through [`Expr::walk`] /
//! [`Expr::walk_mut`] (an expression's subtrees) and
//! [`Select::scope_exprs_mut`] (one `SELECT` scope's expressions).
//! Besides them, only the printer, the parser and the binder's
//! translation into executor expressions name every [`ExprKind`]
//! variant.

use std::fmt;

use crate::error::Span;

/// A spanned expression. `PartialEq` compares the [`ExprKind`] only.
#[derive(Debug, Clone)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl Expr {
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }
}

/// Binary operators (arithmetic, comparison, boolean).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Aggregate functions of the supported subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Min,
    Max,
    Avg,
    Count,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
            AggFunc::Count => "COUNT",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// `c` or `t.c`.
    Column {
        table: Option<String>,
        name: String,
    },
    Int(i64),
    Float(f64),
    Str(String),
    /// `DATE 'yyyy-mm-dd'`.
    Date {
        y: i32,
        m: u32,
        d: u32,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    Between {
        expr: Box<Expr>,
        negated: bool,
        lo: Box<Expr>,
        hi: Box<Expr>,
    },
    InList {
        expr: Box<Expr>,
        negated: bool,
        list: Vec<Expr>,
    },
    Like {
        expr: Box<Expr>,
        negated: bool,
        pattern: String,
    },
    /// `CASE WHEN c THEN t ELSE e END` (single branch — the shape the
    /// executor's conditional supports).
    Case {
        cond: Box<Expr>,
        then: Box<Expr>,
        else_: Box<Expr>,
    },
    /// `EXTRACT(YEAR FROM e)`.
    ExtractYear(Box<Expr>),
    /// `SUBSTRING(e, from, len)` with 1-based `from`.
    Substring {
        expr: Box<Expr>,
        from: u32,
        len: u32,
    },
    /// Aggregate call; `arg: None` is `COUNT(*)`.
    Agg {
        func: AggFunc,
        distinct: bool,
        arg: Option<Box<Expr>>,
    },
}

/// Run `$visit` on each child expression of `$kind` (a `&ExprKind` or a
/// `&mut ExprKind`), in print order. The one enumeration of the AST's
/// child slots: [`Expr::walk`] and [`Expr::walk_mut`] both expand it, so
/// a new variant or slot is added here once.
macro_rules! for_each_child {
    ($kind:expr, $child:ident => $visit:expr) => {
        match $kind {
            ExprKind::Column { .. }
            | ExprKind::Int(_)
            | ExprKind::Float(_)
            | ExprKind::Str(_)
            | ExprKind::Date { .. }
            | ExprKind::Agg { arg: None, .. } => {}
            ExprKind::Not($child)
            | ExprKind::ExtractYear($child)
            | ExprKind::Like { expr: $child, .. }
            | ExprKind::Substring { expr: $child, .. }
            | ExprKind::Agg {
                arg: Some($child), ..
            } => $visit,
            ExprKind::Binary { left, right, .. } => {
                for $child in [left, right] {
                    $visit;
                }
            }
            ExprKind::Between { expr, lo, hi, .. } => {
                for $child in [expr, lo, hi] {
                    $visit;
                }
            }
            ExprKind::Case { cond, then, else_ } => {
                for $child in [cond, then, else_] {
                    $visit;
                }
            }
            ExprKind::InList { expr, list, .. } => {
                let $child = expr;
                $visit;
                for $child in list {
                    $visit;
                }
            }
        }
    };
}

impl Expr {
    /// Pre-order walk: `f` sees this node, then — when it returns `true`
    /// — each child subtree in print order. Derived tables are not
    /// expressions, so a walk never leaves its `SELECT` scope.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr) -> bool) {
        if f(self) {
            for_each_child!(&self.kind, child => child.walk(f));
        }
    }

    /// [`Expr::walk`] with mutable access; `f` may rewrite the node it is
    /// given, and the walk then descends into what it left there.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr) -> bool) {
        if f(self) {
            for_each_child!(&mut self.kind, child => child.walk_mut(f));
        }
    }

    /// Does any aggregate call appear in this tree?
    pub fn has_agg(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            found |= matches!(e.kind, ExprKind::Agg { .. });
            !found
        });
        found
    }
}

fn escape(s: &str) -> String {
    s.replace('\'', "''")
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ExprKind::Column { table, name } => match table {
                Some(t) => write!(f, "{t}.{name}"),
                None => write!(f, "{name}"),
            },
            ExprKind::Int(v) => write!(f, "{v}"),
            ExprKind::Float(v) => write!(f, "{v:?}"),
            ExprKind::Str(s) => write!(f, "'{}'", escape(s)),
            ExprKind::Date { y, m, d } => write!(f, "DATE '{y:04}-{m:02}-{d:02}'"),
            ExprKind::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            ExprKind::Not(e) => write!(f, "(NOT {e})"),
            ExprKind::Between {
                expr,
                negated,
                lo,
                hi,
            } => write!(
                f,
                "({expr} {}BETWEEN {lo} AND {hi})",
                if *negated { "NOT " } else { "" }
            ),
            ExprKind::InList {
                expr,
                negated,
                list,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            ExprKind::Like {
                expr,
                negated,
                pattern,
            } => write!(
                f,
                "({expr} {}LIKE '{}')",
                if *negated { "NOT " } else { "" },
                escape(pattern)
            ),
            ExprKind::Case { cond, then, else_ } => {
                write!(f, "CASE WHEN {cond} THEN {then} ELSE {else_} END")
            }
            ExprKind::ExtractYear(e) => write!(f, "EXTRACT(YEAR FROM {e})"),
            ExprKind::Substring { expr, from, len } => {
                write!(f, "SUBSTRING({expr}, {from}, {len})")
            }
            ExprKind::Agg {
                func,
                distinct,
                arg,
            } => match arg {
                None => write!(f, "COUNT(*)"),
                Some(a) => write!(
                    f,
                    "{}({}{a})",
                    func.name(),
                    if *distinct { "DISTINCT " } else { "" }
                ),
            },
        }
    }
}

/// One `SELECT`-list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.expr),
            None => write!(f, "{}", self.expr),
        }
    }
}

/// A base table or a parenthesized subquery in `FROM`.
#[derive(Debug, Clone)]
pub enum TableFactor {
    Table {
        name: String,
        alias: Option<String>,
        span: Span,
    },
    Derived {
        query: Box<Select>,
        alias: String,
        span: Span,
    },
}

impl TableFactor {
    /// The name this factor is referred to by (alias, or table name).
    pub fn binding_name(&self) -> &str {
        match self {
            TableFactor::Table { name, alias, .. } => alias.as_deref().unwrap_or(name),
            TableFactor::Derived { alias, .. } => alias,
        }
    }

    pub fn span(&self) -> Span {
        match self {
            TableFactor::Table { span, .. } | TableFactor::Derived { span, .. } => *span,
        }
    }
}

impl PartialEq for TableFactor {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                TableFactor::Table { name, alias, .. },
                TableFactor::Table {
                    name: n2,
                    alias: a2,
                    ..
                },
            ) => name == n2 && alias == a2,
            (
                TableFactor::Derived { query, alias, .. },
                TableFactor::Derived {
                    query: q2,
                    alias: a2,
                    ..
                },
            ) => query == q2 && alias == a2,
            _ => false,
        }
    }
}

impl fmt::Display for TableFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableFactor::Table { name, alias, .. } => match alias {
                Some(a) => write!(f, "{name} AS {a}"),
                None => write!(f, "{name}"),
            },
            TableFactor::Derived { query, alias, .. } => write!(f, "({query}) AS {alias}"),
        }
    }
}

/// How a `FROM` entry attaches to what precedes it.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinOp {
    /// Comma-separated entry; joined via `WHERE` equi-predicates.
    Comma,
    /// `[INNER] JOIN ... ON`.
    Inner(Expr),
    /// `SEMI JOIN ... ON` — keeps left rows with a match.
    Semi(Expr),
    /// `ANTI JOIN ... ON` — keeps left rows without a match.
    Anti(Expr),
    /// `COUNT JOIN ... ON` — keeps left rows, appends `match_count`.
    CountMatches(Expr),
}

impl JoinOp {
    /// The `ON` condition, if this entry has one.
    pub fn on(&self) -> Option<&Expr> {
        match self {
            JoinOp::Comma => None,
            JoinOp::Inner(on) | JoinOp::Semi(on) | JoinOp::Anti(on) | JoinOp::CountMatches(on) => {
                Some(on)
            }
        }
    }

    fn on_mut(&mut self) -> Option<&mut Expr> {
        match self {
            JoinOp::Comma => None,
            JoinOp::Inner(on) | JoinOp::Semi(on) | JoinOp::Anti(on) | JoinOp::CountMatches(on) => {
                Some(on)
            }
        }
    }
}

/// One entry of the `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub join: JoinOp,
    pub factor: TableFactor,
}

/// An `ORDER BY` entry: an output column name plus direction.
#[derive(Debug, Clone)]
pub struct OrderItem {
    pub name: String,
    pub desc: bool,
    pub span: Span,
}

impl PartialEq for OrderItem {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.desc == other.desc
    }
}

/// A full `SELECT` statement. Equality ignores `limit_span` (like every
/// other span).
#[derive(Debug, Clone, Default)]
pub struct Select {
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<usize>,
    /// Position of the `LIMIT` keyword, for bind diagnostics.
    pub limit_span: Span,
}

impl PartialEq for Select {
    fn eq(&self, other: &Self) -> bool {
        self.items == other.items
            && self.from == other.from
            && self.where_clause == other.where_clause
            && self.group_by == other.group_by
            && self.having == other.having
            && self.order_by == other.order_by
            && self.limit == other.limit
    }
}

impl Select {
    /// This `SELECT`'s own expressions, in print order: the items, each
    /// `FROM` entry's `ON`, `WHERE`, `GROUP BY`, `HAVING`. A derived
    /// table is a scope of its own, so its expressions are not among
    /// them; callers that want the whole tree recurse into
    /// [`TableFactor::Derived`] themselves.
    pub fn scope_exprs_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        (self.items.iter_mut().map(|i| &mut i.expr))
            .chain(self.from.iter_mut().filter_map(|t| t.join.on_mut()))
            .chain(&mut self.where_clause)
            .chain(&mut self.group_by)
            .chain(&mut self.having)
    }
}

/// Any parsed statement: a query or one of the DML forms. The DML
/// keywords (`INSERT`, `INTO`, `VALUES`, `UPDATE`, `SET`, `DELETE`)
/// are contextual — they stay usable as column and table names inside
/// `SELECT`, so adding the write path cannot un-parse a read-only
/// query that used them as identifiers.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Select),
    Insert(Insert),
    Update(Update),
    Delete(Delete),
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert(s) => write!(f, "{s}"),
            Statement::Update(s) => write!(f, "{s}"),
            Statement::Delete(s) => write!(f, "{s}"),
        }
    }
}

/// `INSERT INTO t [(c1, ...)] VALUES (e1, ...), ...`.
#[derive(Debug, Clone)]
pub struct Insert {
    pub table: String,
    /// Explicit column list; empty means schema order.
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Expr>>,
    pub span: Span,
}

impl PartialEq for Insert {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table && self.columns == other.columns && self.rows == other.rows
    }
}

impl fmt::Display for Insert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {}", self.table)?;
        if !self.columns.is_empty() {
            write!(f, " ({})", self.columns.join(", "))?;
        }
        write!(f, " VALUES ")?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// One `SET column = value` assignment.
#[derive(Debug, Clone)]
pub struct SetItem {
    pub column: String,
    pub value: Expr,
    pub span: Span,
}

impl PartialEq for SetItem {
    fn eq(&self, other: &Self) -> bool {
        self.column == other.column && self.value == other.value
    }
}

/// `UPDATE t SET c = e, ... [WHERE expr]`.
#[derive(Debug, Clone)]
pub struct Update {
    pub table: String,
    pub sets: Vec<SetItem>,
    pub where_clause: Option<Expr>,
    pub span: Span,
}

impl PartialEq for Update {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table
            && self.sets == other.sets
            && self.where_clause == other.where_clause
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UPDATE {} SET ", self.table)?;
        for (i, s) in self.sets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} = {}", s.column, s.value)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// `DELETE FROM t [WHERE expr]`.
#[derive(Debug, Clone)]
pub struct Delete {
    pub table: String,
    pub where_clause: Option<Expr>,
    pub span: Span,
}

impl PartialEq for Delete {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table && self.where_clause == other.where_clause
    }
}

impl fmt::Display for Delete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DELETE FROM {}", self.table)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM ")?;
        for (i, tref) in self.from.iter().enumerate() {
            match &tref.join {
                JoinOp::Comma => {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", tref.factor)?;
                }
                JoinOp::Inner(on) => write!(f, " JOIN {} ON {on}", tref.factor)?,
                JoinOp::Semi(on) => write!(f, " SEMI JOIN {} ON {on}", tref.factor)?,
                JoinOp::Anti(on) => write!(f, " ANTI JOIN {} ON {on}", tref.factor)?,
                JoinOp::CountMatches(on) => write!(f, " COUNT JOIN {} ON {on}", tref.factor)?,
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}{}", o.name, if o.desc { " DESC" } else { " ASC" })?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}
