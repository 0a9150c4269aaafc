//! Recursive-descent parser for the supported SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! select    := SELECT item ("," item)* FROM from_ref+
//!              [WHERE expr] [GROUP BY expr ("," expr)*] [HAVING expr]
//!              [ORDER BY ident [ASC|DESC] ("," ...)*] [LIMIT int]
//! item      := expr [[AS] ident]
//! from_ref  := factor | "," factor | [INNER|SEMI|ANTI|COUNT] JOIN factor ON expr
//! factor    := ident [[AS] ident] | "(" select ")" [AS] ident
//! expr      := or; or := and (OR and)*; and := not (AND not)*
//! not       := NOT not | cmp
//! cmp       := add [cmpop add | [NOT] BETWEEN add AND add
//!                  | [NOT] IN "(" expr ("," expr)* ")" | [NOT] LIKE str]
//! add       := mul (("+"|"-") mul)*; mul := prim (("*"|"/") prim)*
//! prim      := literal | DATE str | "-" number | ident ["." ident]
//!            | "(" expr ")" | CASE WHEN expr THEN expr ELSE expr END
//!            | EXTRACT "(" YEAR FROM expr ")"
//!            | SUBSTRING "(" expr "," int "," int ")"
//!            | (SUM|MIN|MAX|AVG) "(" expr ")"
//!            | COUNT "(" ("*" | [DISTINCT] expr) ")"
//! ```
//!
//! `SEMI`/`ANTI`/`COUNT JOIN` are dialect extensions naming the engine's
//! native join kinds directly (standard SQL spells them `EXISTS` /
//! `NOT EXISTS` / outer-join-plus-count circumlocutions; the binder is
//! simpler and the plans are identical with the explicit forms).

use crate::ast::{
    AggFunc, BinOp, Delete, Expr, ExprKind, Insert, JoinOp, OrderItem, Select, SelectItem, SetItem,
    Statement, TableFactor, TableRef, Update,
};
use crate::error::{Span, SqlError};
use crate::lexer::{lex, Token, TokenKind};

/// Words that cannot be a bare (no-`AS`) alias or continue an expression.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "having", "order", "limit", "by", "join", "inner", "semi",
    "anti", "count", "on", "as", "and", "or", "not", "between", "in", "like", "case", "when",
    "then", "else", "end", "asc", "desc", "union", "distinct",
];

/// Parse one `SELECT` statement; trailing input is an error.
pub fn parse(sql: &str) -> Result<Select, SqlError> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let select = p.select()?;
    p.expect_eof()?;
    Ok(select)
}

/// Parse one statement — `SELECT` or DML. The DML keywords are
/// contextual (decided by the first word only), so every query `parse`
/// accepts comes back identical through here.
pub fn parse_statement(sql: &str) -> Result<Statement, SqlError> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = if p.at_kw("insert") {
        Statement::Insert(p.insert()?)
    } else if p.at_kw("update") {
        Statement::Update(p.update()?)
    } else if p.at_kw("delete") {
        Statement::Delete(p.delete()?)
    } else {
        Statement::Select(p.select()?)
    };
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek_kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// Is the current token the given keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek_kind(), TokenKind::Ident(s) if s == kw)
    }

    /// Is the token `n` ahead the given keyword?
    fn at_kw_ahead(&self, n: usize, kw: &str) -> bool {
        matches!(
            self.tokens.get(self.pos + n).map(|t| &t.kind),
            Some(TokenKind::Ident(s)) if s == kw
        )
    }

    /// Consume the keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Require the keyword.
    fn expect_kw(&mut self, kw: &str) -> Result<Span, SqlError> {
        if self.at_kw(kw) {
            Ok(self.bump().span)
        } else {
            Err(SqlError::new(
                format!(
                    "expected `{}`, found {}",
                    kw.to_uppercase(),
                    self.peek_kind().describe()
                ),
                self.peek_span(),
            ))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Span, SqlError> {
        if self.peek_kind() == &kind {
            Ok(self.bump().span)
        } else {
            Err(SqlError::new(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek_kind().describe()
                ),
                self.peek_span(),
            ))
        }
    }

    /// Any identifier (reserved or not) — for positions that are
    /// unambiguously names, like after `.` or `AS`.
    fn ident(&mut self) -> Result<(String, Span), SqlError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                let span = self.bump().span;
                Ok((s, span))
            }
            other => Err(SqlError::new(
                format!("expected an identifier, found {}", other.describe()),
                self.peek_span(),
            )),
        }
    }

    /// A non-reserved identifier (bare aliases, table names).
    fn plain_ident(&mut self) -> Result<(String, Span), SqlError> {
        let (s, span) = self.ident()?;
        if RESERVED.contains(&s.as_str()) {
            return Err(SqlError::new(
                format!("`{s}` is a reserved word here; pick another name"),
                span,
            ));
        }
        Ok((s, span))
    }

    fn expect_eof(&mut self) -> Result<(), SqlError> {
        match self.peek_kind() {
            TokenKind::Eof => Ok(()),
            other => Err(SqlError::new(
                format!("unexpected trailing input {}", other.describe()),
                self.peek_span(),
            )),
        }
    }

    // ---- DML ------------------------------------------------------------

    fn insert(&mut self) -> Result<Insert, SqlError> {
        let start = self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let (table, tspan) = self.plain_ident()?;
        let mut columns = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                columns.push(self.ident()?.0);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect(TokenKind::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat(&TokenKind::Comma) {
                row.push(self.expr()?);
            }
            self.expect(TokenKind::RParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Insert {
            table,
            columns,
            rows,
            span: start.to(tspan),
        })
    }

    fn update(&mut self) -> Result<Update, SqlError> {
        let start = self.expect_kw("update")?;
        let (table, tspan) = self.plain_ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let (column, cspan) = self.ident()?;
            self.expect(TokenKind::Eq)?;
            let value = self.expr()?;
            let span = cspan.to(value.span);
            sets.push(SetItem {
                column,
                value,
                span,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Update {
            table,
            sets,
            where_clause,
            span: start.to(tspan),
        })
    }

    fn delete(&mut self) -> Result<Delete, SqlError> {
        let start = self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let (table, tspan) = self.plain_ident()?;
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Delete {
            table,
            where_clause,
            span: start.to(tspan),
        })
    }

    // ---- clauses --------------------------------------------------------

    fn select(&mut self) -> Result<Select, SqlError> {
        self.expect_kw("select")?;
        let mut items = vec![self.select_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![TableRef {
            join: JoinOp::Comma,
            factor: self.table_factor()?,
        }];
        loop {
            if self.eat(&TokenKind::Comma) {
                from.push(TableRef {
                    join: JoinOp::Comma,
                    factor: self.table_factor()?,
                });
            } else if self.at_kw("join") || (self.at_kw("inner") && self.at_kw_ahead(1, "join")) {
                self.eat_kw("inner");
                self.expect_kw("join")?;
                let factor = self.table_factor()?;
                self.expect_kw("on")?;
                from.push(TableRef {
                    join: JoinOp::Inner(self.expr()?),
                    factor,
                });
            } else if (self.at_kw("semi") || self.at_kw("anti") || self.at_kw("count"))
                && self.at_kw_ahead(1, "join")
            {
                let kw = match self.peek_kind() {
                    TokenKind::Ident(s) => s.clone(),
                    _ => unreachable!(),
                };
                self.bump();
                self.expect_kw("join")?;
                let factor = self.table_factor()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                let join = match kw.as_str() {
                    "semi" => JoinOp::Semi(on),
                    "anti" => JoinOp::Anti(on),
                    _ => JoinOp::CountMatches(on),
                };
                from.push(TableRef { join, factor });
            } else {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let (name, span) = self.plain_ident()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { name, desc, span });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut limit_span = Span::default();
        let limit = if self.at_kw("limit") {
            limit_span = self.bump().span;
            match self.peek_kind().clone() {
                TokenKind::Int(v) if v >= 0 => {
                    self.bump();
                    Some(v as usize)
                }
                other => {
                    return Err(SqlError::new(
                        format!(
                            "LIMIT needs a non-negative integer, found {}",
                            other.describe()
                        ),
                        self.peek_span(),
                    ))
                }
            }
        } else {
            None
        };
        Ok(Select {
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            limit_span,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        let expr = self.expr()?;
        // An alias — explicit (`AS x`) or bare — must not be a reserved
        // word: bare so `FROM`, `WHERE`, ... still end the item, and
        // explicit because a reserved alias could never be referenced
        // again (ORDER BY and GROUP BY parse plain identifiers).
        let explicit = self.eat_kw("as");
        let bare_ok =
            matches!(self.peek_kind(), TokenKind::Ident(s) if !RESERVED.contains(&s.as_str()));
        let alias = if explicit || bare_ok {
            Some(self.plain_ident()?.0)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn table_factor(&mut self) -> Result<TableFactor, SqlError> {
        if self.peek_kind() == &TokenKind::LParen {
            let start = self.bump().span;
            let query = self.select()?;
            let end = self.expect(TokenKind::RParen)?;
            self.eat_kw("as");
            let (alias, _) = self
                .plain_ident()
                .map_err(|e| SqlError::new("a subquery in FROM needs an alias", e.span))?;
            return Ok(TableFactor::Derived {
                query: Box::new(query),
                alias,
                span: start.to(end),
            });
        }
        let (name, span) = self.plain_ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.plain_ident()?.0)
        } else if matches!(self.peek_kind(), TokenKind::Ident(s) if !RESERVED.contains(&s.as_str()))
        {
            Some(self.ident()?.0)
        } else {
            None
        };
        Ok(TableFactor::Table { name, alias, span })
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.at_kw("or") {
            self.bump();
            let right = self.and_expr()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::Binary {
                    op: BinOp::Or,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.not_expr()?;
        while self.at_kw("and") {
            self.bump();
            let right = self.not_expr()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::Binary {
                    op: BinOp::And,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.at_kw("not") {
            let start = self.bump().span;
            let inner = self.not_expr()?;
            let span = start.to(inner.span);
            return Ok(Expr::new(ExprKind::Not(Box::new(inner)), span));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.additive()?;
        let cmp_op = match self.peek_kind() {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::Ne => Some(BinOp::Ne),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = cmp_op {
            self.bump();
            let right = self.additive()?;
            let span = left.span.to(right.span);
            return Ok(Expr::new(
                ExprKind::Binary {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            ));
        }
        let negated = if self.at_kw("not")
            && (self.at_kw_ahead(1, "between")
                || self.at_kw_ahead(1, "in")
                || self.at_kw_ahead(1, "like"))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw("between") {
            let lo = self.additive()?;
            self.expect_kw("and")?;
            let hi = self.additive()?;
            let span = left.span.to(hi.span);
            return Ok(Expr::new(
                ExprKind::Between {
                    expr: Box::new(left),
                    negated,
                    lo: Box::new(lo),
                    hi: Box::new(hi),
                },
                span,
            ));
        }
        if self.eat_kw("in") {
            self.expect(TokenKind::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat(&TokenKind::Comma) {
                list.push(self.expr()?);
            }
            let end = self.expect(TokenKind::RParen)?;
            let span = left.span.to(end);
            return Ok(Expr::new(
                ExprKind::InList {
                    expr: Box::new(left),
                    negated,
                    list,
                },
                span,
            ));
        }
        if self.eat_kw("like") {
            match self.peek_kind().clone() {
                TokenKind::Str(pattern) => {
                    let end = self.bump().span;
                    let span = left.span.to(end);
                    Ok(Expr::new(
                        ExprKind::Like {
                            expr: Box::new(left),
                            negated,
                            pattern,
                        },
                        span,
                    ))
                }
                other => Err(SqlError::new(
                    format!("LIKE needs a string pattern, found {}", other.describe()),
                    self.peek_span(),
                )),
            }
        } else if negated {
            Err(SqlError::new(
                "expected BETWEEN, IN, or LIKE after NOT",
                self.peek_span(),
            ))
        } else {
            Ok(left)
        }
    }

    fn additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::Binary {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.primary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.primary()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::Binary {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        let span = self.peek_span();
        match self.peek_kind().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::Int(v), span))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::Float(v), span))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::new(ExprKind::Str(s), span))
            }
            TokenKind::Minus => {
                self.bump();
                match self.peek_kind().clone() {
                    TokenKind::Int(v) => {
                        let end = self.bump().span;
                        Ok(Expr::new(ExprKind::Int(-v), span.to(end)))
                    }
                    TokenKind::Float(v) => {
                        let end = self.bump().span;
                        Ok(Expr::new(ExprKind::Float(-v), span.to(end)))
                    }
                    other => Err(SqlError::new(
                        format!("expected a number after `-`, found {}", other.describe()),
                        self.peek_span(),
                    )),
                }
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(word) => self.primary_ident(word, span),
            other => Err(SqlError::new(
                format!("expected an expression, found {}", other.describe()),
                span,
            )),
        }
    }

    fn primary_ident(&mut self, word: String, span: Span) -> Result<Expr, SqlError> {
        match word.as_str() {
            // DATE 'yyyy-mm-dd' (plain `date` idents fall through to the
            // column case — the literal needs the string right after).
            "date"
                if matches!(
                    &self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::Str(_))
                ) =>
            {
                self.bump();
                let (text, tspan) = match self.bump() {
                    Token {
                        kind: TokenKind::Str(s),
                        span,
                    } => (s, span),
                    _ => unreachable!(),
                };
                let parts: Vec<&str> = text.split('-').collect();
                let parsed = (|| {
                    if parts.len() != 3 {
                        return None;
                    }
                    let y: i32 = parts[0].parse().ok()?;
                    let m: u32 = parts[1].parse().ok()?;
                    let d: u32 = parts[2].parse().ok()?;
                    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
                        return None;
                    }
                    Some((y, m, d))
                })();
                match parsed {
                    Some((y, m, d)) => Ok(Expr::new(ExprKind::Date { y, m, d }, span.to(tspan))),
                    None => Err(SqlError::new(
                        format!("invalid date literal '{text}' (want 'yyyy-mm-dd')"),
                        tspan,
                    )),
                }
            }
            "case" => {
                self.bump();
                self.expect_kw("when")?;
                let cond = self.expr()?;
                self.expect_kw("then")?;
                let then = self.expr()?;
                self.expect_kw("else")?;
                let else_ = self.expr()?;
                let end = self.expect_kw("end")?;
                Ok(Expr::new(
                    ExprKind::Case {
                        cond: Box::new(cond),
                        then: Box::new(then),
                        else_: Box::new(else_),
                    },
                    span.to(end),
                ))
            }
            "extract" => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                self.expect_kw("year")?;
                self.expect_kw("from")?;
                let inner = self.expr()?;
                let end = self.expect(TokenKind::RParen)?;
                Ok(Expr::new(
                    ExprKind::ExtractYear(Box::new(inner)),
                    span.to(end),
                ))
            }
            "substring" => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let inner = self.expr()?;
                self.expect(TokenKind::Comma)?;
                let from = self.small_uint()?;
                self.expect(TokenKind::Comma)?;
                let len = self.small_uint()?;
                let end = self.expect(TokenKind::RParen)?;
                Ok(Expr::new(
                    ExprKind::Substring {
                        expr: Box::new(inner),
                        from,
                        len,
                    },
                    span.to(end),
                ))
            }
            "sum" | "min" | "max" | "avg" => {
                self.bump();
                let func = match word.as_str() {
                    "sum" => AggFunc::Sum,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    _ => AggFunc::Avg,
                };
                self.expect(TokenKind::LParen)?;
                let arg = self.expr()?;
                let end = self.expect(TokenKind::RParen)?;
                Ok(Expr::new(
                    ExprKind::Agg {
                        func,
                        distinct: false,
                        arg: Some(Box::new(arg)),
                    },
                    span.to(end),
                ))
            }
            "count"
                if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::LParen) =>
            {
                self.bump();
                self.expect(TokenKind::LParen)?;
                if self.eat(&TokenKind::Star) {
                    let end = self.expect(TokenKind::RParen)?;
                    return Ok(Expr::new(
                        ExprKind::Agg {
                            func: AggFunc::Count,
                            distinct: false,
                            arg: None,
                        },
                        span.to(end),
                    ));
                }
                let distinct = self.eat_kw("distinct");
                let arg = self.expr()?;
                let end = self.expect(TokenKind::RParen)?;
                Ok(Expr::new(
                    ExprKind::Agg {
                        func: AggFunc::Count,
                        distinct,
                        arg: Some(Box::new(arg)),
                    },
                    span.to(end),
                ))
            }
            w if RESERVED.contains(&w) => Err(SqlError::new(
                format!("expected an expression, found keyword `{w}`"),
                span,
            )),
            _ => {
                self.bump();
                if self.eat(&TokenKind::Dot) {
                    let (name, nspan) = self.ident()?;
                    Ok(Expr::new(
                        ExprKind::Column {
                            table: Some(word),
                            name,
                        },
                        span.to(nspan),
                    ))
                } else {
                    Ok(Expr::new(
                        ExprKind::Column {
                            table: None,
                            name: word,
                        },
                        span,
                    ))
                }
            }
        }
    }

    fn small_uint(&mut self) -> Result<u32, SqlError> {
        match self.peek_kind().clone() {
            TokenKind::Int(v) if (0..=u32::MAX as i64).contains(&v) => {
                self.bump();
                Ok(v as u32)
            }
            other => Err(SqlError::new(
                format!(
                    "expected a non-negative integer, found {}",
                    other.describe()
                ),
                self.peek_span(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sql: &str) -> Select {
        let ast = parse(sql).unwrap();
        let printed = ast.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {}", e.render(&printed)));
        assert_eq!(ast, reparsed, "printer/parser disagree for {printed:?}");
        ast
    }

    #[test]
    fn parses_a_full_query() {
        let ast = roundtrip(
            "SELECT l_returnflag, SUM(l_quantity) AS sum_qty, COUNT(*) AS n \
             FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
             GROUP BY l_returnflag ORDER BY l_returnflag ASC LIMIT 5",
        );
        assert_eq!(ast.items.len(), 3);
        assert_eq!(ast.group_by.len(), 1);
        assert_eq!(ast.limit, Some(5));
        assert!(ast.where_clause.is_some());
    }

    #[test]
    fn precedence_matches_arithmetic() {
        let ast = parse("SELECT a - b * c + d AS x FROM t").unwrap();
        // (a - (b*c)) + d
        assert_eq!(ast.items[0].expr.to_string(), "((a - (b * c)) + d)");
        let ast = parse("SELECT a * (100 - b) / 100 AS x FROM t").unwrap();
        assert_eq!(ast.items[0].expr.to_string(), "((a * (100 - b)) / 100)");
    }

    #[test]
    fn boolean_precedence_and_not() {
        let ast = parse("SELECT x FROM t WHERE NOT a = 1 AND b = 2 OR c = 3").unwrap();
        assert_eq!(
            ast.where_clause.unwrap().to_string(),
            "(((NOT (a = 1)) AND (b = 2)) OR (c = 3))"
        );
    }

    #[test]
    fn joins_and_derived_tables() {
        let ast = roundtrip(
            "SELECT o_orderpriority, COUNT(*) AS n FROM orders \
             SEMI JOIN (SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate) AS l \
             ON o_orderkey = l_orderkey GROUP BY o_orderpriority",
        );
        assert!(matches!(ast.from[1].join, JoinOp::Semi(_)));
        assert!(matches!(ast.from[1].factor, TableFactor::Derived { .. }));
    }

    #[test]
    fn count_join_vs_count_call() {
        let ast = roundtrip(
            "SELECT match_count, COUNT(*) AS custdist FROM customer \
             COUNT JOIN orders ON c_custkey = o_custkey GROUP BY match_count",
        );
        assert!(matches!(ast.from[1].join, JoinOp::CountMatches(_)));
        assert!(matches!(
            ast.items[1].expr.kind,
            ExprKind::Agg {
                func: AggFunc::Count,
                arg: None,
                ..
            }
        ));
    }

    #[test]
    fn between_in_like_case_extract() {
        roundtrip(
            "SELECT CASE WHEN p_type LIKE 'PROMO%' THEN rev ELSE 0 END AS x, \
             EXTRACT(YEAR FROM o_orderdate) AS y, SUBSTRING(c_phone, 1, 2) AS cc \
             FROM t WHERE a BETWEEN 2 AND 4 AND b NOT IN (1, 3) AND c NOT LIKE '%x%' \
             AND d NOT BETWEEN DATE '1994-01-01' AND DATE '1995-01-01'",
        );
    }

    #[test]
    fn date_table_vs_date_literal() {
        let ast = roundtrip("SELECT d_year FROM date WHERE d_datekey >= DATE '1993-01-01'");
        assert!(matches!(
            &ast.from[0].factor,
            TableFactor::Table { name, .. } if name == "date"
        ));
    }

    #[test]
    fn trailing_garbage_position() {
        let sql = "SELECT a FROM t WHERE a = 1 1994";
        let err = parse(sql).unwrap_err();
        assert_eq!(err.span.start, 28, "{err:?}");
        assert!(err.message.contains("trailing"), "{err:?}");
    }

    #[test]
    fn error_positions_inside_clauses() {
        let err = parse("SELECT a FROM t WHERE BETWEEN").unwrap_err();
        assert_eq!(err.span.start, 22);
        let err = parse("SELECT FROM t").unwrap_err();
        assert_eq!(err.span.start, 7);
        let err = parse("SELECT a FROM (SELECT b FROM t)").unwrap_err();
        assert!(err.message.contains("alias"), "{err:?}");
    }

    #[test]
    fn comma_and_alias_forms() {
        let ast = roundtrip(
            "SELECT n1.n_name AS supp_nation FROM nation AS n1, nation n2, region \
             WHERE n1.n_regionkey = r_regionkey",
        );
        assert_eq!(ast.from.len(), 3);
        assert_eq!(ast.from[1].factor.binding_name(), "n2");
    }

    #[test]
    fn exponent_floats_roundtrip() {
        let ast = parse("SELECT x FROM t WHERE a > 1.2345678912345678e17").unwrap();
        let printed = ast.to_string();
        assert_eq!(parse(&printed).unwrap(), ast, "{printed}");
    }

    #[test]
    fn reserved_alias_is_rejected_even_with_as() {
        let err = parse("SELECT COUNT(*) AS count FROM t").unwrap_err();
        assert!(err.message.contains("reserved word"), "{err:?}");
    }

    #[test]
    fn limit_without_order_by_parses_with_span() {
        let sql = "SELECT a FROM t LIMIT 5";
        let ast = parse(sql).unwrap();
        assert_eq!(&sql[ast.limit_span.start..ast.limit_span.end], "LIMIT");
    }

    #[test]
    fn negative_literal_folds() {
        let ast = parse("SELECT x FROM t WHERE a > -5").unwrap();
        assert!(ast.where_clause.unwrap().to_string().contains("-5"));
    }

    fn roundtrip_stmt(sql: &str) -> Statement {
        let ast = parse_statement(sql).unwrap();
        let printed = ast.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {}", e.render(&printed)));
        assert_eq!(ast, reparsed, "printer/parser disagree for {printed:?}");
        ast
    }

    #[test]
    fn insert_forms_roundtrip() {
        let ast = roundtrip_stmt("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
        let Statement::Insert(i) = ast else {
            panic!("not an insert")
        };
        assert!(i.columns.is_empty());
        assert_eq!(i.rows.len(), 2);
        let ast = roundtrip_stmt("INSERT INTO t (b, a) VALUES (DATE '1994-01-01', -3)");
        let Statement::Insert(i) = ast else {
            panic!("not an insert")
        };
        assert_eq!(i.columns, vec!["b", "a"]);
    }

    #[test]
    fn update_and_delete_roundtrip() {
        let ast = roundtrip_stmt("UPDATE t SET a = 1, b = 'x' WHERE c BETWEEN 2 AND 4");
        let Statement::Update(u) = ast else {
            panic!("not an update")
        };
        assert_eq!(u.sets.len(), 2);
        assert!(u.where_clause.is_some());
        let ast = roundtrip_stmt("DELETE FROM t WHERE a = 1 OR b < 0");
        assert!(matches!(ast, Statement::Delete(_)));
        let ast = roundtrip_stmt("DELETE FROM t");
        let Statement::Delete(d) = ast else {
            panic!("not a delete")
        };
        assert!(d.where_clause.is_none());
    }

    #[test]
    fn dml_keywords_stay_contextual_in_select() {
        // `update`, `set`, `values`, `insert` were never reserved: a
        // read-only query using them as names must keep parsing.
        let ast = parse_statement("SELECT update, set FROM values WHERE insert = 1").unwrap();
        let Statement::Select(s) = ast else {
            panic!("not a select")
        };
        assert_eq!(s.items.len(), 2);
    }

    #[test]
    fn dml_errors_have_positions() {
        let err = parse_statement("INSERT INTO t").unwrap_err();
        assert!(err.message.contains("VALUES"), "{err:?}");
        let err = parse_statement("UPDATE t SET").unwrap_err();
        assert!(err.message.contains("identifier"), "{err:?}");
        let err = parse_statement("DELETE t WHERE a = 1").unwrap_err();
        assert!(err.message.contains("FROM"), "{err:?}");
        let err = parse_statement("INSERT INTO t VALUES (1) garbage").unwrap_err();
        assert!(err.message.contains("trailing"), "{err:?}");
    }
}
