//! The random-AST generator both SQL property suites draw from: the
//! parser round trip (`parser_prop.rs`) and the cache-key properties
//! (`shape_prop.rs`). One seed gives one AST in both, so the suites
//! explore the same space.

use morsel_sql::ast::{
    AggFunc, BinOp, Expr, ExprKind, JoinOp, OrderItem, Select, SelectItem, TableFactor, TableRef,
};
use morsel_sql::error::Span;

/// A small deterministic generator (xorshift) driving AST construction.
pub struct Gen {
    state: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn ident(&mut self) -> String {
        const NAMES: &[&str] = &[
            "a",
            "b",
            "c_city",
            "l_qty",
            "rev",
            "x1",
            "total_price",
            "d_year",
        ];
        NAMES[self.below(NAMES.len())].to_owned()
    }

    fn string(&mut self) -> String {
        const STRINGS: &[&str] = &["ASIA", "MFGR#12", "it's", "1-URGENT", ""];
        STRINGS[self.below(STRINGS.len())].to_owned()
    }

    fn pattern(&mut self) -> String {
        const PATTERNS: &[&str] = &["%green%", "PROMO%", "%BRASS", "a%b%c", "exact"];
        PATTERNS[self.below(PATTERNS.len())].to_owned()
    }

    fn expr(&mut self, depth: usize, allow_agg: bool) -> Expr {
        let mk = |kind| Expr::new(kind, Span::default());
        if depth == 0 {
            return mk(match self.below(5) {
                0 => ExprKind::Column {
                    table: None,
                    name: self.ident(),
                },
                1 => ExprKind::Column {
                    table: Some("t1".to_owned()),
                    name: self.ident(),
                },
                2 => ExprKind::Int(self.next() as i64 % 1_000),
                // Include magnitudes whose shortest repr needs exponent
                // notation — printing must stay re-lexable.
                3 => ExprKind::Float(match self.below(4) {
                    0 => 1.2345678912345678e17,
                    1 => 2e-7,
                    _ => (self.next() % 1_000) as f64 * 0.25,
                }),
                _ => ExprKind::Str(self.string()),
            });
        }
        let d = depth - 1;
        match self.below(if allow_agg { 10 } else { 9 }) {
            0 => {
                let ops = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ];
                mk(ExprKind::Binary {
                    op: ops[self.below(ops.len())],
                    left: Box::new(self.expr(d, allow_agg)),
                    right: Box::new(self.expr(d, allow_agg)),
                })
            }
            1 => mk(ExprKind::Not(Box::new(self.expr(d, allow_agg)))),
            2 => mk(ExprKind::Between {
                expr: Box::new(self.expr(d, allow_agg)),
                negated: self.below(2) == 0,
                lo: Box::new(self.expr(0, false)),
                hi: Box::new(self.expr(0, false)),
            }),
            3 => {
                let n = 1 + self.below(3);
                mk(ExprKind::InList {
                    expr: Box::new(self.expr(d, allow_agg)),
                    negated: self.below(2) == 0,
                    list: (0..n).map(|_| self.expr(0, false)).collect(),
                })
            }
            4 => mk(ExprKind::Like {
                expr: Box::new(self.expr(d, allow_agg)),
                negated: self.below(2) == 0,
                pattern: self.pattern(),
            }),
            5 => mk(ExprKind::Case {
                cond: Box::new(self.expr(d, allow_agg)),
                then: Box::new(self.expr(d, allow_agg)),
                else_: Box::new(self.expr(d, allow_agg)),
            }),
            6 => mk(ExprKind::ExtractYear(Box::new(self.expr(d, allow_agg)))),
            7 => mk(ExprKind::Substring {
                expr: Box::new(self.expr(d, allow_agg)),
                from: 1 + self.below(4) as u32,
                len: 1 + self.below(6) as u32,
            }),
            8 => mk(ExprKind::Date {
                y: 1992 + self.below(7) as i32,
                m: 1 + self.below(12) as u32,
                d: 1 + self.below(28) as u32,
            }),
            _ => {
                let funcs = [
                    AggFunc::Sum,
                    AggFunc::Min,
                    AggFunc::Max,
                    AggFunc::Avg,
                    AggFunc::Count,
                ];
                let func = funcs[self.below(funcs.len())];
                let arg = if func == AggFunc::Count && self.below(2) == 0 {
                    None
                } else {
                    Some(Box::new(self.expr(d, false)))
                };
                mk(ExprKind::Agg {
                    func,
                    distinct: func == AggFunc::Count && arg.is_some() && self.below(3) == 0,
                    arg,
                })
            }
        }
    }

    fn factor(&mut self, depth: usize, alias: &str) -> TableFactor {
        if depth > 0 && self.below(4) == 0 {
            TableFactor::Derived {
                query: Box::new(self.select(depth - 1)),
                alias: alias.to_owned(),
                span: Span::default(),
            }
        } else {
            TableFactor::Table {
                name: ["lineitem", "orders", "part"][self.below(3)].to_owned(),
                alias: (self.below(2) == 0).then(|| alias.to_owned()),
                span: Span::default(),
            }
        }
    }

    pub fn select(&mut self, depth: usize) -> Select {
        let n_items = 1 + self.below(3);
        let items = (0..n_items)
            .map(|i| {
                let d = 1 + self.below(2);
                SelectItem {
                    expr: self.expr(d, true),
                    alias: (self.below(2) == 0).then(|| format!("out{i}")),
                }
            })
            .collect();
        let mut from = vec![TableRef {
            join: JoinOp::Comma,
            factor: self.factor(depth, "t1"),
        }];
        for i in 1..=self.below(3) {
            let on = Expr::new(
                ExprKind::Binary {
                    op: BinOp::Eq,
                    left: Box::new(Expr::new(
                        ExprKind::Column {
                            table: None,
                            name: self.ident(),
                        },
                        Span::default(),
                    )),
                    right: Box::new(Expr::new(
                        ExprKind::Column {
                            table: None,
                            name: self.ident(),
                        },
                        Span::default(),
                    )),
                },
                Span::default(),
            );
            let join = match self.below(5) {
                0 => JoinOp::Comma,
                1 => JoinOp::Semi(on),
                2 => JoinOp::Anti(on),
                3 => JoinOp::CountMatches(on),
                _ => JoinOp::Inner(on),
            };
            from.push(TableRef {
                join,
                factor: self.factor(depth, &format!("j{i}")),
            });
        }
        Select {
            items,
            from,
            where_clause: (self.below(2) == 0).then(|| self.expr(2, false)),
            group_by: (0..self.below(3)).map(|_| self.expr(1, false)).collect(),
            having: (self.below(4) == 0).then(|| self.expr(1, true)),
            order_by: (0..self.below(3))
                .map(|_| OrderItem {
                    name: self.ident(),
                    desc: self.below(2) == 0,
                    span: Span::default(),
                })
                .collect(),
            limit: (self.below(3) == 0).then(|| self.below(100)),
            limit_span: Span::default(),
        }
    }
}
