//! Vectorized scalar expressions.
//!
//! Expressions are evaluated batch-at-a-time over column slices. HyPer
//! JIT-compiles pipelines; we rely on monomorphised vectorized kernels
//! instead (see DESIGN.md §2 — the framework is agnostic to this choice).
//!
//! Decimals are fixed-point `i64`; expressions operate on raw integers and
//! plans scale explicitly (e.g. `price * (100 - disc) / 100`), exactly as a
//! fixed-point engine would generate.
//!
//! [`Expr::eval`] is a tree walk producing one [`Vector`] per node. It is
//! how projections are computed, and for boolean expressions it is the
//! *mask evaluator*: **filters do not run through it** — a predicate is
//! compiled once per operator into a [`crate::predicate::Predicate`],
//! whose typed kernels start and narrow selection vectors without ever
//! building a mask; the walk here serves as that cascade's generic
//! fallback (`OR`, `NOT`, `CASE`, arithmetic comparisons, evaluated over
//! the surviving rows only) and as the oracle its kernels are tested
//! against (DESIGN.md §4).
//!
//! Evaluation is **zero-copy at the leaves**: over a row range a bare
//! column reference borrows the column slice (`Cow::Borrowed`) instead of
//! cloning it (over a selection it gathers the selected values), and a
//! dictionary-encoded string column surfaces as a [`Vector::Code`] of
//! `u32` codes plus the shared sorted [`Dictionary`]. Numeric constants
//! under an arithmetic, comparison or `CASE` node stay scalars — nothing
//! is broadcast to a vector. String predicates resolve their constants
//! against the dictionary once (`StrTest::resolve`, the implementation the
//! compiled cascade shares and caches per dictionary) — equality becomes
//! a single-code compare, ranges and prefixes become code-range tests
//! (sorted dictionaries preserve order), `IN` and `LIKE` become one
//! answer per dictionary value — so the per-row work is integer compares,
//! never string traversal (DESIGN.md §9).

use std::borrow::Cow;
use std::sync::Arc;

use morsel_storage::{Batch, Column, DataType, DictColumn, Dictionary, StrColumn};

use crate::key::{for_each_row, Rows};
pub use crate::like::LikePattern;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator `op'` with `a op b ⟺ b op' a`.
    pub(crate) fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq | CmpOp::Ne => self,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    #[inline]
    pub(crate) fn holds<T: PartialOrd + ?Sized>(self, a: &T, b: &T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Input column by index.
    Col(usize),
    ConstI64(i64),
    ConstF64(f64),
    ConstStr(String),
    /// Integer arithmetic (used for fixed-point decimals too).
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    /// Integer division (plans use it to rescale fixed-point products).
    Div(Box<Expr>, Box<Expr>),
    /// Cast an integer expression to f64 (for averages).
    ToF64(Box<Expr>),
    /// Comparison of two expressions of the same type family.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `a AND b`, `a OR b`, `NOT a` on boolean expressions.
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// `col BETWEEN lo AND hi` on integers (dates, decimals).
    BetweenI64(Box<Expr>, i64, i64),
    /// Integer membership test (e.g. `l_shipmode IN (...)` on dictionary
    /// codes, `nation IN (...)`).
    InI64(Box<Expr>, Vec<i64>),
    /// String membership test.
    InStr(Box<Expr>, Vec<String>),
    /// SQL LIKE: `%` matches any run of characters, `_` exactly one.
    Like(Box<Expr>, LikePattern),
    /// `substring(s, 1, n) = prefix`-style prefix test.
    StrPrefix(Box<Expr>, String),
    /// If-then-else on a boolean condition (Q8, Q12 style conditional
    /// aggregation inputs).
    Case(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Calendar year of a day-number date expression (Q7/Q8/Q9).
    YearOf(Box<Expr>),
    /// `substring(s, from, len)` with 1-based `from` (Q22's country code).
    Substr(Box<Expr>, usize, usize),
}

/// Result of evaluating an expression over `n` rows. Borrows column data
/// where evaluation is a plain read (leaf columns), owns it where it is
/// computed.
#[derive(Debug, Clone, PartialEq)]
pub enum Vector<'a> {
    I64(Cow<'a, [i64]>),
    F64(Cow<'a, [f64]>),
    Str(StrRows<'a>),
    /// Dictionary codes plus their shared domain: the encoded form of a
    /// string result. Only materializes at [`Vector::into_column`] — and
    /// even there only into a code column.
    Code(Cow<'a, [u32]>, Arc<Dictionary>),
    Bool(Vec<bool>),
}

impl Vector<'_> {
    pub fn len(&self) -> usize {
        match self {
            Vector::I64(v) => v.len(),
            Vector::F64(v) => v.len(),
            Vector::Str(v) => v.len(),
            Vector::Code(v, _) => v.len(),
            Vector::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn as_bool(&self) -> &[bool] {
        match self {
            Vector::Bool(v) => v,
            other => panic!("expected boolean vector, got {other:?}"),
        }
    }

    pub fn as_i64(&self) -> &[i64] {
        match self {
            Vector::I64(v) => v,
            other => panic!("expected i64 vector, got {other:?}"),
        }
    }

    pub fn as_f64(&self) -> &[f64] {
        match self {
            Vector::F64(v) => v,
            other => panic!("expected f64 vector, got {other:?}"),
        }
    }

    fn is_str(&self) -> bool {
        matches!(self, Vector::Str(_) | Vector::Code(..))
    }

    /// The string at position `i` of a string vector.
    fn str_at(&self, i: usize) -> &str {
        match self {
            Vector::Str(v) => v.col.get(v.from + i),
            Vector::Code(codes, dict) => dict.get(codes[i]),
            other => panic!("expected string vector, got {other:?}"),
        }
    }

    /// Apply a string test over every row. Code vectors resolve the test
    /// against the dictionary **once** and answer per row from the code —
    /// the rewrite all dictionary string predicates share.
    fn str_mask(&self, test: &StrTest<'_>) -> Vec<bool> {
        match self {
            Vector::Str(vs) => vs.iter().map(|s| test.holds(s)).collect(),
            Vector::Code(codes, dict) => {
                let test = test.resolve(dict);
                codes.iter().map(|&c| test.holds(c)).collect()
            }
            other => panic!("string predicate over non-string {other:?}"),
        }
    }

    /// Convert into a storage column (booleans become 0/1 integers; code
    /// vectors stay dictionary-encoded).
    pub fn into_column(self) -> Column {
        match self {
            Vector::I64(v) => Column::I64(v.into_owned()),
            Vector::F64(v) => Column::F64(v.into_owned()),
            Vector::Str(v) => Column::Str(v.into_column()),
            Vector::Code(codes, dict) => Column::Dict(DictColumn::new(dict, codes.into_owned())),
            Vector::Bool(v) => Column::I64(v.into_iter().map(i64::from).collect()),
        }
    }
}

/// The plain strings of a [`Vector`]: rows `[from, to)` of `col`. A leaf
/// read over a row range borrows its column here, so no byte is copied;
/// computed and gathered values own theirs.
#[derive(Debug, Clone)]
pub struct StrRows<'a> {
    col: Cow<'a, StrColumn>,
    from: usize,
    to: usize,
}

impl StrRows<'_> {
    fn owned(col: StrColumn) -> Self {
        let to = col.len();
        StrRows {
            col: Cow::Owned(col),
            from: 0,
            to,
        }
    }

    pub fn len(&self) -> usize {
        self.to - self.from
    }

    pub fn is_empty(&self) -> bool {
        self.from == self.to
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        (self.from..self.to).map(|i| self.col.get(i))
    }

    /// The values as a column of their own: copied unless they are the
    /// whole of an owned column.
    fn into_column(self) -> StrColumn {
        let (from, to) = (self.from, self.to);
        match self.col {
            Cow::Owned(c) if from == 0 && to == c.len() => c,
            c => {
                let mut out = StrColumn::with_capacity(to - from, c.byte_len(from, to));
                out.extend_range(&c, from, to);
                out
            }
        }
    }
}

impl PartialEq for StrRows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// A test of a string against constants, borrowed from the expression
/// node that states it ([`Expr::as_str_test`]): the one implementation of
/// string predicates, shared by the mask evaluator and the compiled
/// cascade ([`crate::predicate`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum StrTest<'a> {
    Cmp(CmpOp, &'a str),
    In(&'a [String]),
    Prefix(&'a str),
    Like(&'a LikePattern),
}

impl StrTest<'_> {
    /// Whether the string `s` passes.
    pub(crate) fn holds(&self, s: &str) -> bool {
        match self {
            StrTest::Cmp(op, c) => op.holds(s, c),
            StrTest::In(list) => list.iter().any(|l| l == s),
            StrTest::Prefix(p) => s.starts_with(p),
            StrTest::Like(pat) => pat.matches(s),
        }
    }

    /// The same test over the codes of the sorted dictionary `dict`:
    /// equality resolves to (at most) one code, ordering and prefixes to a
    /// code range, `IN` and `LIKE` to one answer per dictionary value.
    pub(crate) fn resolve(&self, dict: &Dictionary) -> CodeTest {
        let len = dict.len() as u32;
        match self {
            StrTest::Cmp(op, s) => match op {
                CmpOp::Eq => match dict.code_of(s) {
                    Some(c) => CodeTest::Range(c, c + 1),
                    None => CodeTest::Range(0, 0),
                },
                CmpOp::Ne => match dict.code_of(s) {
                    Some(c) => CodeTest::Not(c),
                    None => CodeTest::Range(0, len),
                },
                // value < s ⟺ code < |{v : v < s}|, and friends.
                CmpOp::Lt => CodeTest::Range(0, dict.lower_bound(s)),
                CmpOp::Le => CodeTest::Range(0, dict.upper_bound(s)),
                CmpOp::Ge => CodeTest::Range(dict.lower_bound(s), len),
                CmpOp::Gt => CodeTest::Range(dict.upper_bound(s), len),
            },
            StrTest::Prefix(p) => {
                let (lo, hi) = dict.prefix_range(p);
                CodeTest::Range(lo, hi)
            }
            StrTest::In(_) | StrTest::Like(_) => {
                CodeTest::Mask(dict.values().iter().map(|v| self.holds(v)).collect())
            }
        }
    }
}

/// A [`StrTest`] resolved against one dictionary.
#[derive(Debug)]
pub(crate) enum CodeTest {
    /// `lo <= code < hi`.
    Range(u32, u32),
    /// `code != c`.
    Not(u32),
    /// One answer per dictionary value.
    Mask(Vec<bool>),
}

impl CodeTest {
    #[inline]
    pub(crate) fn holds(&self, code: u32) -> bool {
        match self {
            CodeTest::Range(lo, hi) => code.wrapping_sub(*lo) < hi - lo,
            CodeTest::Not(c) => code != *c,
            CodeTest::Mask(per) => per[code as usize],
        }
    }
}

/// An evaluated operand of an arithmetic, comparison or `CASE` node: a
/// constant stays a scalar instead of being broadcast to a vector.
enum Operand<'a> {
    Vector(Vector<'a>),
    I64(i64),
    F64(f64),
}

/// One side of a numeric kernel.
#[derive(Clone, Copy)]
enum Arg<'a, T> {
    Slice(&'a [T]),
    Const(T),
}

impl<T: Copy> Arg<'_, T> {
    #[inline]
    fn at(&self, i: usize) -> T {
        match self {
            Arg::Slice(s) => s[i],
            Arg::Const(c) => *c,
        }
    }
}

/// A numeric operand by type family.
enum Num<'a> {
    I(Arg<'a, i64>),
    F(Arg<'a, f64>),
}

impl Operand<'_> {
    fn num(&self) -> Option<Num<'_>> {
        match self {
            Operand::I64(c) => Some(Num::I(Arg::Const(*c))),
            Operand::F64(c) => Some(Num::F(Arg::Const(*c))),
            Operand::Vector(Vector::I64(v)) => Some(Num::I(Arg::Slice(v))),
            Operand::Vector(Vector::F64(v)) => Some(Num::F(Arg::Slice(v))),
            Operand::Vector(_) => None,
        }
    }
}

/// `f` over `n` rows of two operands, each a slice or a constant.
fn zip_with<A: Copy, B: Copy, R: Clone>(
    a: Arg<'_, A>,
    b: Arg<'_, B>,
    n: usize,
    f: impl Fn(A, B) -> R,
) -> Vec<R> {
    match (a, b) {
        (Arg::Slice(x), Arg::Slice(y)) => x.iter().zip(y).map(|(&a, &b)| f(a, b)).collect(),
        (Arg::Slice(x), Arg::Const(c)) => x.iter().map(|&a| f(a, c)).collect(),
        (Arg::Const(c), Arg::Slice(y)) => y.iter().map(|&b| f(c, b)).collect(),
        (Arg::Const(a), Arg::Const(b)) => vec![f(a, b); n],
    }
}

/// `f` over two numeric operands with integers promoted to `f64`.
fn zip_f64<R: Clone>(a: Num<'_>, b: Num<'_>, n: usize, f: impl Fn(f64, f64) -> R) -> Vec<R> {
    match (a, b) {
        (Num::F(x), Num::F(y)) => zip_with(x, y, n, f),
        (Num::I(x), Num::F(y)) => zip_with(x, y, n, |a, b| f(a as f64, b)),
        (Num::F(x), Num::I(y)) => zip_with(x, y, n, |a, b| f(a, b as f64)),
        (Num::I(x), Num::I(y)) => zip_with(x, y, n, |a, b| f(a as f64, b as f64)),
    }
}

/// `CASE`: `t` where `mask` holds, `e` elsewhere.
fn pick<T: Copy>(mask: &[bool], t: Arg<'_, T>, e: Arg<'_, T>) -> Vec<T> {
    mask.iter()
        .enumerate()
        .map(|(i, &c)| if c { t.at(i) } else { e.at(i) })
        .collect()
}

/// The values of `v` at `rows`: borrowed for a range, gathered for a
/// selection.
fn read<'a, T: Clone>(v: &'a [T], rows: Rows<'_>) -> Cow<'a, [T]> {
    match rows {
        Rows::Range(s, e) => Cow::Borrowed(&v[s..e]),
        Rows::Sel(sel) => Cow::Owned(sel.iter().map(|&r| v[r as usize].clone()).collect()),
    }
}

/// The plain strings at `rows`: borrowed for a range, gathered for a
/// selection.
fn read_strs<'a>(v: &'a StrColumn, rows: Rows<'_>) -> StrRows<'a> {
    match rows {
        Rows::Range(from, to) => StrRows {
            col: Cow::Borrowed(v),
            from,
            to,
        },
        Rows::Sel(sel) => {
            let mut out = StrColumn::with_capacity(sel.len(), 0);
            out.extend_selected(v, sel);
            StrRows::owned(out)
        }
    }
}

impl Expr {
    /// Number of nodes in the expression tree — used as a CPU cost proxy.
    pub fn weight(&self) -> u32 {
        match self {
            Expr::Col(_) | Expr::ConstI64(_) | Expr::ConstF64(_) | Expr::ConstStr(_) => 1,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Cmp(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => 1 + a.weight() + b.weight(),
            Expr::Not(a) | Expr::ToF64(a) => 1 + a.weight(),
            Expr::BetweenI64(a, _, _) => 2 + a.weight(),
            Expr::InI64(a, l) => 1 + a.weight() + l.len() as u32 / 2,
            Expr::InStr(a, l) => 2 + a.weight() + l.len() as u32,
            Expr::Like(a, _) => 4 + a.weight(),
            Expr::StrPrefix(a, _) => 2 + a.weight(),
            Expr::Case(c, t, e) => 1 + c.weight() + t.weight() + e.weight(),
            Expr::YearOf(a) => 3 + a.weight(),
            Expr::Substr(a, _, _) => 2 + a.weight(),
        }
    }

    /// If this node tests a string-valued operand against constants: the
    /// operand and the test (a constant on the left flips the comparison).
    pub(crate) fn as_str_test(&self) -> Option<(&Expr, StrTest<'_>)> {
        match self {
            Expr::Cmp(op, a, b) => match (&**a, &**b) {
                (_, Expr::ConstStr(s)) => Some((a, StrTest::Cmp(*op, s))),
                (Expr::ConstStr(s), _) => Some((b, StrTest::Cmp(op.flipped(), s))),
                _ => None,
            },
            Expr::InStr(a, list) => Some((a, StrTest::In(list))),
            Expr::StrPrefix(a, p) => Some((a, StrTest::Prefix(p))),
            Expr::Like(a, pat) => Some((a, StrTest::Like(pat))),
            _ => None,
        }
    }

    /// Evaluate over the rows `rows` of `batch`'s columns — a row range
    /// (`0..n`) or any [`Rows`] — into one value per row. For boolean
    /// expressions this is the *mask evaluator*: the generic fallback of a
    /// compiled [`crate::predicate::Predicate`] and the oracle its kernels
    /// are tested against.
    pub fn eval<'a, 'r>(&self, batch: &'a Batch, rows: impl Into<Rows<'r>>) -> Vector<'a> {
        self.eval_rows(batch, rows.into())
    }

    fn eval_rows<'a>(&self, batch: &'a Batch, rows: Rows<'_>) -> Vector<'a> {
        let n = rows.len();
        if let Some((operand, test)) = self.as_str_test() {
            return Vector::Bool(operand.eval_rows(batch, rows).str_mask(&test));
        }
        match self {
            // Leaf reads over a range borrow the column: no copy for
            // i64/f64/codes or plain strings. Over a selection they gather.
            Expr::Col(i) => match batch.column(*i) {
                Column::I64(v) => Vector::I64(read(v, rows)),
                Column::I32(v) => {
                    let mut out = Vec::with_capacity(n);
                    for_each_row!(rows, _i, r, out.push(i64::from(v[r])));
                    Vector::I64(Cow::Owned(out))
                }
                Column::F64(v) => Vector::F64(read(v, rows)),
                Column::Str(v) => Vector::Str(read_strs(v, rows)),
                Column::Dict(d) => Vector::Code(read(d.codes(), rows), Arc::clone(d.dict())),
            },
            Expr::ConstI64(c) => Vector::I64(Cow::Owned(vec![*c; n])),
            Expr::ConstF64(c) => Vector::F64(Cow::Owned(vec![*c; n])),
            Expr::ConstStr(c) => Vector::Str(StrRows::owned(std::iter::repeat_n(c, n).collect())),
            Expr::Add(a, b) => Self::arith(a, b, batch, rows, |x, y| x + y, |x, y| x + y),
            Expr::Sub(a, b) => Self::arith(a, b, batch, rows, |x, y| x - y, |x, y| x - y),
            Expr::Mul(a, b) => Self::arith(a, b, batch, rows, |x, y| x * y, |x, y| x * y),
            Expr::Div(a, b) => Self::arith(
                a,
                b,
                batch,
                rows,
                |x, y| if y == 0 { 0 } else { x / y },
                |x, y| x / y,
            ),
            Expr::ToF64(a) => {
                let v = a.eval_rows(batch, rows);
                match v {
                    Vector::I64(v) => {
                        Vector::F64(Cow::Owned(v.iter().map(|&x| x as f64).collect()))
                    }
                    f @ Vector::F64(_) => f,
                    other => panic!("ToF64 on non-numeric {other:?}"),
                }
            }
            Expr::Cmp(op, a, b) => {
                let va = a.operand(batch, rows);
                let vb = b.operand(batch, rows);
                use Operand::Vector as V;
                let out = match ((va.num(), vb.num()), (&va, &vb)) {
                    ((Some(Num::I(x)), Some(Num::I(y))), _) => {
                        zip_with(x, y, n, |a, b| op.holds(&a, &b))
                    }
                    ((Some(x), Some(y)), _) => zip_f64(x, y, n, |a, b| op.holds(&a, &b)),
                    // Strings of either representation compare as values;
                    // no compiled code compare for two columns of one
                    // dictionary yet (ROADMAP item 20).
                    (_, (V(x), V(y))) if x.is_str() && y.is_str() => {
                        (0..n).map(|i| op.holds(x.str_at(i), y.str_at(i))).collect()
                    }
                    _ => panic!("incomparable operand types in {self:?}"),
                };
                Vector::Bool(out)
            }
            Expr::And(a, b) => {
                let va = a.eval_rows(batch, rows);
                let vb = b.eval_rows(batch, rows);
                Vector::Bool(
                    va.as_bool()
                        .iter()
                        .zip(vb.as_bool())
                        .map(|(&x, &y)| x && y)
                        .collect(),
                )
            }
            Expr::Or(a, b) => {
                let va = a.eval_rows(batch, rows);
                let vb = b.eval_rows(batch, rows);
                Vector::Bool(
                    va.as_bool()
                        .iter()
                        .zip(vb.as_bool())
                        .map(|(&x, &y)| x || y)
                        .collect(),
                )
            }
            Expr::Not(a) => {
                let v = a.eval_rows(batch, rows);
                Vector::Bool(v.as_bool().iter().map(|&x| !x).collect())
            }
            Expr::BetweenI64(a, lo, hi) => {
                let v = a.eval_rows(batch, rows);
                Vector::Bool(v.as_i64().iter().map(|x| x >= lo && x <= hi).collect())
            }
            Expr::InI64(a, list) => {
                let v = a.eval_rows(batch, rows);
                Vector::Bool(v.as_i64().iter().map(|x| list.contains(x)).collect())
            }
            Expr::InStr(..) | Expr::Like(..) | Expr::StrPrefix(..) => {
                unreachable!("string tests are evaluated above")
            }
            Expr::Case(c, t, e) => {
                let vc = c.eval_rows(batch, rows);
                let vt = t.operand(batch, rows);
                let ve = e.operand(batch, rows);
                match (vt.num(), ve.num()) {
                    (Some(Num::I(t)), Some(Num::I(e))) => {
                        Vector::I64(Cow::Owned(pick(vc.as_bool(), t, e)))
                    }
                    (Some(Num::F(t)), Some(Num::F(e))) => {
                        Vector::F64(Cow::Owned(pick(vc.as_bool(), t, e)))
                    }
                    _ => panic!("Case branches of mismatched types in {self:?}"),
                }
            }
            Expr::YearOf(a) => {
                let v = a.eval_rows(batch, rows);
                Vector::I64(Cow::Owned(
                    v.as_i64()
                        .iter()
                        .map(|&d| {
                            let (y, _, _) = morsel_storage::date_parts(d as i32);
                            i64::from(y)
                        })
                        .collect(),
                ))
            }
            Expr::Substr(a, from, len) => {
                let v = a.eval_rows(batch, rows);
                let (skip, take) = (from.saturating_sub(1), *len);
                let cut = |s: &str, o: &mut String| o.extend(s.chars().skip(skip).take(take));
                let mut out;
                match &v {
                    Vector::Str(vs) => {
                        // A cut is never longer than its input.
                        out = StrColumn::with_capacity(n, vs.col.byte_len(vs.from, vs.to));
                        for s in vs.iter() {
                            out.push_with(|o| cut(s, o));
                        }
                    }
                    Vector::Code(codes, dict) => {
                        // Cut once per dictionary value, copy per row.
                        let mut per = StrColumn::with_capacity(dict.len(), 0);
                        for s in dict.values() {
                            per.push_with(|o| cut(s, o));
                        }
                        out = StrColumn::with_capacity(n, 0);
                        out.extend(codes.iter().map(|&c| per.get(c as usize)));
                    }
                    other => panic!("Substr over non-string {other:?}"),
                }
                Vector::Str(StrRows::owned(out))
            }
        }
    }

    /// Evaluate as an operand: numeric constants stay scalars.
    fn operand<'a>(&self, batch: &'a Batch, rows: Rows<'_>) -> Operand<'a> {
        match self {
            Expr::ConstI64(c) => Operand::I64(*c),
            Expr::ConstF64(c) => Operand::F64(*c),
            e => Operand::Vector(e.eval_rows(batch, rows)),
        }
    }

    fn arith<'a>(
        a: &Expr,
        b: &Expr,
        batch: &'a Batch,
        rows: Rows<'_>,
        fi: impl Fn(i64, i64) -> i64,
        ff: impl Fn(f64, f64) -> f64,
    ) -> Vector<'a> {
        let n = rows.len();
        let va = a.operand(batch, rows);
        let vb = b.operand(batch, rows);
        match (va.num(), vb.num()) {
            (Some(Num::I(x)), Some(Num::I(y))) => Vector::I64(Cow::Owned(zip_with(x, y, n, fi))),
            (Some(x), Some(y)) => Vector::F64(Cow::Owned(zip_f64(x, y, n, ff))),
            _ => panic!("arithmetic over non-numeric operands {a:?}, {b:?}"),
        }
    }

    /// Source column indexes referenced by this expression (deduplicated,
    /// sorted).
    pub fn referenced_cols(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            Expr::ConstI64(_) | Expr::ConstF64(_) | Expr::ConstStr(_) => {}
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Cmp(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                a.referenced_cols(out);
                b.referenced_cols(out);
            }
            Expr::Not(a)
            | Expr::ToF64(a)
            | Expr::BetweenI64(a, _, _)
            | Expr::InI64(a, _)
            | Expr::InStr(a, _)
            | Expr::Like(a, _)
            | Expr::StrPrefix(a, _)
            | Expr::YearOf(a)
            | Expr::Substr(a, _, _) => a.referenced_cols(out),
            Expr::Case(c, t, e) => {
                c.referenced_cols(out);
                t.referenced_cols(out);
                e.referenced_cols(out);
            }
        }
    }

    /// Rewrite column references through `map` (`map[old] = Some(new)`).
    ///
    /// # Panics
    /// Panics if a referenced column has no mapping.
    pub fn remap(&self, map: &[Option<usize>]) -> Expr {
        let bx = |e: &Expr| Box::new(e.remap(map));
        match self {
            Expr::Col(i) => {
                Expr::Col(map[*i].unwrap_or_else(|| panic!("column {i} not available after remap")))
            }
            Expr::ConstI64(c) => Expr::ConstI64(*c),
            Expr::ConstF64(c) => Expr::ConstF64(*c),
            Expr::ConstStr(c) => Expr::ConstStr(c.clone()),
            Expr::Add(a, b) => Expr::Add(bx(a), bx(b)),
            Expr::Sub(a, b) => Expr::Sub(bx(a), bx(b)),
            Expr::Mul(a, b) => Expr::Mul(bx(a), bx(b)),
            Expr::Div(a, b) => Expr::Div(bx(a), bx(b)),
            Expr::ToF64(a) => Expr::ToF64(bx(a)),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, bx(a), bx(b)),
            Expr::And(a, b) => Expr::And(bx(a), bx(b)),
            Expr::Or(a, b) => Expr::Or(bx(a), bx(b)),
            Expr::Not(a) => Expr::Not(bx(a)),
            Expr::BetweenI64(a, lo, hi) => Expr::BetweenI64(bx(a), *lo, *hi),
            Expr::InI64(a, l) => Expr::InI64(bx(a), l.clone()),
            Expr::InStr(a, l) => Expr::InStr(bx(a), l.clone()),
            Expr::Like(a, p) => Expr::Like(bx(a), p.clone()),
            Expr::StrPrefix(a, p) => Expr::StrPrefix(bx(a), p.clone()),
            Expr::Case(c, t, e) => Expr::Case(bx(c), bx(t), bx(e)),
            Expr::YearOf(a) => Expr::YearOf(bx(a)),
            Expr::Substr(a, f, l) => Expr::Substr(bx(a), *f, *l),
        }
    }

    /// Result type of this expression given input types.
    pub fn result_type(&self, input: &[DataType]) -> DataType {
        match self {
            Expr::Col(i) => match input[*i] {
                DataType::I32 => DataType::I64, // widened at eval
                t => t,
            },
            Expr::ConstI64(_) => DataType::I64,
            Expr::ConstF64(_) => DataType::F64,
            Expr::ConstStr(_) => DataType::Str,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                let (ta, tb) = (a.result_type(input), b.result_type(input));
                if ta == DataType::F64 || tb == DataType::F64 {
                    DataType::F64
                } else {
                    DataType::I64
                }
            }
            Expr::ToF64(_) => DataType::F64,
            Expr::Cmp(..)
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(_)
            | Expr::BetweenI64(..)
            | Expr::InI64(..)
            | Expr::InStr(..)
            | Expr::Like(..)
            | Expr::StrPrefix(..) => DataType::I64, // booleans surface as 0/1
            Expr::Case(_, t, _) => t.result_type(input),
            Expr::YearOf(_) => DataType::I64,
            Expr::Substr(..) => DataType::Str,
        }
    }
}

// ---- convenience constructors ------------------------------------------

pub fn col(i: usize) -> Expr {
    Expr::Col(i)
}

pub fn lit(v: i64) -> Expr {
    Expr::ConstI64(v)
}

pub fn litf(v: f64) -> Expr {
    Expr::ConstF64(v)
}

pub fn lits(v: &str) -> Expr {
    Expr::ConstStr(v.to_owned())
}

pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
    Expr::Cmp(op, Box::new(a), Box::new(b))
}

pub fn eq(a: Expr, b: Expr) -> Expr {
    cmp(CmpOp::Eq, a, b)
}

pub fn lt(a: Expr, b: Expr) -> Expr {
    cmp(CmpOp::Lt, a, b)
}

pub fn le(a: Expr, b: Expr) -> Expr {
    cmp(CmpOp::Le, a, b)
}

pub fn gt(a: Expr, b: Expr) -> Expr {
    cmp(CmpOp::Gt, a, b)
}

pub fn ge(a: Expr, b: Expr) -> Expr {
    cmp(CmpOp::Ge, a, b)
}

pub fn ne(a: Expr, b: Expr) -> Expr {
    cmp(CmpOp::Ne, a, b)
}

pub fn and(a: Expr, b: Expr) -> Expr {
    Expr::And(Box::new(a), Box::new(b))
}

pub fn or(a: Expr, b: Expr) -> Expr {
    Expr::Or(Box::new(a), Box::new(b))
}

pub fn not(a: Expr) -> Expr {
    Expr::Not(Box::new(a))
}

pub fn add(a: Expr, b: Expr) -> Expr {
    Expr::Add(Box::new(a), Box::new(b))
}

pub fn sub(a: Expr, b: Expr) -> Expr {
    Expr::Sub(Box::new(a), Box::new(b))
}

pub fn mul(a: Expr, b: Expr) -> Expr {
    Expr::Mul(Box::new(a), Box::new(b))
}

pub fn div(a: Expr, b: Expr) -> Expr {
    Expr::Div(Box::new(a), Box::new(b))
}

pub fn between(a: Expr, lo: i64, hi: i64) -> Expr {
    Expr::BetweenI64(Box::new(a), lo, hi)
}

pub fn in_i64(a: Expr, list: Vec<i64>) -> Expr {
    Expr::InI64(Box::new(a), list)
}

pub fn in_str(a: Expr, list: &[&str]) -> Expr {
    Expr::InStr(Box::new(a), list.iter().map(|s| (*s).to_owned()).collect())
}

pub fn like(a: Expr, pattern: &str) -> Expr {
    Expr::Like(Box::new(a), LikePattern::parse(pattern))
}

pub fn prefix(a: Expr, p: &str) -> Expr {
    Expr::StrPrefix(Box::new(a), p.to_owned())
}

pub fn case(c: Expr, t: Expr, e: Expr) -> Expr {
    Expr::Case(Box::new(c), Box::new(t), Box::new(e))
}

pub fn to_f64(a: Expr) -> Expr {
    Expr::ToF64(Box::new(a))
}

pub fn year_of(a: Expr) -> Expr {
    Expr::YearOf(Box::new(a))
}

pub fn substr(a: Expr, from: usize, len: usize) -> Expr {
    Expr::Substr(Box::new(a), from, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use morsel_storage::Encoding;

    fn batch() -> Batch {
        Batch::from_columns(vec![
            Column::I64(vec![1, 2, 3, 4, 5]),
            Column::F64(vec![1.0, 0.5, 2.0, 0.25, 1.5]),
            Column::Str(
                ["apple", "banana", "cherry", "date", "grape"]
                    .into_iter()
                    .collect(),
            ),
            Column::I32(vec![10, 20, 30, 40, 50]),
        ])
    }

    /// The same batch with the string column dictionary-encoded.
    fn dict_batch() -> Batch {
        let b = batch();
        let dict = Dictionary::from_values(b.column(2).as_str());
        let encoded = Column::Dict(DictColumn::encode(&dict, b.column(2).as_str()).unwrap());
        Batch::from_columns(vec![
            b.column(0).clone(),
            b.column(1).clone(),
            encoded,
            b.column(3).clone(),
        ])
    }

    fn iv(v: Vec<i64>) -> Vector<'static> {
        Vector::I64(Cow::Owned(v))
    }

    fn fv(v: Vec<f64>) -> Vector<'static> {
        Vector::F64(Cow::Owned(v))
    }

    #[test]
    fn column_and_const() {
        let b = batch();
        assert_eq!(col(0).eval(&b, 1..4), iv(vec![2, 3, 4]));
        assert_eq!(lit(7).eval(&b, 0..2), iv(vec![7, 7]));
        // I32 widens to I64.
        assert_eq!(col(3).eval(&b, 0..2), iv(vec![10, 20]));
    }

    #[test]
    fn leaf_reads_are_zero_copy() {
        let b = batch();
        assert!(matches!(
            col(0).eval(&b, 1..4),
            Vector::I64(Cow::Borrowed(_))
        ));
        assert!(matches!(
            col(1).eval(&b, 0..5),
            Vector::F64(Cow::Borrowed(_))
        ));
        for rows in [0..5, 1..3] {
            assert!(matches!(
                col(2).eval(&b, rows),
                Vector::Str(StrRows {
                    col: Cow::Borrowed(_),
                    ..
                })
            ));
        }
        assert_eq!(
            col(2).eval(&b, 1..3).into_column().str_at(1),
            b.column(2).str_at(2)
        );
        let d = dict_batch();
        assert!(matches!(
            col(2).eval(&d, 0..5),
            Vector::Code(Cow::Borrowed(_), _)
        ));
    }

    #[test]
    fn arithmetic_fixed_point_discount() {
        // price * (100 - disc) / 100 on cents.
        let b = Batch::from_columns(vec![
            Column::I64(vec![10_000, 20_000]), // 100.00, 200.00
            Column::I64(vec![10, 5]),          // 10%, 5%
        ]);
        let e = div(mul(col(0), sub(lit(100), col(1))), lit(100));
        assert_eq!(e.eval(&b, 0..2), iv(vec![9_000, 19_000]));
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let b = Batch::from_columns(vec![Column::I64(vec![10])]);
        assert_eq!(div(col(0), lit(0)).eval(&b, 0..1), iv(vec![0]));
    }

    #[test]
    fn mixed_numeric_promotes_to_f64() {
        let b = batch();
        let v = add(col(0), col(1)).eval(&b, 0..2);
        assert_eq!(v, fv(vec![2.0, 2.5]));
    }

    #[test]
    fn comparisons_and_logic() {
        let b = batch();
        let e = and(gt(col(0), lit(1)), lt(col(0), lit(5)));
        assert_eq!(
            e.eval(&b, 0..5).as_bool(),
            &[false, true, true, true, false]
        );
        let e2 = or(eq(col(0), lit(1)), eq(col(0), lit(5)));
        assert_eq!(
            e2.eval(&b, 0..5).as_bool(),
            &[true, false, false, false, true]
        );
        let e3 = not(le(col(0), lit(3)));
        assert_eq!(
            e3.eval(&b, 0..5).as_bool(),
            &[false, false, false, true, true]
        );
        let e4 = ne(col(0), lit(3));
        assert_eq!(
            e4.eval(&b, 0..5).as_bool(),
            &[true, true, false, true, true]
        );
    }

    #[test]
    fn between_and_in() {
        let b = batch();
        assert_eq!(
            between(col(0), 2, 4).eval(&b, 0..5).as_bool(),
            &[false, true, true, true, false]
        );
        assert_eq!(
            in_i64(col(0), vec![1, 4]).eval(&b, 0..5).as_bool(),
            &[true, false, false, true, false]
        );
        assert_eq!(
            in_str(col(2), &["banana", "date"]).eval(&b, 0..5).as_bool(),
            &[false, true, false, true, false]
        );
    }

    #[test]
    fn string_predicates() {
        let b = batch();
        assert_eq!(
            like(col(2), "%an%").eval(&b, 0..5).as_bool(),
            &[false, true, false, false, false]
        );
        assert_eq!(
            prefix(col(2), "da").eval(&b, 0..5).as_bool(),
            &[false, false, false, true, false]
        );
        assert_eq!(
            eq(col(2), lits("cherry")).eval(&b, 0..5).as_bool(),
            &[false, false, true, false, false]
        );
    }

    #[test]
    fn dict_string_predicates_match_plain() {
        let plain = batch();
        let dict = dict_batch();
        let preds = [
            eq(col(2), lits("cherry")),
            eq(col(2), lits("missing")),
            ne(col(2), lits("banana")),
            ne(col(2), lits("missing")),
            lt(col(2), lits("cherry")),
            le(col(2), lits("cherry")),
            gt(col(2), lits("banana")),
            ge(col(2), lits("car")),
            in_str(col(2), &["banana", "date", "nope"]),
            like(col(2), "%an%"),
            like(col(2), "gr%"),
            prefix(col(2), "da"),
            prefix(col(2), ""),
            prefix(col(2), "zz"),
            not(prefix(col(2), "ch")),
        ];
        for p in &preds {
            assert_eq!(
                p.eval(&dict, 0..5).as_bool(),
                p.eval(&plain, 0..5).as_bool(),
                "predicate {p:?}"
            );
            // Sub-ranges go through the same code-slice path.
            assert_eq!(
                p.eval(&dict, 1..4).as_bool(),
                p.eval(&plain, 1..4).as_bool(),
                "predicate {p:?} on subrange"
            );
        }
    }

    #[test]
    fn dict_column_comparisons() {
        let d = dict_batch();
        // Code vs code through the same dictionary compares codes.
        let e = eq(col(2), col(2));
        assert_eq!(e.eval(&d, 0..5).as_bool(), &[true; 5]);
        let e2 = lt(col(2), col(2));
        assert_eq!(e2.eval(&d, 0..5).as_bool(), &[false; 5]);
        // Substr decodes through the per-dictionary-value cut.
        let v = substr(col(2), 1, 2).eval(&d, 0..3);
        assert_eq!(
            v,
            Vector::Str(StrRows::owned(["ap", "ba", "ch"].into_iter().collect()))
        );
    }

    #[test]
    fn dict_projection_stays_encoded() {
        let d = dict_batch();
        let out = col(2).eval(&d, 1..4).into_column();
        let dc = out.as_dict().expect("projection keeps the encoding");
        assert_eq!(dc.len(), 3);
        assert_eq!(dc.str_at(0), "banana");
        assert!(dc.same_dict(d.column(2).as_dict().unwrap()));
    }

    #[test]
    fn like_pattern_semantics() {
        let p = LikePattern::parse("%special%requests%");
        assert!(p.matches("the special customer requests"));
        assert!(!p.matches("special only"));
        let anchored = LikePattern::parse("PROMO%");
        assert!(anchored.matches("PROMO BURNISHED"));
        assert!(!anchored.matches("X PROMO"));
        let suffix = LikePattern::parse("%BRASS");
        assert!(suffix.matches("SMALL BRASS"));
        assert!(!suffix.matches("BRASS PLATED"));
        let exact = LikePattern::parse("abc");
        assert!(exact.matches("abc"));
        assert!(!exact.matches("abcd"));
        // Non-overlap: 'ab' must not match 'abab'.
        assert!(!LikePattern::parse("ab").matches("abab"));
        // Anchored prefix+suffix: 'a%a' needs two distinct 'a's.
        let p = LikePattern::parse("a%a");
        assert!(p.matches("aa"));
        assert!(p.matches("aba"));
        assert!(!p.matches("a"));
        assert!(!p.matches("ab"));
        // All-wildcard patterns.
        assert!(LikePattern::parse("%").matches("anything"));
        assert!(LikePattern::parse("%").matches(""));
        assert!(LikePattern::parse("").matches(""));
        assert!(!LikePattern::parse("").matches("x"));
        // `_` is exactly one character, not one byte.
        assert!(LikePattern::parse("CHIN_").matches("CHINA"));
        assert!(LikePattern::parse("1_-%").matches("13-555"));
        assert!(!LikePattern::parse("1_-%").matches("1-555"));
        let p = LikePattern::parse("_é_");
        assert!(p.matches("aéb"));
        assert!(p.matches("ééé"));
        assert!(!p.matches("aé"));
        assert!(LikePattern::parse("%_é").matches("→é"));
        assert!(!LikePattern::parse("%__é").matches("→é"));
    }

    #[test]
    fn case_expression() {
        let b = batch();
        let e = case(gt(col(0), lit(3)), lit(1), lit(0));
        assert_eq!(e.eval(&b, 0..5), iv(vec![0, 0, 0, 1, 1]));
    }

    /// Filtering by an expression goes through its form compiled for `b`.
    fn compiled(e: &Expr, b: &Batch) -> Predicate {
        let types = [DataType::I64, DataType::F64, DataType::Str, DataType::I32];
        let encodings: Vec<Encoding> = b.columns().iter().map(Encoding::of).collect();
        Predicate::new(e, &types, &encodings)
    }

    #[test]
    fn filter_returns_absolute_indexes() {
        let b = batch();
        let p = compiled(&gt(col(0), lit(2)), &b);
        assert_eq!(p.select(&b, 1..5), vec![2, 3, 4]);
        assert_eq!(p.select(&b, 3..3), Vec::<u32>::new());
    }

    #[test]
    fn filter_sel_evaluates_selected_rows_only() {
        let b = batch();
        let p = compiled(&gt(col(0), lit(2)), &b);
        assert_eq!(p.narrow(&b, vec![0, 2, 4]), vec![2, 4]);
        assert_eq!(p.narrow(&b, vec![]), Vec::<u32>::new());
        // Matches the dense path intersected with the selection.
        let dense = p.select(&b, 0..5);
        let sel = vec![1u32, 2, 3];
        let want: Vec<u32> = sel.iter().copied().filter(|r| dense.contains(r)).collect();
        assert_eq!(p.narrow(&b, sel), want);
        // String predicates (both representations) agree too.
        let d = dict_batch();
        let sp = compiled(&prefix(col(2), "da"), &d);
        assert_eq!(sp.narrow(&d, vec![2, 3, 4]), vec![3]);
        let sp = compiled(&prefix(col(2), "da"), &b);
        assert_eq!(sp.narrow(&b, vec![2, 3, 4]), vec![3]);
        // Constant predicates work over an empty reference set.
        let c = compiled(&gt(lit(3), lit(2)), &b);
        assert_eq!(c.narrow(&b, vec![1, 4]), vec![1, 4]);
    }

    #[test]
    fn selection_input_gathers_the_leaves() {
        let b = batch();
        let sel = [4u32, 0, 2];
        assert_eq!(col(0).eval(&b, Rows::Sel(&sel)), iv(vec![5, 1, 3]));
        assert_eq!(col(3).eval(&b, Rows::Sel(&sel)), iv(vec![50, 10, 30]));
        assert_eq!(
            add(col(0), lit(1)).eval(&b, Rows::Sel(&sel)),
            iv(vec![6, 2, 4])
        );
        let d = dict_batch();
        assert_eq!(
            prefix(col(2), "gr").eval(&d, Rows::Sel(&sel)).as_bool(),
            &[true, false, false]
        );
    }

    #[test]
    fn constant_operands_stay_scalars() {
        let b = batch();
        assert_eq!(sub(lit(100), col(0)).eval(&b, 0..2), iv(vec![99, 98]));
        assert_eq!(mul(col(1), lit(2)).eval(&b, 0..2), fv(vec![2.0, 1.0]));
        assert_eq!(add(lit(1), lit(2)).eval(&b, 0..3), iv(vec![3, 3, 3]));
        assert_eq!(
            lt(lit(2), col(0)).eval(&b, 0..5).as_bool(),
            &[false, false, true, true, true]
        );
        assert_eq!(
            case(gt(col(0), lit(3)), col(0), lit(0)).eval(&b, 0..5),
            iv(vec![0, 0, 0, 4, 5])
        );
    }

    #[test]
    fn to_f64_cast() {
        let b = batch();
        assert_eq!(to_f64(col(0)).eval(&b, 0..2), fv(vec![1.0, 2.0]));
    }

    #[test]
    fn result_types() {
        let types = [DataType::I64, DataType::F64, DataType::Str, DataType::I32];
        assert_eq!(col(3).result_type(&types), DataType::I64);
        assert_eq!(add(col(0), col(1)).result_type(&types), DataType::F64);
        assert_eq!(eq(col(0), lit(1)).result_type(&types), DataType::I64);
        assert_eq!(
            case(eq(col(0), lit(1)), litf(1.0), litf(0.0)).result_type(&types),
            DataType::F64
        );
    }

    #[test]
    fn weight_grows_with_complexity() {
        assert!(and(gt(col(0), lit(1)), lt(col(0), lit(5))).weight() > gt(col(0), lit(1)).weight());
    }

    #[test]
    fn year_of_dates() {
        let b = Batch::from_columns(vec![Column::I32(vec![
            morsel_storage::date(1995, 3, 15),
            morsel_storage::date(1998, 12, 31),
        ])]);
        assert_eq!(year_of(col(0)).eval(&b, 0..2), iv(vec![1995, 1998]));
        assert_eq!(year_of(col(0)).result_type(&[DataType::I32]), DataType::I64);
    }

    #[test]
    fn substr_one_based() {
        let b = Batch::from_columns(vec![Column::Str(["13-555", "x"].into_iter().collect())]);
        let v = substr(col(0), 1, 2).eval(&b, 0..2);
        assert_eq!(
            v,
            Vector::Str(StrRows::owned(["13", "x"].into_iter().collect()))
        );
        // A length past every value reserves by the input, not the length.
        let all = substr(col(0), 2, u32::MAX as usize).eval(&b, 0..2);
        assert_eq!(
            all,
            Vector::Str(StrRows::owned(["3-555", ""].into_iter().collect()))
        );
        assert_eq!(
            substr(col(0), 1, 2).result_type(&[DataType::Str]),
            DataType::Str
        );
    }

    #[test]
    fn bool_vector_into_column() {
        let v = Vector::Bool(vec![true, false, true]);
        assert_eq!(v.into_column().as_i64(), &[1, 0, 1]);
    }
}
