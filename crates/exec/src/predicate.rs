//! Compiled predicates: selection-first filter evaluation.
//!
//! A bound predicate is compiled **once per operator** into a cascade of
//! conjuncts and then evaluated morsel after morsel. Compilation
//! ([`Predicate::compile`]):
//!
//! 1. flattens the `AND` tree into a list of conjuncts;
//! 2. fuses every integer bound on the same bare column (`=`, `<`, `<=`,
//!    `>`, `>=`, `BETWEEN` against constants) into one closed range, tested
//!    as a single unsigned-span compare (`x - lo <= hi - lo`) — steps 1
//!    and 2 are [`fuse_int_bounds`], which the planner's estimator prices
//!    its ranges from as well;
//! 3. classifies what is left: `<>`/`IN` on an integer column, a
//!    comparison of an `F64` column with a constant, a string test
//!    (comparison, `IN`, prefix, `LIKE`) on a bare string column — resolved
//!    against the column's dictionary once per dictionary, not once per
//!    morsel — and, for everything else (`OR`, `NOT`, `CASE`, arithmetic,
//!    column-versus-column), one *generic* conjunct;
//! 4. orders the conjuncts cheapest first, so the expensive ones see the
//!    fewest rows.
//!
//! Evaluation never builds a boolean mask on the conjunctive path: the
//! first conjunct **starts** a selection vector over its input rows and
//! every later one **narrows** it in place, each as one typed loop that
//! reads the column slice where it lies and has no data-dependent branch
//! ([`Rows::select`], [`narrow`]). A generic conjunct runs the tree-walk
//! mask evaluator ([`Expr::eval`]) over the current survivors only.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use morsel_storage::{Batch, Column, DataType, Dictionary};

use crate::expr::{CmpOp, CodeTest, Expr};
use crate::key::{narrow, Rows};

/// A predicate compiled for selection-first evaluation (module docs).
#[derive(Debug)]
pub struct Predicate {
    /// Never empty; cheapest first.
    conjuncts: Vec<Conjunct>,
    weight: u32,
}

#[derive(Debug)]
enum Conjunct {
    /// `lo <= col <= hi` on an integer column (`lo > hi`: no row passes).
    IntRange { col: usize, lo: i64, hi: i64 },
    /// `col <> c` on an integer column.
    IntNe { col: usize, c: i64 },
    /// `col IN (list)` on an integer column.
    IntIn { col: usize, list: Vec<i64> },
    /// `col op c` on an `F64` column.
    F64Cmp { col: usize, op: CmpOp, c: f64 },
    /// A string test on a bare string column: `leaf` is the node stating
    /// it ([`Expr::as_str_test`]), `codes` its resolution against the
    /// first dictionary the column came with — by the relation-wide
    /// dictionary invariant (DESIGN.md §14) the only one.
    Str {
        col: usize,
        leaf: Expr,
        codes: OnceLock<(Arc<Dictionary>, CodeTest)>,
    },
    /// Anything else, evaluated by the tree walk over the survivors.
    Generic(Expr),
}

/// The rows still alive while a cascade runs.
enum Live {
    Range(usize, usize),
    Sel(Vec<u32>),
}

impl Live {
    fn rows(&self) -> Rows<'_> {
        match self {
            Live::Range(s, e) => Rows::Range(*s, *e),
            Live::Sel(sel) => Rows::Sel(sel),
        }
    }

    fn is_empty(&self) -> bool {
        self.rows().is_empty()
    }

    fn clear(&mut self) {
        *self = Live::Sel(Vec::new());
    }

    /// Start (from a range) or narrow (a selection) to the rows for which
    /// `keep(position, row)` holds. Inlined into every kernel so each
    /// monomorphises both loops around its typed test.
    #[inline(always)]
    fn retain_at(&mut self, keep: impl Fn(usize, usize) -> bool) {
        match self {
            Live::Range(s, e) => *self = Live::Sel(Rows::Range(*s, *e).select(keep)),
            Live::Sel(sel) => narrow(sel, keep),
        }
    }

    /// [`Live::retain_at`] for a test of the row alone.
    #[inline(always)]
    fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        self.retain_at(|_, r| keep(r));
    }

    fn into_sel(self) -> Vec<u32> {
        match self {
            Live::Range(s, e) => (s as u32..e as u32).collect(),
            Live::Sel(sel) => sel,
        }
    }
}

/// The closed integer range an `op c` bound admits (`lo > hi` when empty).
fn bound(op: CmpOp, c: i64) -> Option<(i64, i64)> {
    const EMPTY: (i64, i64) = (1, 0);
    Some(match op {
        CmpOp::Eq => (c, c),
        CmpOp::Le => (i64::MIN, c),
        CmpOp::Ge => (c, i64::MAX),
        CmpOp::Lt => c.checked_sub(1).map_or(EMPTY, |hi| (i64::MIN, hi)),
        CmpOp::Gt => c.checked_add(1).map_or(EMPTY, |lo| (lo, i64::MAX)),
        CmpOp::Ne => return None,
    })
}

/// `col op const` with the column on either side, as `(col, op, const)`.
fn col_vs_const<'e>(op: CmpOp, a: &'e Expr, b: &'e Expr) -> Option<(usize, CmpOp, &'e Expr)> {
    match (a, b) {
        (Expr::Col(c), k @ (Expr::ConstI64(_) | Expr::ConstF64(_))) => Some((*c, op, k)),
        (k @ (Expr::ConstI64(_) | Expr::ConstF64(_)), Expr::Col(c)) => Some((*c, op.flipped(), k)),
        _ => None,
    }
}

fn is_int(t: DataType) -> bool {
    matches!(t, DataType::I32 | DataType::I64)
}

/// The closed range `leaf` holds a bare integer column to, as
/// `(col, lo, hi)`: `=`, `<`, `<=`, `>`, `>=` against an integer constant
/// on either side, or `BETWEEN`.
fn int_bound(leaf: &Expr, types: &[DataType]) -> Option<(usize, i64, i64)> {
    match leaf {
        Expr::Cmp(op, a, b) => match col_vs_const(*op, a, b)? {
            (col, op, Expr::ConstI64(c)) if is_int(types[col]) => {
                bound(op, *c).map(|(lo, hi)| (col, lo, hi))
            }
            _ => None,
        },
        Expr::BetweenI64(a, lo, hi) => match **a {
            Expr::Col(col) if is_int(types[col]) => Some((col, *lo, *hi)),
            _ => None,
        },
        _ => None,
    }
}

/// Flatten the `AND` tree of `expr`, a predicate over columns of `types`,
/// and intersect every integer bound on one bare column into one closed
/// range. Returns the `(col, lo, hi)` ranges (`lo > hi`: contradictory
/// bounds, no row passes) and the leaves that state no such bound, both
/// in source order.
///
/// "Bounds on one column are one range" is defined here and nowhere else:
/// [`Predicate::compile`] tests each range with one compare, and the
/// planner's estimator prices each once instead of multiplying its sides
/// as if they were independent.
pub fn fuse_int_bounds<'e>(
    expr: &'e Expr,
    types: &[DataType],
) -> (Vec<(usize, i64, i64)>, Vec<&'e Expr>) {
    fn flatten<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        match e {
            Expr::And(a, b) => {
                flatten(a, out);
                flatten(b, out);
            }
            leaf => out.push(leaf),
        }
    }
    let mut leaves = Vec::new();
    flatten(expr, &mut leaves);
    let mut ranges: Vec<(usize, i64, i64)> = Vec::new();
    leaves.retain(|leaf| {
        let Some((col, lo, hi)) = int_bound(leaf, types) else {
            return true;
        };
        match ranges.iter_mut().find(|r| r.0 == col) {
            Some(r) => (r.1, r.2) = (r.1.max(lo), r.2.min(hi)),
            None => ranges.push((col, lo, hi)),
        }
        false
    });
    (ranges, leaves)
}

impl Conjunct {
    /// Classify one leaf of the flattened `AND` tree that states no integer
    /// bound ([`fuse_int_bounds`] took those).
    fn of(leaf: &Expr, types: &[DataType]) -> Conjunct {
        match leaf {
            Expr::Cmp(op, a, b) => {
                if let Some((col, op, k)) = col_vs_const(*op, a, b) {
                    match (types[col], k) {
                        (t, Expr::ConstI64(c)) if is_int(t) && op == CmpOp::Ne => {
                            return Conjunct::IntNe { col, c: *c }
                        }
                        (DataType::F64, Expr::ConstI64(c)) => {
                            return Conjunct::F64Cmp {
                                col,
                                op,
                                c: *c as f64,
                            }
                        }
                        (DataType::F64, Expr::ConstF64(c)) => {
                            return Conjunct::F64Cmp { col, op, c: *c }
                        }
                        _ => {}
                    }
                }
            }
            Expr::InI64(a, list) => {
                if let Expr::Col(col) = **a {
                    if is_int(types[col]) {
                        return Conjunct::IntIn {
                            col,
                            list: list.clone(),
                        };
                    }
                }
            }
            _ => {}
        }
        if let Some((Expr::Col(col), _)) = leaf.as_str_test() {
            if types[*col] == DataType::Str {
                return Conjunct::Str {
                    col: *col,
                    leaf: leaf.clone(),
                    codes: OnceLock::new(),
                };
            }
        }
        Conjunct::Generic(leaf.clone())
    }

    /// Relative per-row cost, for ordering only.
    fn cost(&self) -> u32 {
        match self {
            Conjunct::IntRange { .. } | Conjunct::IntNe { .. } | Conjunct::F64Cmp { .. } => 1,
            Conjunct::IntIn { list, .. } => 2 + list.len() as u32 / 2,
            // A code test once resolved; string compares on a plain column.
            Conjunct::Str { leaf, .. } => 2 + leaf.weight(),
            // Materialises a vector per node.
            Conjunct::Generic(e) => 16 + e.weight(),
        }
    }

    /// Start or narrow `live` by this conjunct: one dispatch on the
    /// column's physical type, then one typed loop.
    fn apply(&self, batch: &Batch, live: &mut Live) {
        match self {
            Conjunct::IntRange { lo, hi, .. } if lo > hi => live.clear(),
            Conjunct::IntRange { col, lo, hi } => match batch.column(*col) {
                Column::I64(v) => {
                    let (lo, span) = (*lo, hi.wrapping_sub(*lo) as u64);
                    live.retain(|r| v[r].wrapping_sub(lo) as u64 <= span);
                }
                Column::I32(v) => {
                    // Clamp to the column's domain; the test runs in i32.
                    let lo = (*lo).max(i64::from(i32::MIN));
                    let hi = (*hi).min(i64::from(i32::MAX));
                    if lo > hi {
                        return live.clear();
                    }
                    let (lo, span) = (lo as i32, (hi - lo) as u32);
                    live.retain(|r| v[r].wrapping_sub(lo) as u32 <= span);
                }
                other => panic!("integer range over {:?} column", other.data_type()),
            },
            Conjunct::IntNe { col, c } => match batch.column(*col) {
                Column::I64(v) => live.retain(|r| v[r] != *c),
                Column::I32(v) => {
                    // A constant outside the column's domain differs from
                    // every value.
                    if let Ok(c) = i32::try_from(*c) {
                        live.retain(|r| v[r] != c);
                    }
                }
                other => panic!("integer comparison over {:?} column", other.data_type()),
            },
            Conjunct::IntIn { col, list } => {
                let member = |x: i64| list.iter().fold(false, |any, &l| any | (l == x));
                match batch.column(*col) {
                    Column::I64(v) => live.retain(|r| member(v[r])),
                    Column::I32(v) => live.retain(|r| member(i64::from(v[r]))),
                    other => panic!("integer IN over {:?} column", other.data_type()),
                }
            }
            Conjunct::F64Cmp { col, op, c } => {
                let (v, c) = (batch.column(*col).as_f64(), *c);
                match op {
                    CmpOp::Eq => live.retain(|r| v[r] == c),
                    CmpOp::Ne => live.retain(|r| v[r] != c),
                    CmpOp::Lt => live.retain(|r| v[r] < c),
                    CmpOp::Le => live.retain(|r| v[r] <= c),
                    CmpOp::Gt => live.retain(|r| v[r] > c),
                    CmpOp::Ge => live.retain(|r| v[r] >= c),
                }
            }
            Conjunct::Str { col, leaf, codes } => {
                let (_, test) = leaf.as_str_test().expect("compiled from a string test");
                match batch.column(*col) {
                    Column::Str(v) => live.retain(|r| test.holds(&v[r])),
                    Column::Dict(d) => {
                        let (dict, cached) =
                            codes.get_or_init(|| (Arc::clone(d.dict()), test.resolve(d.dict())));
                        let foreign;
                        let code_test = if Arc::ptr_eq(dict, d.dict()) {
                            cached
                        } else {
                            foreign = test.resolve(d.dict());
                            &foreign
                        };
                        let c = d.codes();
                        match code_test {
                            CodeTest::Range(lo, hi) => {
                                let (lo, span) = (*lo, hi - lo);
                                live.retain(|r| c[r].wrapping_sub(lo) < span);
                            }
                            CodeTest::Not(x) => live.retain(|r| c[r] != *x),
                            CodeTest::Mask(per) => live.retain(|r| per[c[r] as usize]),
                        }
                    }
                    other => panic!("string test over {:?} column", other.data_type()),
                }
            }
            Conjunct::Generic(e) => {
                // One answer per live row, by position.
                let mask = e.eval(batch, live.rows());
                let mask = mask.as_bool();
                live.retain_at(|i, _| mask[i]);
            }
        }
    }
}

impl Predicate {
    /// Compile `expr`, a boolean expression over columns of `types`.
    pub fn compile(expr: &Expr, types: &[DataType]) -> Predicate {
        let (ranges, rest) = fuse_int_bounds(expr, types);
        let mut conjuncts: Vec<Conjunct> = ranges
            .into_iter()
            .map(|(col, lo, hi)| Conjunct::IntRange { col, lo, hi })
            .chain(rest.into_iter().map(|leaf| Conjunct::of(leaf, types)))
            .collect();
        conjuncts.sort_by_key(Conjunct::cost);
        Predicate {
            conjuncts,
            weight: expr.weight(),
        }
    }

    /// Node count of the source expression — the cost model's CPU proxy
    /// ([`Expr::weight`]), unaffected by how the cascade was arranged.
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// Start a selection: the rows of `range` that satisfy the predicate,
    /// ascending, as absolute row indexes into `batch`.
    pub fn select(&self, batch: &Batch, range: Range<usize>) -> Vec<u32> {
        self.run(batch, Live::Range(range.start, range.end))
    }

    /// Narrow a selection to the rows that satisfy the predicate.
    pub fn narrow(&self, batch: &Batch, sel: Vec<u32>) -> Vec<u32> {
        self.run(batch, Live::Sel(sel))
    }

    fn run(&self, batch: &Batch, mut live: Live) -> Vec<u32> {
        for c in &self.conjuncts {
            if live.is_empty() {
                break;
            }
            c.apply(batch, &mut live);
        }
        live.into_sel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{
        and, between, col, eq, ge, gt, in_i64, in_str, le, like, lit, litf, lits, lt, ne, not, or,
        prefix,
    };
    use morsel_storage::DictColumn;

    const TYPES: [DataType; 4] = [DataType::I64, DataType::F64, DataType::Str, DataType::I32];

    fn batch(dict: bool) -> Batch {
        let words: Vec<String> = ["apple", "banana", "cherry", "date", "grape"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let strings = if dict {
            let d = Dictionary::from_values(words.iter().map(String::as_str));
            Column::Dict(DictColumn::encode(&d, &words).unwrap())
        } else {
            Column::Str(words)
        };
        Batch::from_columns(vec![
            Column::I64(vec![1, 2, 3, 4, 5]),
            Column::F64(vec![1.0, 0.5, 2.0, 0.25, 1.5]),
            strings,
            Column::I32(vec![10, 20, 30, 40, 50]),
        ])
    }

    fn select(e: &Expr, b: &Batch, range: Range<usize>) -> Vec<u32> {
        Predicate::compile(e, &TYPES).select(b, range)
    }

    #[test]
    fn bounds_on_one_column_fuse_into_one_range() {
        let e = and(
            and(ge(col(3), lit(20)), lt(col(3), lit(50))),
            and(gt(col(0), lit(1)), between(col(3), 0, 30)),
        );
        let p = Predicate::compile(&e, &TYPES);
        assert_eq!(p.conjuncts.len(), 2, "{p:?}");
        assert!(p.conjuncts.iter().any(|c| matches!(
            c,
            Conjunct::IntRange {
                col: 3,
                lo: 20,
                hi: 30
            }
        )));
        assert_eq!(p.select(&batch(false), 0..5), vec![1, 2]);
        assert_eq!(p.weight(), e.weight());
        // A constant on the left flips the comparison.
        assert_eq!(
            select(&lt(lit(30), col(3)), &batch(false), 0..5),
            vec![3, 4]
        );
    }

    #[test]
    fn contradictory_and_extreme_bounds() {
        let b = batch(false);
        assert_eq!(
            select(&and(gt(col(0), lit(3)), lt(col(0), lit(2))), &b, 0..5),
            vec![]
        );
        assert_eq!(select(&between(col(0), 4, 2), &b, 0..5), vec![]);
        assert_eq!(select(&lt(col(0), lit(i64::MIN)), &b, 0..5), vec![]);
        assert_eq!(select(&gt(col(3), lit(i64::MAX)), &b, 0..5), vec![]);
        assert_eq!(select(&ge(col(0), lit(i64::MIN)), &b, 0..5).len(), 5);
        // Bounds beyond the i32 domain clamp instead of wrapping.
        assert_eq!(select(&le(col(3), lit(1 << 40)), &b, 0..5).len(), 5);
        assert_eq!(select(&ge(col(3), lit(1 << 40)), &b, 0..5), vec![]);
        assert_eq!(select(&ne(col(3), lit(1 << 40)), &b, 0..5).len(), 5);
        assert_eq!(select(&ne(col(3), lit(30)), &b, 0..5), vec![0, 1, 3, 4]);
    }

    #[test]
    fn cheap_conjuncts_run_first() {
        let e = and(
            or(eq(col(0), lit(1)), eq(col(0), lit(5))),
            and(in_str(col(2), &["apple", "grape"]), ge(col(0), lit(1))),
        );
        let p = Predicate::compile(&e, &TYPES);
        assert!(matches!(p.conjuncts[0], Conjunct::IntRange { .. }));
        assert!(matches!(p.conjuncts[1], Conjunct::Str { .. }));
        assert!(matches!(p.conjuncts[2], Conjunct::Generic(_)));
        assert_eq!(p.select(&batch(true), 0..5), vec![0, 4]);
        assert_eq!(p.select(&batch(false), 0..5), vec![0, 4]);
    }

    #[test]
    fn typed_kernels_agree_with_the_mask() {
        let preds = [
            in_i64(col(3), vec![10, 40, 99]),
            in_i64(col(0), vec![]),
            lt(col(1), litf(1.0)),
            ge(col(1), lit(1)),
            ne(col(1), litf(f64::NAN)),
            eq(col(2), lits("cherry")),
            ne(col(2), lits("missing")),
            le(col(2), lits("car")),
            like(col(2), "%an%"),
            not(prefix(col(2), "ch")),
            and(lt(col(0), col(3)), gt(col(1), litf(0.3))),
        ];
        for b in [batch(false), batch(true)] {
            for p in &preds {
                let mask = p.eval(&b, 1..5);
                let want: Vec<u32> = (1..5)
                    .filter(|r| mask.as_bool()[r - 1])
                    .map(|r| r as u32)
                    .collect();
                assert_eq!(select(p, &b, 1..5), want, "predicate {p:?}");
            }
        }
    }

    #[test]
    fn dictionary_resolution_is_cached_per_dictionary() {
        let p = Predicate::compile(&eq(col(2), lits("date")), &TYPES);
        assert_eq!(p.select(&batch(true), 0..5), vec![3]);
        // A second batch brings a dictionary of its own ("date" has another
        // code there): the cached resolution must not be applied to it.
        let words: Vec<String> = ["date", "zebra", "date", "apple", "fig"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let d = Dictionary::from_values(words.iter().map(String::as_str));
        let mut other = batch(true);
        other.replace_column(2, Column::Dict(DictColumn::encode(&d, &words).unwrap()));
        assert_eq!(p.select(&other, 0..5), vec![0, 2]);
        assert_eq!(p.select(&batch(true), 0..5), vec![3]);
    }
}
