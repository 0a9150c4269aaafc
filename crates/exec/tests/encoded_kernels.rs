//! The code kernels the plan compiler chooses for a column it knows to be
//! dictionary-encoded (DESIGN.md §9, §14), each against the plain oracle:
//!
//! - a string conjunct resolved once into a test on codes
//!   (`Predicate::new`, `FilterOp::new` over a coded column), over every
//!   string predicate shape, random predicate trees and random `LIKE`
//!   patterns;
//! - a join whose probe and build sides share one dictionary, which
//!   compares key codes and gathers payload codes (`compile_query`), as an
//!   inner, a semi and an anti join, on the simulator and on real threads.
//!   A candidate reaches the key compare only on a full hash match, so
//!   unequal keys meet it in `key::tests` alone.
//!
//! `dict_equivalence`, `like_equivalence` and `join_equivalence` build
//! each twin's operators from its own encodings too, so they reach the
//! same kernels.

use std::sync::Arc;

use morsel_core::{ExecEnv, TaskContext};
use morsel_exec::expr::{
    and, cmp, col, eq, ge, gt, in_str, le, like, lit, lits, lt, ne, not, or, prefix, CmpOp, Expr,
};
use morsel_exec::join::JoinKind;
use morsel_exec::pipeline::{FilterOp, PipeOp, SelBatch};
use morsel_exec::plan::Plan;
use morsel_exec::predicate::Predicate;
use morsel_exec::AggFn;
use morsel_numa::{SocketId, Topology};
use morsel_storage::{
    Batch, Column, DataType, DictColumn, Dictionary, Encoding, Partition, Relation, Schema,
};
use proptest::prelude::*;

#[path = "common/like_reference.rs"]
mod like_reference;
#[path = "common/run_plans.rs"]
mod run_plans;

use run_plans::{rows, run, Exec};

/// A small domain with shared prefixes, unsorted: the dictionary sorts it.
const WORDS: &[&str] = &[
    "truck", "mail", "ship", "air", "airreg", "rail", "fob", "promo", "pro", "",
];

/// Constants: domain members, absent values, values between members.
const CONSTS: &[&str] = &["air", "airreg", "mai", "zzz", "", "pro", "promoX", "rail"];

const TYPES: [DataType; 2] = [DataType::Str, DataType::I64];

fn word(i: u8) -> String {
    WORDS[i as usize % WORDS.len()].to_owned()
}

/// (plain, coded) twins of a batch of a string column and an `i64`
/// payload.
fn twin_batches(picks: &[u8]) -> (Batch, Batch) {
    let strings: Vec<String> = picks.iter().map(|&c| word(c)).collect();
    let payload: Vec<i64> = picks.iter().map(|&c| i64::from(c) * 3 - 7).collect();
    let dict = Dictionary::from_values(WORDS.iter().copied());
    let coded = DictColumn::encode(&dict, &strings).expect("the domain covers every word");
    (
        Batch::from_columns(vec![
            Column::Str(strings.iter().collect()),
            Column::I64(payload.clone()),
        ]),
        Batch::from_columns(vec![Column::Dict(coded), Column::I64(payload)]),
    )
}

/// The encodings `batch`'s columns are stored in, as the compiler knows
/// them for a relation's scan.
fn encodings(batch: &Batch) -> Vec<Encoding> {
    batch.columns().iter().map(Encoding::of).collect()
}

/// Every string predicate shape on column 0, parameterised by a constant.
fn predicates(c: &str) -> Vec<Expr> {
    vec![
        eq(col(0), lits(c)),
        ne(col(0), lits(c)),
        lt(col(0), lits(c)),
        le(col(0), lits(c)),
        gt(col(0), lits(c)),
        ge(col(0), lits(c)),
        prefix(col(0), c),
        in_str(col(0), &[c, "ship", "nope"]),
        like(col(0), &format!("%{c}%")),
        like(col(0), &format!("{c}%")),
        and(ge(col(0), lits("air")), le(col(0), lits(c))),
    ]
}

/// The rows `e` marks in `batch`, by the tree-walk evaluator.
fn marked(e: &Expr, batch: &Batch) -> Vec<u32> {
    let n = batch.rows();
    let mask = e.eval(batch, 0..n);
    (0..n as u32)
        .filter(|&r| mask.as_bool()[r as usize])
        .collect()
}

/// Random predicate trees over `(I64, coded Str, plain Str)`: string tests
/// on either string column and integer comparisons, mostly under `AND` so
/// that the string tests are conjuncts of their own.
struct TreeGen(proptest::TestRng);

impl TreeGen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }

    fn leaf(&mut self) -> Expr {
        let s = col(self.pick(&[1, 1, 2]));
        let c = self.pick(CONSTS);
        let op = self.pick(&[
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]);
        match self.below(6) {
            0 => cmp(op, col(0), lit(self.below(40) as i64 - 10)),
            1 => cmp(op, s, lits(c)),
            2 => cmp(op, lits(c), s),
            3 => {
                let list: Vec<&str> = (0..self.below(4)).map(|_| self.pick(CONSTS)).collect();
                in_str(s, &list)
            }
            4 => prefix(s, c),
            _ => like(s, &format!("%{c}%")),
        }
    }

    fn tree(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        match self.below(8) {
            0..=4 => and(self.tree(depth - 1), self.tree(depth - 1)),
            5 => or(self.tree(depth - 1), self.tree(depth - 1)),
            6 => not(self.tree(depth - 1)),
            _ => self.leaf(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiled against the coded column's dictionary, every string
    /// predicate selects the rows it marks in the plain twin — over the
    /// whole batch, a sub-range, and an empty, a full and a sparse
    /// selection.
    #[test]
    fn string_tests_on_codes_select_the_plain_rows(
        picks in proptest::collection::vec(0u8..40, 1..200),
        const_sel in 0usize..CONSTS.len(),
        lo_frac in 0usize..100,
        keep in proptest::collection::vec(0u8..3, 1..40),
    ) {
        let (plain, coded) = twin_batches(&picks);
        let n = plain.rows();
        let lo = lo_frac * n / 100;
        let all: Vec<u32> = (0..n as u32).collect();
        let sparse: Vec<u32> = all.iter().copied().filter(|&r| keep[r as usize % keep.len()] == 0).collect();
        for e in predicates(CONSTS[const_sel]) {
            let want = marked(&e, &plain);
            let within = |rows: &[u32]| -> Vec<u32> {
                rows.iter().copied().filter(|r| want.contains(r)).collect()
            };
            let p = Predicate::new(&e, &TYPES, &encodings(&coded));
            prop_assert_eq!(&p.select(&coded, 0..n), &want, "{:?}", &e);
            prop_assert_eq!(p.select(&coded, lo..n), within(&all[lo..]), "{:?} on {}..{}", &e, lo, n);
            prop_assert_eq!(p.narrow(&coded, Vec::new()), Vec::<u32>::new(), "{:?}", &e);
            prop_assert_eq!(&p.narrow(&coded, all.clone()), &want, "{:?} on a full selection", &e);
            prop_assert_eq!(p.narrow(&coded, sparse.clone()), within(&sparse), "{:?} on {:?}", &e, &sparse);
        }
    }

    /// A filter compiled for the coded column keeps the rows, and the
    /// payload, that a filter over the plain twin keeps, on a sparse or a
    /// dense input selection; its survivors stay coded.
    #[test]
    fn a_compiled_filter_on_codes_keeps_the_plain_rows(
        picks in proptest::collection::vec(0u8..40, 1..200),
        sparse in any::<bool>(),
        const_sel in 0usize..CONSTS.len(),
    ) {
        let (plain, coded) = twin_batches(&picks);
        let n = plain.rows() as u32;
        let sel: Vec<u32> = (0..n).filter(|i| (i % 5 == 0) == sparse).collect();
        let env = ExecEnv::new(Topology::laptop());
        let mut ctx = TaskContext::new(&env, 0);
        for e in predicates(CONSTS[const_sel]) {
            let over = |f: FilterOp, batch: &Batch, ctx: &mut TaskContext<'_>| {
                let input = SelBatch { batch: batch.clone(), sel: Some(sel.clone()) };
                f.apply(ctx, input).materialize(ctx)
            };
            let want = over(FilterOp::new(e.clone(), &TYPES, &encodings(&plain)), &plain, &mut ctx);
            let got = over(FilterOp::new(e.clone(), &TYPES, &encodings(&coded)), &coded, &mut ctx);
            prop_assert!(got.column(0).as_dict().is_some(), "{:?}", &e);
            prop_assert_eq!(got.column(1), want.column(1), "payload {:?}", &e);
            prop_assert_eq!(&got.column(0).decoded(), want.column(0), "keys {:?}", &e);
        }
    }

    /// Random trees compiled against the encodings select the rows the
    /// tree-walk evaluator marks; the coded column and its plain twin
    /// (columns 1 and 2) hold the same strings.
    #[test]
    fn random_trees_on_codes_match_the_mask_evaluator(
        picks in proptest::collection::vec(0u8..40, 1..160),
        seed in any::<u64>(),
    ) {
        let (plain, coded) = twin_batches(&picks);
        let batch = Batch::from_columns(vec![
            plain.column(1).clone(),
            coded.column(0).clone(),
            plain.column(0).clone(),
        ]);
        let types = [DataType::I64, DataType::Str, DataType::Str];
        let all: Vec<u32> = (0..batch.rows() as u32).collect();
        let mut gen = TreeGen(proptest::TestRng::for_case("encoded trees", seed));
        for _ in 0..8 {
            let tree = gen.tree(3);
            let want = marked(&tree, &batch);
            let p = Predicate::new(&tree, &types, &encodings(&batch));
            prop_assert_eq!(&p.select(&batch, 0..batch.rows()), &want, "{:?}", &tree);
            prop_assert_eq!(&p.narrow(&batch, all.clone()), &want, "{:?}", &tree);
        }
    }

    /// `LIKE` resolved against the dictionary selects the rows the
    /// backtracking reference matches.
    #[test]
    fn like_on_codes_selects_the_reference_rows(
        pattern in "[ab_%é]{0,6}",
        values in proptest::collection::vec("[abé]{0,14}", 1..40),
    ) {
        let dict = Dictionary::from_values(values.iter().map(String::as_str));
        let coded = Column::Dict(DictColumn::encode(&dict, &values).expect("the domain covers every value"));
        let batch = Batch::from_columns(vec![coded]);
        let p = Predicate::new(&like(col(0), &pattern), &[DataType::Str], &encodings(&batch));
        let want: Vec<u32> = (0..values.len() as u32)
            .filter(|&r| like_reference::like(&pattern, &values[r as usize]))
            .collect();
        prop_assert_eq!(p.select(&batch, 0..values.len()), want, "{:?} over {:?}", pattern, values);
    }
}

/// `t`'s domain and one value more, `zzz`, that only `u` holds.
fn domain() -> Arc<Dictionary> {
    Dictionary::from_values(WORDS.iter().copied().chain(["zzz"]))
}

/// `strings` plain, or coded in `dict`.
fn stored(strings: &[String], dict: Option<&Arc<Dictionary>>) -> Column {
    match dict {
        Some(d) => Column::Dict(DictColumn::encode(d, strings).expect("the domain covers it")),
        None => Column::Str(strings.iter().collect()),
    }
}

/// `t(k, s)`: four partitions spread over `sockets` nodes, `s` coded in
/// `dict` or plain.
fn t(dict: Option<&Arc<Dictionary>>, sockets: u16) -> Arc<Relation> {
    let schema = Schema::new(vec![("k", DataType::I64), ("s", DataType::Str)]);
    let parts = (0..4u8)
        .map(|p| {
            let s: Vec<String> = (0..25).map(|i| word((i * 7 + p * 3) % 13)).collect();
            let k = Column::I64((0..25).map(|i| i64::from(p) * 100 + i).collect());
            let batch = Batch::from_columns(vec![k, stored(&s, dict)]);
            Partition::new(SocketId(u16::from(p) % sockets), batch)
        })
        .collect();
    Arc::new(Relation::from_partitions(schema, parts))
}

/// `u(s2, w)`: some of `t`'s values and `zzz`, which `t` lacks.
fn u(dict: Option<&Arc<Dictionary>>) -> Arc<Relation> {
    let s2: Vec<String> = ["mail", "air", "", "promo", "mail", "zzz"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let w = Column::I64((0..s2.len() as i64).map(|i| 10 * i).collect());
    Arc::new(Relation::single(
        Schema::new(vec![("s2", DataType::Str), ("w", DataType::I64)]),
        Batch::from_columns(vec![stored(&s2, dict), w]),
    ))
}

/// Joins on `s` between `t` and itself and between `t` and `u`.
fn joins(t: &Arc<Relation>, u: &Arc<Relation>) -> Vec<Plan> {
    let t_scan = || Plan::scan(Arc::clone(t), None, &["k", "s"]);
    let t_build = || Plan::scan_project(Arc::clone(t), None, vec![("k2", col(0)), ("s2", col(1))]);
    let u_scan = || Plan::scan(Arc::clone(u), None, &["s2", "w"]);
    let count = || vec![("n", AggFn::Count)];
    vec![
        t_scan().join(t_build(), &["s"], &["s2"], &["k2", "s2"]),
        (t_scan().join(t_build(), &["s"], &["s2"], &["s2"])).agg(&["s", "s2"], count()),
        u_scan().join(t_scan(), &["s2"], &["s"], &["k", "s"]),
        t_scan().join(u_scan(), &["s"], &["s2"], &["w", "s2"]),
        u_scan().join_kind(t_scan(), &["s2"], &["s"], &[], JoinKind::Semi),
        u_scan().join_kind(t_scan(), &["s2"], &["s"], &[], JoinKind::Anti),
    ]
}

/// Both sides of every join are coded in one dictionary, so the compiled
/// probe compares key codes and gathers payload codes; its answers equal
/// those over plain columns.
#[test]
fn joins_on_one_dictionary_answer_like_plain_ones() {
    let plain = run(joins(&t(None, 1), &u(None)), Exec::Sim, 1, 1 << 16);
    let want: Vec<Vec<String>> = plain.iter().map(|b| rows(b, false)).collect();
    assert!(want.iter().all(|r| !r.is_empty()));
    let dict = domain();
    for exec in [Exec::Sim, Exec::Threaded] {
        let (t, u) = (t(Some(&dict), exec.topology().sockets()), u(Some(&dict)));
        assert!(t.encoding(1).dict().is_some() && t.encoding(1) == u.encoding(0));
        for (workers, morsel) in [(1, 7), (4, 7), (4, 4096)] {
            let got = run(joins(&t, &u), exec, workers, morsel);
            for (q, batch) in got.iter().enumerate() {
                assert_eq!(
                    rows(batch, false),
                    want[q],
                    "join {q} on {exec:?}, {workers} workers, morsels of {morsel}"
                );
            }
        }
    }
}
