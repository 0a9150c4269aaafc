//! Property tests: dictionary-encoded string columns are observationally
//! equivalent to plain string columns through every string-touching
//! operator — compiled predicates (equality, ordering, prefix, IN, LIKE)
//! starting and narrowing selections, group-by on string keys (codes in
//! an inline key, plain strings in a serialised one, both against the
//! row-at-a-time oracle of `common/agg_reference.rs`), and sorting on
//! string keys. The plain representation is the oracle. Each twin's
//! operators are built from its own encodings (`Encoding::of`), so the
//! coded twin runs the code kernels.
//!
//! And, for every column type: the compiled predicate cascade
//! (`morsel_exec::predicate`) selects exactly the rows the tree-walk mask
//! evaluator (`Expr::eval`) marks, over random predicate trees
//! (`cascade_matches_the_mask_evaluator`).

use std::sync::Arc;

use morsel_core::{result_slot, ExecEnv, Morsel, PipelineJob, TaskContext};
use morsel_exec::agg::{agg_slot, AggFn, AggMergeJob, AggPartialSink, N_PARTITIONS};
use morsel_exec::expr::{
    and, between, case, cmp, col, div, eq, ge, gt, in_i64, in_str, le, like, lit, litf, lits, lt,
    ne, not, or, prefix, CmpOp, Expr,
};
use morsel_exec::pipeline::{FilterOp, PipeOp, SelBatch};
use morsel_exec::predicate::Predicate;
use morsel_exec::sink::{area_slot, Sink};
use morsel_exec::sort::{sort_batch, SortKey};
use morsel_numa::Topology;
use morsel_storage::{Batch, Column, DataType, DictColumn, Dictionary, Encoding, Schema, Value};
use proptest::prelude::*;

#[path = "common/agg_reference.rs"]
mod agg_reference;

/// A small domain with shared prefixes, so prefix/LIKE/range predicates
/// all have interesting hit sets. Deliberately unsorted here — the
/// dictionary must sort it.
const WORDS: &[&str] = &[
    "truck", "mail", "ship", "air", "airreg", "rail", "fob", "promo", "pro", "",
];

/// Constants to compare against: domain members, absent values, values
/// between domain members, and boundary-ish strings.
const CONSTS: &[&str] = &["air", "airreg", "mai", "zzz", "", "pro", "promoX", "rail"];

fn word(i: u8) -> String {
    WORDS[i as usize % WORDS.len()].to_owned()
}

/// Build (plain, dict-encoded) twins of a batch with one string column
/// (index 0) and one i64 payload column (index 1).
fn twin_batches(codes: &[u8]) -> (Batch, Batch) {
    let strings: Vec<String> = codes.iter().map(|&c| word(c)).collect();
    let payload: Vec<i64> = codes.iter().map(|&c| i64::from(c) * 3 - 7).collect();
    let plain = Batch::from_columns(vec![
        Column::Str(strings.iter().collect()),
        Column::I64(payload.clone()),
    ]);
    let dict = Dictionary::from_values(WORDS.iter().copied());
    let encoded = Column::Dict(DictColumn::encode(&dict, &strings).expect("domain covers words"));
    let dicted = Batch::from_columns(vec![encoded, Column::I64(payload)]);
    (plain, dicted)
}

/// Every string predicate shape under test, parameterized by a constant.
fn predicates(c: &str) -> Vec<Expr> {
    vec![
        eq(col(0), morsel_exec::expr::lits(c)),
        ne(col(0), morsel_exec::expr::lits(c)),
        lt(col(0), morsel_exec::expr::lits(c)),
        le(col(0), morsel_exec::expr::lits(c)),
        gt(col(0), morsel_exec::expr::lits(c)),
        ge(col(0), morsel_exec::expr::lits(c)),
        prefix(col(0), c),
        in_str(col(0), &[c, "ship", "nope"]),
        like(col(0), &format!("%{c}%")),
        like(col(0), &format!("{c}%")),
        // String BETWEEN lo AND hi desugars to ge AND le.
        and(
            ge(col(0), morsel_exec::expr::lits("air")),
            le(col(0), morsel_exec::expr::lits(c)),
        ),
    ]
}

fn env() -> ExecEnv {
    ExecEnv::new(Topology::laptop())
}

const GROUP_BY_AGGS: [AggFn; 2] = [AggFn::SumI64(1), AggFn::Count];

/// Run a grouped aggregation (sum of payload, count) over one batch and
/// return its (key, sum, count) rows, decoded and sorted.
fn run_group_by(batch: Batch, capacity: usize) -> Vec<Vec<agg_reference::Atom>> {
    let env = env();
    let nodes = env.worker_sockets(2);
    let slot = agg_slot();
    let aggs = GROUP_BY_AGGS.to_vec();
    let types = [DataType::Str, DataType::I64];
    let sink = AggPartialSink::new(
        vec![0],
        aggs.clone(),
        &types,
        &encodings(&batch),
        &nodes,
        slot.clone(),
    )
    .with_capacity(capacity);
    let mut ctx = TaskContext::new(&env, 0);
    // Feed in two chunks to exercise multi-batch accumulation.
    let rows = batch.rows();
    let half = rows / 2;
    let first: Vec<u32> = (0..half as u32).collect();
    let second: Vec<u32> = (half as u32..rows as u32).collect();
    for sel in [first, second] {
        if !sel.is_empty() {
            sink.consume(
                &mut ctx,
                SelBatch {
                    batch: batch.clone(),
                    sel: Some(sel),
                },
            );
        }
    }
    sink.finish(&mut ctx);
    let parts = slot.lock().take().unwrap();
    let out = area_slot();
    let result = result_slot();
    let schema = Schema::new(vec![
        ("k", DataType::Str),
        ("sum", DataType::I64),
        ("cnt", DataType::I64),
    ]);
    let job = AggMergeJob::new(
        parts.clone(),
        aggs,
        schema,
        &nodes,
        out,
        Some(result.clone()),
    );
    for p in 0..N_PARTITIONS {
        if parts.partition_rows(p) > 0 {
            job.run_morsel(
                &mut ctx,
                Morsel {
                    chunk: p,
                    range: 0..parts.partition_rows(p),
                },
            );
        }
    }
    job.finish(&mut ctx);
    let got = result.lock().take().unwrap();
    assert!(
        matches!(got.column(0), Column::Str(_)),
        "group key should decode to strings at the result boundary"
    );
    agg_reference::sorted_atoms(&got)
}

/// The encodings `batch`'s columns are stored in.
fn encodings(batch: &Batch) -> Vec<Encoding> {
    batch.columns().iter().map(Encoding::of).collect()
}

/// Compile a predicate over the twin batches' schema, for `twin`'s
/// encodings.
fn compiled(p: &Expr, twin: &Batch) -> Predicate {
    Predicate::new(p, &[DataType::Str, DataType::I64], &encodings(twin))
}

/// The batch the random predicate trees run over: column 0 `I32`, 1 `I64`,
/// 2 `F64` (NaN, ±0 and an infinity among the values), 3 plain `Str`,
/// 4 the same strings dictionary-encoded, 5 `I64` and 6 `I32` (second
/// integer columns for column-versus-column comparisons). Small domains,
/// so that equalities hit, with the integer extremes mixed in.
fn typed_batch(vals: &[u8]) -> Batch {
    let ints = |salt: u8| -> Vec<i64> {
        vals.iter()
            .map(|&v| match v.wrapping_add(salt) % 24 {
                22 => i64::MIN,
                23 => i64::MAX,
                x => i64::from(x) - 6,
            })
            .collect()
    };
    let narrow = |v: Vec<i64>| -> Vec<i32> {
        v.into_iter()
            .map(|x| x.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32)
            .collect()
    };
    const FLOATS: [f64; 8] = [-1.5, 0.0, -0.0, 0.5, 2.0, f64::NAN, f64::INFINITY, 7.25];
    let strings: Vec<String> = vals.iter().map(|&v| word(v / 3)).collect();
    let dict = Dictionary::from_values(WORDS.iter().copied());
    Batch::from_columns(vec![
        Column::I32(narrow(ints(0))),
        Column::I64(ints(5)),
        Column::F64(vals.iter().map(|&v| FLOATS[v as usize % 8]).collect()),
        Column::Str(strings.iter().collect()),
        Column::Dict(DictColumn::encode(&dict, &strings).expect("domain covers words")),
        Column::I64(ints(11)),
        Column::I32(narrow(ints(17))),
    ])
}

const TYPED: [DataType; 7] = [
    DataType::I32,
    DataType::I64,
    DataType::F64,
    DataType::Str,
    DataType::Str,
    DataType::I64,
    DataType::I32,
];

/// Random predicate trees for `cascade_matches_the_mask_evaluator`.
struct TreeGen(proptest::TestRng);

impl TreeGen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }

    fn op(&mut self) -> CmpOp {
        self.pick(&[
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ])
    }

    fn int_col(&mut self) -> Expr {
        col(self.pick(&[0, 1, 5, 6]))
    }

    fn int_const(&mut self) -> i64 {
        match self.below(8) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => i64::from(i32::MIN) - 1,
            3 => i64::from(i32::MAX) + 1,
            _ => self.below(24) as i64 - 7,
        }
    }

    fn str_const(&mut self) -> &'static str {
        self.pick(CONSTS)
    }

    fn leaf(&mut self) -> Expr {
        let str_col = col(self.pick(&[3, 4]));
        match self.below(14) {
            // Column versus constant, the constant on either side.
            0 | 1 => cmp(self.op(), self.int_col(), lit(self.int_const())),
            2 => cmp(self.op(), lit(self.int_const()), self.int_col()),
            // BETWEEN, `lo > hi` included.
            3 => between(self.int_col(), self.int_const(), self.int_const()),
            // Two or three bounds on one column, contradictory ones included.
            4 => {
                let c = self.int_col();
                let mut e = cmp(self.op(), c.clone(), lit(self.int_const()));
                for _ in 0..1 + self.below(2) {
                    e = and(e, cmp(self.op(), c.clone(), lit(self.int_const())));
                }
                e
            }
            5 => {
                let n = self.below(4);
                in_i64(self.int_col(), (0..n).map(|_| self.int_const()).collect())
            }
            // Column versus column across I32/I64.
            6 => cmp(self.op(), self.int_col(), self.int_col()),
            7 => {
                let c = self.pick(&[-1.5, 0.0, 0.5, 2.0, f64::NAN, f64::INFINITY]);
                cmp(self.op(), col(2), litf(c))
            }
            8 => cmp(self.op(), col(2), lit(self.below(4) as i64 - 1)),
            9 => cmp(self.op(), str_col, lits(self.str_const())),
            10 => {
                let n = self.below(3);
                let list: Vec<&str> = (0..n).map(|_| self.str_const()).collect();
                in_str(str_col, &list)
            }
            11 => match self.below(3) {
                0 => prefix(str_col, self.str_const()),
                1 => like(str_col, &format!("%{}%", self.str_const())),
                _ => like(str_col, &format!("{}%", self.str_const())),
            },
            // Arithmetic and CASE: the generic conjunct.
            12 => cmp(
                self.op(),
                div(self.int_col(), lit(2)),
                lit(self.below(12) as i64 - 4),
            ),
            _ => eq(
                case(
                    cmp(self.op(), self.int_col(), lit(self.int_const())),
                    lit(1),
                    lit(0),
                ),
                lit(1),
            ),
        }
    }

    fn tree(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        match self.below(8) {
            0..=3 => and(self.tree(depth - 1), self.tree(depth - 1)),
            4 => or(self.tree(depth - 1), self.tree(depth - 1)),
            5 => not(self.tree(depth - 1)),
            _ => self.leaf(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The compiled cascade — flattened, fused, reordered, typed kernels
    /// starting and narrowing selections — keeps exactly the rows the
    /// tree-walk mask evaluator marks, whatever the predicate and whatever
    /// rows it is handed: a range with a non-zero start, and an empty, a
    /// full and a sparse selection.
    ///
    /// The oracle shares no kernel with the cascade (it compares evaluated
    /// vectors; only the dictionary resolution of string constants is
    /// common, and columns 3/4 check that against plain strings). These
    /// mutations, entries of `mutants/catalogue.txt`, each fail this test:
    /// `<` for `<=` in the fused `IntRange` kernel (I64 or I32 arm;
    /// `cascade-i64-range-excludes-its-end`,
    /// `cascade-i32-range-excludes-its-end`); a generic conjunct that
    /// forgets to re-base a sub-range (reads its mask by row, `mask[r]`,
    /// instead of by position; `cascade-generic-mask-by-row`); `max`/`min`
    /// swapped when bounds fuse (`cascade-fusion-swaps-max-min`); an
    /// unflipped operator for a constant on the left
    /// (`cascade-left-constant-unflipped`).
    #[test]
    fn cascade_matches_the_mask_evaluator(
        vals in proptest::collection::vec(any::<u8>(), 1..160),
        seed in any::<u64>(),
        lo_frac in 1usize..100,
        keep in proptest::collection::vec(0u8..3, 1..40),
    ) {
        let batch = typed_batch(&vals);
        let n = batch.rows();
        let mut gen = TreeGen(proptest::TestRng::for_case("tree", seed));
        for _ in 0..8 {
            let tree = gen.tree(4);
            let oracle = tree.eval(&batch, 0..n);
            let mask = oracle.as_bool();
            let p = Predicate::new(&tree, &TYPED, &encodings(&batch));
            let expect = |rows: &[u32]| -> Vec<u32> {
                rows.iter().copied().filter(|&r| mask[r as usize]).collect()
            };
            let all: Vec<u32> = (0..n as u32).collect();
            let lo = (lo_frac * n).div_ceil(100).min(n);
            prop_assert_eq!(p.select(&batch, lo..n), expect(&all[lo..]), "{:?} on {}..{}", &tree, lo, n);
            prop_assert_eq!(p.select(&batch, 0..n), expect(&all), "{:?}", &tree);
            prop_assert_eq!(p.narrow(&batch, Vec::new()), Vec::<u32>::new(), "{:?}", &tree);
            prop_assert_eq!(p.narrow(&batch, all.clone()), expect(&all), "{:?} on a full selection", &tree);
            let sparse: Vec<u32> = all
                .iter()
                .copied()
                .filter(|&r| keep[r as usize % keep.len()] == 0)
                .collect();
            prop_assert_eq!(p.narrow(&batch, sparse.clone()), expect(&sparse), "{:?} on {:?}", &tree, &sparse);
        }
    }

    /// Every string predicate selects exactly the same rows on the
    /// dictionary-encoded twin as on the plain oracle, both over the whole
    /// batch and over arbitrary sub-ranges.
    #[test]
    fn predicates_select_identical_rows(
        codes in proptest::collection::vec(0u8..40, 1..200),
        const_sel in 0usize..CONSTS.len(),
        lo_frac in 0usize..100,
    ) {
        let (plain, dicted) = twin_batches(&codes);
        let n = plain.rows();
        let lo = lo_frac * n / 100;
        for p in predicates(CONSTS[const_sel]) {
            let (c, d) = (compiled(&p, &plain), compiled(&p, &dicted));
            let mask = p.eval(&plain, 0..n);
            let want: Vec<u32> = (0..n as u32).filter(|&r| mask.as_bool()[r as usize]).collect();
            prop_assert_eq!(&c.select(&plain, 0..n), &want, "plain {:?}", &p);
            prop_assert_eq!(&d.select(&dicted, 0..n), &want, "dict {:?}", &p);
            // Sub-range evaluation slices the code vector the same way.
            let want_sub: Vec<u32> = want.iter().copied().filter(|&r| r as usize >= lo).collect();
            prop_assert_eq!(&c.select(&plain, lo..n), &want_sub, "plain {:?} on {}..{}", &p, lo, n);
            prop_assert_eq!(&d.select(&dicted, lo..n), &want_sub, "dict {:?} on {}..{}", &p, lo, n);
        }
    }

    /// Narrowing a selection agrees with dense evaluation intersected
    /// with the selection — on both representations.
    #[test]
    fn filter_sel_matches_dense_intersection(
        codes in proptest::collection::vec(0u8..40, 1..200),
        keep in proptest::collection::vec(0u8..4, 1..200),
        const_sel in 0usize..CONSTS.len(),
    ) {
        let (plain, dicted) = twin_batches(&codes);
        let n = plain.rows();
        let sel: Vec<u32> = (0..n as u32).filter(|&i| keep[i as usize % keep.len()] == 0).collect();
        for p in predicates(CONSTS[const_sel]) {
            let (c, d) = (compiled(&p, &plain), compiled(&p, &dicted));
            let dense = c.select(&plain, 0..n);
            let want: Vec<u32> = sel.iter().copied().filter(|r| dense.contains(r)).collect();
            prop_assert_eq!(&c.narrow(&plain, sel.clone()), &want, "plain {:?}", &p);
            prop_assert_eq!(&d.narrow(&dicted, sel.clone()), &want, "dict {:?}", &p);
        }
    }

    /// FilterOp over a SelBatch, sparse or dense-ish, produces identical
    /// surviving rows for both representations.
    #[test]
    fn filter_op_pipeline_equivalence(
        codes in proptest::collection::vec(0u8..40, 1..200),
        sparse in any::<bool>(),
        const_sel in 0usize..CONSTS.len(),
    ) {
        let (plain, dicted) = twin_batches(&codes);
        let n = plain.rows();
        // A sparse (every 5th row) or dense-ish (4 of 5) input selection.
        let sel: Vec<u32> = (0..n as u32)
            .filter(|i| if sparse { i % 5 == 0 } else { i % 5 != 0 })
            .collect();
        let env = env();
        let mut ctx = TaskContext::new(&env, 0);
        let types = [DataType::Str, DataType::I64];
        for p in predicates(CONSTS[const_sel]) {
            let f = FilterOp::new(p.clone(), &types, &encodings(&plain));
            let out_p = f
                .apply(&mut ctx, SelBatch { batch: plain.clone(), sel: Some(sel.clone()) })
                .materialize(&mut ctx);
            let f = FilterOp::new(p.clone(), &types, &encodings(&dicted));
            let out_d = f
                .apply(&mut ctx, SelBatch { batch: dicted.clone(), sel: Some(sel.clone()) })
                .materialize(&mut ctx);
            prop_assert_eq!(out_p.rows(), out_d.rows(), "predicate {:?}", &p);
            prop_assert_eq!(out_p.column(1), out_d.column(1), "payload {:?}", &p);
            prop_assert_eq!(&out_p.column(0).decoded(), &out_d.column(0).decoded(), "keys {:?}", &p);
        }
    }

    /// Group-by on a string key: dictionary codes (an inline key) and
    /// plain strings (a serialised key) both produce the groups of the
    /// row-at-a-time oracle — including through forced spills (tiny
    /// pre-aggregation capacity).
    #[test]
    fn group_by_string_key_equivalence(
        codes in proptest::collection::vec(0u8..40, 2..300),
        tiny_capacity in any::<bool>(),
    ) {
        let (plain, dicted) = twin_batches(&codes);
        let cap = if tiny_capacity { 3 } else { 4096 };
        let want = agg_reference::group_by(&[(plain.clone(), None)], &[0], &GROUP_BY_AGGS);
        prop_assert_eq!(&run_group_by(dicted, cap), &want);
        prop_assert_eq!(&run_group_by(plain, cap), &want);
    }

    /// Sorting by a string key (with a payload tiebreaker) orders the
    /// dictionary twin exactly like the plain oracle, ascending and
    /// descending.
    #[test]
    fn sort_on_string_key_equivalence(
        codes in proptest::collection::vec(0u8..40, 1..300),
        desc in any::<bool>(),
    ) {
        let (plain, dicted) = twin_batches(&codes);
        let keys = vec![
            if desc { SortKey::desc(0) } else { SortKey::asc(0) },
            SortKey::asc(1),
        ];
        let sp = sort_batch(&plain, &keys);
        let sd = sort_batch(&dicted, &keys);
        prop_assert_eq!(sp.column(1), sd.column(1));
        prop_assert_eq!(&sp.column(0).decoded(), &sd.column(0).decoded());
    }
}

/// Deterministic spot check: a join whose build payload and probe column
/// are dictionary-encoded carries codes through and decodes to the same
/// strings as the plain oracle (complements the proptest coverage with
/// the join path).
#[test]
fn join_payload_dict_roundtrip() {
    use morsel_exec::join::{join_slot, HtInsertJob, JoinKind, ProbeOp};
    use morsel_storage::{AreaSet, StorageArea};

    let dict = Dictionary::from_values(WORDS.iter().copied());
    let build_keys: Vec<i64> = vec![1, 2, 3];
    let payload_strs: Vec<String> = vec!["ship".into(), "air".into(), "promo".into()];

    let run = |encode: bool| -> Vec<Vec<Value>> {
        let schema = Schema::new(vec![("bk", DataType::I64), ("bp", DataType::Str)]);
        let payload = if encode {
            Column::Dict(DictColumn::encode(&dict, &payload_strs).unwrap())
        } else {
            Column::Str(payload_strs.iter().collect())
        };
        let rows = Batch::from_columns(vec![Column::I64(build_keys.clone()), payload]);
        let build_encodings = encodings(&rows);
        let mut area = StorageArea::new(morsel_numa::SocketId(0), &schema.data_types());
        area.data_mut().extend_from(&rows);
        let build = Arc::new(AreaSet::new(schema, vec![area]));
        let slot = join_slot();
        let env = env();
        let mut ctx = TaskContext::new(&env, 0);
        let job = HtInsertJob::new(Arc::clone(&build), vec![0], 2, slot.clone(), true);
        job.run_morsel(
            &mut ctx,
            Morsel {
                chunk: 0,
                range: 0..build_keys.len(),
            },
        );
        job.finish(&mut ctx);
        let op = ProbeOp::new(
            slot,
            vec![0],
            vec![0],
            JoinKind::Inner,
            vec![1],
            &[Encoding::Plain],
            &build_encodings,
        );
        let probe = Batch::from_columns(vec![Column::I64(vec![3, 1, 4, 3])]);
        let out = op
            .apply(&mut ctx, SelBatch::dense(probe))
            .materialize(&mut ctx)
            .decoded();
        (0..out.rows()).map(|i| out.row(i)).collect()
    };

    assert_eq!(run(true), run(false));
    assert_eq!(run(true).len(), 3);
}
