//! The hash-join probe against the nested-loop oracle of
//! `common/join_reference.rs`, on seeded random inputs: all four
//! `JoinKind`s; one to three key columns, each pair drawn from `I32`/`I64`
//! in every mix, `F64` with ±0.0 and two NaNs, plain `Str` against `Dict`
//! both ways, `Dict` against `Dict` over the same and over a foreign
//! dictionary; build sides of 0, 1 and up to 60 rows over five values per
//! column, in one to three storage areas (empty ones included); tagging on
//! and off.
//!
//! A `Dict` key column is coded in one dictionary per case and column,
//! shared by the probe side and every build area, so a `Dict`–`Dict` key
//! compares codes; `ForeignDict` gives the same strings other codes, the
//! value compare across dictionaries.
//!
//! Every case runs twice. *Directly*: `HtInsertJob` over the areas, then
//! `ProbeOp::apply`, built from each side's own encodings, on a dense,
//! half-full, sparse or empty selection — the only way to hand the probe
//! a selection of a chosen shape. And *as a
//! plan* through `compile_query` on the simulated executor at 1–8 workers
//! with morsels of 16–79 rows (`SimExecutor` itself: `run_sim` lives in a
//! crate that depends on this one).
//!
//! This file replaces the row-at-a-time twin `ProbeOp` used to carry,
//! which shared the hash function, the directory and the chain layout with
//! the code it checked. These deliberately broken probes are entries of
//! `mutants/catalogue.txt`, and it fails on each of them:
//!
//! * equality on the hash alone (`retain_key_equal` skipped;
//!   `join-equal-on-hash-alone`), and NaN matching NaN in the key
//!   comparison (floats compared by their canonical bits;
//!   `join-nan-matches-nan`): every NaN hashes alike, so either way NaN
//!   keys match each other — the cases with an `F64` key column;
//! * `Semi` emitting a probe row once per match (the `found` flags
//!   replaced by the candidates' probe rows; `join-semi-once-per-match`):
//!   the `Semi` cases with a duplicated build key;
//! * `Count` dropping zero-match rows (`join-count-drops-zero-match`): the
//!   `Count` cases;
//! * a selection-vector input indexed by position instead of row
//!   (`cand.push(i, ..)` for `live.at(i)`; `join-selection-by-position`):
//!   the direct half of the cases with a sparse selection.
//!
//! Not on the list, because no test can tell: integer keys compared after
//! truncation to `i32`. Candidates reach the key comparison only with
//! equal 64-bit hashes, and `(1 << 32) + 1` does not hash as `1`.

use std::sync::Arc;

use morsel_core::{DispatchConfig, ExecEnv, Morsel, PipelineJob, SimExecutor, TaskContext};
use morsel_exec::expr::{col, eq, lit};
use morsel_exec::join::{join_slot, HtInsertJob, ProbeOp};
use morsel_exec::pipeline::{PipeOp, SelBatch};
use morsel_exec::plan::{compile_query, Plan};
use morsel_exec::{JoinKind, SystemVariant};
use morsel_numa::{Placement, SocketId, Topology};
use morsel_storage::{
    AreaSet, Batch, Column, DictColumn, Dictionary, Encoding, PartitionBy, Relation, Schema,
    StorageArea, StrColumn,
};
use proptest::TestRng;

#[path = "common/join_reference.rs"]
mod join_reference;

use join_reference::sorted;

/// One join to check. Probe columns: the keys, `keep` (1: the row is live)
/// and a row id; build columns: the keys and a row id, one batch per
/// storage area.
struct Case {
    keys: Vec<usize>,
    probe: Batch,
    build: Vec<Batch>,
    kind: JoinKind,
    tagging: bool,
    workers: usize,
    morsel_size: usize,
}

fn schema(batch: &Batch) -> Schema {
    let names: Vec<String> = (0..batch.width()).map(|c| format!("c{c}")).collect();
    let fields = names.iter().zip(batch.columns());
    Schema::new(fields.map(|(n, c)| (n.as_str(), c.data_type())).collect())
}

/// The encodings `batch`'s columns are stored in.
fn encodings(batch: &Batch) -> Vec<Encoding> {
    batch.columns().iter().map(Encoding::of).collect()
}

fn rows_of(batch: &Batch) -> Vec<String> {
    let batch = batch.decoded();
    sorted((0..batch.rows()).map(|r| batch.row(r)))
}

impl Case {
    /// The build row id, the payload of an inner join.
    fn build_cols(&self) -> Vec<usize> {
        match self.kind {
            JoinKind::Inner => vec![self.keys.len()],
            _ => Vec::new(),
        }
    }

    fn live(&self) -> Vec<usize> {
        let keep = self.probe.column(self.keys.len()).as_i64();
        (0..keep.len()).filter(|&r| keep[r] == 1).collect()
    }

    fn build_all(&self) -> Batch {
        let mut all = self.build[0].clone();
        self.build[1..]
            .iter()
            .for_each(|area| all.extend_from(area));
        all
    }

    /// What the oracle says for `probe` (the case's, as it is or as a scan
    /// hands it on): the output rows.
    fn reference(&self, probe: &Batch) -> Vec<String> {
        let (build, cols) = (self.build_all(), self.build_cols());
        sorted(join_reference::join(
            (probe, &self.live()),
            &self.keys,
            &build,
            &self.keys,
            &cols,
            self.kind,
        ))
    }

    /// `ProbeOp` driven by hand over a hash table built by hand: its
    /// output rows.
    fn run_direct(&self) -> Vec<String> {
        let env = ExecEnv::new(Topology::nehalem_ex());
        let mut ctx = TaskContext::new(&env, 0);
        let schema = schema(&self.build[0]);
        // Each area holds its rows in their own encodings, empty ones too.
        let areas = (self.build.iter().enumerate())
            .map(|(i, rows)| StorageArea::holding(SocketId(i as u16), rows.clone()))
            .collect();
        let build = Arc::new(AreaSet::new(schema, areas));
        let slot = join_slot();
        let insert = HtInsertJob::new(build, self.keys.clone(), 4, slot.clone(), self.tagging);
        for (chunk, rows) in self.build.iter().enumerate() {
            // Two morsels per area.
            let mid = rows.rows() / 2;
            for range in [0..mid, mid..rows.rows()] {
                insert.run_morsel(&mut ctx, Morsel { chunk, range });
            }
        }
        insert.finish(&mut ctx);
        // Each side's own encodings: a key coded in one dictionary on both
        // sides compares codes.
        let probe = ProbeOp::new(
            slot,
            self.keys.clone(),
            self.keys.clone(),
            self.kind,
            self.build_cols(),
            &encodings(&self.probe),
            &encodings(&self.build[0]),
        );
        let live = self.live();
        let input = SelBatch {
            batch: self.probe.clone(),
            // A full selection arrives as none at all.
            sel: (live.len() < self.probe.rows()).then(|| live.iter().map(|&r| r as u32).collect()),
        };
        let out = probe.apply(&mut ctx, input).materialize(&mut ctx);
        rows_of(&out)
    }

    /// The same join as a compiled plan on the simulated executor, the
    /// selection produced by the scan's filter on `keep`.
    fn run_plan(&self) -> Vec<String> {
        let topo = Topology::nehalem_ex();
        let scan = |batch: &Batch, parts: usize, filter| {
            let relation = Relation::partitioned(
                schema(batch),
                batch,
                PartitionBy::Chunks,
                parts,
                Placement::FirstTouch,
                &topo,
            );
            Plan::Scan {
                relation: Arc::new(relation),
                filter,
                project: (0..batch.width())
                    .map(|c| (format!("c{c}"), col(c)))
                    .collect(),
            }
        };
        let keep = eq(col(self.keys.len()), lit(1));
        let plan = Plan::Join {
            probe: Box::new(scan(&self.probe, 4, Some(keep))),
            build: Box::new(scan(&self.build_all(), self.build.len(), None)),
            probe_keys: self.keys.clone(),
            build_keys: self.keys.clone(),
            kind: self.kind,
            build_payload: self.build_cols(),
        };
        let variant = SystemVariant {
            tagging: self.tagging,
            ..SystemVariant::full()
        };
        let (spec, result) = compile_query("join", plan, variant);
        let config = DispatchConfig::new(self.workers).with_morsel_size(self.morsel_size);
        let mut sim = SimExecutor::new(ExecEnv::new(topo), config);
        sim.submit(spec);
        sim.run();
        let out = result.lock().take().expect("the join completes");
        rows_of(&out)
    }

    /// Both runs against the oracle.
    fn check(&self, context: &str) {
        assert_eq!(
            self.run_direct(),
            self.reference(&self.probe),
            "direct: {context}"
        );
        // A scan widens `I32` columns (`Expr::result_type`): the plan's
        // probe side reaches the join, and leaves it, as `I64`.
        let widen = |c: &Column| match c {
            Column::I32(v) => Column::I64(v.iter().map(|&x| i64::from(x)).collect()),
            other => other.clone(),
        };
        let widened = Batch::from_columns(self.probe.columns().iter().map(widen).collect());
        assert_eq!(self.run_plan(), self.reference(&widened), "plan: {context}");
    }
}

/// The last two only in `I64` columns: beyond what an `I32` can match.
const INTS: [i64; 7] = [-1, 0, 1, 2, 3, (1 << 32) + 1, -(1 << 32)];
const STRS: [&str; 5] = ["", "a", "ab", "b", "c"];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    I32,
    I64,
    F64,
    Str,
    Dict,
    ForeignDict,
}

/// The key-column pairs, probe side first.
const PAIRS: [(Kind, Kind); 10] = [
    (Kind::I32, Kind::I32),
    (Kind::I32, Kind::I64),
    (Kind::I64, Kind::I32),
    (Kind::I64, Kind::I64),
    (Kind::F64, Kind::F64),
    (Kind::Str, Kind::Str),
    (Kind::Str, Kind::Dict),
    (Kind::Dict, Kind::Str),
    (Kind::Dict, Kind::Dict),
    (Kind::Dict, Kind::ForeignDict),
];

/// A key column's dictionary and its foreign one.
type Dicts = (Arc<Dictionary>, Arc<Dictionary>);

struct Gen(TestRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    /// `n` values of a key column of `kind`; `dicts` are the column's
    /// dictionary and foreign dictionary, which every area and the probe
    /// side share.
    fn key_column(&mut self, kind: Kind, n: usize, dicts: &Dicts) -> Column {
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 0x8000_0000_0000_0001);
        let floats = [0.0, -0.0, f64::NAN, other_nan, 1.5, -1.5];
        let mut draw = |d: usize| -> Vec<usize> { (0..n).map(|_| self.below(d)).collect() };
        let strings =
            |picks: Vec<usize>| -> StrColumn { picks.into_iter().map(|i| STRS[i]).collect() };
        match kind {
            Kind::I32 => Column::I32(draw(5).into_iter().map(|i| INTS[i] as i32).collect()),
            Kind::I64 => Column::I64(draw(7).into_iter().map(|i| INTS[i]).collect()),
            Kind::F64 => Column::F64(draw(6).into_iter().map(|i| floats[i]).collect()),
            Kind::Str => Column::Str(strings(draw(5))),
            Kind::Dict | Kind::ForeignDict => {
                let dict = if kind == Kind::Dict {
                    &dicts.0
                } else {
                    &dicts.1
                };
                let values = strings(draw(5));
                Column::Dict(DictColumn::encode(dict, &values).expect("a subset of both"))
            }
        }
    }

    fn case(&mut self, case: u64) -> Case {
        let pairs: Vec<(Kind, Kind)> = (0..1 + self.below(3))
            .map(|_| PAIRS[self.below(10)])
            .collect();
        let ids = |from: usize, n: usize| Column::I64((from as i64..(from + n) as i64).collect());

        // One dictionary per key column, and one foreign one that gives
        // the same strings other codes.
        let dicts: Vec<Dicts> = (pairs.iter())
            .map(|_| {
                let foreign = STRS.iter().chain(&["0", "aa"]).copied();
                (
                    Dictionary::from_values(STRS),
                    Dictionary::from_values(foreign),
                )
            })
            .collect();
        let n = self.below(300);
        let mut probe: Vec<Column> = (pairs.iter().zip(&dicts))
            .map(|(p, d)| self.key_column(p.0, n, d))
            .collect();
        // Dense, half-full, sparse and empty selections.
        let keep = match case % 4 {
            0 => vec![1; n],
            1 => (0..n).map(|_| self.below(2) as i64).collect(),
            2 => (0..n).map(|_| i64::from(self.below(10) == 0)).collect(),
            _ => vec![0; n],
        };
        probe.extend([Column::I64(keep), ids(0, n)]);

        let build_rows = match case % 5 {
            0 => 0,
            1 => 1,
            _ => 2 + self.below(59),
        };
        let areas = 1 + self.below(3);
        let mut done = 0;
        let build = (0..areas)
            .map(|a| {
                let left = build_rows - done;
                let n = if a + 1 == areas {
                    left
                } else {
                    self.below(left + 1)
                };
                let mut cols: Vec<Column> = (pairs.iter().zip(&dicts))
                    .map(|(p, d)| self.key_column(p.1, n, d))
                    .collect();
                cols.push(ids(done, n));
                done += n;
                Batch::from_columns(cols)
            })
            .collect();
        const KINDS: [JoinKind; 4] = [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::Count,
        ];
        Case {
            keys: (0..pairs.len()).collect(),
            probe: Batch::from_columns(probe),
            build,
            // `case / 8`: every kind meets every selection and worker count.
            kind: KINDS[(case / 8) as usize % KINDS.len()],
            tagging: !case.is_multiple_of(3),
            workers: 1 + (case % 8) as usize,
            morsel_size: 16 + self.below(64),
        }
    }
}

#[test]
fn probe_matches_the_reference_on_seeded_inputs() {
    for case in 0..320 {
        let c = Gen(TestRng::for_case("join_equivalence", case)).case(case);
        let context = format!(
            "case {case}: {:?} on {} key(s), {} probe rows ({} live), build areas {:?}, \
             tagging {}, {} worker(s)",
            c.kind,
            c.keys.len(),
            c.probe.rows(),
            c.live().len(),
            c.build.iter().map(Batch::rows).collect::<Vec<_>>(),
            c.tagging,
            c.workers,
        );
        c.check(&context);
    }
}
