//! The hash-join probe against the nested-loop oracle of
//! `common/join_reference.rs`, on seeded random inputs: all five
//! `JoinKind`s; one to three key columns, each pair drawn from `I32`/`I64`
//! in every mix, `F64` with ±0.0 and two NaNs, plain `Str` against `Dict`
//! both ways, `Dict` against `Dict` over the same and over a foreign
//! dictionary; build sides of 0, 1 and up to 60 rows over five values per
//! column, in one to three storage areas (empty ones included); tagging on
//! and off.
//!
//! Every case runs twice. *Directly*: `HtInsertJob` over the areas, then
//! `ProbeOp::apply` on a dense, half-full, sparse or empty selection — the
//! only way to hand the probe a selection of a chosen shape and to read
//! the match markers back (`InnerMark`, through `unmatched()`). And *as a
//! plan* through `compile_query` on the simulated executor at 1–8 workers
//! with morsels of 16–79 rows (`SimExecutor` itself: `run_sim` lives in a
//! crate that depends on this one).
//!
//! This file replaces the row-at-a-time twin `ProbeOp` used to carry,
//! which shared the hash function, the directory and the chain layout with
//! the code it checked. It was run against these deliberately broken
//! probes, and fails on each of them:
//!
//! * equality on the hash alone (`retain_key_equal` skipped), and NaN
//!   matching NaN in the key comparison (floats compared by their
//!   canonical bits): every NaN hashes alike, so either way NaN keys match
//!   each other — the cases with an `F64` key column;
//! * `Semi` emitting a probe row once per match (the `found` flags
//!   replaced by the candidates' probe rows): the `Semi` cases with a
//!   duplicated build key;
//! * `Count` dropping zero-match rows (counting over the candidates' rows
//!   only): the `Count` cases;
//! * `InnerMark` not setting the marker: the direct half of the
//!   `InnerMark` cases with a match;
//! * a selection-vector input indexed by position instead of row
//!   (`cand.push(i, ..)` for `live.at(i)`): the direct half of the cases
//!   with a sparse selection.
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
    AreaSet, Batch, Column, DictColumn, Dictionary, PartitionBy, Relation, Schema, StorageArea,
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

fn rows_of(batch: &Batch) -> Vec<String> {
    let batch = batch.decoded();
    sorted((0..batch.rows()).map(|r| batch.row(r)))
}

impl Case {
    /// The build row id, the payload of the inner kinds.
    fn build_cols(&self) -> Vec<usize> {
        match self.kind {
            JoinKind::Inner | JoinKind::InnerMark => vec![self.keys.len()],
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
    /// hands it on): the output rows, and the ids of the build rows no
    /// live probe row matched.
    fn reference(&self, probe: &Batch) -> (Vec<String>, Vec<i64>) {
        let (build, cols) = (self.build_all(), self.build_cols());
        let joined = join_reference::join(
            (probe, &self.live()),
            &self.keys,
            &build,
            &self.keys,
            &cols,
            self.kind,
        );
        let ids = build.column(self.keys.len()).as_i64();
        let unmatched = joined.unmatched_build.iter().map(|&b| ids[b]).collect();
        (sorted(joined.rows), unmatched)
    }

    /// `ProbeOp` driven by hand over a hash table built by hand: its
    /// output rows and the ids of the build rows left unmarked.
    fn run_direct(&self) -> (Vec<String>, Vec<i64>) {
        let env = ExecEnv::new(Topology::nehalem_ex());
        let mut ctx = TaskContext::new(&env, 0);
        let schema = schema(&self.build[0]);
        let areas = (self.build.iter().enumerate())
            .map(|(i, rows)| {
                let mut area = StorageArea::new(SocketId(i as u16), &schema.data_types());
                area.data_mut().extend_from(rows);
                area
            })
            .collect();
        let build = Arc::new(AreaSet::new(schema, areas));
        let slot = join_slot();
        let insert = HtInsertJob::with_tagging(
            Arc::clone(&build),
            self.keys.clone(),
            4,
            slot.clone(),
            self.tagging,
        );
        for (chunk, rows) in self.build.iter().enumerate() {
            // Two morsels per area.
            let mid = rows.rows() / 2;
            for range in [0..mid, mid..rows.rows()] {
                insert.run_morsel(&mut ctx, Morsel { chunk, range });
            }
        }
        insert.finish(&mut ctx);
        let probe = ProbeOp {
            table: slot.clone(),
            probe_keys: self.keys.clone(),
            kind: self.kind,
            build_cols: self.build_cols(),
        };
        let live = self.live();
        let input = SelBatch {
            batch: self.probe.clone(),
            // A full selection arrives as none at all.
            sel: (live.len() < self.probe.rows()).then(|| live.iter().map(|&r| r as u32).collect()),
        };
        let out = probe.apply(&mut ctx, input).materialize(&mut ctx);
        let table = slot.get().expect("the build completed");
        let id_of = |entry| {
            let (area, row) = table.ht.loc(entry);
            build.area(area).data().column(self.keys.len()).as_i64()[row]
        };
        let mut unmatched: Vec<i64> = table.ht.unmatched().into_iter().map(id_of).collect();
        unmatched.sort_unstable();
        (rows_of(&out), unmatched)
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
        let (want_rows, want_unmatched) = self.reference(&self.probe);
        let (rows, unmatched) = self.run_direct();
        assert_eq!(rows, want_rows, "direct: {context}");
        if self.kind == JoinKind::InnerMark {
            assert_eq!(unmatched, want_unmatched, "markers: {context}");
        }
        // A scan widens `I32` columns (`Expr::result_type`): the plan's
        // probe side reaches the join, and leaves it, as `I64`.
        let widen = |c: &Column| match c {
            Column::I32(v) => Column::I64(v.iter().map(|&x| i64::from(x)).collect()),
            other => other.clone(),
        };
        let widened = Batch::from_columns(self.probe.columns().iter().map(widen).collect());
        assert_eq!(
            self.run_plan(),
            self.reference(&widened).0,
            "plan: {context}"
        );
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

struct Gen(TestRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    /// `n` values of a key column of `kind`.
    fn key_column(&mut self, kind: Kind, n: usize) -> Column {
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 0x8000_0000_0000_0001);
        let floats = [0.0, -0.0, f64::NAN, other_nan, 1.5, -1.5];
        let mut draw = |d: usize| -> Vec<usize> { (0..n).map(|_| self.below(d)).collect() };
        let strings = |picks: Vec<usize>| picks.into_iter().map(|i| STRS[i].to_owned()).collect();
        match kind {
            Kind::I32 => Column::I32(draw(5).into_iter().map(|i| INTS[i] as i32).collect()),
            Kind::I64 => Column::I64(draw(7).into_iter().map(|i| INTS[i]).collect()),
            Kind::F64 => Column::F64(draw(6).into_iter().map(|i| floats[i]).collect()),
            Kind::Str => Column::Str(strings(draw(5))),
            Kind::Dict | Kind::ForeignDict => {
                // The foreign dictionary gives the same strings other codes.
                let extra: &[&str] = if kind == Kind::Dict {
                    &[]
                } else {
                    &["0", "aa"]
                };
                let dict = Dictionary::from_values(STRS.iter().chain(extra).copied());
                let values: Vec<String> = strings(draw(5));
                Column::Dict(DictColumn::encode(&dict, &values).expect("a subset of both"))
            }
        }
    }

    fn case(&mut self, case: u64) -> Case {
        let pairs: Vec<(Kind, Kind)> = (0..1 + self.below(3))
            .map(|_| PAIRS[self.below(10)])
            .collect();
        let ids = |from: usize, n: usize| Column::I64((from as i64..(from + n) as i64).collect());

        let n = self.below(300);
        let mut probe: Vec<Column> = pairs.iter().map(|p| self.key_column(p.0, n)).collect();
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
                let mut cols: Vec<Column> = pairs.iter().map(|p| self.key_column(p.1, n)).collect();
                cols.push(ids(done, n));
                done += n;
                Batch::from_columns(cols)
            })
            .collect();
        const KINDS: [JoinKind; 5] = [
            JoinKind::Inner,
            JoinKind::InnerMark,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::Count,
        ];
        Case {
            keys: (0..pairs.len()).collect(),
            probe: Batch::from_columns(probe),
            build,
            kind: KINDS[(case / 4) as usize % 5],
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
