//! Parallel hash join (paper Section 4.1).
//!
//! The build side runs as two pipelines: (1) materialize filtered build
//! tuples into per-worker NUMA-local storage areas (no synchronization),
//! then (2) insert pointers to those tuples into a perfectly sized global
//! [`TaggedHashTable`] with lock-free CAS (Figure 3's two phases). The
//! probe side is fully pipelined: a [`ProbeOp`] inside the probe pipeline
//! probes the shared table morsel-wise.

use std::sync::{Arc, OnceLock};

use morsel_core::{Morsel, PipelineJob, TaskContext};
use morsel_numa::SocketId;
use morsel_storage::{AreaSet, Batch, Column, Dictionary, Encoding};

use crate::charge;
use crate::ht::TaggedHashTable;
use crate::key::{hash_rows, MatchCandidates, Rows};
use crate::pipeline::{PipeOp, SelBatch};

/// A completed build side: hash table + the tuples it points into.
pub struct JoinTable {
    pub ht: Arc<TaggedHashTable>,
    pub build: Arc<AreaSet>,
    /// Bytes of the build tuples: the size of the table its accesses are
    /// charged against.
    pub bytes: u64,
}

/// Slot through which the probe pipeline receives the build result.
pub type JoinSlot = Arc<OnceLock<Arc<JoinTable>>>;

/// Create an empty join slot.
pub fn join_slot() -> JoinSlot {
    Arc::new(OnceLock::new())
}

/// Pipeline job for the second build phase: scan the build storage areas
/// morsel-wise and CAS pointers into the global hash table.
pub struct HtInsertJob {
    ht: Arc<TaggedHashTable>,
    build: Arc<AreaSet>,
    key_cols: Vec<usize>,
    /// [`JoinTable::bytes`], counted once.
    bytes: u64,
    out: JoinSlot,
    /// Profile slot of the join plan node (credited with build rows).
    prof_slot: Option<u32>,
}

impl HtInsertJob {
    /// Allocate the perfectly-sized table for the materialized build side
    /// and prepare the insert job. `sockets` controls the simulated
    /// interleaving of the table; `tagging` turns its early-filter tags
    /// on (Fig. 11's variable).
    pub fn new(
        build: Arc<AreaSet>,
        key_cols: Vec<usize>,
        sockets: u16,
        out: JoinSlot,
        tagging: bool,
    ) -> Self {
        let rows: Vec<usize> = build.areas().iter().map(|a| a.rows()).collect();
        let ht = Arc::new(TaggedHashTable::new(&rows, sockets, tagging));
        HtInsertJob {
            ht,
            bytes: build.total_bytes(),
            build,
            key_cols,
            out,
            prof_slot: None,
        }
    }

    /// Credit hash-table build sizes to the given profile slot.
    pub fn with_prof_slot(mut self, slot: Option<u32>) -> Self {
        self.prof_slot = slot;
        self
    }
}

impl PipelineJob for HtInsertJob {
    fn run_morsel(&self, ctx: &mut TaskContext<'_>, morsel: Morsel) {
        let area = self.build.area(morsel.chunk);
        let batch = area.data();
        let rows = morsel.range.len() as u64;
        let key_bytes: u64 = (self.key_cols.iter())
            .map(|&c| {
                batch
                    .column(c)
                    .byte_size(morsel.range.start, morsel.range.end)
            })
            .sum();
        charge::hash_build(rows as f64, key_bytes as f64, self.bytes as f64)
            .book(ctx, &[(area.node(), key_bytes)]);

        if let Some(slot) = self.prof_slot {
            ctx.prof_build_rows(slot, rows);
        }

        // Columnar key hashing for the whole morsel, then the CAS loop.
        let hashes = hash_rows(batch, &self.key_cols, Rows::range(morsel.range.clone()));
        for (row, hash) in morsel.range.zip(hashes) {
            self.ht.insert(self.ht.entry_index(morsel.chunk, row), hash);
        }
    }

    fn finish(&self, _ctx: &mut TaskContext<'_>) {
        let table = JoinTable {
            ht: Arc::clone(&self.ht),
            build: Arc::clone(&self.build),
            bytes: self.bytes,
        };
        self.out
            .set(Arc::new(table))
            .ok()
            .expect("join slot set twice");
    }
}

/// Join semantics of a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Emit probe ⨝ build matches.
    Inner,
    /// Emit probe rows with at least one match.
    Semi,
    /// Emit probe rows with no match.
    Anti,
    /// Emit every probe row plus an `i64` column counting its matches
    /// (left-outer-join + COUNT aggregate fusion, used by TPC-H Q13).
    Count,
}

/// Probe operator inside a pipeline.
///
/// Batched: hash every live row with one columnar pass, tag-filter all
/// rows against the directory, chain-walk only the surviving candidates
/// into match lists, key-compare them with one typed pass per key column,
/// then gather each output side once. Its reference is a nested loop over
/// decoded values in `tests/join_equivalence.rs`.
pub struct ProbeOp {
    table: JoinSlot,
    /// Key columns in the working batch, and the build side's they match.
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    kind: JoinKind,
    /// Build-side columns appended to the output (Inner only).
    build_cols: Vec<usize>,
    /// Per key column: compare codes, probe and build sharing the
    /// dictionary; otherwise values, whatever the representation (a code
    /// compares like its string, since both hash alike, DESIGN.md §3).
    codes: Vec<bool>,
    /// Per build payload column: the dictionary its build side is coded
    /// in, whose codes the gather copies; `None` copies values.
    payload: Vec<Option<Arc<Dictionary>>>,
}

impl ProbeOp {
    /// Probe the table `table` will hold, built on `build_keys`, with the
    /// working batch's `probe_keys`. `probe` and `build` are the
    /// encodings of the probe side's and the build side's columns: the
    /// string kernels are chosen here, once per column.
    pub fn new(
        table: JoinSlot,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        kind: JoinKind,
        build_cols: Vec<usize>,
        probe: &[Encoding],
        build: &[Encoding],
    ) -> Self {
        let codes = (probe_keys.iter().zip(&build_keys))
            .map(|(&p, &b)| probe[p].dict().is_some() && probe[p] == build[b])
            .collect();
        let payload = build_cols
            .iter()
            .map(|&c| build[c].dict().cloned())
            .collect();
        ProbeOp {
            table,
            probe_keys,
            build_keys,
            kind,
            build_cols,
            codes,
            payload,
        }
    }
}

impl PipeOp for ProbeOp {
    fn apply(&self, ctx: &mut TaskContext<'_>, input: SelBatch) -> SelBatch {
        let jt = self
            .table
            .get()
            .expect("probe ran before build completed")
            .clone();
        let rows = input.rows();
        // One columnar hashing pass over the live rows, then the batched
        // directory walk. Candidates name the underlying batch row, which
        // is what the key comparison, the output gather and the per-row
        // state of semi/anti/count all index by.
        let hashes = hash_rows(&input.batch, &self.probe_keys, input.rows_ref());
        let live = input.rows_ref();
        let mut cand = MatchCandidates::with_capacity(rows);
        let traversed = jt.ht.probe_batch(&hashes, |i, entry| {
            let (a, r) = jt.ht.loc(entry);
            cand.push(live.at(i as usize) as u32, a, r);
        });
        let (probe_keys, build_keys) = (&self.probe_keys, &self.build_keys);
        cand.retain_key_equal(&input.batch, probe_keys, &jt.build, build_keys, &self.codes);
        let inner = self.kind == JoinKind::Inner;
        // An inner join reads its build payload from each area's node.
        let payload: Vec<(SocketId, u64)> = if inner && !self.build_cols.is_empty() {
            let bytes = payload_bytes(&jt.build, &self.build_cols, cand.locs());
            (jt.build.areas().iter().map(|a| a.node()))
                .zip(bytes)
                .filter(|&(_, b)| b > 0)
                .collect()
        } else {
            Vec::new()
        };
        charge::hash_probe(
            self.kind,
            rows as f64,
            traversed as f64,
            cand.len() as f64,
            input.batch.width() + self.build_cols.len(),
            payload.iter().map(|&(_, b)| b).sum::<u64>() as f64,
            jt.bytes as f64,
        )
        .book(ctx, &payload);

        match self.kind {
            JoinKind::Inner => {
                // Assemble output: one gather per probe column through the
                // match list, then one typed gather per build column.
                // Dictionary columns gather codes and stay encoded.
                let mut out_cols: Vec<Column> = input
                    .batch
                    .columns()
                    .iter()
                    .map(|c| {
                        let mut col = Column::with_capacity_like(c, cand.len());
                        col.extend_selected(c, &cand.probe_row);
                        col
                    })
                    .collect();
                for (&bc, dict) in self.build_cols.iter().zip(&self.payload) {
                    out_cols.push(cand.gather_build_column(&jt.build, bc, dict.as_ref()));
                }
                SelBatch::dense(Batch::from_columns(out_cols))
            }
            JoinKind::Semi | JoinKind::Anti => {
                let want = self.kind == JoinKind::Semi;
                let mut found = vec![false; input.batch.rows()];
                for &p in &cand.probe_row {
                    found[p as usize] = true;
                }
                // No copy: the output is a narrowed selection over the
                // same underlying batch.
                let out_sel = live.select(|_, r| found[r] == want);
                SelBatch {
                    batch: input.batch,
                    sel: Some(out_sel),
                }
                .compact_if_sparse(ctx)
            }
            JoinKind::Count => {
                let mut counts = vec![0i64; input.batch.rows()];
                for &p in &cand.probe_row {
                    counts[p as usize] += 1;
                }
                if let Some(sel) = &input.sel {
                    counts = sel.iter().map(|&r| counts[r as usize]).collect();
                }
                // The count column is dense over the live rows, so the
                // probe side materializes here.
                let mut cols = input.materialize(ctx).into_columns();
                cols.push(Column::I64(counts));
                SelBatch::dense(Batch::from_columns(cols))
            }
        }
    }
}

/// Bytes of the payload columns `cols` that the matches at `match_locs`
/// read, per build area — what `Column::byte_size(row, row + 1)` summed
/// over every match and column comes to, without visiting a column per
/// match: the matched rows are bucketed by area once, and
/// `Column::selected_bytes` is `matches × width` for fixed-width and
/// dictionary columns (only plain strings are walked for their lengths).
fn payload_bytes(
    build: &AreaSet,
    cols: &[usize],
    match_locs: impl Iterator<Item = (usize, usize)>,
) -> Vec<u64> {
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); build.areas().len()];
    for (a, r) in match_locs {
        rows[a].push(r as u32);
    }
    build
        .areas()
        .iter()
        .zip(&rows)
        .map(|(area, rows)| {
            cols.iter()
                .map(|&c| area.data().column(c).selected_bytes(rows))
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_core::ExecEnv;
    use morsel_numa::{SocketId, Topology};
    use morsel_storage::{DataType, Schema, StorageArea, StrColumn};

    fn env() -> ExecEnv {
        ExecEnv::new(Topology::nehalem_ex())
    }

    /// Both sides' columns: two plain `I64`s.
    const PLAIN: [Encoding; 2] = [Encoding::Plain, Encoding::Plain];

    /// Build a one-area table over `(keys, payload)` and run its insert
    /// job to completion in one morsel.
    fn built_table(keys: &[i64], payload: &[i64]) -> JoinSlot {
        let env = env();
        let schema = Schema::new(vec![("bk", DataType::I64), ("bv", DataType::I64)]);
        let mut area = StorageArea::new(SocketId(0), &schema.data_types());
        area.data_mut().extend_from(&Batch::from_columns(vec![
            Column::I64(keys.to_vec()),
            Column::I64(payload.to_vec()),
        ]));
        let build = Arc::new(AreaSet::new(schema, vec![area]));
        let slot = join_slot();
        let job = HtInsertJob::new(build, vec![0], 4, slot.clone(), true);
        let mut ctx = TaskContext::new(&env, 0);
        job.run_morsel(
            &mut ctx,
            Morsel {
                chunk: 0,
                range: 0..keys.len(),
            },
        );
        job.finish(&mut ctx);
        slot
    }

    fn probe_batch(keys: &[i64]) -> Batch {
        Batch::from_columns(vec![
            Column::I64(keys.to_vec()),
            Column::I64(keys.iter().map(|k| k * 100).collect()),
        ])
    }

    /// Apply through the SelBatch interface and materialize the result.
    fn run_op(op: &ProbeOp, ctx: &mut TaskContext<'_>, batch: Batch) -> Batch {
        op.apply(ctx, SelBatch::dense(batch)).materialize(ctx)
    }

    #[test]
    fn inner_join_matches_and_payload() {
        let slot = built_table(&[1, 2, 3], &[10, 20, 30]);
        let op = ProbeOp::new(
            slot,
            vec![0],
            vec![0],
            JoinKind::Inner,
            vec![1],
            &PLAIN,
            &PLAIN,
        );
        let env = env();
        let mut ctx = TaskContext::new(&env, 0);
        let out = run_op(&op, &mut ctx, probe_batch(&[2, 4, 3, 2]));
        // Rows: (2,200,20), (3,300,30), (2,200,20) in probe order.
        assert_eq!(out.rows(), 3);
        assert_eq!(out.column(0).as_i64(), &[2, 3, 2]);
        assert_eq!(out.column(1).as_i64(), &[200, 300, 200]);
        assert_eq!(out.column(2).as_i64(), &[20, 30, 20]);
    }

    #[test]
    fn duplicate_build_keys_multiply() {
        let slot = built_table(&[5, 5, 5], &[1, 2, 3]);
        let op = ProbeOp::new(
            slot,
            vec![0],
            vec![0],
            JoinKind::Inner,
            vec![1],
            &PLAIN,
            &PLAIN,
        );
        let env = env();
        let mut ctx = TaskContext::new(&env, 0);
        let out = run_op(&op, &mut ctx, probe_batch(&[5]));
        assert_eq!(out.rows(), 3);
        let mut got = out.column(2).as_i64().to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn semi_and_anti_join() {
        let slot = built_table(&[1, 3], &[0, 0]);
        let env = env();
        let mut ctx = TaskContext::new(&env, 0);
        let semi = ProbeOp::new(
            slot.clone(),
            vec![0],
            vec![0],
            JoinKind::Semi,
            vec![],
            &PLAIN,
            &PLAIN,
        );
        let out = run_op(&semi, &mut ctx, probe_batch(&[1, 2, 3, 3]));
        assert_eq!(out.column(0).as_i64(), &[1, 3, 3]);
        let anti = ProbeOp::new(
            slot,
            vec![0],
            vec![0],
            JoinKind::Anti,
            vec![],
            &PLAIN,
            &PLAIN,
        );
        let out = run_op(&anti, &mut ctx, probe_batch(&[1, 2, 3, 4]));
        assert_eq!(out.column(0).as_i64(), &[2, 4]);
    }

    #[test]
    fn count_join_keeps_zero_rows() {
        let slot = built_table(&[7, 7, 9], &[0, 0, 0]);
        let op = ProbeOp::new(
            slot,
            vec![0],
            vec![0],
            JoinKind::Count,
            vec![],
            &PLAIN,
            &PLAIN,
        );
        let env = env();
        let mut ctx = TaskContext::new(&env, 0);
        let out = run_op(&op, &mut ctx, probe_batch(&[7, 8, 9]));
        assert_eq!(out.rows(), 3);
        assert_eq!(out.column(2).as_i64(), &[2, 0, 1]);
    }

    #[test]
    fn parallel_insert_from_multiple_areas() {
        let env = env();
        let schema = Schema::new(vec![("bk", DataType::I64)]);
        let mut a0 = StorageArea::new(SocketId(0), &schema.data_types());
        a0.data_mut()
            .extend_from(&Batch::from_columns(vec![Column::I64((0..500).collect())]));
        let mut a1 = StorageArea::new(SocketId(1), &schema.data_types());
        a1.data_mut()
            .extend_from(&Batch::from_columns(vec![Column::I64(
                (500..1000).collect(),
            )]));
        let build = Arc::new(AreaSet::new(schema, vec![a0, a1]));
        let slot = join_slot();
        let job = HtInsertJob::new(build, vec![0], 4, slot.clone(), true);
        let mut ctx = TaskContext::new(&env, 0);
        job.run_morsel(
            &mut ctx,
            Morsel {
                chunk: 0,
                range: 0..500,
            },
        );
        job.run_morsel(
            &mut ctx,
            Morsel {
                chunk: 1,
                range: 0..500,
            },
        );
        job.finish(&mut ctx);
        let jt = slot.get().unwrap();
        for k in 0..1000i64 {
            assert_eq!(jt.ht.probe_key_i64(k).len(), 1, "key {k}");
        }
    }

    #[test]
    fn payload_traffic_equals_the_per_row_sum() {
        // Fixed-width, dictionary and plain string payload columns over two
        // areas: the per-area totals are what summing
        // `byte_size(row, row + 1)` over every match and column gives.
        use morsel_storage::{DictColumn, Dictionary};
        let schema = Schema::new(vec![
            ("k", DataType::I64),
            ("i", DataType::I32),
            ("f", DataType::F64),
            ("s", DataType::Str),
            ("d", DataType::Str),
        ]);
        let dict = Dictionary::from_values(["x", "yy", "zzz"]);
        let area = |node: u16, n: usize| {
            let words: StrColumn = (0..n).map(|i| "ab".repeat(i % 4)).collect();
            let coded: Vec<String> = (0..n)
                .map(|i| dict.get((i % 3) as u32).to_owned())
                .collect();
            let mut a = StorageArea::new(SocketId(node), &schema.data_types());
            a.data_mut().extend_from(&Batch::from_columns(vec![
                Column::I64((0..n as i64).collect()),
                Column::I32((0..n as i32).collect()),
                Column::F64((0..n).map(|i| i as f64).collect()),
                Column::Str(words),
                Column::Dict(DictColumn::encode(&dict, &coded).unwrap()),
            ]));
            a
        };
        let build = AreaSet::new(schema.clone(), vec![area(0, 9), area(1, 0), area(2, 5)]);
        let locs = [(0, 3), (2, 4), (0, 3), (0, 8), (2, 0), (0, 1)];
        for cols in [vec![1, 2, 3, 4], vec![1, 4], vec![3], vec![]] {
            let mut want = vec![0u64; 3];
            for &(a, r) in &locs {
                for &c in &cols {
                    want[a] += build.area(a).data().column(c).byte_size(r, r + 1);
                }
            }
            let got = payload_bytes(&build, &cols, locs.iter().copied());
            assert_eq!(got, want, "columns {cols:?}");
        }
    }

    #[test]
    fn probe_respects_input_selection() {
        let slot = built_table(&[1, 2, 3], &[10, 20, 30]);
        let env = env();
        let mut ctx = TaskContext::new(&env, 0);
        let op = ProbeOp::new(
            slot,
            vec![0],
            vec![0],
            JoinKind::Inner,
            vec![1],
            &PLAIN,
            &PLAIN,
        );
        // Rows 0 and 3 are selected away; only rows 1 (key 2) and 2
        // (key 3) may match.
        let input = SelBatch {
            batch: probe_batch(&[1, 2, 3, 2]),
            sel: Some(vec![1, 2]),
        };
        let out = op.apply(&mut ctx, input).materialize(&mut ctx);
        assert_eq!(out.column(0).as_i64(), &[2, 3]);
        assert_eq!(out.column(2).as_i64(), &[20, 30]);
    }

    #[test]
    fn empty_build_side_probes_empty() {
        let slot = built_table(&[], &[]);
        let op = ProbeOp::new(
            slot,
            vec![0],
            vec![0],
            JoinKind::Inner,
            vec![1],
            &PLAIN,
            &PLAIN,
        );
        let env = env();
        let mut ctx = TaskContext::new(&env, 0);
        let out = run_op(&op, &mut ctx, probe_batch(&[1, 2]));
        assert_eq!(out.rows(), 0);
        assert_eq!(out.width(), 3);
    }
}
