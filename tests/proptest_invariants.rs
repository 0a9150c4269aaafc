//! Property-based tests on the engine's core invariants.

use std::collections::HashMap;
use std::sync::Arc;

use morsel_repro::core::{
    ChunkMeta, ExecEnv, MorselQueues, PipelineJob, SchedulingMode, TaskContext,
};
use morsel_repro::exec::expr::LikePattern;
use morsel_repro::exec::ht::TaggedHashTable;
use morsel_repro::exec::join::{join_slot, HtInsertJob, JoinSlot, ProbeOp};
use morsel_repro::exec::pipeline::{FilterOp, PipeOp, SelBatch};
use morsel_repro::exec::sort::{is_sorted, sort_batch, SortKey};
use morsel_repro::prelude::*;
use morsel_repro::storage::{date_parts, hash64, AreaSet, StorageArea};
use proptest::prelude::*;

/// A hash table over one storage area holding `columns` (all `I64`),
/// keyed on the first.
fn built(ctx: &mut TaskContext<'_>, columns: Vec<Vec<i64>>) -> JoinSlot {
    let rows = columns[0].len();
    let types = vec![DataType::I64; columns.len()];
    let mut area = StorageArea::new(SocketId(0), &types);
    let columns = columns.into_iter().map(Column::I64).collect();
    (area.data_mut()).extend_from(&Batch::from_columns(columns));
    let names: Vec<String> = (0..types.len()).map(|c| format!("b{c}")).collect();
    let fields = names.iter().map(|n| (n.as_str(), DataType::I64)).collect();
    let build = Arc::new(AreaSet::new(Schema::new(fields), vec![area]));
    let slot = join_slot();
    let insert = HtInsertJob::new(build, vec![0], 4, slot.clone());
    let range = 0..rows;
    insert.run_morsel(ctx, morsel_repro::core::Morsel { chunk: 0, range });
    PipelineJob::finish(&insert, ctx);
    slot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Morsel queues hand out every row exactly once, under any mode,
    /// morsel size, and chunk layout.
    #[test]
    fn morsel_queues_partition_rows(
        chunk_rows in proptest::collection::vec(0usize..5_000, 1..12),
        morsel_size in 1usize..4_000,
        mode_sel in 0u8..3,
        workers in 1usize..9,
    ) {
        let topo = Topology::nehalem_ex();
        let chunks: Vec<ChunkMeta> = chunk_rows
            .iter()
            .enumerate()
            .map(|(i, &rows)| ChunkMeta { node: SocketId((i % 4) as u16), rows })
            .collect();
        let mode = match mode_sel {
            0 => SchedulingMode::NumaAware,
            1 => SchedulingMode::NumaOblivious,
            _ => SchedulingMode::Static { workers, align: true },
        };
        let q = MorselQueues::build(&chunks, mode, morsel_size, workers, &topo);
        let mut seen: Vec<Vec<bool>> = chunk_rows.iter().map(|&r| vec![false; r]).collect();
        for w in 0..workers {
            while let Some((m, _)) = q.next_for(w) {
                for r in m.range.clone() {
                    prop_assert!(!seen[m.chunk][r], "row handed out twice");
                    seen[m.chunk][r] = true;
                }
                prop_assert!(m.rows() <= morsel_size.max(1));
            }
        }
        prop_assert!(seen.iter().flatten().all(|&b| b), "row never handed out");
    }

    /// The tagged hash table finds exactly the inserted occurrences of
    /// every key, and nothing for absent keys.
    #[test]
    fn tagged_ht_is_exact(keys in proptest::collection::vec(-50i64..50, 0..400)) {
        let ht = TaggedHashTable::new(&[keys.len()], 4);
        for (row, &k) in keys.iter().enumerate() {
            ht.insert(row, hash64(k as u64));
        }
        let mut expect: HashMap<i64, usize> = HashMap::new();
        for &k in &keys {
            *expect.entry(k).or_default() += 1;
        }
        let probes: Vec<i64> = (-60..60).collect();
        let hashes: Vec<u64> = probes.iter().map(|&k| hash64(k as u64)).collect();
        let mut got = vec![0usize; probes.len()];
        ht.probe_batch(&hashes, |i, _| got[i as usize] += 1);
        for (k, got) in probes.iter().zip(got) {
            prop_assert_eq!(got, expect.get(k).copied().unwrap_or(0), "key {}", k);
        }
    }

    /// sort_batch returns a sorted permutation of its input.
    #[test]
    fn sort_is_sorted_permutation(
        mut values in proptest::collection::vec(-1000i64..1000, 0..500),
        desc in any::<bool>(),
    ) {
        let batch = Batch::from_columns(vec![Column::I64(values.clone())]);
        let key = if desc { SortKey::desc(0) } else { SortKey::asc(0) };
        let sorted = sort_batch(&batch, &[key]);
        prop_assert!(is_sorted(&sorted, &[key]));
        let mut got = sorted.column(0).as_i64().to_vec();
        got.sort_unstable();
        values.sort_unstable();
        prop_assert_eq!(got, values);
    }

    /// Date arithmetic round-trips across the whole supported range.
    #[test]
    fn date_roundtrip(days in -100_000i32..100_000) {
        let (y, m, d) = date_parts(days);
        prop_assert_eq!(date(y, m, d), days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
    }

    /// LikePattern agrees with a naive backtracking matcher.
    #[test]
    fn like_matches_naive_reference(
        pattern in "[ab%]{0,8}",
        input in "[ab]{0,10}",
    ) {
        fn naive(p: &[u8], s: &[u8]) -> bool {
            match (p.first(), s.first()) {
                (None, None) => true,
                (None, Some(_)) => false,
                (Some(b'%'), _) => {
                    naive(&p[1..], s) || (!s.is_empty() && naive(p, &s[1..]))
                }
                (Some(&c), Some(&x)) if c == x => naive(&p[1..], &s[1..]),
                _ => false,
            }
        }
        let fast = LikePattern::parse(&pattern).matches(&input);
        let slow = naive(pattern.as_bytes(), input.as_bytes());
        prop_assert_eq!(fast, slow, "pattern {:?} input {:?}", pattern, input);
    }

    /// The selection-vector pipeline path (filters narrowing a selection,
    /// probe over the survivors, deferred gather) produces exactly the rows
    /// of a force-materialize path that gathers after every operator — and
    /// both produce the rows of a nested loop over the input vectors.
    #[test]
    fn selection_vector_path_matches_materialized_path(
        rows in proptest::collection::vec((0i64..30, -100i64..100), 0..600),
        build_keys in proptest::collection::vec(0i64..30, 0..80),
        threshold in -110i64..110,
    ) {
        let env = ExecEnv::new(Topology::nehalem_ex());
        let mut ctx = TaskContext::new(&env, 0);

        // Build side: (bk, bv) rows.
        let payload = build_keys.iter().map(|k| k * 1000).collect();
        let slot = built(&mut ctx, vec![build_keys.clone(), payload]);

        let input = Batch::from_columns(vec![
            Column::I64(rows.iter().map(|r| r.0).collect()),
            Column::I64(rows.iter().map(|r| r.1).collect()),
        ]);
        let filter = FilterOp::new(gt(col(1), lit(threshold)));
        let probe = ProbeOp {
            table: slot,
            probe_keys: vec![0],
            kind: JoinKind::Inner,
            build_cols: vec![1],
        };

        // Path A: selection vectors throughout.
        let a = {
            let s = filter.apply(&mut ctx, SelBatch::dense(input.clone()));
            let s = probe.apply(&mut ctx, s);
            s.materialize(&mut ctx)
        };
        // Path B: force-materialize after every operator.
        let b = {
            let s = filter.apply(&mut ctx, SelBatch::dense(input));
            let dense = SelBatch::dense(s.materialize(&mut ctx));
            let s = probe.apply(&mut ctx, dense);
            s.materialize(&mut ctx)
        };
        prop_assert_eq!(&a, &b);
        let mut got: Vec<(i64, i64, i64)> = (0..a.rows())
            .map(|r| (a.column(0).as_i64()[r], a.column(1).as_i64()[r], a.column(2).as_i64()[r]))
            .collect();
        let mut want: Vec<(i64, i64, i64)> = rows
            .iter()
            .filter(|(_, v)| *v > threshold)
            .flat_map(|&(k, v)| {
                build_keys.iter().filter(move |&&bk| bk == k).map(move |bk| (k, v, bk * 1000))
            })
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Semi/anti joins keep their output a selection over the input batch:
    /// it holds exactly the probe rows with (without) a build match, in
    /// input order.
    #[test]
    fn selection_vector_semi_anti_matches(
        probe_keys in proptest::collection::vec(0i64..20, 0..300),
        build_keys in proptest::collection::vec(0i64..20, 0..40),
        anti in any::<bool>(),
    ) {
        let env = ExecEnv::new(Topology::nehalem_ex());
        let mut ctx = TaskContext::new(&env, 0);
        let slot = built(&mut ctx, vec![build_keys.clone()]);

        let kind = if anti { JoinKind::Anti } else { JoinKind::Semi };
        let input = Batch::from_columns(vec![Column::I64(probe_keys.clone())]);
        let probe = ProbeOp {
            table: slot,
            probe_keys: vec![0],
            kind,
            build_cols: vec![],
        };
        let got = probe.apply(&mut ctx, SelBatch::dense(input)).materialize(&mut ctx);
        let want: Vec<i64> = probe_keys
            .into_iter()
            .filter(|k| build_keys.contains(k) != anti)
            .collect();
        prop_assert_eq!(got.column(0).as_i64(), &want[..]);
    }

    /// Hash partitioning preserves the exact multiset of rows.
    #[test]
    fn partitioning_preserves_rows(
        keys in proptest::collection::vec(any::<i64>(), 1..300),
        parts in 1usize..40,
    ) {
        let topo = Topology::nehalem_ex();
        let batch = Batch::from_columns(vec![Column::I64(keys.clone())]);
        let rel = Relation::partitioned(
            Schema::new(vec![("k", DataType::I64)]),
            &batch,
            PartitionBy::Hash { column: 0 },
            parts,
            Placement::FirstTouch,
            &topo,
        );
        let mut got = rel.gather().column(0).as_i64().to_vec();
        let mut want = keys;
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    // Fewer cases for the expensive whole-engine properties.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A grouped aggregation over random data matches a HashMap reference,
    /// for any worker count and morsel size.
    #[test]
    fn grouped_agg_matches_reference(
        rows in proptest::collection::vec((0i64..20, -100i64..100), 1..2_000),
        workers in 1usize..17,
        morsel in 1usize..3_000,
    ) {
        let topo = Topology::nehalem_ex();
        let env = ExecEnv::new(topo.clone());
        let batch = Batch::from_columns(vec![
            Column::I64(rows.iter().map(|r| r.0).collect()),
            Column::I64(rows.iter().map(|r| r.1).collect()),
        ]);
        let rel = Arc::new(Relation::partitioned(
            Schema::new(vec![("g", DataType::I64), ("v", DataType::I64)]),
            &batch,
            PartitionBy::Hash { column: 0 },
            8,
            Placement::FirstTouch,
            &topo,
        ));
        let plan = Plan::scan(rel, None, &["g", "v"])
            .agg(&["g"], vec![("cnt", AggFn::Count), ("sum", AggFn::SumI64(1))])
            .sort_by(vec![SortKey::asc(0)], None);
        let out = run_sim(&env, "agg", plan, SystemVariant::full(), workers, morsel);

        let mut expect: HashMap<i64, (i64, i64)> = HashMap::new();
        for (g, v) in &rows {
            let e = expect.entry(*g).or_default();
            e.0 += 1;
            e.1 += v;
        }
        prop_assert_eq!(out.result.rows(), expect.len());
        for i in 0..out.result.rows() {
            let g = out.result.column(0).as_i64()[i];
            let (cnt, sum) = expect[&g];
            prop_assert_eq!(out.result.column(1).as_i64()[i], cnt);
            prop_assert_eq!(out.result.column(2).as_i64()[i], sum);
        }
    }

    /// An inner join over random keys matches the nested-loop reference.
    #[test]
    fn join_matches_reference(
        probe_keys in proptest::collection::vec(0i64..30, 0..500),
        build_keys in proptest::collection::vec(0i64..30, 0..60),
        workers in 1usize..9,
    ) {
        let topo = Topology::nehalem_ex();
        let env = ExecEnv::new(topo.clone());
        let probe = Arc::new(Relation::partitioned(
            Schema::new(vec![("k", DataType::I64)]),
            &Batch::from_columns(vec![Column::I64(probe_keys.clone())]),
            PartitionBy::Chunks,
            4,
            Placement::FirstTouch,
            &topo,
        ));
        let build = Arc::new(Relation::single(
            Schema::new(vec![("bk", DataType::I64)]),
            Batch::from_columns(vec![Column::I64(build_keys.clone())]),
        ));
        let plan = Plan::scan(probe, None, &["k"])
            .join(Plan::scan(build, None, &["bk"]), &["k"], &["bk"], &[])
            .agg(&[], vec![("cnt", AggFn::Count)]);
        let out = run_sim(&env, "join", plan, SystemVariant::full(), workers, 64);
        let expect: i64 = probe_keys
            .iter()
            .map(|p| build_keys.iter().filter(|b| *b == p).count() as i64)
            .sum();
        prop_assert_eq!(out.result.column(0).as_i64(), &[expect]);
    }
}
