//! Lowered plans must compute exactly what the logical plan describes:
//! property tests over synthetic join graphs compare planner output
//! against hand-authored oracle plans, row for row.

use std::sync::Arc;

use morsel_core::{DispatchConfig, ExecEnv, SimExecutor};
use morsel_exec::agg::AggFn;
use morsel_exec::expr::{add, col, ge, gt, lit, mul, Expr};
use morsel_exec::join::JoinKind;
use morsel_exec::plan::{compile_query, Plan};
use morsel_exec::sort::{sort_batch, SortKey};
use morsel_exec::SystemVariant;
use morsel_numa::{Placement, Topology};
use morsel_planner::{LogicalPlan, Planner};
use morsel_storage::{Batch, Column, PartitionBy, Relation, Schema};
use proptest::prelude::*;

/// `left ⋈ right` on one key pair named by column, resolved to positions.
fn join_on(
    left: LogicalPlan,
    right: LogicalPlan,
    keys: (&str, &str),
    kind: JoinKind,
) -> LogicalPlan {
    let (l, r) = (
        left.schema().index_of(keys.0),
        right.schema().index_of(keys.1),
    );
    left.join_kind(right, &[l], &[r], kind)
}

/// The three-way star join `fact ⋈ dim_a ⋈ dim_b`, `dim_a` filtered.
fn star_join(s: &Star, dim_a_filter: Option<Expr>) -> LogicalPlan {
    let fact = LogicalPlan::scan("fact", s.fact.clone(), None, &["f_a", "f_b", "f_val"]);
    let dim_a = LogicalPlan::scan("dim_a", s.dim_a.clone(), dim_a_filter, &["a_id", "a_grp"]);
    let dim_b = LogicalPlan::scan("dim_b", s.dim_b.clone(), None, &["b_id", "b_grp"]);
    let fa = join_on(fact, dim_a, ("f_a", "a_id"), JoinKind::Inner);
    join_on(fa, dim_b, ("f_b", "b_id"), JoinKind::Inner)
}

/// `GROUP BY a_grp, b_grp` with `sum(f_val)` and `count(*)` over the star.
fn star_aggregate(joined: LogicalPlan) -> LogicalPlan {
    let at = |name| joined.schema().index_of(name);
    let (a_grp, b_grp, f_val) = (at("a_grp"), at("b_grp"), at("f_val"));
    joined.aggregate(
        &[a_grp, b_grp],
        vec![("total", AggFn::SumI64(f_val)), ("n", AggFn::Count)],
    )
}

fn run(env: &ExecEnv, plan: Plan) -> Batch {
    let (spec, result) = compile_query("q", plan, SystemVariant::full());
    let mut sim = SimExecutor::new(env.clone(), DispatchConfig::new(8).with_morsel_size(512));
    sim.submit(spec);
    sim.run();
    let out = result.lock().take().unwrap_or_default();
    out
}

/// Sort by every column so multiset comparison ignores row order.
fn normalized(batch: &Batch) -> Batch {
    let keys: Vec<SortKey> = (0..batch.width()).map(SortKey::asc).collect();
    sort_batch(batch, &keys)
}

fn rel(topo: &Topology, cols: Vec<(&str, Column)>) -> Arc<Relation> {
    let schema = Schema::new(
        cols.iter()
            .map(|(n, c)| (*n, c.data_type()))
            .collect::<Vec<_>>(),
    );
    let batch = Batch::from_columns(cols.into_iter().map(|(_, c)| c).collect());
    Arc::new(Relation::partitioned(
        schema,
        &batch,
        PartitionBy::Chunks,
        4,
        Placement::FirstTouch,
        topo,
    ))
}

/// Fact(n) with two foreign keys; two dimensions with payloads.
struct Star {
    fact: Arc<Relation>,
    dim_a: Arc<Relation>,
    dim_b: Arc<Relation>,
}

fn star(topo: &Topology, n: i64, na: i64, nb: i64, seed: i64) -> Star {
    let mix = |x: i64, m: i64| (x.wrapping_mul(2654435761) ^ seed).rem_euclid(m);
    Star {
        fact: rel(
            topo,
            vec![
                ("f_id", Column::I64((0..n).collect())),
                ("f_a", Column::I64((0..n).map(|x| mix(x, na)).collect())),
                ("f_b", Column::I64((0..n).map(|x| mix(x + 7, nb)).collect())),
                ("f_val", Column::I64((0..n).map(|x| x % 1000).collect())),
            ],
        ),
        dim_a: rel(
            topo,
            vec![
                ("a_id", Column::I64((0..na).collect())),
                ("a_grp", Column::I64((0..na).map(|x| x % 5).collect())),
            ],
        ),
        dim_b: rel(
            topo,
            vec![
                ("b_id", Column::I64((0..nb).collect())),
                ("b_grp", Column::I64((0..nb).map(|x| x % 3).collect())),
            ],
        ),
    }
}

#[test]
fn two_join_aggregate_matches_oracle() {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let s = star(&topo, 20_000, 50, 20, 0);

    let logical = star_aggregate(star_join(&s, Some(ge(col(1), lit(2)))))
        .sort(vec![SortKey::asc(0), SortKey::asc(1)], None);

    let oracle = Plan::scan(s.fact.clone(), None, &["f_a", "f_b", "f_val"])
        .join(
            Plan::scan(
                s.dim_a.clone(),
                Some(ge(col(1), lit(2))),
                &["a_id", "a_grp"],
            ),
            &["f_a"],
            &["a_id"],
            &["a_grp"],
        )
        .join(
            Plan::scan(s.dim_b.clone(), None, &["b_id", "b_grp"]),
            &["f_b"],
            &["b_id"],
            &["b_grp"],
        )
        .agg(
            &["a_grp", "b_grp"],
            vec![("total", AggFn::SumI64(2)), ("n", AggFn::Count)],
        )
        .sort_by(vec![SortKey::asc(0), SortKey::asc(1)], None);

    let planner = Planner::new(&topo);
    let (lowered, report) = planner.plan_with_report(&logical);
    assert_eq!(report.blocks.len(), 1, "one inner-join block");
    assert_eq!(report.blocks[0].leaves.len(), 3);

    let got = run(&env, lowered);
    let want = run(&env, oracle);
    assert_eq!(got, want, "planner result diverged from oracle");
}

#[test]
fn semi_join_blocks_are_respected() {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let s = star(&topo, 10_000, 40, 15, 3);

    let fact = LogicalPlan::scan("fact", s.fact.clone(), None, &["f_a", "f_b", "f_val"]);
    let dim_a = LogicalPlan::scan(
        "dim_a",
        s.dim_a.clone(),
        Some(gt(col(1), lit(1))),
        &["a_id"],
    );
    let dim_b = LogicalPlan::scan("dim_b", s.dim_b.clone(), None, &["b_id", "b_grp"]);
    let joined = join_on(
        join_on(fact, dim_a, ("f_a", "a_id"), JoinKind::Semi),
        dim_b,
        ("f_b", "b_id"),
        JoinKind::Inner,
    );
    let (b_grp, f_val) = (
        joined.schema().index_of("b_grp"),
        joined.schema().index_of("f_val"),
    );
    let logical = joined
        .aggregate(&[b_grp], vec![("total", AggFn::SumI64(f_val))])
        .sort(vec![SortKey::asc(0)], None);

    let oracle = Plan::scan(s.fact.clone(), None, &["f_a", "f_b", "f_val"])
        .join_kind(
            Plan::scan(s.dim_a.clone(), Some(gt(col(1), lit(1))), &["a_id"]),
            &["f_a"],
            &["a_id"],
            &[],
            JoinKind::Semi,
        )
        .join(
            Plan::scan(s.dim_b.clone(), None, &["b_id", "b_grp"]),
            &["f_b"],
            &["b_id"],
            &["b_grp"],
        )
        .agg(&["b_grp"], vec![("total", AggFn::SumI64(2))])
        .sort_by(vec![SortKey::asc(0)], None);

    let got = run(&env, Planner::new(&topo).plan(&logical));
    let want = run(&env, oracle);
    assert_eq!(got, want);
}

#[test]
fn projection_pruning_preserves_results() {
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let s = star(&topo, 5_000, 25, 10, 11);

    // Scans declare more columns than the aggregate reads; pruned scans
    // must not change the answer.
    let joined = join_on(
        LogicalPlan::scan(
            "fact",
            s.fact.clone(),
            None,
            &["f_id", "f_a", "f_b", "f_val"],
        ),
        LogicalPlan::scan("dim_a", s.dim_a.clone(), None, &["a_id", "a_grp"]),
        ("f_a", "a_id"),
        JoinKind::Inner,
    );
    let a_grp = joined.schema().index_of("a_grp");
    let logical = joined
        .aggregate(&[a_grp], vec![("n", AggFn::Count)])
        .sort(vec![SortKey::asc(0)], None);

    let lowered = Planner::new(&topo).plan(&logical);
    // The fact scan must have been narrowed: f_id and f_val are unread.
    fn scan_widths(p: &Plan, out: &mut Vec<usize>) {
        match p {
            Plan::Scan { project, .. } => out.push(project.len()),
            Plan::Filter { input, .. }
            | Plan::Map { input, .. }
            | Plan::Agg { input, .. }
            | Plan::Sort { input, .. } => scan_widths(input, out),
            Plan::Join { build, probe, .. } => {
                scan_widths(probe, out);
                scan_widths(build, out);
            }
        }
    }
    let mut widths = Vec::new();
    scan_widths(&lowered, &mut widths);
    assert!(
        widths.iter().all(|&w| w <= 2),
        "scans not pruned: {widths:?}"
    );

    let oracle = Plan::scan(s.fact.clone(), None, &["f_a"])
        .join(
            Plan::scan(s.dim_a.clone(), None, &["a_id", "a_grp"]),
            &["f_a"],
            &["a_id"],
            &["a_grp"],
        )
        .agg(&["a_grp"], vec![("n", AggFn::Count)])
        .sort_by(vec![SortKey::asc(0)], None);
    assert_eq!(run(&env, lowered), run(&env, oracle));
}

#[test]
fn project_over_a_bare_column_scan_folds_into_the_scan() {
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let s = star(&topo, 5_000, 25, 10, 5);
    let planner = Planner::new(&topo);
    let filter = Some(gt(col(3), lit(100)));
    // Written against the scan's output: 0 = f_a, 1 = f_val.
    let entries = || vec![("v2", mul(col(1), lit(2))), ("a", col(0))];

    // Project over a scan that only selects columns: one scan whose
    // entries read the relation (f_a = 1, f_val = 3).
    let logical = LogicalPlan::scan("fact", s.fact.clone(), filter.clone(), &["f_a", "f_val"])
        .project(entries());
    let lowered = planner.plan(&logical);
    let Plan::Scan {
        filter: got_filter,
        project,
        ..
    } = &lowered
    else {
        panic!("expected a single scan, got {}", lowered.label());
    };
    // `Expr` has no `PartialEq`; its `Debug` form is structural.
    assert_eq!(format!("{got_filter:?}"), format!("{filter:?}"));
    let want = [("v2", mul(col(3), lit(2))), ("a", col(1))];
    assert_eq!(
        format!("{project:?}"),
        format!("{:?}", want.map(|(n, e)| (n.to_owned(), e)))
    );
    let unfolded = Plan::scan(s.fact.clone(), filter.clone(), &["f_a", "f_val"]).map(entries());
    assert_eq!(
        normalized(&run(&env, lowered)),
        normalized(&run(&env, unfolded))
    );

    // Project over a filter stays a map.
    let logical = LogicalPlan::scan("fact", s.fact.clone(), None, &["f_a", "f_val"])
        .filter(gt(col(1), lit(100)))
        .project(entries());
    let lowered = planner.plan(&logical);
    assert!(
        matches!(&lowered, Plan::Map { input, .. } if matches!(**input, Plan::Filter { .. })),
        "got {}",
        lowered.label()
    );
    let oracle = Plan::scan(s.fact.clone(), None, &["f_a", "f_val"])
        .filter(gt(col(1), lit(100)))
        .map(entries());
    assert_eq!(
        normalized(&run(&env, lowered)),
        normalized(&run(&env, oracle))
    );

    // Project over a scan with a computed projection stays a map.
    let computed = LogicalPlan::Scan {
        table: "fact".to_owned(),
        relation: s.fact.clone(),
        filter: filter.clone(),
        project: vec![
            ("f_a".to_owned(), col(1)),
            ("w".to_owned(), add(col(3), lit(1))),
        ],
    };
    let lowered = planner.plan(&computed.project(entries()));
    assert!(
        matches!(&lowered, Plan::Map { input, .. } if matches!(**input, Plan::Scan { .. })),
        "got {}",
        lowered.label()
    );
    let oracle = Plan::scan_project(
        s.fact.clone(),
        filter,
        vec![("f_a", col(1)), ("w", add(col(3), lit(1)))],
    )
    .map(entries());
    assert_eq!(
        normalized(&run(&env, lowered)),
        normalized(&run(&env, oracle))
    );
}

/// Keys are positions, so join inputs may share column names: `l` and
/// `r` both expose `k`, the block's third input `t` too, and the semi
/// join's build side `s` calls its key `k` as well. Keys spelled by name
/// could not say which `k` they meant, so such a block was refused.
#[test]
fn inputs_that_share_a_column_name_join_by_position() {
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let n = 3_000i64;
    // `k`, and a value column computed from it.
    let keyed = |keys: Vec<i64>, name, value: fn(i64) -> i64| {
        let values = keys.iter().map(|&k| value(k)).collect();
        rel(
            &topo,
            vec![("k", Column::I64(keys)), (name, Column::I64(values))],
        )
    };
    let l = keyed((0..n).collect(), "v", |x| x % 11);
    let r = keyed((0..n).step_by(2).collect(), "w", |x| x % 7);
    let t = keyed((0..5).collect(), "x", |x| 10 * x + 1);
    let s = rel(&topo, vec![("k", Column::I64((0..n).step_by(3).collect()))]);

    // Block columns: l.k 0, l.v 1, r.k 2, r.w 3, t.k 4, t.x 5.
    let scan =
        |name, rel: &Arc<Relation>, cols: &[&str]| LogicalPlan::scan(name, rel.clone(), None, cols);
    let block = scan("l", &l, &["k", "v"])
        .join(scan("r", &r, &["k", "w"]), &[0], &[0])
        .join(scan("t", &t, &["k", "x"]), &[3], &[0]);
    assert_eq!(block.schema().names(), vec!["k", "v", "k", "w", "k", "x"]);
    let logical = block
        .join_kind(scan("s", &s, &["k"]), &[2], &[0], JoinKind::Semi)
        .aggregate(&[1], vec![("total", AggFn::SumI64(5)), ("n", AggFn::Count)]);

    let oracle = Plan::scan(l, None, &["k", "v"])
        .join(Plan::scan(r, None, &["k", "w"]), &["k"], &["k"], &["w"])
        .join(Plan::scan(t, None, &["k", "x"]), &["w"], &["k"], &["x"])
        .join_kind(
            Plan::scan(s, None, &["k"]),
            &["k"],
            &["k"],
            &[],
            JoinKind::Semi,
        )
        .agg(
            &["v"],
            vec![("total", AggFn::SumI64(3)), ("n", AggFn::Count)],
        );

    let got = normalized(&run(&env, Planner::new(&topo).plan(&logical)));
    let want = normalized(&run(&env, oracle));
    assert!(want.rows() > 0, "the oracle finds rows");
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random star shapes: the planner's chosen order always returns the
    /// oracle's rows, whatever order it picked.
    #[test]
    fn random_star_equivalence(
        n in 500i64..4_000,
        na in 3i64..60,
        nb in 2i64..25,
        seed in 0i64..1_000,
    ) {
        let topo = Topology::nehalem_ex();
        let env = ExecEnv::new(topo.clone());
        let s = star(&topo, n, na, nb, seed);

        let logical = star_aggregate(star_join(&s, None));

        let oracle = Plan::scan(s.fact.clone(), None, &["f_a", "f_b", "f_val"])
            .join(
                Plan::scan(s.dim_a.clone(), None, &["a_id", "a_grp"]),
                &["f_a"],
                &["a_id"],
                &["a_grp"],
            )
            .join(
                Plan::scan(s.dim_b.clone(), None, &["b_id", "b_grp"]),
                &["f_b"],
                &["b_id"],
                &["b_grp"],
            )
            .agg(
                &["a_grp", "b_grp"],
                vec![("total", AggFn::SumI64(2)), ("n", AggFn::Count)],
            );

        // No sort in the plan: compare as multisets.
        let got = normalized(&run(&env, Planner::new(&topo).plan(&logical)));
        let want = normalized(&run(&env, oracle));
        prop_assert_eq!(got, want);
    }
}
