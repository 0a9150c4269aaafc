//! Planner-vs-oracle comparison (`repro plan_quality`) and the
//! `repro explain` / `repro sql` commands.
//!
//! For every query that exists both as a hand plan and as a SQL fixture,
//! `plan_quality` binds the text, plans it with the cost-based planner and
//! compares the result against the hand plan on equal footing: both are
//! priced from the charges their operators book, at the same estimates
//! (`plan_cost`), and both are run in the virtual-time executor
//! (simulated wall clock), across scale factors. `explain` prints one query's chosen join order
//! and per-operator estimated vs. actual cardinalities, optd-demo style.

use morsel_core::{ExecEnv, QueryProfile};
use morsel_exec::plan::Plan;
use morsel_exec::SystemVariant;
use morsel_numa::Topology;
use morsel_planner::{explain, plan_cost, Estimator, Planner};
use morsel_queries::{format_rows, run_sim, ssb_queries, ssb_sql, tpch_queries, tpch_sql};
use morsel_storage::Catalog;

use crate::experiments::ExpConfig;
use crate::report::{ratio, secs, Table};

/// Queries compared at each scale factor: the TPC-H fixtures plus SSB
/// representatives of each join-depth class.
const SSB_PICKS: [&str; 4] = ["2.1", "3.1", "4.1", "4.3"];

struct Pair {
    name: String,
    oracle: Plan,
    lowered: Plan,
    order: String,
}

fn pairs(topo: &Topology, scale: f64, ssb_scale: f64) -> Vec<Pair> {
    let planner = Planner::new(topo);
    let tpch = morsel_datagen::generate_tpch(morsel_datagen::TpchConfig::scaled(scale), topo);
    let ssb = morsel_datagen::generate_ssb(morsel_datagen::SsbConfig::scaled(ssb_scale), topo);
    let pair = |name: String, catalog: &Catalog, sql: &str, oracle: Plan| {
        let logical = morsel_sql::plan_sql(catalog, sql)
            .unwrap_or_else(|e| panic!("{name}: fixture failed to bind\n{}", e.render(sql)));
        let (lowered, report) = planner.plan_with_report(&logical);
        Pair {
            name,
            oracle,
            lowered,
            order: widest_order(&report),
        }
    };
    let (tpch_catalog, ssb_catalog) = (tpch.catalog(), ssb.catalog());
    let mut out = Vec::new();
    for (q, sql) in tpch_sql::all() {
        let oracle = tpch_queries::query(&tpch, q);
        out.push(pair(format!("Q{q}"), &tpch_catalog, sql, oracle));
    }
    for id in SSB_PICKS {
        let sql = ssb_sql::text(id).expect("picked from the SSB fixtures");
        let oracle = ssb_queries::query(&ssb, id);
        out.push(pair(format!("SSB{id}"), &ssb_catalog, sql, oracle));
    }
    out
}

/// The join order of a plan's widest block (`-` without one).
pub(crate) fn widest_order(report: &morsel_planner::PlanReport) -> String {
    report
        .blocks
        .iter()
        .max_by_key(|b| b.leaves.len())
        .map(|b| b.order.clone())
        .unwrap_or_else(|| "-".to_owned())
}

/// The `plan_quality` experiment.
pub fn plan_quality(cfg: &ExpConfig) -> String {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let planner = Planner::new(&topo);
    // Sweep both workloads' scale factors together (quarter scale, then
    // the configured scale), honoring --scale and --ssb-scale.
    let scales: Vec<(f64, f64)> = if cfg.quick {
        vec![(cfg.scale, cfg.ssb_scale)]
    } else {
        vec![
            (cfg.scale / 4.0, cfg.ssb_scale / 4.0),
            (cfg.scale, cfg.ssb_scale),
        ]
    };
    let mut out = String::from(
        "plan_quality: cost-based planner vs hand-authored plans\n\
         (cost = virtual ns of the operators' charges at estimated counts; \n\
         time = virtual-time executor seconds, 16 workers)\n\n",
    );
    for &(sf, ssb_sf) in &scales {
        let mut table = Table::new(&[
            "query",
            "cost hand",
            "cost plan",
            "ratio",
            "time hand",
            "time plan",
            "speedup",
        ]);
        let mut wins = 0usize;
        let mut total = 0usize;
        let mut orders: Vec<(String, String)> = Vec::new();
        for p in pairs(&topo, sf, ssb_sf) {
            let ch = plan_cost(&planner.params, &planner.estimator, &p.oracle);
            let cp = plan_cost(&planner.params, &planner.estimator, &p.lowered);
            let th = run_sim(
                &env,
                &format!("{}-hand", p.name),
                p.oracle,
                SystemVariant::full(),
                16,
                cfg.morsel_size,
            )
            .seconds();
            let tp = run_sim(
                &env,
                &format!("{}-plan", p.name),
                p.lowered,
                SystemVariant::full(),
                16,
                cfg.morsel_size,
            )
            .seconds();
            total += 1;
            if cp <= ch * 1.000_001 {
                wins += 1;
            }
            if p.order != "-" {
                orders.push((p.name.clone(), p.order.clone()));
            }
            table.row(vec![
                p.name.clone(),
                format!("{:.2e}", ch),
                format!("{:.2e}", cp),
                ratio(ch / cp),
                secs(th),
                secs(tp),
                ratio(th / tp),
            ]);
        }
        out.push_str(&format!("TPC-H SF {sf} / SSB SF {ssb_sf}\n"));
        out.push_str(&table.render());
        out.push_str(&format!(
            "planner cost <= hand cost on {wins}/{total} queries\n"
        ));
        if (sf, ssb_sf) == *scales.last().unwrap() {
            out.push_str("\nchosen join orders (probe side first):\n");
            for (name, order) in &orders {
                out.push_str(&format!("  {name:>7}: {order}\n"));
            }
        }
        out.push('\n');
    }
    out
}

/// A query id as `repro explain` and `repro trace` take it: `q5`/`5`
/// (TPC-H) or `ssb2.1`/`2.1` (SSB). Parsed once here; each command then
/// checks it against the queries it can serve.
pub(crate) enum QueryId {
    Tpch(usize),
    Ssb(String),
}

impl QueryId {
    pub(crate) fn parse(query: &str) -> Result<Self, String> {
        let spec = query.trim().to_lowercase();
        let ssb_id = spec
            .strip_prefix("ssb")
            .or_else(|| spec.contains('.').then_some(spec.as_str()));
        if let Some(id) = ssb_id {
            return Ok(QueryId::Ssb(id.to_owned()));
        }
        (spec.strip_prefix('q').unwrap_or(&spec))
            .parse()
            .map(QueryId::Tpch)
            .map_err(|_| format!("unrecognized query {query:?}; try q5 or ssb2.1"))
    }

    /// `Err` naming `what` is missing for this id, and the ids that have
    /// one: TPC-H numbers and SSB ids, in that order.
    pub(crate) fn missing(&self, what: &str, tpch: &[usize], ssb: &[&str]) -> String {
        let (id, all): (String, Vec<String>) = match self {
            QueryId::Tpch(n) => (
                format!("q{n}"),
                tpch.iter().map(|q| format!("q{q}")).collect(),
            ),
            QueryId::Ssb(id) => (
                format!("ssb{id}"),
                ssb.iter().map(|id| format!("ssb{id}")).collect(),
            ),
        };
        format!("no {what} for {id}; available: {}", all.join(" "))
    }
}

/// The SQL fixture `query` names, with its display name and the
/// database it runs against.
fn fixture(query: &str) -> Result<(String, SqlDb, &'static str), String> {
    let id = QueryId::parse(query)?;
    let found = match &id {
        QueryId::Ssb(q) => ssb_sql::text(q).map(|sql| (format!("SSB Q{q}"), SqlDb::Ssb, sql)),
        QueryId::Tpch(n) => tpch_sql::text(*n).map(|sql| (format!("TPC-H Q{n}"), SqlDb::Tpch, sql)),
    };
    found.ok_or_else(|| id.missing("SQL fixture", &tpch_sql::IDS, &ssb_sql::IDS))
}

/// The `repro explain <query>` command: `explain --sql` of the fixture's
/// text. `Err` names the fixtures there are when `query` is none of them.
pub fn explain_query(cfg: &ExpConfig, query: &str) -> Result<String, String> {
    let (name, db, sql) = fixture(query)?;
    let (catalog, scale) = sql_catalog(cfg, db);
    explain_sql_in(cfg, &name, &catalog, scale, sql)
}

/// Shared explain rendering: chosen join orders plus estimated vs.
/// measured per-operator cardinalities from one profiled execution.
fn render_explain(
    env: &ExecEnv,
    planner: &Planner,
    cfg: &ExpConfig,
    name: &str,
    scale: f64,
    lowered: &Plan,
    report: &morsel_planner::PlanReport,
) -> String {
    let mut out = format!("explain {name} (scale {scale}, workers 16)\n\n");
    for (i, b) in report.blocks.iter().enumerate() {
        out.push_str(&format!(
            "join block {}: {} relation(s), estimated block cost {:.2e} ns{}\n  order: {}\n",
            i + 1,
            b.leaves.len(),
            b.cost,
            if b.forced_cross {
                " (cross product forced)"
            } else {
                ""
            },
            b.order
        ));
    }

    let run = run_sim(
        env,
        "explain-analyze",
        lowered.clone(),
        SystemVariant::full(),
        16,
        cfg.morsel_size,
    );
    out.push('\n');
    out.push_str(&render_analyze(
        lowered,
        &planner.estimator,
        run.profile.as_ref(),
        cfg.analyze,
    ));
    out
}

/// EXPLAIN ANALYZE from ONE profiled execution of `plan`: each operator's
/// estimate beside its actual. The profile's slots follow
/// [`Plan::preorder`], as the explain lines do, so `profile.ops[i]` is
/// line `i`'s actual and both carry the same [`Plan::label`]. With
/// `runtime`, the per-operator runtime profile follows.
/// tests/planner_equivalence.rs checks the actuals against re-executing
/// each node's subtree.
fn render_analyze(
    plan: &Plan,
    estimator: &Estimator,
    profile: Option<&QueryProfile>,
    runtime: bool,
) -> String {
    let profile = profile.expect("SystemVariant::full() compiles with profiling on");
    let lines = explain::collect(plan, estimator);
    assert_eq!(
        profile.ops.len(),
        lines.len(),
        "profile slots diverge from explain lines"
    );
    let actuals: Vec<usize> = profile.ops.iter().map(|o| o.rows_out as usize).collect();
    let mut out = "operators (estimated vs actual, one profiled execution):\n".to_owned();
    out.push_str(&explain::render(&lines, Some(&actuals)));
    if runtime {
        out.push_str("runtime profile (per operator, summed over workers):\n");
        out.push_str(&profile.render());
    }
    out
}

/// Which generated database `repro sql` binds against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlDb {
    Tpch,
    Ssb,
}

/// Generate the database `repro sql` binds against and export its
/// catalog (plus the effective scale factor). Generation dominates the
/// cost of a `sql` invocation — callers issuing several statements (the
/// CLI loops, CI's chained smoke) build this once and reuse it.
pub fn sql_catalog(cfg: &ExpConfig, db: SqlDb) -> (Catalog, f64) {
    let topo = Topology::nehalem_ex();
    match db {
        SqlDb::Tpch => (
            morsel_datagen::generate_tpch(morsel_datagen::TpchConfig::scaled(cfg.scale), &topo)
                .catalog(),
            cfg.scale,
        ),
        SqlDb::Ssb => (
            morsel_datagen::generate_ssb(morsel_datagen::SsbConfig::scaled(cfg.ssb_scale), &topo)
                .catalog(),
            cfg.ssb_scale,
        ),
    }
}

/// The `repro sql "<text>"` command: lex → parse → bind → plan → execute
/// against a catalog from [`sql_catalog`]. Errors return the rendered
/// caret diagnostic so the CLI (and CI) can fail loudly. `repeat` > 1
/// re-executes through the session plan cache, reporting each run's
/// cache disposition (the second run reports a hit).
pub fn run_sql_in(
    cfg: &ExpConfig,
    db: SqlDb,
    catalog: &Catalog,
    scale: f64,
    sql: &str,
    repeat: usize,
) -> Result<String, String> {
    assert!(repeat > 0, "--repeat needs at least one run");
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let session = morsel_service::Session::builder()
        .catalog(catalog.clone())
        .topology(&topo)
        .build();

    let mut out = format!(
        "sql ({db:?} scale {scale}, workers 16)\n> {}\n\n",
        sql.trim()
    );
    for run in 1..=repeat {
        let plan_started = std::time::Instant::now();
        let (handle, disposition) = session.resolve(sql).map_err(|e| e.render(sql))?;
        let plan_wall = plan_started.elapsed();
        let started = std::time::Instant::now();
        let outcome = run_sim(
            &env,
            "sql",
            handle.plan.clone(),
            SystemVariant::full(),
            16,
            cfg.morsel_size,
        );
        let wall = started.elapsed();

        if run == 1 {
            for b in &handle.report.blocks {
                out.push_str(&format!("join order: {}\n", b.order));
            }
            if cfg.analyze {
                out.push_str(&render_analyze(
                    &handle.plan,
                    &Planner::new(&topo).estimator,
                    outcome.profile.as_ref(),
                    true,
                ));
            }
            out.push_str(&format!("columns: {}\n", handle.schema.names().join(" | ")));
            let rows = outcome.result.rows();
            for line in format_rows(&outcome.result, 20) {
                out.push_str(&format!("  {line}\n"));
            }
            if rows > 20 {
                out.push_str(&format!("  ... ({} more rows)\n", rows - 20));
            }
            out.push_str(&format!(
                "{rows} row(s); {:.1} ms simulated, {:.1} ms wall\n",
                outcome.seconds() * 1e3,
                wall.as_secs_f64() * 1e3,
            ));
        }
        if repeat > 1 {
            out.push_str(&format!(
                "run {run}: plan cache {} ({:.1} µs parse+plan), {:.1} ms simulated, \
                 {:.1} ms wall\n",
                match disposition {
                    morsel_service::CacheDisposition::Hit => "hit",
                    morsel_service::CacheDisposition::Miss => "miss",
                    morsel_service::CacheDisposition::Bypass => "bypass",
                },
                plan_wall.as_secs_f64() * 1e6,
                outcome.seconds() * 1e3,
                wall.as_secs_f64() * 1e3,
            ));
        }
    }
    if repeat > 1 {
        let stats = session.stats();
        out.push_str(&format!("{stats}\n"));
    }
    Ok(out)
}

/// The `repro explain --sql "<text>"` command, against a catalog from
/// [`sql_catalog`] and headed `name`.
pub fn explain_sql_in(
    cfg: &ExpConfig,
    name: &str,
    catalog: &Catalog,
    scale: f64,
    sql: &str,
) -> Result<String, String> {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let planner = Planner::new(&topo);
    let logical = morsel_sql::plan_sql(catalog, sql).map_err(|e| e.render(sql))?;
    let (lowered, report) = planner.plan_with_report(&logical);
    Ok(render_explain(
        &env, &planner, cfg, name, scale, &lowered, &report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_reports_join_order_and_cardinalities() {
        let cfg = ExpConfig {
            scale: 0.002,
            ssb_scale: 0.002,
            quick: true,
            ..Default::default()
        };
        let text = explain_query(&cfg, "q5").expect("Q5 has a fixture");
        assert!(text.contains("join block 1:"), "{text}");
        assert!(text.contains("⋈"));
        assert!(text.contains("actual="));
        let ssb = explain_query(&cfg, "ssb2.1").expect("SSB 2.1 has a fixture");
        assert!(ssb.contains("SSB Q2.1"));
    }

    #[test]
    fn explain_names_the_fixtures_for_an_id_it_cannot_serve() {
        let cfg = ExpConfig::default();
        let q2 = explain_query(&cfg, "q2").expect_err("Q2 is a hand plan only");
        assert!(
            q2.starts_with("no SQL fixture for q2; available: q1 q3 "),
            "{q2}"
        );
        let ssb = explain_query(&cfg, "ssb9.9").expect_err("there is no SSB 9.9");
        assert!(
            ssb.starts_with("no SQL fixture for ssb9.9; available: ssb1.1 "),
            "{ssb}"
        );
        let junk = explain_query(&cfg, "five").expect_err("not a query id");
        assert!(junk.contains("unrecognized query"), "{junk}");
    }

    /// [`run_sql_in`] on a freshly generated `db`.
    fn run_fresh(cfg: &ExpConfig, db: SqlDb, sql: &str, repeat: usize) -> Result<String, String> {
        let (catalog, scale) = sql_catalog(cfg, db);
        run_sql_in(cfg, db, &catalog, scale, sql, repeat)
    }

    #[test]
    fn run_sql_executes_text_end_to_end() {
        let cfg = ExpConfig {
            scale: 0.002,
            ssb_scale: 0.002,
            quick: true,
            ..Default::default()
        };
        let out = run_fresh(
            &cfg,
            SqlDb::Tpch,
            "SELECT l_returnflag, COUNT(*) AS n FROM lineitem \
             GROUP BY l_returnflag ORDER BY l_returnflag",
            1,
        )
        .expect("valid SQL runs");
        assert!(out.contains("columns: l_returnflag | n"), "{out}");
        assert!(out.contains("row(s)"), "{out}");

        let ssb = run_fresh(
            &cfg,
            SqlDb::Ssb,
            "SELECT d_year, SUM(lo_revenue) AS revenue FROM lineorder \
             JOIN date ON lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year",
            1,
        )
        .expect("SSB SQL runs");
        assert!(ssb.contains("join order"), "{ssb}");

        let err = run_fresh(&cfg, SqlDb::Tpch, "SELECT nope FROM lineitem", 1)
            .expect_err("unknown column must fail");
        assert!(err.contains("unknown column"), "{err}");
        assert!(err.contains('^'), "diagnostic rendered: {err}");
    }

    #[test]
    fn sql_analyze_renders_est_vs_actual_and_profile() {
        let cfg = ExpConfig {
            scale: 0.002,
            ssb_scale: 0.002,
            quick: true,
            analyze: true,
            ..Default::default()
        };
        let out = run_fresh(
            &cfg,
            SqlDb::Tpch,
            "SELECT o_orderpriority, COUNT(*) AS n FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey GROUP BY o_orderpriority ORDER BY o_orderpriority",
            1,
        )
        .expect("valid SQL runs under --analyze");
        assert!(out.contains("est="), "{out}");
        assert!(out.contains("actual="), "{out}");
        assert!(out.contains("runtime profile"), "{out}");
        assert!(out.contains("wall="), "{out}");
    }

    #[test]
    fn repeated_sql_reports_a_plan_cache_hit() {
        let cfg = ExpConfig {
            scale: 0.002,
            ssb_scale: 0.002,
            quick: true,
            ..Default::default()
        };
        let out = run_fresh(
            &cfg,
            SqlDb::Tpch,
            "SELECT SUM(l_extendedprice) AS total FROM lineitem WHERE l_quantity < 24",
            3,
        )
        .expect("valid SQL runs");
        assert!(out.contains("run 1: plan cache miss"), "{out}");
        assert!(out.contains("run 2: plan cache hit"), "{out}");
        assert!(out.contains("run 3: plan cache hit"), "{out}");
        assert!(out.contains("plan cache: 2 hit / 1 miss"), "{out}");
    }

    #[test]
    fn explain_sql_reports_cardinalities() {
        let cfg = ExpConfig {
            scale: 0.002,
            ssb_scale: 0.002,
            quick: true,
            ..Default::default()
        };
        let (catalog, scale) = sql_catalog(&cfg, SqlDb::Tpch);
        let out = explain_sql_in(
            &cfg,
            "sql",
            &catalog,
            scale,
            "SELECT o_orderpriority, COUNT(*) AS n FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey GROUP BY o_orderpriority ORDER BY o_orderpriority",
        )
        .expect("valid SQL explains");
        assert!(out.contains("join block 1:"), "{out}");
        assert!(out.contains("actual="), "{out}");
    }
}
