//! `repro` — regenerate any table or figure from the paper.
//!
//! Usage:
//! ```text
//! repro [--scale SF] [--ssb-scale SF] [--workers N] [--morsel N] [--quick]
//!       [--db tpch|ssb] <experiment>...
//! experiments: fig6 fig11 table1 table2 table3 summary numa_placement
//!              numa_micro fig12 fig13 interference all
//! extras:      plan_quality  (cost-based planner vs hand-authored plans)
//!              explain <q>   (planner join order + est/actual rows of a
//!                             SQL fixture, e.g. `explain q5` or
//!                             `explain ssb2.1`; exits 2, listing the
//!                             fixtures, on an id that has none)
//!              explain --sql "<text>"  (same, for any SQL query)
//!              sql "<text>"  (parse, bind, plan, and execute SQL text
//!                             against the generated DB; `--db` picks
//!                             TPC-H (default) or SSB; `--repeat N` re-runs
//!                             through the plan cache and reports each
//!                             run's hit/miss)
//! ```
//!
//! Observability commands:
//! ```text
//! repro sql --analyze "<text>"   est-vs-actual rows + per-operator runtime
//!                                profile from one profiled execution
//! repro explain --analyze <q>    same profile detail for a fixture query
//! repro metrics                  run a short service workload, print its
//!                                metrics in Prometheus text format
//!                                (self-validated; exits non-zero if bad)
//! repro trace <q> [--out FILE]   run <q>'s hand plan through the query
//!                                service and export query/pipeline/morsel
//!                                spans as Chrome-trace JSON (default
//!                                trace_<q>.json); exits 2, listing the
//!                                hand plans, on an id that has none
//! ```
//!
//! Write-path commands:
//! ```text
//! repro txn                      guided demo of the durable write path:
//!                                SQL DML auto-commit, cache-coherent
//!                                reads, and a crash-and-recover smoke
//! repro recovery_smoke           seeded workload killed by crash@lsn at
//!                                three points, recovered, and diffed
//!                                against an uncrashed oracle; exits
//!                                non-zero (leaving recovery_artifacts/)
//!                                on any divergence — CI's recovery job
//! ```
//!
//! `sql` and `explain --sql` exit non-zero on any parse/bind error,
//! printing the caret diagnostic — CI's smoke step relies on that. A
//! numeric flag without a number, or an experiment name `repro` does not
//! know, exits 2 before anything runs.
//!
//! Wall-clock behaviour under load is measured by `benchmark/`, not here.

use std::num::NonZeroUsize;
use std::str::FromStr;

use morsel_bench::experiments::{self, ExpConfig};
use morsel_bench::SqlDb;

enum ExplainTarget {
    Query(String),
    Sql(String),
}

fn main() {
    let mut cfg = ExpConfig::default();
    let mut experiments_to_run: Vec<String> = Vec::new();
    let mut explain_targets: Vec<ExplainTarget> = Vec::new();
    let mut sql_texts: Vec<String> = Vec::new();
    let mut db = SqlDb::Tpch;
    let mut repeat = NonZeroUsize::MIN;
    let mut trace_queries: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "explain" => {
                let mut target = args.next().expect("explain needs a query, e.g. q5");
                if target == "--analyze" {
                    cfg.analyze = true;
                    target = args.next().expect("explain --analyze needs a query");
                }
                if target == "--sql" {
                    explain_targets.push(ExplainTarget::Sql(
                        args.next().expect("explain --sql needs a query string"),
                    ));
                } else {
                    explain_targets.push(ExplainTarget::Query(target));
                }
            }
            "trace" => {
                trace_queries.push(args.next().expect("trace needs a query, e.g. q6"));
            }
            "--out" => {
                trace_out = Some(args.next().expect("--out needs a file path"));
            }
            "--analyze" => cfg.analyze = true,
            "sql" => {
                let mut text = args.next().expect("sql needs a query string");
                if text == "--analyze" {
                    cfg.analyze = true;
                    text = args.next().expect("sql --analyze needs a query string");
                }
                sql_texts.push(text);
            }
            "--db" => {
                db = match args.next().expect("--db needs tpch or ssb").as_str() {
                    "tpch" => SqlDb::Tpch,
                    "ssb" => SqlDb::Ssb,
                    other => {
                        eprintln!("--db must be tpch or ssb, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--scale" => cfg.scale = number(&arg, args.next()),
            "--ssb-scale" => cfg.ssb_scale = number(&arg, args.next()),
            "--workers" => cfg.workers = number(&arg, args.next()),
            "--repeat" => repeat = number(&arg, args.next()),
            "--morsel" => cfg.morsel_size = number(&arg, args.next()),
            "--quick" => {
                let q = ExpConfig::quick();
                cfg.quick = true;
                cfg.scale = q.scale.min(cfg.scale);
                cfg.ssb_scale = q.ssb_scale.min(cfg.ssb_scale);
            }
            other => experiments_to_run.push(other.to_owned()),
        }
    }
    if experiments_to_run.is_empty()
        && explain_targets.is_empty()
        && sql_texts.is_empty()
        && trace_queries.is_empty()
    {
        eprintln!(
            "usage: repro [--scale SF] [--ssb-scale SF] [--workers N] [--morsel N] [--quick] \
             [--db tpch|ssb] <experiment>...\n\
             experiments: {}\n\
             extras: plan_quality | explain [--analyze] <q> | explain --sql \"<text>\"\n\
             \x20       sql [--analyze] \"<text>\" [--repeat N] (full text -> plan -> execute)\n\
             \x20       metrics (Prometheus exposition of a short service run)\n\
             \x20       trace <q> [--out FILE] (Chrome-trace JSON span export)\n\
             \x20       txn (write-path demo)\n\
             \x20       recovery_smoke (crash@lsn sweep vs oracle; CI gate)",
            ALL.join(" ")
        );
        std::process::exit(2);
    }
    // Every name is checked before anything runs: a typo costs no work
    // and prints nothing but the error.
    let mut names = experiments_to_run.iter();
    if let Some(name) = names.find(|e| *e != "all" && experiment(e).is_none()) {
        eprintln!("unknown experiment {name:?}");
        std::process::exit(2);
    }
    // Every SQL statement in one invocation shares `--db`; generate the
    // database once and bind them all against the same catalog.
    let needs_sql = !sql_texts.is_empty()
        || explain_targets
            .iter()
            .any(|t| matches!(t, ExplainTarget::Sql(_)));
    let sql_catalog = needs_sql.then(|| morsel_bench::sql_catalog(&cfg, db));
    let fail = |diag: String| -> ! {
        eprintln!("{diag}");
        std::process::exit(1);
    };
    let unknown = |ids: String| -> ! {
        eprintln!("{ids}");
        std::process::exit(2);
    };
    for target in &explain_targets {
        match target {
            ExplainTarget::Query(q) => match morsel_bench::explain_query(&cfg, q) {
                Ok(out) => println!("{out}"),
                Err(ids) => unknown(ids),
            },
            ExplainTarget::Sql(text) => {
                let (catalog, scale) = sql_catalog.as_ref().unwrap();
                match morsel_bench::explain_sql_in(&cfg, "sql", catalog, *scale, text) {
                    Ok(out) => println!("{out}"),
                    Err(diag) => fail(diag),
                }
            }
        }
    }
    for text in &sql_texts {
        let (catalog, scale) = sql_catalog.as_ref().unwrap();
        match morsel_bench::run_sql_in(&cfg, db, catalog, *scale, text, repeat.get()) {
            Ok(out) => println!("{out}"),
            Err(diag) => fail(diag),
        }
    }
    for q in &trace_queries {
        let (summary, json) = morsel_bench::trace_query(&cfg, q).unwrap_or_else(|ids| unknown(ids));
        let path = trace_out
            .clone()
            .unwrap_or_else(|| format!("trace_{}.json", q.replace('.', "_")));
        if let Err(e) = std::fs::write(&path, &json) {
            fail(format!("trace: cannot write {path}: {e}"));
        }
        print!("{summary}");
        println!("chrome trace written to {path} ({} bytes)", json.len());
    }
    let list: Vec<&str> = if experiments_to_run.iter().any(|e| e == "all") {
        ALL.to_vec()
    } else {
        experiments_to_run.iter().map(String::as_str).collect()
    };
    for exp in list {
        let run = experiment(exp).expect("experiment names are checked before anything runs");
        let started = std::time::Instant::now();
        let report = run(&cfg).unwrap_or_else(|e| fail(e));
        println!("{report}");
        println!(
            "[{exp} regenerated in {:.1}s wall time]\n",
            started.elapsed().as_secs_f64()
        );
    }
}

/// The paper's figures and tables, in the order `repro all` runs them.
const ALL: [&str; 11] = [
    "fig6",
    "numa_micro",
    "summary",
    "table1",
    "table2",
    "table3",
    "numa_placement",
    "fig11",
    "fig12",
    "fig13",
    "interference",
];

/// An experiment's entry point: its report, or the diagnostic it fails
/// with (exit 1).
type Experiment = fn(&ExpConfig) -> Result<String, String>;

/// The experiment `name` names; `None` when `repro` has none by that name.
fn experiment(name: &str) -> Option<Experiment> {
    let run: Experiment = match name {
        "fig6" => |cfg| Ok(experiments::fig6(cfg)),
        "fig11" => |cfg| Ok(experiments::fig11(cfg)),
        "table1" => |cfg| Ok(experiments::table1(cfg)),
        "table2" => |cfg| Ok(experiments::table2(cfg)),
        "table3" => |cfg| Ok(experiments::table3(cfg)),
        "summary" => |cfg| Ok(experiments::summary(cfg)),
        "numa_placement" => |cfg| Ok(experiments::numa_placement(cfg)),
        "numa_micro" => |_| Ok(experiments::numa_micro()),
        "fig12" => |cfg| Ok(experiments::fig12(cfg)),
        "fig13" => |cfg| Ok(experiments::fig13(cfg)),
        "interference" => |cfg| Ok(experiments::interference(cfg)),
        "plan_quality" => |cfg| Ok(morsel_bench::plan_quality(cfg)),
        "txn" => |cfg| Ok(morsel_bench::txn_demo(cfg)),
        "recovery_smoke" => morsel_bench::recovery_smoke,
        "metrics" => morsel_bench::metrics_snapshot,
        _ => return None,
    };
    Some(run)
}

/// The value after the numeric flag `flag`. Exits 2, naming the flag,
/// when the value is missing or does not parse.
fn number<T: FromStr>(flag: &str, value: Option<String>) -> T {
    let value = value.unwrap_or_default();
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a number, got {value:?}");
        std::process::exit(2);
    })
}
