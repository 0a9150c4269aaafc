//! `repro` — regenerate any table or figure from the paper.
//!
//! Usage:
//! ```text
//! repro [--scale SF] [--ssb-scale SF] [--workers N] [--morsel N] [--quick]
//!       [--db tpch|ssb] <experiment>...
//! experiments: fig6 fig11 table1 table2 table3 summary numa_placement
//!              numa_micro fig12 fig13 interference all
//! extras:      service_load  (wall-clock serving scenario; not part of "all")
//!              service_load_zipf  (skewed SQL replay through the plan/result
//!                             caches, one row per caching mode)
//!              plan_quality  (cost-based planner vs hand-authored plans)
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
//! repro <experiment> --json      also write RESULT lines to
//!                                BENCH_observability.json
//! ```
//!
//! Write-path commands:
//! ```text
//! repro txn                      guided demo of the durable write path:
//!                                SQL DML auto-commit, cache-coherent
//!                                reads, and a crash-and-recover smoke
//! repro txn_bench [--json]       RESULT lines: commits/s and group-commit
//!                                batch size per client count, recovery
//!                                time vs WAL length; --json writes them
//!                                to BENCH_txn.json
//! repro recovery_smoke           seeded workload killed by crash@lsn at
//!                                three points, recovered, and diffed
//!                                against an uncrashed oracle; exits
//!                                non-zero (leaving recovery_artifacts/)
//!                                on any divergence — CI's recovery job
//! ```
//!
//! `sql` and `explain --sql` exit non-zero on any parse/bind error,
//! printing the caret diagnostic — CI's smoke step relies on that.

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
    let mut repeat = 1usize;
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
            "--json" => cfg.json = true,
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
            "--scale" => {
                cfg.scale = args.next().expect("--scale needs a value").parse().unwrap();
            }
            "--ssb-scale" => {
                cfg.ssb_scale = args
                    .next()
                    .expect("--ssb-scale needs a value")
                    .parse()
                    .unwrap();
            }
            "--workers" => {
                cfg.workers = args
                    .next()
                    .expect("--workers needs a value")
                    .parse()
                    .unwrap();
            }
            "--repeat" => {
                repeat = args
                    .next()
                    .expect("--repeat needs a value")
                    .parse()
                    .expect("--repeat must be a positive integer");
                assert!(repeat > 0, "--repeat must be at least 1");
            }
            "--morsel" => {
                cfg.morsel_size = args
                    .next()
                    .expect("--morsel needs a value")
                    .parse()
                    .unwrap();
            }
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
            "usage: repro [--scale SF] [--workers N] [--morsel N] [--quick] \
             [--db tpch|ssb] <experiment>...\n\
             experiments: fig6 fig11 table1 table2 table3 summary numa_placement\n\
             \x20            numa_micro fig12 fig13 interference all\n\
             extras: service_load (wall-clock serving scenario)\n\
             \x20       service_load_zipf (skewed replay through the caches)\n\
             \x20       plan_quality | explain [--analyze] <q> | explain --sql \"<text>\"\n\
             \x20       sql [--analyze] \"<text>\" [--repeat N] (full text -> plan -> execute)\n\
             \x20       metrics (Prometheus exposition of a short service run)\n\
             \x20       trace <q> [--out FILE] (Chrome-trace JSON span export)\n\
             \x20       txn (write-path demo) | txn_bench [--json -> BENCH_txn.json]\n\
             \x20       recovery_smoke (crash@lsn sweep vs oracle; CI gate)\n\
             \x20       adaptive (feedback replay; --json -> BENCH_adaptive.json)\n\
             \x20       --json (write RESULT lines to BENCH_observability.json)"
        );
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
        match morsel_bench::run_sql_in(&cfg, db, catalog, *scale, text, repeat) {
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
    let all = [
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
    let list: Vec<&str> = if experiments_to_run.iter().any(|e| e == "all") {
        all.to_vec()
    } else {
        experiments_to_run.iter().map(String::as_str).collect()
    };
    let mut json_reports: Vec<(String, String)> = Vec::new();
    for exp in list {
        let started = std::time::Instant::now();
        let report = match exp {
            "fig6" => experiments::fig6(&cfg),
            "fig11" => experiments::fig11(&cfg),
            "table1" => experiments::table1(&cfg),
            "table2" => experiments::table2(&cfg),
            "table3" => experiments::table3(&cfg),
            "summary" => experiments::summary(&cfg),
            "numa_placement" => experiments::numa_placement(&cfg),
            "numa_micro" => experiments::numa_micro(),
            "fig12" => experiments::fig12(&cfg),
            "fig13" => experiments::fig13(&cfg),
            "interference" => experiments::interference(&cfg),
            "service_load" => morsel_bench::service_load(&cfg),
            "service_load_zipf" => morsel_bench::service_load_zipf(&cfg),
            "plan_quality" => morsel_bench::plan_quality(&cfg),
            "adaptive" => morsel_bench::adaptive(&cfg),
            "txn" => morsel_bench::txn_demo(&cfg),
            "txn_bench" => morsel_bench::txn_bench(&cfg),
            "recovery_smoke" => match morsel_bench::recovery_smoke(&cfg) {
                Ok(text) => text,
                Err(e) => fail(e),
            },
            "metrics" => match morsel_bench::metrics_snapshot(&cfg) {
                Ok(text) => text,
                Err(e) => fail(e),
            },
            other => {
                eprintln!("unknown experiment {other:?}");
                std::process::exit(2);
            }
        };
        println!("{report}");
        println!(
            "[{exp} regenerated in {:.1}s wall time]\n",
            started.elapsed().as_secs_f64()
        );
        if cfg.json {
            json_reports.push((exp.to_owned(), report));
        }
    }
    if cfg.json && !json_reports.is_empty() {
        // Write-path numbers go to their own document so reruns of the
        // observability experiments don't clobber them (and vice versa).
        let (txn_reports, rest): (Vec<_>, Vec<_>) = json_reports
            .into_iter()
            .partition(|(name, _)| name == "txn_bench");
        if !txn_reports.is_empty() {
            match morsel_bench::write_bench_json_to("BENCH_txn.json", &txn_reports) {
                Ok(()) => println!("machine-readable results written to BENCH_txn.json"),
                Err(e) => fail(format!("--json: cannot write BENCH_txn.json: {e}")),
            }
        }
        // Likewise the adaptive replay: its document is a CI artifact of
        // its own job, so it never clobbers the observability numbers.
        let (adaptive_reports, other_reports): (Vec<_>, Vec<_>) =
            rest.into_iter().partition(|(name, _)| name == "adaptive");
        if !adaptive_reports.is_empty() {
            match morsel_bench::write_bench_json_to("BENCH_adaptive.json", &adaptive_reports) {
                Ok(()) => println!("machine-readable results written to BENCH_adaptive.json"),
                Err(e) => fail(format!("--json: cannot write BENCH_adaptive.json: {e}")),
            }
        }
        if !other_reports.is_empty() {
            match morsel_bench::write_bench_json(&other_reports) {
                Ok(path) => println!("machine-readable results written to {path}"),
                Err(e) => fail(format!("--json: cannot write results: {e}")),
            }
        }
    }
}
