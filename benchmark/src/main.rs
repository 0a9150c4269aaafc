//! The repo's benchmark harness: four workloads over the engine's
//! public calls, timed from outside. See README.md beside this crate
//! for what each workload is for and how to read the numbers, and
//! BENCHMARK.json at the repo root for the contract.
//!
//! ```text
//! morsel-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!                  [--smoke] [--self-test]
//! ```
//!
//! `--trace 0` is the end-to-end run; `--trace 1` is the separate
//! traced run that produces the per-layer numbers. Either prints its
//! metrics by name and, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod analytic;
mod engine;
mod json;
mod kinds;
mod layers;
mod measure;
mod priority;
mod trace;
mod write;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

/// The workloads, by the names BENCHMARK.json gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AnalyticWarm,
    ShortAdhoc,
    PriorityMix,
    WriteMix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("analytic_warm", Workload::AnalyticWarm),
        ("short_adhoc", Workload::ShortAdhoc),
        ("priority_mix", Workload::PriorityMix),
        ("write_mix", Workload::WriteMix),
    ];

    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    /// 2 s window, SF 0.002 everywhere, one set-up: a functional check,
    /// not a measurement.
    pub smoke: bool,
    /// Corrupt one expected result; the run must then report failures.
    pub self_test: bool,
    /// Service worker threads: the host's parallelism.
    pub workers: usize,
}

impl Config {
    /// Scale factor to generate at: `full`, or the smoke size.
    pub fn scale(&self, full: f64) -> f64 {
        if self.smoke {
            0.002
        } else {
            full
        }
    }

    /// Segments of an end-to-end run. Each sets up from scratch and
    /// measures an equal share of the window; the samples are pooled and
    /// `setup_s` is the median set-up time. One process's memory layout
    /// is luckier than another's by several percent, so a run that pools
    /// three layouts repeats better than one that measures a single one
    /// three times as long.
    pub fn segments(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Length of one segment's timed window.
    pub fn segment_seconds(&self) -> f64 {
        self.seconds / self.segments() as f64
    }

    /// Samples the foreground class needs before `p95_ms` means much.
    pub fn min_p95_samples(&self) -> usize {
        if self.smoke {
            1
        } else {
            200
        }
    }

    pub fn results_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
    }

    /// Scratch space for the write workload's database directories:
    /// inside the harness's own directory, never the system temp dir.
    pub fn scratch_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".scratch")
    }
}

/// A named, unit-carrying number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// What a run hands back to `main` for printing.
pub struct Report {
    pub attempted: u64,
    /// Failed + rejected + cancelled + wrong-result statements, after
    /// the one retry a SELECT gets.
    pub failed: u64,
    /// SELECTs whose first attempt failed or was wrong and that were
    /// run again: the dispatcher race's count (0 on a healthy engine).
    pub retried: u64,
    /// Every end-state check passed (`write_mix`: the shadow model's
    /// totals, before shutdown and after recovery).
    pub end_state_ok: bool,
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics (sample counts, lateness…).
    pub notes: Vec<String>,
    /// Body of `results/<workload>.json` (per-kind detail).
    pub detail: Json,
}

/// The inputs of the end-to-end metrics, as a workload measured them.
pub struct EndToEnd {
    pub setup_s: f64,
    pub geomean_ms: f64,
    pub p95_ms: f64,
    /// Completed statements of the bulk class (`throughput_per_s`).
    pub bulk_completed: u64,
    /// Completed statements of every class (`cpu_ms_per_stmt`).
    pub completed: u64,
    pub window_s: f64,
    /// Process CPU over the window.
    pub cpu_ms: f64,
    /// `VmHWM` when the first segment ends: one database's life in the
    /// process. What later segments add on top is the allocator holding
    /// on to a torn-down set-up's memory — the harness's doing, and
    /// bimodal from run to run.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics, by the names BENCHMARK.json fixes.
/// `failed_frac` is not among them: it is 0 on every correct run, which
/// the contract's relative bounds cannot hold, so it travels as the
/// result line's `failed` / `attempted` and is printed beside the
/// metrics.
pub fn end_to_end_metrics(e: &EndToEnd) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", e.setup_s),
        Metric::new("geomean_ms", "ms", e.geomean_ms),
        Metric::new("p95_ms", "ms", e.p95_ms),
        Metric::new(
            "throughput_per_s",
            "1/s",
            e.bulk_completed as f64 / e.window_s,
        ),
        Metric::new(
            "cpu_ms_per_stmt",
            "ms",
            e.cpu_ms / e.completed.max(1) as f64,
        ),
        Metric::new("peak_rss_mb", "MB", e.peak_rss_mb),
    ]
}

const USAGE: &str =
    "usage: morsel-benchmark --workload <analytic_warm|short_adhoc|priority_mix|write_mix> \
--seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke] [--self-test]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut smoke = false;
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, w)| *w)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => smoke = true,
            "--self-test" => self_test = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if smoke { 2.0 } else { seconds },
        trace,
        smoke,
        self_test,
        workers: measure::nproc(),
    })
}

fn run(cfg: &Config) -> Result<Report, String> {
    match (cfg.workload, cfg.trace) {
        (Workload::AnalyticWarm | Workload::ShortAdhoc, false) => analytic::run(cfg),
        (Workload::AnalyticWarm | Workload::ShortAdhoc, true) => analytic::trace(cfg),
        (Workload::PriorityMix, false) => priority::run(cfg),
        (Workload::PriorityMix, true) => priority::trace(cfg),
        (Workload::WriteMix, false) => write::run(cfg),
        (Workload::WriteMix, true) => write::trace(cfg),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {}  seed {}  window {} s  {}  workers {}{}{}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        if cfg.trace {
            "traced run"
        } else {
            "end-to-end run"
        },
        cfg.workers,
        if cfg.smoke { "  [smoke]" } else { "" },
        if cfg.self_test { "  [self-test]" } else { "" },
    );
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("run failed: {why}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    // Until the dispatcher's finish race (ROADMAP open item 1) is
    // fixed, about one SELECT in a few thousand fails or returns wrong
    // rows; the engine module runs it again and `retried` counts it. A
    // statement that fails twice is not that race.
    let correct = report.end_state_ok && report.failed == 0;
    println!(
        "attempted {}  failed {}  failed_frac {failed_frac:.6}  retried {}  correct {correct}",
        report.attempted, report.failed, report.retried
    );
    for m in &report.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !cfg.trace {
        let dir = Config::results_dir();
        let path = dir.join(format!("{}.json", cfg.workload.name()));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, format!("{}\n", report.detail)))
        {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted.max(1))),
        ("failed", Json::Int(report.failed)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{line}");
    ExitCode::SUCCESS
}
