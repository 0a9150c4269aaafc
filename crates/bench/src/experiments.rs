//! One function per table/figure of the paper's evaluation (Section 5).
//!
//! Every experiment runs the real engine over real generated data inside
//! the deterministic virtual-time executor, so the reported numbers are
//! reproducible bit-for-bit. Scale factors default to laptop scale; the
//! *shapes* (who wins, by what factor, where curves bend) are the
//! reproduction target, not the paper's absolute values (see
//! EXPERIMENTS.md).

use std::sync::Arc;

use morsel_core::{
    render_ascii, DispatchConfig, ExecEnv, SchedulingMode, SimExecutor, TraceRecorder,
};
use morsel_datagen::{generate_ssb, generate_tpch, SsbConfig, TpchConfig, TpchDb};
use morsel_exec::agg::AggFn;
use morsel_exec::plan::{compile_query, Plan};
use morsel_exec::SystemVariant;
use morsel_numa::{CostModel, Placement, Topology};
use morsel_queries::{run_sim, ssb_queries, tpch_queries};
use morsel_storage::{Batch, Column, DataType, PartitionBy, Relation, Schema};

use crate::report::{gbps, geo_mean, pct, ratio, secs, Table};

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// TPC-H scale factor.
    pub scale: f64,
    /// SSB scale factor.
    pub ssb_scale: f64,
    /// Maximum hardware threads (the paper's boxes have 64).
    pub workers: usize,
    pub morsel_size: usize,
    /// Reduced sweeps for CI / quick runs.
    pub quick: bool,
    /// `--analyze`: augment `explain`/`sql` output with the full
    /// per-operator runtime profile from the single profiled execution.
    pub analyze: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        // 512-tuple morsels: at laptop scale factors this preserves the
        // paper's morsels-per-worker ratio (the paper used 100k-tuple
        // morsels at SF 100); see DESIGN.md.
        ExpConfig {
            scale: 0.02,
            ssb_scale: 0.02,
            workers: 64,
            morsel_size: 512,
            quick: false,
            analyze: false,
        }
    }
}

impl ExpConfig {
    pub fn quick() -> Self {
        ExpConfig {
            scale: 0.002,
            ssb_scale: 0.002,
            quick: true,
            ..Default::default()
        }
    }

    fn thread_counts(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 4, 16, 32, 64]
        } else {
            vec![1, 2, 4, 8, 16, 32, 48, 64]
        }
    }

    fn tpch_db(&self, topo: &Topology) -> TpchDb {
        generate_tpch(
            TpchConfig {
                scale: self.scale,
                ..Default::default()
            },
            topo,
        )
    }
}

fn run_query(
    env: &ExecEnv,
    db: &TpchDb,
    q: usize,
    variant: SystemVariant,
    workers: usize,
    morsel: usize,
) -> morsel_queries::RunOutcome {
    run_sim(
        env,
        &format!("Q{q}"),
        tpch_queries::query(db, q),
        variant,
        workers,
        morsel,
    )
}

// ---------------------------------------------------------------- fig 6

/// Figure 6: effect of morsel size on `select min(a) from R`, 64 threads.
pub fn fig6(cfg: &ExpConfig) -> String {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    // R: one integer column, spread over the sockets.
    let n = ((40_000_000.0 * cfg.scale) as usize).max(400_000);
    let data = Batch::from_columns(vec![Column::I64(
        (0..n as i64)
            .map(|x| x.wrapping_mul(2654435761) % 1_000_000)
            .collect(),
    )]);
    let r = Arc::new(Relation::partitioned(
        Schema::new(vec![("a", DataType::I64)]),
        &data,
        PartitionBy::Chunks,
        64,
        Placement::FirstTouch,
        &topo,
    ));
    let sizes: &[usize] = &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
    let mut t = Table::new(&["morsel size", "time", "morsels"]);
    for &size in sizes {
        let plan = Plan::scan(r.clone(), None, &["a"]).agg(&[], vec![("min", AggFn::MinI64(0))]);
        let out = run_sim(&env, "min", plan, SystemVariant::full(), cfg.workers, size);
        t.row(vec![
            size.to_string(),
            secs(out.seconds()),
            out.stats.morsels.to_string(),
        ]);
    }
    format!(
        "Figure 6 — morsel size vs. execution time (select min(a) from R, |R|={n}, {} threads)\n{}",
        cfg.workers,
        t.render()
    )
}

// --------------------------------------------------------------- fig 11

/// Figure 11: TPC-H speedup over single-threaded HyPer, per query, for
/// the four compared systems.
pub fn fig11(cfg: &ExpConfig) -> String {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let db = cfg.tpch_db(&topo);
    let variants = SystemVariant::all();
    let threads = cfg.thread_counts();
    let queries: Vec<usize> = if cfg.quick {
        vec![1, 3, 6, 13, 18]
    } else {
        (1..=22).collect()
    };

    // Materialize each variant's placement once (cloning relations per
    // run would dominate the harness wall time).
    let variant_dbs: Vec<TpchDb> = variants
        .iter()
        .map(|v| db.with_placement(v.placement, &topo))
        .collect();

    let mut out = String::from("Figure 11 — TPC-H speedup over single-threaded execution\n");
    for &q in &queries {
        let base = run_query(&env, &db, q, SystemVariant::full(), 1, cfg.morsel_size).seconds();
        out.push_str(&format!("\nQ{q} (single-threaded: {})\n", secs(base)));
        let header: Vec<&str> = std::iter::once("threads")
            .chain(variants.iter().map(|v| v.name))
            .collect();
        let mut t = Table::new(&header);
        for &w in &threads {
            let mut row = vec![w.to_string()];
            for (v, vdb) in variants.iter().zip(&variant_dbs) {
                let s = run_query(&env, vdb, q, *v, w, cfg.morsel_size).seconds();
                row.push(format!("{:.1}", base / s));
            }
            t.row(row);
        }
        out.push_str(&t.render());
    }
    out
}

// -------------------------------------------------------- tables 1 and 2

/// Per-query statistics on one topology: the engine-side reproduction of
/// Intel PCM's counters.
fn tpch_stats_table(cfg: &ExpConfig, topo: Topology, with_baseline: bool) -> String {
    let env = ExecEnv::new(topo.clone());
    let db = cfg.tpch_db(&topo);
    let link_bw_gbps = env.cost().link_bw; // bytes/ns == GB/s
    let header: Vec<&str> = if with_baseline {
        vec![
            "#",
            "time",
            "scal.",
            "rd GB/s",
            "wr GB/s",
            "remote%",
            "QPI%",
            "| VW time",
            "VW scal.",
            "VW remote%",
        ]
    } else {
        vec![
            "#", "time", "scal.", "rd GB/s", "wr GB/s", "remote%", "QPI%",
        ]
    };
    let mut t = Table::new(&header);
    let mut hy_times = Vec::new();
    let mut hy_scals = Vec::new();
    let volcano = SystemVariant::volcano();
    let volcano_db = if with_baseline {
        Some(db.with_placement(volcano.placement, &topo))
    } else {
        None
    };
    for q in 1..=22 {
        let o64 = run_query(
            &env,
            &db,
            q,
            SystemVariant::full(),
            cfg.workers,
            cfg.morsel_size,
        );
        let o1 = run_query(&env, &db, q, SystemVariant::full(), 1, cfg.morsel_size);
        let time = o64.seconds();
        let scal = o1.seconds() / time;
        hy_times.push(time);
        hy_scals.push(scal);
        let qpi = o64.traffic.max_link_bytes() as f64 / time.max(1e-12) / 1e9 / link_bw_gbps;
        let mut row = vec![
            q.to_string(),
            secs(time),
            ratio(scal),
            gbps(o64.traffic.total_read(), time),
            gbps(o64.traffic.total_write(), time),
            pct(o64.traffic.remote_fraction()),
            pct(qpi.min(1.0)),
        ];
        if with_baseline {
            let vdb = volcano_db.as_ref().unwrap();
            let v64 = run_query(&env, vdb, q, volcano, cfg.workers, cfg.morsel_size);
            let v1 = run_query(&env, vdb, q, volcano, 1, cfg.morsel_size);
            row.push(secs(v64.seconds()));
            row.push(ratio(v1.seconds() / v64.seconds()));
            row.push(pct(v64.traffic.remote_fraction()));
        }
        t.row(row);
    }
    format!(
        "{} — TPC-H (SF {}) with {} threads\ngeo.mean time {}, avg scalability {:.1}x\n{}",
        topo.name(),
        cfg.scale,
        cfg.workers,
        secs(geo_mean(&hy_times)),
        hy_scals.iter().sum::<f64>() / hy_scals.len() as f64,
        t.render()
    )
}

/// Table 1: per-query time/scalability/bandwidth/remote/QPI on Nehalem EX,
/// morsel-driven vs. Volcano baseline.
pub fn table1(cfg: &ExpConfig) -> String {
    format!(
        "Table 1 — {}",
        tpch_stats_table(cfg, Topology::nehalem_ex(), true)
    )
}

/// Table 2: time and scalability on Sandy Bridge EP.
pub fn table2(cfg: &ExpConfig) -> String {
    format!(
        "Table 2 — {}",
        tpch_stats_table(cfg, Topology::sandy_bridge_ep(), false)
    )
}

// --------------------------------------------------------------- 5.1

/// Section 5.1's summary comparison (geo mean / sum / scalability).
pub fn summary(cfg: &ExpConfig) -> String {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let db = cfg.tpch_db(&topo);
    let mut t = Table::new(&["system", "geo.mean", "sum", "scal."]);
    for v in [SystemVariant::full(), SystemVariant::volcano()] {
        let vdb = db.with_placement(v.placement, &topo);
        let mut times = Vec::new();
        let mut scals = Vec::new();
        for q in 1..=22 {
            let t64 = run_query(&env, &vdb, q, v, cfg.workers, cfg.morsel_size).seconds();
            let t1 = run_query(&env, &vdb, q, v, 1, cfg.morsel_size).seconds();
            times.push(t64);
            scals.push(t1 / t64);
        }
        t.row(vec![
            v.name.to_owned(),
            secs(geo_mean(&times)),
            secs(times.iter().sum::<f64>()),
            format!("{:.1}x", scals.iter().sum::<f64>() / scals.len() as f64),
        ]);
    }
    format!(
        "Section 5.1 summary — TPC-H (SF {}), {} threads\n{}",
        cfg.scale,
        cfg.workers,
        t.render()
    )
}

// --------------------------------------------------------------- 5.3

/// Section 5.3: NUMA-aware placement vs. "OS default" and "interleaved",
/// on both topologies (geo mean and max speedup over the alternative).
pub fn numa_placement(cfg: &ExpConfig) -> String {
    let mut out = String::from("Section 5.3 — speedup of NUMA-aware placement over alternatives\n");
    let queries: Vec<usize> = if cfg.quick {
        vec![1, 3, 5, 6, 9, 13, 18]
    } else {
        (1..=22).collect()
    };
    for topo in [Topology::nehalem_ex(), Topology::sandy_bridge_ep()] {
        let env = ExecEnv::new(topo.clone());
        let db = cfg.tpch_db(&topo);
        // Baseline: NUMA-aware placement and scheduling.
        let aware: Vec<f64> = queries
            .iter()
            .map(|&q| {
                run_query(
                    &env,
                    &db,
                    q,
                    SystemVariant::full(),
                    cfg.workers,
                    cfg.morsel_size,
                )
                .seconds()
            })
            .collect();
        // "OS default": everything on node 0 (paper footnote 6).
        let os_db = db.with_placement(Placement::OsDefault, &topo);
        let os: Vec<f64> = queries
            .iter()
            .map(|&q| {
                run_query(
                    &env,
                    &os_db,
                    q,
                    SystemVariant::full(),
                    cfg.workers,
                    cfg.morsel_size,
                )
                .seconds()
            })
            .collect();
        // "Interleaved": data spread over all nodes page-wise; modelled by
        // spread partitions + locality-blind scheduling (uniform ~75%
        // remote on 4 sockets), see DESIGN.md.
        let il_variant = SystemVariant {
            numa_aware_scheduling: false,
            ..SystemVariant::full()
        };
        let il: Vec<f64> = queries
            .iter()
            .map(|&q| run_query(&env, &db, q, il_variant, cfg.workers, cfg.morsel_size).seconds())
            .collect();

        let speedups = |alt: &[f64]| -> (f64, f64) {
            let r: Vec<f64> = alt.iter().zip(&aware).map(|(a, b)| a / b).collect();
            (geo_mean(&r), r.iter().cloned().fold(0.0, f64::max))
        };
        let (os_geo, os_max) = speedups(&os);
        let (il_geo, il_max) = speedups(&il);
        let mut t = Table::new(&["alternative", "geo.mean", "max"]);
        t.row(vec![
            "OS default".into(),
            format!("{os_geo:.2}x"),
            format!("{os_max:.2}x"),
        ]);
        t.row(vec![
            "interleaved".into(),
            format!("{il_geo:.2}x"),
            format!("{il_max:.2}x"),
        ]);
        out.push_str(&format!("\n{}:\n{}", topo.name(), t.render()));
    }
    out
}

/// Section 5.3's bandwidth/latency micro-benchmark (local vs. 25/75 mix).
pub fn numa_micro() -> String {
    let mut t = Table::new(&["system", "bw local", "bw mix", "lat local", "lat mix"]);
    for (name, m, two_hop_topology) in [
        ("Nehalem EX", CostModel::nehalem_ex(), false),
        ("Sandy Bridge EP", CostModel::sandy_bridge_ep(), true),
    ] {
        let streams_per_node = 8u32;
        let local_agg = 4.0 * f64::from(streams_per_node) * m.stream_rate(0, streams_per_node, 0);
        // Mix: 25% local; remote split across the topology's link structure.
        let (mix_agg, mix_lat) = if two_hop_topology {
            let local = 8.0 * m.stream_rate(0, streams_per_node, 0);
            let one_hop = 16.0 * m.stream_rate(1, streams_per_node, 2);
            let two_hop = 8.0 * m.stream_rate(2, streams_per_node, 2);
            let lat = 0.25 * m.latency(0) + 0.5 * m.latency(1) + 0.25 * m.latency(2);
            (local + one_hop + two_hop, lat)
        } else {
            let local = 8.0 * m.stream_rate(0, streams_per_node, 0);
            let remote = 24.0 * m.stream_rate(1, streams_per_node, 2);
            let lat = 0.25 * m.latency(0) + 0.75 * m.latency(1);
            (local + remote, lat)
        };
        t.row(vec![
            name.to_owned(),
            format!("{local_agg:.0} GB/s"),
            format!("{mix_agg:.0} GB/s"),
            format!("{:.0} ns", m.latency(0)),
            format!("{mix_lat:.0} ns"),
        ]);
    }
    format!(
        "Section 5.3 micro-benchmark — NUMA-local vs. 25/75 local/remote mix\n{}",
        t.render()
    )
}

// --------------------------------------------------------------- fig 12

/// Figure 12: intra- vs. inter-query parallelism. `s` query streams share
/// all hardware threads; throughput in queries per second of virtual time.
///
/// Stream semantics are approximated round-wise: in each round the next
/// query of every stream runs concurrently; rounds are sequential (the
/// paper's streams are sequential within themselves).
pub fn fig12(cfg: &ExpConfig) -> String {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let db = cfg.tpch_db(&topo);
    // A representative mix of scan-, join-, and aggregation-heavy
    // queries; every stream cycles through a rotation of it. Using all 22
    // queries per stream only rescales the totals.
    let queries: Vec<usize> = if cfg.quick {
        vec![1, 3, 6, 13]
    } else {
        vec![1, 3, 5, 6, 9, 12, 13, 18]
    };
    let stream_counts: Vec<usize> = if cfg.quick {
        vec![1, 4, 16, 64]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64]
    };
    let mut t = Table::new(&["streams", "queries", "time", "throughput [q/s]"]);
    for &s in &stream_counts {
        let mut total_time = 0.0;
        let mut total_queries = 0usize;
        for round in 0..queries.len() {
            let config = DispatchConfig::new(cfg.workers).with_morsel_size(cfg.morsel_size);
            let mut sim = SimExecutor::new(env.clone(), config);
            for stream in 0..s {
                // Each stream runs its own permutation: rotate by stream id.
                let qq = queries[(round + stream) % queries.len()];
                let (spec, _result) = compile_query(
                    format!("s{stream}-q{qq}"),
                    tpch_queries::query(&db, qq),
                    SystemVariant::full(),
                );
                sim.submit(spec);
            }
            let report = sim.run();
            total_time += report.makespan_secs();
            total_queries += s;
        }
        t.row(vec![
            s.to_string(),
            total_queries.to_string(),
            secs(total_time),
            format!("{:.0}", total_queries as f64 / total_time),
        ]);
    }
    format!(
        "Figure 12 — throughput vs. number of query streams ({} threads total)\n{}",
        cfg.workers,
        t.render()
    )
}

// --------------------------------------------------------------- fig 13

/// Figure 13: morsel-wise elasticity trace. Q13 starts on all workers;
/// Q14 arrives mid-flight, borrows workers, finishes, and Q13 resumes.
pub fn fig13(cfg: &ExpConfig) -> String {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let db = cfg.tpch_db(&topo);
    let workers = 4;
    // Solo runtime of Q13 to time the arrival.
    let solo = run_sim(
        &env,
        "Q13",
        tpch_queries::query(&db, 13),
        SystemVariant::full(),
        workers,
        cfg.morsel_size,
    )
    .seconds();
    let arrival_ns = (solo * 0.3 * 1e9) as u64;

    let config = DispatchConfig::new(workers).with_morsel_size(cfg.morsel_size);
    let recorder = Arc::new(TraceRecorder::new());
    let mut sim = SimExecutor::new(env.with_trace(Arc::clone(&recorder)), config);
    let (spec13, _r13) = compile_query("q13", tpch_queries::query(&db, 13), SystemVariant::full());
    let (spec14, _r14) = compile_query("q14", tpch_queries::query(&db, 14), SystemVariant::full());
    sim.submit(spec13);
    sim.submit_at(arrival_ns, spec14);
    let report = sim.run();
    let q13 = report.handle("q13").stats();
    let q14 = report.handle("q14").stats();
    format!(
        "Figure 13 — elasticity trace (4 workers; q14 arrives at t={:.3}ms)\n\
         q13: {:.3}ms..{:.3}ms   q14: {:.3}ms..{:.3}ms\n{}",
        arrival_ns as f64 / 1e6,
        q13.started_ns as f64 / 1e6,
        q13.finished_ns as f64 / 1e6,
        q14.started_ns as f64 / 1e6,
        q14.finished_ns as f64 / 1e6,
        render_ascii(&recorder.take(), workers, 100)
    )
}

// ------------------------------------------------------------ sec 5.4

/// Section 5.4: dynamic morsel assignment vs. static division under
/// interference from an unrelated process occupying one core.
pub fn interference(cfg: &ExpConfig) -> String {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let db = cfg.tpch_db(&topo);
    let workers = 32;
    // Fine-grained morsels so that load balancing operates at the paper's
    // granularity (thousands of morsels per query).
    let morsel = 256;
    let run = |mode: SchedulingMode, slow: bool| -> f64 {
        let config = DispatchConfig::new(workers)
            .with_mode(mode)
            .with_morsel_size(morsel);
        let mut sim = SimExecutor::new(env.clone(), config);
        if slow {
            sim.set_cpu_slowdown(0, 2.0);
        }
        let (spec, _r) = compile_query("q1", tpch_queries::query(&db, 1), SystemVariant::full());
        sim.submit(spec);
        sim.run().handle("q1").stats().elapsed_secs()
    };
    let dyn_base = run(SchedulingMode::NumaAware, false);
    let dyn_slow = run(SchedulingMode::NumaAware, true);
    let st_base = run(
        SchedulingMode::Static {
            workers,
            align: true,
        },
        false,
    );
    let st_slow = run(
        SchedulingMode::Static {
            workers,
            align: true,
        },
        true,
    );
    let mut t = Table::new(&["division", "clean", "interfered", "slowdown"]);
    t.row(vec![
        "dynamic (morsel)".into(),
        secs(dyn_base),
        secs(dyn_slow),
        format!("{:+.1}%", (dyn_slow / dyn_base - 1.0) * 100.0),
    ]);
    t.row(vec![
        "static (n/t)".into(),
        secs(st_base),
        secs(st_slow),
        format!("{:+.1}%", (st_slow / st_base - 1.0) * 100.0),
    ]);
    format!(
        "Section 5.4 — interference: one core slowed 2x ({workers} threads, TPC-H Q1)\n{}",
        t.render()
    )
}

// -------------------------------------------------------------- table 3

/// Table 3: Star Schema Benchmark statistics on Nehalem EX.
pub fn table3(cfg: &ExpConfig) -> String {
    let topo = Topology::nehalem_ex();
    let env = ExecEnv::new(topo.clone());
    let db = generate_ssb(
        SsbConfig {
            scale: cfg.ssb_scale,
            ..Default::default()
        },
        &topo,
    );
    let link_bw_gbps = env.cost().link_bw;
    let mut t = Table::new(&[
        "#", "time[s]", "scal.", "rd GB/s", "wr GB/s", "remote%", "QPI%",
    ]);
    for id in ssb_queries::IDS {
        let o64 = run_sim(
            &env,
            id,
            ssb_queries::query(&db, id),
            SystemVariant::full(),
            cfg.workers,
            cfg.morsel_size,
        );
        let o1 = run_sim(
            &env,
            id,
            ssb_queries::query(&db, id),
            SystemVariant::full(),
            1,
            cfg.morsel_size,
        );
        let time = o64.seconds();
        let qpi = o64.traffic.max_link_bytes() as f64 / time.max(1e-12) / 1e9 / link_bw_gbps;
        t.row(vec![
            id.to_owned(),
            secs(time),
            ratio(o1.seconds() / time),
            gbps(o64.traffic.total_read(), time),
            gbps(o64.traffic.total_write(), time),
            pct(o64.traffic.remote_fraction()),
            pct(qpi.min(1.0)),
        ]);
    }
    format!(
        "Table 3 — Star Schema Benchmark (SF {}), {} threads, Nehalem EX\n{}",
        cfg.ssb_scale,
        cfg.workers,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.001,
            ssb_scale: 0.001,
            workers: 16,
            morsel_size: 2048,
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn fig6_runs_and_small_morsels_are_slower() {
        let out = fig6(&tiny());
        assert!(out.contains("morsel size"));
        // Parse the times back out: the 100-tuple row must be slower than
        // the 10k row.
        let parse_time = |t: &str| -> Option<f64> {
            if let Some(v) = t.strip_suffix("ms") {
                v.parse::<f64>().ok().map(|v| v / 1e3)
            } else if let Some(v) = t.strip_suffix("us") {
                v.parse::<f64>().ok().map(|v| v / 1e6)
            } else {
                t.strip_suffix('s').and_then(|v| v.parse::<f64>().ok())
            }
        };
        let times: Vec<f64> = out
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .filter_map(|l| l.split_whitespace().nth(1).and_then(&parse_time))
            .collect();
        assert!(times.len() >= 4, "could not parse times from:\n{out}");
        assert!(times[0] > times[2], "tiny morsels not slower: {times:?}");
    }

    #[test]
    fn numa_micro_shapes() {
        let out = numa_micro();
        assert!(out.contains("Nehalem"));
        assert!(out.contains("Sandy Bridge"));
    }

    #[test]
    fn interference_shape() {
        let out = interference(&tiny());
        assert!(out.contains("dynamic"));
        assert!(out.contains("static"));
    }

    #[test]
    fn fig13_trace_shows_both_queries() {
        let out = fig13(&tiny());
        assert!(out.contains("q13"));
        assert!(out.contains("q14"));
        assert!(out.contains("legend"));
    }
}
