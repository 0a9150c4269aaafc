//! The per-layer metrics: their names and units (the table
//! BENCHMARK.json's `per_layer` list mirrors), and the computations
//! the workloads' traced runs share. A layer a workload does not touch
//! reports 0 for its metrics.

use std::collections::BTreeMap;

use crate::engine::{CacheFacts, Data, Engine, ExecFacts, Fixture};
use crate::measure::{mean, median};
use crate::trace::Tracer;
use crate::Metric;

/// `(name, unit)`, in print order. Layers are the crate names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.lex_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.shape_us", "us"),
    ("sql.bind_us", "us"),
    ("planner.plan_us", "us"),
    ("planner.plan_us_max_kind", "us"),
    ("planner.dml_plan_us", "us"),
    ("planner.stats_build_ms", "ms"),
    ("exec.compile_us", "us"),
    ("service.resolve_hit_us", "us"),
    ("service.plan_hit_rate", "ratio"),
    ("service.plan_evictions", "1/stmt"),
    ("service.plan_invalidations", "1/stmt"),
    ("service.roundtrip_floor_us", "us"),
    ("service.facade_overhead_us", "us"),
    ("core.worker_utilization", "ratio"),
    ("core.us_per_morsel", "us"),
    ("core.morsels_per_stmt", "count"),
    ("core.parallel_efficiency", "ratio"),
    ("core.hi_slowdown", "ratio"),
    ("core.bulk_retained", "ratio"),
    ("core.stmt_retries", "count"),
    ("exec.scan_ms", "ms"),
    ("exec.filter_ms", "ms"),
    ("exec.map_ms", "ms"),
    ("exec.join_ms", "ms"),
    ("exec.agg_ms", "ms"),
    ("exec.sort_ms", "ms"),
    ("exec.ns_per_input_row", "ns"),
    ("exec.peak_reserved_mb", "MB"),
    ("txn.insert_apply_us", "us"),
    ("txn.update_apply_us", "us"),
    ("txn.delete_apply_us", "us"),
    ("txn.commit_us", "us"),
    ("txn.refresh_us", "us"),
    ("txn.merge_ms", "ms"),
    ("txn.delta_rows_at_merge", "count"),
    ("storage.wal_bytes_per_commit", "B"),
    ("storage.fsyncs_per_commit", "count"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("storage.recovery_ms", "ms"),
    ("datagen.tpch_s", "s"),
    ("datagen.ssb_s", "s"),
    ("sim.geomean_us", "us"),
    ("sim.avg_scalability", "ratio"),
    ("sim.remote_read_pct", "%"),
    ("harness.trace_overhead_frac", "ratio"),
];

/// Values for every per-layer metric, 0 until set.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(n, u)| Metric::new(n, u, self.values[n]))
            .collect()
    }

    /// `datagen.*` from the set-up's generation times.
    pub fn set_datagen(&mut self, data: &Data) {
        self.set("datagen.tpch_s", data.tpch_gen_s);
        self.set("datagen.ssb_s", data.ssb_gen_s);
    }

    /// `sim.*`: the deterministic simulator's Table 1 quantities.
    pub fn set_sim(&mut self) {
        let sim = crate::engine::sim_facts();
        self.set("sim.geomean_us", sim.geomean_us);
        self.set("sim.avg_scalability", sim.avg_scalability);
        self.set("sim.remote_read_pct", sim.remote_read_pct);
    }

    /// `service.plan_*` from a plan-cache counter delta over `stmts`
    /// statements.
    pub fn set_plan_cache(&mut self, delta: CacheFacts, stmts: u64) {
        let lookups = delta.hits + delta.misses;
        self.set(
            "service.plan_hit_rate",
            delta.hits as f64 / lookups.max(1) as f64,
        );
        let per_stmt = |n: u64| n as f64 / stmts.max(1) as f64;
        self.set("service.plan_evictions", per_stmt(delta.evictions));
        self.set("service.plan_invalidations", per_stmt(delta.invalidations));
    }

    /// The probes that need loops of their own: the lexer alone, a
    /// `Session::resolve` of a shape just resolved, and the round trip
    /// of a query with nothing to do; then the front-end means from the
    /// layered run's spans.
    pub fn set_probes(
        &mut self,
        engine: &Engine,
        fixtures: &[&Fixture],
        tracer: &Tracer,
    ) -> Result<(), String> {
        let mut lex_us = Vec::new();
        let mut resolve_us = Vec::new();
        for fx in fixtures {
            engine.resolve(fx);
            for _ in 0..20 {
                lex_us.push(Engine::lex(fx) as f64 / 1e3);
                resolve_us.push(engine.resolve(fx) as f64 / 1e3);
            }
        }
        self.set_front_end(tracer, mean(&lex_us));
        self.set("service.resolve_hit_us", mean(&resolve_us));
        let mut floor_us = Vec::new();
        for _ in 0..200 {
            floor_us.push(engine.roundtrip_floor()? as f64 / 1e3);
        }
        self.set("service.roundtrip_floor_us", median(&mut floor_us));
        Ok(())
    }

    /// Front-end and compile means from the layered run's spans.
    /// `parse_statement` lexes internally, so the parser's own share is
    /// its span minus the lexer's separately measured mean.
    fn set_front_end(&mut self, tracer: &Tracer, lex_mean_us: f64) {
        self.set("sql.lex_us", lex_mean_us);
        self.set(
            "sql.parse_us",
            (tracer.mean_us("sql.parse") - lex_mean_us).max(0.0),
        );
        self.set("sql.shape_us", tracer.mean_us("sql.shape"));
        self.set("sql.bind_us", tracer.mean_us("sql.bind"));
        self.set("planner.plan_us", tracer.mean_us("planner.plan"));
        self.set("exec.compile_us", tracer.mean_us("exec.compile"));
    }
}

/// Sums over the `QueryReport`s of a window of statements.
#[derive(Debug, Clone, Default)]
pub struct ExecTotals {
    pub stmts: u64,
    service_ns: u64,
    op_wall_ns: u64,
    rows_in: u64,
    morsels: u64,
    peak_reserved_bytes: u64,
    /// Operator wall time by label prefix, in [`OP_GROUPS`] order.
    by_group: [u64; 6],
}

const OP_GROUPS: [&str; 6] = ["scan", "filter", "map", "join", "agg", "sort"];

impl ExecTotals {
    pub fn add(&mut self, facts: &ExecFacts) {
        self.stmts += 1;
        self.service_ns += facts.service_ns;
        self.peak_reserved_bytes = self.peak_reserved_bytes.max(facts.peak_reserved_bytes);
        for op in &facts.ops {
            self.op_wall_ns += op.wall_ns;
            self.rows_in += op.rows_in;
            self.morsels += op.morsels;
            if let Some(g) = OP_GROUPS.iter().position(|g| op.label.starts_with(g)) {
                self.by_group[g] += op.wall_ns;
            }
        }
    }

    pub fn merge(&mut self, o: &ExecTotals) {
        self.stmts += o.stmts;
        self.service_ns += o.service_ns;
        self.op_wall_ns += o.op_wall_ns;
        self.rows_in += o.rows_in;
        self.morsels += o.morsels;
        self.peak_reserved_bytes = self.peak_reserved_bytes.max(o.peak_reserved_bytes);
        for (mine, theirs) in self.by_group.iter_mut().zip(o.by_group) {
            *mine += theirs;
        }
    }

    /// Operator wall time as a share of statement latency × workers.
    pub fn worker_utilization(&self, workers: usize) -> f64 {
        self.op_wall_ns as f64 / (workers as f64 * self.service_ns.max(1) as f64)
    }

    /// `exec.*` and `core.*` (the ones a plain window can give), with
    /// the operator times reported per `per` units (passes, or
    /// statements where a workload has no passes).
    pub fn fill(&self, layers: &mut Layers, workers: usize, per: f64) {
        let per = per.max(1.0);
        for (g, ns) in OP_GROUPS.iter().zip(self.by_group) {
            layers.set(&format!("exec.{g}_ms"), ns as f64 / 1e6 / per);
        }
        layers.set(
            "exec.ns_per_input_row",
            self.op_wall_ns as f64 / self.rows_in.max(1) as f64,
        );
        layers.set(
            "exec.peak_reserved_mb",
            self.peak_reserved_bytes as f64 / (1024.0 * 1024.0),
        );
        layers.set("core.worker_utilization", self.worker_utilization(workers));
        let idle_ns = (workers as f64 * self.service_ns as f64 - self.op_wall_ns as f64).max(0.0);
        layers.set(
            "core.us_per_morsel",
            idle_ns / 1e3 / self.morsels.max(1) as f64,
        );
        layers.set(
            "core.morsels_per_stmt",
            self.morsels as f64 / self.stmts.max(1) as f64,
        );
    }
}

/// Per statement id, the summed duration of the spans called one of
/// `names`.
pub fn span_ns_by_stmt(tracer: &Tracer, names: &[&str]) -> BTreeMap<u32, u64> {
    let mut out = BTreeMap::new();
    for s in tracer.spans() {
        if names.contains(&s.name) {
            *out.entry(s.stmt).or_insert(0) += s.ns();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OpFact;

    #[test]
    fn table_has_unique_names_and_layers_round_trip() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        let mut l = Layers::new();
        l.set("sql.lex_us", 2.5);
        let m = l.into_metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!((m[0].name, m[0].value), ("sql.lex_us", 2.5));
    }

    #[test]
    fn exec_totals_group_by_label_prefix() {
        let mut t = ExecTotals::default();
        t.add(&ExecFacts {
            service_ns: 1_000_000,
            peak_reserved_bytes: 2 << 20,
            ops: vec![
                OpFact {
                    label: "agg(2 keys, 3 fns)".into(),
                    wall_ns: 400_000,
                    rows_in: 100,
                    morsels: 0,
                },
                OpFact {
                    label: "scan(filtered)".into(),
                    wall_ns: 600_000,
                    rows_in: 900,
                    morsels: 4,
                },
            ],
        });
        let mut l = Layers::new();
        t.fill(&mut l, 2, 1.0);
        let m: BTreeMap<_, _> = l
            .into_metrics()
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        assert_eq!(m["exec.scan_ms"], 0.6);
        assert_eq!(m["exec.agg_ms"], 0.4);
        assert_eq!(m["core.worker_utilization"], 0.5);
        assert_eq!(m["core.morsels_per_stmt"], 4.0);
        assert_eq!(m["core.us_per_morsel"], 250.0);
        assert_eq!(m["exec.ns_per_input_row"], 1000.0);
        assert_eq!(m["exec.peak_reserved_mb"], 2.0);
    }
}
