//! Write-path commands: `repro txn` (a guided demo of the durable write
//! path) and `repro recovery_smoke` (the CI crash-and-recover gate).
//! Commit throughput, group-commit batching and recovery time are
//! measured by `benchmark/`'s `write_mix` workload.
//!
//! Both run against throwaway databases under the system temp
//! directory; nothing touches the repository tree except the artifact
//! dump `recovery_smoke` leaves behind on failure (for CI upload).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use morsel_core::{ExecEnv, Fault, FaultPlan};
use morsel_numa::Topology;
use morsel_service::{QueryService, ServiceConfig, Session};
use morsel_txn::{diff_logical_state, kv_relation, run_seeded, TxnDb, TxnDbConfig, WorkloadSpec};

use crate::experiments::ExpConfig;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("morsel-repro-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

// ---------------------------------------------------------------- demo

/// `repro txn`: a narrated pass over the write path — SQL DML through
/// the transactional session, cache-coherent reads, group commit, and
/// a crash-and-recover smoke at the end.
pub fn txn_demo(_cfg: &ExpConfig) -> String {
    let mut out = String::new();
    let dir = tmpdir("txn-demo");
    let topo = Topology::laptop();
    let db = Arc::new(TxnDb::create(&dir, vec![("kv", kv_relation(8))]).expect("create demo db"));
    let service = QueryService::start(ExecEnv::new(topo.clone()), ServiceConfig::new(2));
    let session = Session::builder()
        .database(Arc::clone(&db))
        .topology(&topo)
        .for_service(&service)
        .build();

    out.push_str("== transactional SQL (auto-commit) ==\n");
    for sql in [
        "INSERT INTO kv (key, val) VALUES (100, 10), (101, 20)",
        "UPDATE kv SET val = 42 WHERE key = 100",
        "DELETE FROM kv WHERE key = 101",
    ] {
        match session.execute(&service, "demo", sql) {
            Ok(exec) => {
                let ack = exec.dml().expect("DML statement");
                out.push_str(&format!("{sql}\n  -> {ack}\n"));
            }
            Err(e) => out.push_str(&format!("{sql}\n  -> ERROR {e}\n")),
        }
    }
    let q = "SELECT SUM(val) AS total FROM kv";
    for pass in ["cold", "warm"] {
        if let Ok(exec) = session.execute(&service, "demo-agg", q) {
            let qx = exec.query().expect("select");
            let total = qx.rows.as_ref().map(|b| b.column(0).as_i64()[0]);
            out.push_str(&format!(
                "{q} ({pass})\n  -> total={:?} plan_cache={:?}\n",
                total, qx.plan_cache
            ));
        }
    }
    let ws = db.wal_stats();
    out.push_str(&format!(
        "WAL: {} records durable, {} fsyncs, {} bytes, mean commit group {:.2}\n",
        ws.durable_lsn,
        ws.fsyncs,
        ws.written_bytes,
        ws.mean_group()
    ));
    service.shutdown();
    drop(session);

    out.push_str("\n== crash-and-recover smoke ==\n");
    let spec = WorkloadSpec::new(42, 30, 8);
    let oracle_dir = tmpdir("txn-demo-oracle");
    let oracle = TxnDb::create(&oracle_dir, vec![("kv", kv_relation(8))]).expect("oracle");
    run_seeded(&oracle, &spec, spec.txns);
    let crash_lsn = oracle.wal_stats().next_lsn / 2;
    let crash_dir = tmpdir("txn-demo-crash");
    let plan: FaultPlan = format!("crash@lsn#{crash_lsn}")
        .parse()
        .expect("fault grammar");
    let victim = TxnDb::create_with(
        &crash_dir,
        vec![("kv", kv_relation(8))],
        TxnDbConfig {
            faults: plan.wal_faults(),
            ..TxnDbConfig::default()
        },
    )
    .expect("victim");
    let acked = run_seeded(&victim, &spec, spec.txns);
    drop(victim);
    let recovered = TxnDb::open(&crash_dir, vec![("kv", kv_relation(8))]).expect("recover");
    let replayed_oracle_dir = tmpdir("txn-demo-prefix");
    let prefix = TxnDb::create(&replayed_oracle_dir, vec![("kv", kv_relation(8))]).expect("prefix");
    run_seeded(&prefix, &spec, acked);
    let verdict = match diff_logical_state(&recovered, &prefix) {
        None => "state identical to the uncrashed oracle".to_owned(),
        Some(d) => format!("MISMATCH: {d}"),
    };
    out.push_str(&format!(
        "killed at WAL record {crash_lsn} after {acked}/{} acknowledged commits; \
         recovery replayed the log: {verdict}\n",
        spec.txns
    ));
    for d in [dir, oracle_dir, crash_dir, replayed_oracle_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
    out
}

// ---------------------------------------------------------------- smoke

/// Where `recovery_smoke` dumps the WAL and fault plan when a diff
/// fails (CI uploads this directory as an artifact).
pub const SMOKE_ARTIFACT_DIR: &str = "recovery_artifacts";

/// `repro recovery_smoke`: seeded workload, crash via an injected
/// `crash@lsn` fault at three points in the log (25 %, 50 %, 75 %),
/// recover, and diff against an uncrashed oracle prefix. Returns `Err`
/// with a diagnostic — after writing the WAL and fault plan to
/// [`SMOKE_ARTIFACT_DIR`] — if any recovered state diverges.
pub fn recovery_smoke(cfg: &ExpConfig) -> Result<String, String> {
    let mut out = String::new();
    let txns = if cfg.quick { 60 } else { 120 };
    let spec = WorkloadSpec::new(2026, txns, 16);

    let oracle_dir = tmpdir("smoke-oracle");
    let oracle = TxnDb::create(&oracle_dir, vec![("kv", kv_relation(16))]).expect("oracle");
    let acked = run_seeded(&oracle, &spec, spec.txns);
    let total_records = oracle.wal_stats().next_lsn.saturating_sub(1);
    out.push_str(&format!(
        "oracle: {acked} commits, {total_records} WAL records\n"
    ));

    for quarter in [1u64, 2, 3] {
        let crash_lsn = (total_records * quarter / 4).max(1);
        let fault = Fault::CrashAtLsn { lsn: crash_lsn };
        let plan = FaultPlan::none().with(fault);
        // Round-trip the plan through the chaos grammar — the same
        // text form `MORSEL_FAULT_PLAN` accepts.
        let plan: FaultPlan = plan.to_string().parse().expect("fault grammar round-trip");

        let crash_dir = tmpdir(&format!("smoke-crash-{crash_lsn}"));
        let victim = TxnDb::create_with(
            &crash_dir,
            vec![("kv", kv_relation(16))],
            TxnDbConfig {
                faults: plan.wal_faults(),
                ..TxnDbConfig::default()
            },
        )
        .expect("victim");
        let victim_acked = run_seeded(&victim, &spec, spec.txns);
        let poisoned = victim.is_poisoned();
        drop(victim);

        let recovered =
            TxnDb::open(&crash_dir, vec![("kv", kv_relation(16))]).expect("recovery succeeds");
        let prefix_dir = tmpdir(&format!("smoke-prefix-{crash_lsn}"));
        let prefix = TxnDb::create(&prefix_dir, vec![("kv", kv_relation(16))]).expect("prefix");
        run_seeded(&prefix, &spec, victim_acked);

        let diff = diff_logical_state(&recovered, &prefix);
        match diff {
            None => {
                out.push_str(&format!(
                    "crash@lsn#{crash_lsn}: poisoned={poisoned} acked={victim_acked} \
                     -> recovered state matches the oracle prefix\n"
                ));
                let _ = std::fs::remove_dir_all(&crash_dir);
                let _ = std::fs::remove_dir_all(&prefix_dir);
            }
            Some(d) => {
                let saved = save_artifacts(&crash_dir, &plan);
                let _ = std::fs::remove_dir_all(&prefix_dir);
                return Err(format!(
                    "recovery_smoke FAILED at crash@lsn#{crash_lsn}: {d}\n\
                     artifacts (WAL + fault plan): {saved}"
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&oracle_dir);
    out.push_str("recovery_smoke PASS\n");
    Ok(out)
}

/// Copy the victim's WAL and the fault plan text into
/// [`SMOKE_ARTIFACT_DIR`] for CI to upload. Best-effort: returns the
/// directory path, or a note when copying itself failed.
fn save_artifacts(crash_dir: &Path, plan: &FaultPlan) -> String {
    let dest = Path::new(SMOKE_ARTIFACT_DIR);
    let ok = std::fs::create_dir_all(dest).is_ok()
        && std::fs::copy(crash_dir.join("wal.log"), dest.join("wal.log")).is_ok()
        && std::fs::write(dest.join("fault_plan.txt"), format!("{plan}\n")).is_ok();
    if ok {
        dest.display().to_string()
    } else {
        format!("(could not copy artifacts from {})", crash_dir.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_smoke_passes_on_the_correct_engine() {
        let cfg = ExpConfig {
            quick: true,
            ..ExpConfig::default()
        };
        let out = recovery_smoke(&cfg).expect("smoke passes");
        assert!(out.contains("recovery_smoke PASS"), "{out}");
        assert_eq!(out.matches("crash@lsn#").count(), 3, "{out}");
    }

    #[test]
    fn demo_narrates_the_write_path() {
        let cfg = ExpConfig::default();
        let out = txn_demo(&cfg);
        assert!(out.contains("INSERT kv: 2 row(s)"), "{out}");
        let cold = out.find("plan_cache=Miss").expect(&out);
        let warm = out.find("plan_cache=Hit").expect(&out);
        assert!(cold < warm, "{out}");
        assert!(
            out.contains("state identical to the uncrashed oracle"),
            "{out}"
        );
    }
}
