//! Black-box snapshot-isolation acceptance gate (after the checker of
//! arXiv 2301.07313): generate LCG-seeded random concurrent histories,
//! run them against the engine, and ask the checker whether a valid
//! snapshot point exists for every committed transaction.
//!
//! Every sweep runs the engine as it ships and must pass:
//! - ≥256 random histories on each executor (deterministic simulator and
//!   4 real worker threads);
//! - 64 contended histories (4 clients × 4 transactions × 4 operations
//!   over 2 keys), where concurrent writers collide on every key.
//!
//! The checker's teeth are the three broken engines of
//! `mutants/catalogue.txt` this file is the target of — `si-read-latest`
//! (reads at the latest applied timestamp), `si-ww-blind` (no tombstone
//! conflict check) and `si-reuse-commit-ts` (an odd transaction's commit
//! reuses its predecessor's timestamp): each of them fails every sweep.

use morsel_repro::txn::{check_history, kv_relation, run_history, ExecMode, HistorySpec, TxnDb};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "morsel-si-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Run the history `spec(seed)` on `exec` for every seed; panic on the
/// first checker violation.
fn assert_histories_pass(
    tag: &str,
    exec: ExecMode,
    seeds: std::ops::Range<u64>,
    spec: impl Fn(u64) -> HistorySpec,
) {
    let count = (seeds.end - seeds.start) as usize;
    let mut committed_total = 0usize;
    for seed in seeds {
        let spec = spec(seed);
        let dir = tmpdir(&format!("{tag}-{seed}"));
        let db = TxnDb::create(&dir, vec![("kv", kv_relation(spec.keys))]).expect("create");
        let h = run_history(&db, &spec, exec);
        committed_total += h.txns.iter().filter(|t| t.committed).count();
        if let Err(v) = check_history(&h) {
            panic!("{tag}: seed {seed} flagged the engine: {v:#?}");
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The sweep must actually exercise concurrency, not vacuously pass
    // over empty histories.
    assert!(
        committed_total >= count * 2,
        "{tag}: histories too trivial ({committed_total} commits over {count} seeds)"
    );
}

#[test]
fn sim_executor_passes_256_random_histories() {
    assert_histories_pass("sim", ExecMode::Sim, 0..256, HistorySpec::small);
}

#[test]
fn threaded_executor_passes_256_random_histories() {
    assert_histories_pass(
        "threaded",
        ExecMode::Threaded(4),
        1000..1256,
        HistorySpec::small,
    );
}

#[test]
fn contended_histories_pass() {
    assert_histories_pass("contended", ExecMode::Sim, 0..64, |seed| HistorySpec {
        clients: 4,
        txns_per_client: 4,
        keys: 2,
        ops_per_txn: 4,
        ..HistorySpec::small(seed)
    });
}
