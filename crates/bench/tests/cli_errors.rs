//! `repro` rejects what it cannot run before it runs anything: a numeric
//! flag that is not a number, and an experiment name it does not know,
//! exit 2 with one line on stderr and nothing on stdout. The wall-clock
//! harnesses and the `--json` writer that `benchmark/` replaced are such
//! names, so they stay deleted.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// `args` exit 2 having printed nothing to stdout; returns stderr.
fn rejected(args: &[&str]) -> String {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "repro {args:?} printed before rejecting:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    stderr
}

#[test]
fn a_malformed_number_exits_2_naming_the_flag() {
    let stderr = rejected(&["--scale", "abc", "fig6"]);
    assert!(
        stderr.contains(r#"--scale needs a number, got "abc""#),
        "{stderr}"
    );
    for flag in ["--ssb-scale", "--workers", "--morsel", "--repeat"] {
        let stderr = rejected(&[flag, "x", "fig6"]);
        assert!(
            stderr.contains(&format!("{flag} needs a number")),
            "{stderr}"
        );
    }
}

#[test]
fn an_unknown_experiment_exits_2_before_any_experiment_runs() {
    let stderr = rejected(&["fig6", "bogus"]);
    assert!(stderr.contains(r#"unknown experiment "bogus""#), "{stderr}");
    rejected(&["all", "bogus"]);
}

#[test]
fn the_deleted_measurement_path_stays_deleted() {
    for name in ["service_load", "service_load_zipf", "txn_bench", "adaptive"] {
        rejected(&["--quick", name]);
    }
    rejected(&["--quick", "fig6", "--json"]);
}
