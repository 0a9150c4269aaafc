//! The paper's figures and tables, as `repro --quick all` prints them, run
//! in virtual time on the simulated machines and are therefore
//! deterministic: they are gated by exact diff against a committed golden
//! file, minus the `[… regenerated in …s wall time]` lines. A change that
//! moves a figure updates `golden/repro_quick_all.txt` in the same commit,
//! so the movement is part of the reviewed diff. Regenerate it with
//!
//! ```text
//! cargo run --release -p morsel-bench --bin repro -- --quick all \
//!     | grep -v ' regenerated in .* wall time\]$' \
//!     > crates/bench/tests/golden/repro_quick_all.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/repro_quick_all.txt");

fn is_wall_time(line: &str) -> bool {
    line.starts_with('[') && line.contains(" regenerated in ") && line.ends_with(" wall time]")
}

#[test]
fn repro_quick_all_matches_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "all"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro --quick all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    let got: String = stdout
        .lines()
        .filter(|l| !is_wall_time(l))
        .map(|l| format!("{l}\n"))
        .collect();
    if got == GOLDEN {
        return;
    }
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), GOLDEN.lines().collect());
    let first = (got_lines.iter().zip(&want_lines))
        .position(|(g, w)| g != w)
        .unwrap_or(got_lines.len().min(want_lines.len()));
    panic!(
        "repro --quick all differs from golden/repro_quick_all.txt at line {}:\n  \
         golden: {:?}\n  got:    {:?}\n({} lines golden, {} got; regenerate the \
         file as this test's module docs say if the movement is intended)",
        first + 1,
        want_lines.get(first),
        got_lines.get(first),
        want_lines.len(),
        got_lines.len(),
    );
}
