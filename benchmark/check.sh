#!/usr/bin/env bash
# Self-check of the benchmark harness: build it, run every workload in
# smoke mode (end-to-end and traced), run the self-test, and hold the
# printed metric names and units to BENCHMARK.json. A functional gate,
# not a measurement; takes about half a minute after the build.
#
#   benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
run() {
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@" 2>/dev/null | tail -n 1
}

# verify <end_to_end|per_layer> <expect-failures: 0|1> <result line>
verify() {
    python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
section, expect_failures, line = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
contract = json.load(open("BENCHMARK.json"))
result = json.loads(line)
assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
want = {m["name"]: m["unit"] for m in contract[section]}
got = {name: m["unit"] for name, m in result["metrics"].items()}
assert got == want, f"{section}: metric names or units differ from BENCHMARK.json: {set(got) ^ set(want)}"
assert result["attempted"] >= 1
if expect_failures:
    assert result["failed"] > 0 and not result["correct"], "self-test did not report failures"
else:
    assert result["failed"] == 0 and result["correct"], "a statement failed twice"
if section == "end_to_end" and not expect_failures:
    assert all(m["value"] > 0 for m in result["metrics"].values()), "an end-to-end metric is 0"
EOF
}

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
    echo "smoke $w"
    verify end_to_end 0 "$(run --workload "$w" --seed 1 --trace 0 --smoke)"
    verify per_layer 0 "$(run --workload "$w" --seed 1 --trace 1 --smoke)"
    echo "self-test $w"
    verify end_to_end 1 "$(run --workload "$w" --seed 1 --trace 0 --smoke --self-test)"
done
echo "benchmark self-check passed"
