#!/usr/bin/env python3
"""Paired comparison of two commits on the repo's benchmark.

Extracts each commit into its own directory (``git archive``, so the
repository's own worktree and refs are untouched), builds the benchmark
harness there, then runs N pairs per workload through the command that
BENCHMARK.json declares, alternating which commit runs first. Pair i
runs both commits on seed ``--seed0 + i``, each from its own checkout
root, with ``--trace 0`` (the end-to-end metrics).

For every workload and end-to-end metric it prints each side's median
[Q1, Q3], the ratio of the medians (head / base), "ahead k/N" (pairs in
which head read better, ties counting for neither side), the base's
IQR / median, and a two-sided sign-test p-value over the untied pairs.
Every run is printed as it finishes, with its failed/attempted counts.

    scripts/pairs.py BASE HEAD [--pairs 10] [--workloads w1,w2]
                     [--seconds 15] [--seed0 1] [--workdir DIR] [--append]

BASE and HEAD are commit-ish. To measure uncommitted work, stage it
(``git add -A``) and pass ``$(git stash create)`` as HEAD. Passing the
same commit twice is a null comparison. ``--append`` adds one record per
(commit, workload, metric) to BENCH_trajectory.json at the repo root.

Needs python3, git, tar and cargo; no other package.
"""

import argparse
import datetime
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.json")


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(commit, workdir):
    """Extract `commit` into workdir/<sha> once and build its harness there."""
    path = os.path.join(workdir, commit)
    if not os.path.isdir(path):
        tmp = path + ".partial"
        os.makedirs(tmp, exist_ok=True)
        archive = subprocess.Popen(
            ["git", "-C", ROOT, "archive", commit], stdout=subprocess.PIPE
        )
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {commit} failed")
        os.rename(tmp, path)
    print(f"building the harness at {commit[:12]} in {path}", file=sys.stderr)
    subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "benchmark/Cargo.toml",
        ],
        cwd=path,
        check=True,
    )
    with open(os.path.join(path, "BENCHMARK.json")) as f:
        return path, json.load(f)["command"]


def run_once(path, command, workload, seed, seconds):
    """One end-to-end run; returns the harness's final JSON line."""
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(
        args, cwd=path, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    """Median, Q1 and Q3, as baseline.json computes its spreads."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def sign_test(wins, losses):
    """Two-sided exact sign-test p-value over the untied pairs."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2 * tail)


def fmt(x):
    return f"{x:.4g}"


def write_trajectory(trajectory):
    """One record per line, so a diff shows the records a run added."""
    head = {k: v for k, v in trajectory.items() if k != "records"}
    lines = [f" {json.dumps(k)}: {json.dumps(v, ensure_ascii=False)}," for k, v in head.items()]
    records = ",\n".join(
        "  " + json.dumps(r, ensure_ascii=False) for r in trajectory["records"]
    )
    with open(TRAJECTORY, "w") as f:
        f.write("{\n" + "\n".join(lines) + '\n "records": [\n' + records + "\n ]\n}\n")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, help="timed window; default: BENCHMARK.json run_seconds")
    ap.add_argument("--seed0", type=int, default=1, help="pair i runs seed SEED0 + i")
    ap.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "morsel-pairs"))
    ap.add_argument("--append", action="store_true", help="add the records to BENCH_trajectory.json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    metrics = contract["end_to_end"]
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in contract["workloads"]]
    )
    seconds = args.seconds or contract["run_seconds"]
    sides = {
        "base": git("rev-parse", "--verify", args.base + "^{commit}"),
        "head": git("rev-parse", "--verify", args.head + "^{commit}"),
    }
    os.makedirs(args.workdir, exist_ok=True)
    built = {}
    for sha in dict.fromkeys(sides.values()):
        built[sha] = checkout(sha, args.workdir)

    # runs[workload][side] = list of result objects, in pair order.
    runs = {w: {"base": [], "head": []} for w in workloads}
    for w in workloads:
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                path, command = built[sides[side]]
                result = run_once(path, command, w, seed, seconds)
                runs[w][side].append(result)
                values = " ".join(
                    f"{m['name']}={fmt(result['metrics'][m['name']]['value'])}"
                    for m in metrics
                )
                print(
                    f"run {w} pair {i + 1}/{args.pairs} seed {seed} {side}"
                    f"{' (first)' if side == order[0] else ''}: {values} "
                    f"failed {result['failed']}/{result['attempted']} "
                    f"correct {str(result['correct']).lower()}",
                    flush=True,
                )

    print()
    print(f"base {sides['base'][:12]}, head {sides['head'][:12]}; {args.pairs} pairs, "
          f"--seconds {seconds}, seeds {args.seed0}-{args.seed0 + args.pairs - 1}; "
          "median [Q1, Q3]; ahead = pairs where head read better")
    print()
    print("| workload | metric | base | head | ratio | ahead | base IQR ÷ median | sign p |")
    print("|---|---|---|---|---|---|---|---|")
    records = []
    today = datetime.date.today().isoformat()
    for w in workloads:
        for m in metrics:
            name = m["name"]
            vals = {s: [r["metrics"][name]["value"] for r in runs[w][s]] for s in sides}
            stats = {s: quartiles(vals[s]) for s in sides}
            lower = m["better"] == "lower"
            wins = sum(
                (h < b) if lower else (h > b) for b, h in zip(vals["base"], vals["head"])
            )
            losses = sum(
                (h > b) if lower else (h < b) for b, h in zip(vals["base"], vals["head"])
            )
            (bm, bq1, bq3), (hm, hq1, hq3) = stats["base"], stats["head"]
            print(
                f"| `{w}` | `{name}` | {fmt(bm)} [{fmt(bq1)}, {fmt(bq3)}] "
                f"| {fmt(hm)} [{fmt(hq1)}, {fmt(hq3)}] | ×{hm / bm:.3f} "
                f"| {wins}/{args.pairs} | {(bq3 - bq1) / bm:.3f} | {sign_test(wins, losses):.3f} |"
            )
            for side, other in (("base", "head"), ("head", "base")):
                if side == "head" and sides["head"] == sides["base"]:
                    continue
                med, q1, q3 = stats[side]
                records.append({
                    "commit": sides[side],
                    "workload": w,
                    "metric": name,
                    "unit": m["unit"],
                    "n": args.pairs,
                    "median": med,
                    "q1": q1,
                    "q3": q3,
                    "values": vals[side],
                    "seeds": [args.seed0 + i for i in range(args.pairs)],
                    "seconds": seconds,
                    "paired_with": sides[other],
                    "date": today,
                    "cpus": os.cpu_count(),
                    "source": "scripts/pairs.py",
                })
    for w in workloads:
        for s in sides:
            failed = sum(r["failed"] for r in runs[w][s])
            attempted = sum(r["attempted"] for r in runs[w][s])
            correct = all(r["correct"] for r in runs[w][s])
            print(f"{w} {s}: failed {failed}/{attempted}, correct {str(correct).lower()}")

    if args.append:
        with open(TRAJECTORY) as f:
            trajectory = json.load(f)
        trajectory["records"].extend(records)
        write_trajectory(trajectory)
        print(f"appended {len(records)} records to {TRAJECTORY}", file=sys.stderr)


if __name__ == "__main__":
    main()
