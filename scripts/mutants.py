#!/usr/bin/env python3
"""Run the mutant catalogue: every checker must catch its broken variants.

Each entry of ``mutants/catalogue.txt`` names a file, a search text that
occurs in it exactly once, its replacement, and the test targets that must
fail once the replacement is made. The script extracts a commit into a
scratch directory (``git archive``, so the repository's worktree and refs
are untouched), first runs every target there unmutated — each must pass
and run at least one test — and then, per mutant, applies the replacement,
runs only that mutant's targets and restores the file. The extraction
runs ``tar -x -m``: every file is stamped with the time it was extracted,
not the commit's time, so a build directory kept from a newer commit
(``--workdir``, or a cached ``target/``) is never taken as fresh for an
older commit's sources. A mutant is

* **caught** when every one of its targets fails (a target that outlives
  its time limit counts as failed: a mutant that hangs a worker is caught),
* **survived** when one of them still passes (the names are printed), and
* **stale** when its search text no longer occurs exactly once, and
* **broken** when the mutated copy does not compile (a failure that
  proves nothing about the tests).

Anything but caught fails the run (exit status 1): a change that moves
mutated code updates its entry in the same change.

    scripts/mutants.py [COMMIT] [--workdir DIR] [--list]

COMMIT defaults to HEAD. To check uncommitted work, stage it (``git add
-A``) and pass ``$(git stash create)``. ``--workdir`` keeps the checkout
and its build directory between runs (default: a fresh temporary
directory, removed afterwards). Tests build in the debug profile, as
``cargo test`` does. A mutated target is killed after three times the
longest unmutated run (which includes the full build), and at least
after five minutes; an unmutated one after an hour.

Needs python3, git, tar and cargo; no other package.
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOGUE = os.path.join(ROOT, "mutants", "catalogue.txt")
KEYS = {"file", "search", "replace", "target", "source"}
BASELINE_LIMIT = 3600  # seconds an unmutated target may take, build included


def parse(path):
    """The catalogue's entries, in order, as dicts (``target`` a list)."""
    entries, entry = [], None
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            header = re.fullmatch(r"\[([A-Za-z0-9_.-]+)\]", line.strip())
            if header:
                entry = {"id": header.group(1), "target": []}
                entries.append(entry)
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if entry is None or not sep or key not in KEYS:
                sys.exit(f"{path}:{n}: expected '[id]' or one of {sorted(KEYS)} = ...")
            # `search` and `replace` are verbatim after "= "; the rest trim.
            value = value.removeprefix(" ")
            if key not in ("search", "replace"):
                value = value.strip()
            if key == "target":
                entry["target"].append(value)
            elif key in entry:
                sys.exit(f"{path}:{n}: '{key}' given twice in [{entry['id']}]")
            else:
                entry[key] = value
    ids = [e["id"] for e in entries]
    for e in entries:
        missing = KEYS - e.keys() | ({"target"} if not e["target"] else set())
        if missing:
            sys.exit(f"{path}: [{e['id']}] lacks {sorted(missing)}")
        if ids.count(e["id"]) > 1:
            sys.exit(f"{path}: [{e['id']}] appears twice")
    return entries


def checkout(commit, workdir):
    """Extract `commit` into workdir/src; returns the path."""
    path = os.path.join(workdir, "src")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-m", "-C", path], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {commit} failed")
    return path


def run_target(src, target_dir, target, limit):
    """Run one target for at most `limit` seconds; returns (passed, timed
    out, tests run, seconds, output). On timeout the whole process group
    is killed: cargo and the test binary it started."""
    start = time.monotonic()
    proc = subprocess.Popen(
        ["cargo", "test", "--offline", "-q", *target.split()],
        cwd=src,
        env={**os.environ, "CARGO_TARGET_DIR": target_dir},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=limit)
        timed_out = False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        timed_out = True
    ran = sum(int(m) for m in re.findall(r"test result: \w+\. (\d+) passed", out))
    ran += sum(int(m) for m in re.findall(r"; (\d+) failed", out))
    passed = proc.returncode == 0 and not timed_out
    return passed, timed_out, ran, time.monotonic() - start, out


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("commit", nargs="?", default="HEAD")
    ap.add_argument("--workdir", help="scratch directory, kept between runs")
    ap.add_argument("--list", action="store_true", help="print the catalogue and exit")
    args = ap.parse_args()

    entries = parse(CATALOGUE)
    if args.list:
        for e in entries:
            print(f"{e['id']}: {e['file']} -> {'; '.join(e['target'])}")
        return 0

    workdir = args.workdir or tempfile.mkdtemp(prefix="mutants-")
    os.makedirs(workdir, exist_ok=True)
    try:
        return check(args.commit, workdir, entries)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)


def check(commit, workdir, entries):
    src = checkout(commit, workdir)
    target_dir = os.path.join(workdir, "target")

    # Every target passes unmutated and runs a test: otherwise a failure
    # under a mutant would prove nothing, and a filter that names no test
    # would let every mutant survive.
    longest = 0.0
    for target in sorted({t for e in entries for t in e["target"]}):
        passed, timed_out, ran, secs, out = run_target(src, target_dir, target, BASELINE_LIMIT)
        longest = max(longest, secs)
        print(f"baseline  {target}  ({ran} tests, {secs:.0f} s"
              + (", timed out" if timed_out else "") + ")", flush=True)
        if not passed or ran == 0:
            print("\n".join(out.strip().splitlines()[-12:]))
            sys.exit(f"baseline: `cargo test {target}` must pass and run a test")
    # A mutant that hangs a worker (one that panics inside a threaded
    # pipeline, say) must not hang the run: its target is killed and
    # counted as failed.
    limit = max(300.0, 3 * longest)

    verdicts = {}
    for e in entries:
        path = os.path.join(src, e["file"])
        try:
            with open(path, encoding="utf-8") as f:
                original = f.read()
        except FileNotFoundError:
            original = ""
        count = original.count(e["search"])
        if count != 1:
            verdicts[e["id"]] = "stale"
            print(f"STALE     {e['id']}: the search text occurs {count} times in {e['file']}")
            continue
        with open(path, "w", encoding="utf-8") as f:
            f.write(original.replace(e["search"], e["replace"]))
        escaped, broken = [], False
        try:
            for target in e["target"]:
                passed, timed_out, _, secs, out = run_target(src, target_dir, target, limit)
                outcome = "passed" if passed else "timed out" if timed_out else "failed"
                print(f"  {e['id']}: {target} {outcome} ({secs:.0f} s)", flush=True)
                if passed:
                    escaped.append(target)
                elif "could not compile" in out:
                    broken = True
                    print("\n".join(out.strip().splitlines()[-12:]))
                    break
        finally:
            with open(path, "w", encoding="utf-8") as f:
                f.write(original)
        if broken:
            verdicts[e["id"]] = "broken"
            print(f"BROKEN    {e['id']}: the mutated copy does not compile")
        elif escaped:
            verdicts[e["id"]] = "survived"
            print(f"SURVIVED  {e['id']}: still passes {'; '.join(escaped)}")
        else:
            verdicts[e["id"]] = "caught"
            print(f"caught    {e['id']}")

    bad = [i for i, v in verdicts.items() if v != "caught"]
    print(f"\n{len(verdicts) - len(bad)} of {len(verdicts)} mutants caught"
          + (f"; not caught: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
