#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the repository root:

    python3 labbench/run.py --workload fs-mixed --seed 1 --seconds 20 --trace 0

Builds labbench/main.exe with dune from the sources in the current
directory, runs it, checks that the metric names and units it reports
are exactly the ones BENCHMARK.json declares for the chosen mode, and
forwards its output. The last line of stdout is the result JSON.
Exits non-zero, without a result line, when the sources are missing or
the build fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = "labbench"
EXE = os.path.join("_build", "default", BENCH_DIR, "main.exe")
WORKLOADS = ("fs-mixed", "blk-hot", "blk-open")


def fail(msg):
    print("labbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """MD5 over the library and benchmark sources, so a result names
    the code that produced it even outside a git checkout."""
    h = hashlib.md5()
    for top in ("lib", BENCH_DIR):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            fail("run from the repository root: %s not found" % need)
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", os.path.join(BENCH_DIR, "main.exe")],
        env=env, capture_output=True, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--commit", git_commit(), "--source-digest", source_digest()],
        capture_output=True, text=True)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        fail("no result line (exit %d)" % run.returncode)
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit changes %s" % (
                 sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                 sorted(k for k in want if k in got and want[k] != got[k])))
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
