#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

    python3 perfbench/run.py --workload <pixel_serve|table_churn|table_solo> \
        --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The benchmark is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the checkout root). The
last line of standard output is the JSON result; the script checks that
its metrics are exactly the ones BENCHMARK.json lists for the run, and
exits non-zero without printing a result when the build, the run or that
check fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark itself stops within --seconds plus a few passes; this is
# the hard stop for a hung run.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        return f"metrics {got} differ from BENCHMARK.json {want}"
    return None


def main():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")

    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    proc = subprocess.Popen(
        [str(target / "release" / "perfbench"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{") else lines) + "\n")
        return fail(f"run exited with code {proc.returncode}")
    problem = check_result(lines[-1], trace)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problem:
        return fail(problem)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
