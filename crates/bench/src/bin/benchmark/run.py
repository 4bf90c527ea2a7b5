#!/usr/bin/env python3
"""Builds and runs the NetSparse simulator benchmark.

    python3 crates/bench/src/bin/benchmark/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
    python3 crates/bench/src/bin/benchmark/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 crates/bench/src/bin/benchmark/run.py --calibrate N [--vary-seed] [--workload W] [...]

The first form runs one workload in a fresh process and ends its standard
output with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` runs the end-to-end pass (release build without features);
`--trace 1` runs the per-layer pass (release build with the simulator's
`trace` feature). The second form runs every workload in turn and prints
the total wall time to standard error.

`--calibrate N` runs every workload N times, each in a fresh process,
interleaving workloads, and prints each metric's median, quartiles and
spread (IQR over median) beside the bound BENCHMARK.json gives it. Every
run uses --seed; with --vary-seed run i uses --seed + i instead. The runs
and the summary go to <build dir>/benchmark/calibrate.json.

Both binaries are built from source on every invocation (a no-op once
built) into $CARGO_TARGET_DIR (default .bench_build)/{plain,trace}.
Per-run artifacts go to <build dir>/benchmark/. Exits 2 if the build
fails, 1 if a run fails its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[4]
WORKLOADS = ["uk_full", "uk_rigonly", "europe_full", "arabic_ext"]
# A run measures for --seconds plus set-up and its last round; anything
# near this is a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def binary(trace):
    return build_dir() / ("trace" if trace else "plain") / "release" / "benchmark"


def build():
    """Builds both variants; returns False if either build fails."""
    for trace in (False, True):
        cmd = [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", str(HERE / "Cargo.toml"),
            "--target-dir", str(binary(trace).parent.parent),
        ]
        if trace:
            cmd += ["--features", "trace"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [
        str(binary(trace)), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--out-dir", str(build_dir() / "benchmark"),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def declared_bounds():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}


def calibrate(args, workloads):
    bounds = declared_bounds()
    runs = {w: [] for w in workloads}
    for i in range(args.calibrate):
        seed = args.seed + i if args.vary_seed else args.seed
        for w in workloads:
            code, out = run_one(w, seed, args.seconds, args.trace)
            res = result_of(out)
            if code != 0 or res is None:
                print(out, end="")
                print(f"{w} seed {seed}: run failed (exit {code})", file=sys.stderr)
                return 1
            runs[w].append({"seed": seed, "result": res})
            print(f"  {w} run {i} (seed {seed}) done", file=sys.stderr)
    summary = {}
    print(f"{'workload':<12} {'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        summary[w] = {}
        for name in runs[w][0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- over bound/3"
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{w:<12} {name:<30} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.2%} {'' if bound is None else bound:>6}{flag}")
    out_dir = build_dir() / "benchmark"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "calibrate.json").write_text(
        json.dumps({"seconds": args.seconds, "trace": args.trace,
                    "vary_seed": args.vary_seed, "runs": runs,
                    "summary": summary}, indent=1) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2025)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--calibrate", type=int, metavar="N")
    p.add_argument("--vary-seed", action="store_true")
    args = p.parse_args()
    workloads = [args.workload] if args.workload else WORKLOADS

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 2
    if args.calibrate:
        return calibrate(args, workloads)
    start = time.monotonic()
    worst = 0
    for w in workloads:
        code, out = run_one(w, args.seed, args.seconds, args.trace)
        print(out, end="", flush=True)
        worst = max(worst, code)
    if len(workloads) > 1:
        print(f"{len(workloads)} workloads in {time.monotonic() - start:.1f} s",
              file=sys.stderr)
    return worst


if __name__ == "__main__":
    sys.exit(main())
