#!/usr/bin/env python3
"""End-to-end benchmark of the FETI dual-operator library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake package that compiles ../src into its own static
library) into $CARGO_TARGET_DIR (default .bench_build), runs one workload
through the library's public API, and prints one JSON record as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the run's spans are
written to <build dir>/traces/. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Every workload the program runs; BENCHMARK.json lists the measured ones.
WORKLOADS = ("transient-gpu-2d", "transient-gpu-3d", "transient-cpu-2d",
             "service-mix")
# The percentile reported as latency_tail_s (README, "Metrics", says why).
TAIL_PCT = 75

# A run that does not finish in this time is stopped and its unfinished
# operations count as failed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return build_dir / "feti_perfbench"


def run_program(binary, args):
    """Runs the benchmark program; returns (stdout lines, exit code, peak RSS).

    The program sets its own thread budget (src/harness.hpp)."""
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.splitlines(), proc.returncode, usage.ru_maxrss * 1024


def nearest_rank(sorted_values, pct):
    rank = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(build_dir.resolve())

    prog_args = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        prog_args += ["--trace-out",
                      str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    lines, code, peak_rss = run_program(binary, prog_args)

    setups, ops, layers = [], [], {}
    planned, per_round, correct, finished = None, 1, True, False
    for line in lines:
        f = line.split()
        if not f:
            continue
        if f[0] == "SETUP":
            setups.append(float(f[1]))
        elif f[0] == "PLAN":
            planned, per_round = int(f[1]), int(f[2])
        elif f[0] == "OP":
            ops.append((f[2] == "ok", float(f[3]), float(f[4])))
        elif f[0] == "LAYER":
            layers[f[1]] = float(f[2])
        elif f[0] == "CHECK":
            if f[2] != "ok":
                correct = False
                print(f"perfbench: {line}", file=sys.stderr)
            if f[1] == "run":
                finished = True
    if planned is None or not setups:
        fail(f"program exited with code {code} before its timed phase")
    if code != 0 or not finished:
        # A run killed mid-way (a crash, or the timeout) still reports what it
        # attempted: the unreached operations count as failed.
        print(f"perfbench: program exited with code {code} after "
              f"{len(ops)} of {planned} operations", file=sys.stderr)

    ok_latencies = [lat for ok, lat, _ in ops if ok]
    # Throughput per round (checked-correct operations / round wall time),
    # median over the run's rounds; an unreached round counts as 0.
    rates, t_prev = [], 0.0
    for r in range(planned // per_round):
        chunk = ops[r * per_round:(r + 1) * per_round]
        if len(chunk) < per_round:
            rates.append(0.0)
            continue
        t_end = chunk[-1][2]
        rates.append(sum(ok for ok, _, _ in chunk) / max(t_end - t_prev, 1e-9))
        t_prev = t_end
    failed = planned - len(ok_latencies)
    # A failed or unreached operation misses every latency limit.
    latencies = sorted(ok_latencies + [math.inf] * failed)
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": nearest_rank(latencies, 50),
        "latency_tail_s": nearest_rank(latencies, TAIL_PCT),
        "ok_ops_per_s": statistics.median(rates),
        "peak_rss_bytes": float(peak_rss),
    }
    if args.trace:
        values = dict(layers)
        values["trace.latency_p50_s"] = nearest_rank(latencies, 50)
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"perfbench: metric {m['name']} not produced", file=sys.stderr)
            continue
        v = values[m["name"]]
        if not math.isfinite(v):
            print(f"perfbench: metric {m['name']} is not finite", file=sys.stderr)
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": planned,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
