"""catamp benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload pure-sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): pure-sweep,
deep-schedule, analytic-sweep. Every workload process is fresh and uses one
BLAS thread.

--trace 0 prints the end-to-end metrics. Set-up time is the median over
several fresh processes of the time from process start until the first op
is ready (imports, inputs and whatever the first call builds). Ops then run
in a closed loop for --seconds and at least 100 ops (deep-schedule stops
at a pass end), each op timed on its own; its correctness gate runs
untimed. ops_per_s is the median throughput over the run's passes, or over
ten equal slices of it, so a short slowdown of the host moves it less.

--trace 1 prints the per-layer metrics. The ops of half a run are run once
with tracing wrappers installed (spans.py) and once without, in two fresh
processes; the tracing overhead is the difference of their op times.

Lines before the last carry the environment and run details; the last line
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("pure-sweep", "deep-schedule", "analytic-sweep")
SETUP_PROBES = 4
DEADLINE_S = 170.0
# One thread: on the 2-core host this was tuned on, two OpenBLAS threads
# made pure-input stages ~3x slower (rank-8 stages ~1.5x faster) and made
# op times of every workload noisier.
BLAS_THREADS = 1
# Nominal ops per second on a 2-core x86 host; sizes the traced run only.
TRACE_RATE = {"pure-sweep": 40.0, "deep-schedule": 2.0, "analytic-sweep": 500.0}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, mode: str, deadline: float, **extra) -> dict:
    """Run one worker process; return its summary with ``setup_s`` added."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    for key, val in extra.items():
        cmd += [f"--{key}", str(val)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing")
    summary = json.loads(lines[-1])
    summary["setup_s"] = summary["ready"] - started
    return summary


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = spawn(args, "measure", deadline, seconds=args.seconds)
    setups.append(run["setup_s"])
    ms = [t * 1e3 for t in run["times"]]
    attempted = len(ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(run["segment_rates"]), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (quantile(ms, 0.9), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - run["failed"]) / attempted, "ratio"),
        "prob_abs_err_max": (run["prob_abs_err_max"], "prob"),
    }
    detail = {"op_samples": attempted, "setup_samples_s": setups,
              "measured_s": sum(ms) / 1e3, "failed": run["failed"],
              "errors": run["errors"]}
    return metrics, run | {"detail": detail}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    ops = max(1, math.ceil(TRACE_RATE[args.workload] * args.seconds / 2))
    ref = spawn(args, "reference", deadline, ops=ops)
    run = spawn(args, "trace", deadline, ops=ops)
    common = min(len(ref["times"]), len(run["times"]))
    overhead = 100.0 * (sum(run["times"][:common]) / sum(ref["times"][:common]) - 1.0)
    metrics = {k: tuple(vu) for k, vu in run["layers"].items()}
    metrics["trace.overhead_pct"] = (overhead, "%")
    failed = run["failed"] + ref["failed"]
    detail = {"op_samples": len(run["times"]), "failed": failed,
              "errors": run["errors"] + ref["errors"]}
    return metrics, run | {"failed": failed, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, run = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = run["detail"]["op_samples"]
    result = {"correct": run["failed"] == 0, "attempted": attempted, "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print("env " + json.dumps(run["env"]))
    print("detail " + json.dumps(run["detail"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
