"""One workload process of the benchmark; run.py starts it.

Modes:
  setup      import, generate the inputs, warm up, report when ready, exit
  measure    as setup, then time ops until --seconds have passed and at
             least 100 ops are done
  trace      as measure with tracing installed, for exactly --ops ops
  reference  as trace without tracing (the untraced twin for the overhead)

The last line of standard output is a JSON summary. catamp is imported
from the checkout's src/ and nowhere else, so a checkout without the
package fails here.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MAX_ERRORS = 5
# p90 needs ten samples beyond it
MIN_OPS = 100
# throughput is the median over this many slices of a run without passes
SEGMENTS = 10


def _import_catamp():
    sys.path.insert(0, str(SRC))
    import catamp
    if not Path(catamp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"catamp was imported from {catamp.__file__}, not from {SRC}")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload: str, seed: int, cutoff: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "cutoff": cutoff, "workload": workload, "seed": seed}


def run_ops(wl, stop, tracer=None) -> tuple[list, int, list]:
    """Run ops from the workload's stream until ``stop`` says so at a boundary."""
    times, failed, errors = [], 0, []
    begin = perf_counter()
    for i, (spec, boundary) in enumerate(wl.specs()):
        if tracer is not None:
            tracer.open_op(i)
        t0 = perf_counter()
        # a failing op or gate is counted and the run goes on
        try:
            out, err = wl.execute(spec), None
        except Exception as exc:
            out, err = None, f"{spec}: {type(exc).__name__}: {exc}"
            traceback.print_exc()
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.close_op()
        if err is None:
            try:
                err = wl.check(spec, out)
            except Exception as exc:
                err = f"{spec}: gate raised {type(exc).__name__}: {exc}"
                traceback.print_exc()
        if err is not None:
            failed += 1
            errors.append(err)
        if boundary and stop(len(times), perf_counter() - begin):
            return times, failed, errors
    raise AssertionError("op streams are endless")


def segment_rates(times: list, pass_ops: int | None) -> list:
    """Ops per second of each pass, or of ten equal slices of the run."""
    size = pass_ops or max(1, len(times) // SEGMENTS)
    return [size / sum(times[i:i + size]) for i in range(0, len(times) - size + 1, size)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "reference"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    args = ap.parse_args(argv)

    _import_catamp()
    import workloads
    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    first, _ = next(wl.specs())
    wl.warmup(first)
    ready = time.monotonic()
    summary = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(summary))
        return 0

    if args.mode == "measure":
        def stop(done, elapsed):
            return elapsed >= args.seconds and done >= MIN_OPS
    else:
        def stop(done, _):
            return done >= args.ops
    times, failed, errors = run_ops(wl, stop, tracer)
    finish = wl.finish()
    failed += len(finish)
    errors += finish

    if tracer is not None:
        tracer.open_op(len(times))
    try:
        wl.render()
    except AttributeError as exc:  # the table layer is optional to the benchmark
        print(f"table not rendered: {exc}", file=sys.stderr)
    if tracer is not None:
        tracer.close_op()

    summary.update(
        times=times, segment_rates=segment_rates(times, wl.pass_ops),
        failed=failed, errors=errors[:MAX_ERRORS],
        prob_abs_err_max=wl.prob_abs_err_max(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(args.workload, args.seed, workloads.CUTOFF))
    if tracer is not None:
        summary["layers"] = tracer.layer_metrics(len(times))
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{args.workload}.npz"))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
