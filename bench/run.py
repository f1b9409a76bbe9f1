"""Run one benchmark workload of viscmin and print its metrics.

    python3 bench/run.py --workload newton --seed 1 --seconds 10 --trace 0

Workloads: spectrum-torus, spectrum-sphere, continuation, newton, or
``all`` (the four in order, in this one process).  The program is imported
from ``src/`` of the checkout this file sits in.  A run sets up its fixtures
several times, then repeats whole rounds of timed program calls until
``--seconds`` of program time have passed (at least one round), and checks
every output against the oracles in ``oracles.py`` outside the timed
region.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, run_s,
peak_rss_mb); with ``--trace 1`` the program's public functions are
wrapped (see ``spans.py``) and the metrics are the per-layer ones.  README.md
says what each metric is and which layer should move which.
"""

import os
import sys
import time

START = time.perf_counter()

# pin BLAS to one thread before numpy loads (viscmin.cli does the same)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(wl, seed, seconds, traced, import_s, say):
    from spans import Tracer, layer_metrics
    from workloads import Context, children_peak_rss_mb, cli_startup_s

    ctx = Context(seed, ROOT, os.path.join(OUT, f"{wl.name}-seed{seed}"),
                  traced)
    tracer = Tracer() if traced else None
    setup_times, round_times, op_times = [], [], {}
    attempted = failed = 0
    peak_rss_mb = 0.0
    errors = []
    if tracer:
        tracer.install()
    try:
        for _ in range(1 if traced else SETUP_REPEATS):
            t0 = time.perf_counter()
            fix = wl.setup(seed)
            setup_times.append(time.perf_counter() - t0)
            # free the previous fixtures (their geometry caches form
            # reference cycles) so the peak memory does not depend on
            # when the collector happens to run
            gc.collect()
        while True:
            outcomes = []
            for op in wl.ops(fix, ctx):
                t0 = time.perf_counter()
                try:
                    result, error = op.call(), None
                except Exception:
                    result, error = None, traceback.format_exc()
                outcomes.append((op, result, time.perf_counter() - t0, error))
            # peak memory of the calls, before the checks add their own
            if wl.name == "continuation":
                peak_rss_mb = children_peak_rss_mb()
            else:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer:
                tracer.active = False
            for op, result, dt, error in outcomes:
                attempted += 1
                op_times.setdefault(op.kind, []).append(dt)
                if error is not None:
                    failed += 1
                    status = "FAILED (error)"
                    sys.stderr.write(f"{op.label}: {error}\n")
                elif op.failed(result):
                    failed += 1
                    status = "FAILED (not converged)"
                else:
                    found = op.check(result)
                    errors += found
                    status = "WRONG: " + "; ".join(found) if found else "ok"
                say(f"  {op.label}: {dt:.3f} s {status}")
            if tracer:
                tracer.active = True
            round_times.append(sum(o[2] for o in outcomes))
            if sum(round_times) >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    say(f"  rounds {len(round_times)}, attempted {attempted}, failed "
        f"{failed}, correct {not errors}")
    for kind, times in op_times.items():
        q1, q2, q3 = _quartiles(times)
        say(f"  {kind}_s over {len(times)} calls: median {q2:.4f} s, "
            f"quartiles {q1:.4f} .. {q3:.4f} s")
    for line in errors:
        say(f"  check failed: {line}")

    run_s = statistics.median(round_times)
    if traced:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in layer_metrics(tracer).items()}
        metrics["cli.startup_s"] = {
            "value": cli_startup_s(ROOT) if wl.name == "continuation" else 0.0,
            "unit": "s"}
        metrics["trace.run_s"] = {"value": run_s, "unit": "s"}
        metrics["trace.setup_s"] = {"value": setup_times[0], "unit": "s"}
        tracer.write(os.path.join(OUT, f"spans-{wl.name}-seed{seed}.json"),
                     {"workload": wl.name, "seed": seed,
                      "environment": environment()})
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times),
                        "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        say(f"  {name} = {m['value']!r} {m['unit']}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "viscmin", "__init__.py")):
        sys.stderr.write(f"bench: no viscmin sources under {SRC}; run from "
                         f"the root of a checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    import viscmin
    from workloads import WORKLOADS
    import_s = time.perf_counter() - START
    if os.path.dirname(os.path.abspath(viscmin.__file__)) != \
            os.path.join(SRC, "viscmin"):
        sys.stderr.write(f"bench: viscmin came from {viscmin.__file__}, "
                         f"not from {SRC}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; "
                         f"expected all or one of {', '.join(WORKLOADS)}\n")
        return 2

    def say(line):
        print(line, flush=True)

    say(f"environment: {json.dumps(environment())}")
    results = {}
    for name in names:
        say(f"workload {name}: seed {args.seed}, trace {args.trace}")
        results[name] = run_workload(WORKLOADS[name], args.seed,
                                     args.seconds, bool(args.trace),
                                     import_s, say)
    if len(names) == 1:
        print(json.dumps(results[names[0]]), flush=True)
        return 0
    for name, res in results.items():
        print(json.dumps({"workload": name, **res}), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items()
                    for k, m in r["metrics"].items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
