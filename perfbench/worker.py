"""Child process of the benchmark: one set-up probe or one measured run.

``worker.py setup ...`` times, in this fresh interpreter, the import of
``adiawalk`` and the preparation of one workload's inputs, and prints
``{"setup_s": ...}``.

``worker.py measure ...`` prepares the workload, runs one untimed warm-up
repetition, then timed repetitions with tracing off until ``--seconds``
have passed (half of them, with ``--trace 1``, followed by the same
amount of traced repetitions).  Every repetition's outputs are checked
after the timing ends.  It prints one JSON object: the repetition wall
times, peak resident memory, operation counts, per-layer metrics when
traced, and the run record.

Only the standard library is imported before the set-up clock starts.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

MIN_REPS = 3
MIN_TRACED_REPS = 2
MAX_MEASURE_S = 120.0  # stop adding repetitions here, whatever the budget


def _setup(args):
    t0 = time.perf_counter()
    import adiawalk  # noqa: F401  (the import is part of what is timed)
    from workloads import WORKLOADS

    WORKLOADS[args.workload].prepare(args.seed, args.workdir, args.tiny)
    return {"setup_s": time.perf_counter() - t0}


def _reps(workload, inputs, outs, budget, min_reps, deadline, tracer=None):
    """Repeat the workload until ``budget`` seconds and ``min_reps`` are
    reached; return the wall times and, when traced, per-rep span metrics."""
    walls, traces = [], []
    start = time.perf_counter()
    while len(walls) < min_reps or time.perf_counter() - start < budget:
        if walls and time.perf_counter() > deadline:
            break
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            raw = workload.run(inputs)
            walls.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            traces.append(tracer.take())
        outs.append(workload.collect(inputs, raw))
    return walls, traces


def _run_record(args):
    import numpy
    import scipy
    from adiawalk import cli

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = None
    resolve = getattr(cli, "_resolve_threads", None)
    try:
        cli_threads = resolve(None) if callable(resolve) else None
    except ValueError:
        cli_threads = None
    sha = None
    if os.path.isdir(".git"):  # the benchmark may run from a plain checkout
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cli_threads": cli_threads,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "ADIAWALK_THREADS")},
    }


def _measure(args):
    deadline = time.perf_counter() + MAX_MEASURE_S
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.workdir, args.tiny)
    outs = []
    _reps(workload, inputs, outs, 0.0, 1, deadline)  # warm-up
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, _ = _reps(workload, inputs, outs, budget, MIN_REPS, deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"walls": walls, "peak_rss_mb": peak_rss_mb}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        traced, reps = _reps(workload, inputs, outs, budget, MIN_TRACED_REPS, deadline, tracer)
        metrics, mismatches = tracing.summarize(reps, traced, walls, tracer.absent)
        result["per_layer"] = metrics
        result["trace"] = {
            "traced_reps": len(traced),
            "threads": len(tracer.threads),
            "absent": sorted(tracer.absent),
            "nondeterministic_counts": mismatches,
        }

    result["attempted"] = workload.ops_per_rep(inputs) * len(outs)
    result["failed"] = sum(workload.check(inputs, out) for out in outs)
    result["record"] = _run_record(args)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    result = _setup(args) if args.mode == "setup" else _measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
