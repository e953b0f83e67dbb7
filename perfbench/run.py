"""adiawalk benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of long-evolve, spectral-gaps, search-scaling, step-error
(see workloads.py for what each runs and why).  The program is imported
from ``src/`` of the checkout; nothing is installed.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``: median wall time of one repetition of the workload, over
  the repetitions that fit in ``--seconds`` (at least 3), outputs checked;
* ``setup_s``: median over 9 fresh interpreters of the time to import
  ``adiawalk`` and prepare the workload's inputs;
* ``peak_rss_mb``: peak resident memory of the process that ran it.

``fail_rate`` (operations that raised or disagreed with their reference,
over operations attempted) is printed too; the final JSON line carries
it as ``failed`` and ``attempted``.  With ``--trace 1`` the run reports the
per-layer metrics of tracing.py instead, from traced repetitions that
follow the untraced ones.

Every run pins BLAS to one thread unless the caller set it, so the
process uses at most the CLI's own worker threads (one per core).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the run record and each metric by name and unit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("long-evolve", "spectral-gaps", "search-scaling", "step-error")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_PROBES = 9
RUN_TIMEOUT_S = 170.0
SCRATCH = ".perfbench_tmp"


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def _child(argv, env, deadline):
    """Run one worker to completion and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args, root):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = _child_env(root)
    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, SCRATCH))
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
        if args.tiny:
            common.append("--tiny")
        setup = []
        if not args.trace:
            # one extra probe first, so every timed probe finds bytecode cached
            for _ in range(SETUP_PROBES + 1):
                setup.append(_child(["setup", *common], env, deadline)["setup_s"])
        result = _child(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = result["walls"]
    lines = [f"run_record {json.dumps(result['record'], sort_keys=True)}",
             f"repetitions_s {json.dumps(walls)}"]
    if args.trace:
        import tracing

        lines.append(f"trace {json.dumps(result['trace'], sort_keys=True)}")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup[1:]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    notes = {"wall_s": f"median of {len(walls)} repetitions",
             "setup_s": f"median of {SETUP_PROBES} interpreters"}
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {m['value']:.6g} {m['unit']}{note}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"fail_rate {failed / attempted:.6g} fraction  ({failed} of {attempted} operations)")
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, final


def run_all(args, root):
    """Each workload in its own benchmark process, one table at the end."""
    table = []
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=root,
                              timeout=RUN_TIMEOUT_S + 10)
        if proc.returncode != 0:
            print(f"{name}: benchmark exited with code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in final["metrics"].items():
            table.append(f"{name:15s} {metric:42s} {m['value']:14.6g} {m['unit']}")
        rate = final["failed"] / final["attempted"]
        table.append(f"{name:15s} {'fail_rate':42s} {rate:14.6g} fraction")
        code = code or (0 if final["correct"] else 1)
    print("\n".join(table))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the harness self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "adiawalk", "__init__.py")):
        print("perfbench: run from the root of an adiawalk checkout (no src/adiawalk here)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    try:
        lines, final = run_one(args, root)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
