"""Self-test of the benchmark harness; checks no timings.

Run from the root of the checkout:

    python3 perfbench/selftest.py

It runs every workload at tiny sizes, untraced and traced, and checks
that each run passes its output checks and prints exactly the metric
names and units that BENCHMARK.json lists.  It checks that the tracer
puts back every function it wrapped, and that the benchmark refuses to
run, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's files.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")


def _bench(argv, cwd):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
        stdout=subprocess.PIPE, text=True, cwd=cwd, timeout=180,
    )


def check_runs(spec, errors):
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{workload['name']} --trace {trace}"
            proc = _bench(["--workload", workload["name"], "--seed", "1", "--seconds", "1",
                           "--trace", str(trace), "--tiny"], ROOT)
            if proc.returncode != 0:
                errors.append(f"{tag}: exit code {proc.returncode}")
                continue
            final = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(final) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{tag}: result keys {sorted(final)}")
                continue
            if not (final["correct"] and final["failed"] == 0 and final["attempted"] >= 1):
                errors.append(f"{tag}: {final['failed']} of {final['attempted']} failed")
            want = {m["name"]: m["unit"] for m in expected[trace]}
            got = {name: m["unit"] for name, m in final["metrics"].items()}
            if got != want:
                errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got) ^ set(want)) or 'units'}")
            for name, m in final["metrics"].items():
                value = m["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    errors.append(f"{tag}: {name} = {value!r}")
                elif name.endswith(".self_s") and value < 0:
                    errors.append(f"{tag}: negative self time {name} = {value}")
            print(f"ok  {tag}: {final['attempted']} operations", flush=True)


def check_restore(errors):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import adiawalk.cli  # noqa: F401  (loads every layer module)
    from concurrent.futures import ThreadPoolExecutor

    import tracing

    def snapshot():
        spaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "adiawalk"]
        state = {(id(ns), attr): value for ns in spaces for attr, value in vars(ns).items()}
        state["block"] = vars(sys.modules["adiawalk.integrators"].WalkFamily)["block"]
        state["submit"] = ThreadPoolExecutor.submit
        return state

    before = snapshot()
    tracer = tracing.Tracer().install()
    wrapped = sys.modules["adiawalk.evolution"].chain_product
    if wrapped is before[(id(sys.modules["adiawalk.evolution"]), "chain_product")]:
        errors.append("tracer did not wrap evolution.chain_product")
    if sys.modules["adiawalk.linalg"].chain_product is not wrapped:
        errors.append("linalg.chain_product and evolution.chain_product differ under tracing")
    if tracer.absent:
        errors.append(f"spans absent at this commit: {sorted(tracer.absent)}")
    tracer.restore()
    after = snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    if changed:
        errors.append(f"tracer left {len(changed)} names wrapped")
    print("ok  tracer wraps and restores", flush=True)


def check_refusal(errors):
    os.makedirs(SCRATCH, exist_ok=True)
    bare = tempfile.mkdtemp(dir=SCRATCH)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(["--workload", "long-evolve", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], bare)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("benchmark ran without the program next to it")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    errors = []
    check_restore(errors)
    check_refusal(errors)
    check_runs(spec, errors)
    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
