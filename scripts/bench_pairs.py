"""Compare two checkouts on the perfbench workloads in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload step-error --seeds 1 7 --pairs 6 --out BENCH_N.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, for
the ``run_seconds`` that the change's ``BENCHMARK.json`` declares, and
the side that runs first alternates from pair to pair.  The output JSON
holds every run's end-to-end metrics and failure counts, the median and
quartiles per side and seed, the pairs each side won, one traced run per
side for the named count metrics, each side's first run record
(versions, BLAS, cpu count) and, with ``--pytest-id``, the set-up and
call times of that test in each checkout; a module fixture's cost is the
set-up time of the first test that requests it.

It prints a verdict for each ``end_to_end`` metric of the change's
``BENCHMARK.json``, whose bound is a fraction of the parent's median
(``perfbench/README.md``): "beyond bound" if the change's median is worse
than the parent's by more than the bound; "unresolved" if the parent's
quartile spread over its median exceeds the bound and not every change
run beats every parent run; "gain" if the change wins at least 9 of 10
pairs and its median beats the parent's by more than the parent's
quartile spread; otherwise "within bound".
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def bench(root, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("run_record "))
    return record, json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def verdict(metric, runs, stats):
    """Verdict word and report line for one ``end_to_end`` metric; the
    median change is relative to the parent's median, positive if worse."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = stats["parent"]["median"]
    change = sign * (stats["change"]["median"] - base) / base
    spread = (stats["parent"]["q3"] - stats["parent"]["q1"]) / base
    change_runs = [sign * r["change"][name] for r in runs]
    parent_runs = [sign * r["parent"][name] for r in runs]
    wins = sum(c < p for c, p in zip(change_runs, parent_runs))
    beats_all = max(change_runs) < min(parent_runs)
    if change > bound:
        word = "beyond bound"
    elif spread > bound and not beats_all:
        word = "unresolved"
    elif wins >= 0.9 * len(runs) and -change > spread:
        word = "gain"
    else:
        word = "within bound"
    line = (f"{name}: median {change:+.1%} (bound {bound:.0%}), parent spread "
            f"{spread:.1%} of its median, change won {wins}/{len(runs)}: {word}")
    return word, line


def pytest_phases_s(root, test_id, repeats):
    """Minimum over ``repeats`` runs of the test's set-up and call phases,
    in seconds."""
    env = dict(os.environ, PYTHONPATH="src")
    times = {"setup": [], "call": []}
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--durations=0", "--durations-min=0", test_id],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        for phase, found in times.items():
            found.append(float(re.search(rf"([\d.]+)s {phase} ", out).group(1)))
    return {phase: min(found) for phase, found in times.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True, help="pairs per seed")
    parser.add_argument("--counts", nargs="*", default=[],
                        help="per-layer count metrics to read from one traced run per side")
    parser.add_argument("--pytest-id", help="test whose set-up and call times to report per side")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    seconds, end_to_end = declared["run_seconds"], declared["end_to_end"]
    metrics = [m["name"] for m in end_to_end]

    runs, records = [], {}
    for seed in args.seeds:
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                rec, final = bench(roots[side], args.workload, seed, seconds, 0)
                records.setdefault(side, rec)
                pair[side] = {name: final["metrics"][name]["value"] for name in metrics}
                pair[side].update(failed=final["failed"], attempted=final["attempted"])
                print(f"seed {seed} pair {k} {side}: {pair[side]}", file=sys.stderr)
            runs.append({"seed": seed, "first": order[0], **pair})

    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        entry = {side: quartiles([r[side][name] for r in runs]) for side in SIDES}
        for seed in args.seeds:
            entry[f"seed_{seed}"] = {
                side: quartiles([r[side][name] for r in runs if r["seed"] == seed])
                for side in SIDES
            }
        entry["change_wins"] = sum(r["change"][name] < r["parent"][name] for r in runs)
        entry["parent_wins"] = sum(r["parent"][name] < r["change"][name] for r in runs)
        entry["verdict"], line = verdict(metric, runs, entry)
        print(f"{args.workload} {line}")
        summary[name] = entry
    failures = {side: [sum(r[side][k] for r in runs) for k in ("failed", "attempted")]
                for side in SIDES}

    result = {
        "workload": args.workload,
        "seconds": seconds,
        "pairs": len(runs),
        "run_records": records,
        "summary": summary,
        "failed_of_attempted": failures,
        "runs": runs,
    }
    if args.counts:
        traced = {side: bench(roots[side], args.workload, args.seeds[0], seconds, 1)[1]
                  for side in SIDES}
        result["counts"] = {name: {side: traced[side]["metrics"][name]["value"] for side in SIDES}
                            for name in args.counts}
    if args.pytest_id:
        phases = {side: pytest_phases_s(roots[side], args.pytest_id, 3) for side in SIDES}
        result["pytest_s"] = {"test": args.pytest_id, **phases}
        for side in SIDES:
            print(f"{args.pytest_id} {side}: setup {phases[side]['setup']:.3f} s, "
                  f"call {phases[side]['call']:.3f} s")
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
