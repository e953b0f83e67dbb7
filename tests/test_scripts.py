"""Verdicts of scripts/bench_pairs.py on synthetic runs."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}


def verdict_of(parent: list, change: list) -> str:
    runs = [{"parent": {"wall_s": p}, "change": {"wall_s": c}} for p, c in zip(parent, change)]
    stats = {side: bench_pairs.quartiles([r[side]["wall_s"] for r in runs])
             for side in bench_pairs.SIDES}
    return bench_pairs.verdict(WALL, runs, stats)[0]


@pytest.mark.parametrize("pairs, word", [(3, "too few pairs for a gain"),
                                         (9, "too few pairs for a gain"),
                                         (10, "gain")])
def test_gain_needs_ten_pairs(pairs, word):
    # every pair won by 20%, against a parent spread of about 1%
    parent = [1.0 + 0.001 * k for k in range(pairs)]
    assert verdict_of(parent, [0.8 * p for p in parent]) == word


def test_fewer_pairs_still_read_bounds():
    parent = [1.0, 1.001, 1.002]
    assert verdict_of(parent, [1.5 * p for p in parent]) == "beyond bound"
    assert verdict_of(parent, [1.01 * p for p in parent]) == "within bound"
