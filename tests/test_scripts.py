"""Verdicts of scripts/bench_pairs.py on synthetic runs, the file
comparison helpers of scripts/compare_outputs.py on synthetic outputs,
and a tiny run of scripts/kernel_timings.py."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_script("bench_pairs")
compare_outputs = load_script("compare_outputs")

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


def test_children_run_without_the_bytecode_switch(monkeypatch, tmp_path):
    # a child that may not write bytecode recompiles the package on every
    # set-up probe of perfbench, which then times compilation
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    seen = []

    def fake_run(argv, *, env, **kwargs):
        seen.append(env)
        final = {"metrics": {"wall_s": {"value": 1.0}}, "failed": 0, "attempted": 1}
        out = f'run_record {{"cpu_count": 2}}\n{json.dumps(final)}\n'
        return bench_pairs.subprocess.CompletedProcess(argv, 0, stdout=out)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [WALL]}))
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "long-evolve", "--seeds", "1", "--pairs", "2",
                      "--out", str(out)])
    assert len(seen) == 4
    for env in seen:
        assert "PYTHONDONTWRITEBYTECODE" not in env
        assert env["BENCH_PAIRS_PROBE"] == "kept"
    assert json.loads(out.read_text())["child_env_removed"] == ["PYTHONDONTWRITEBYTECODE"]
    assert bench_pairs.child_env(PYTHONPATH="src")["PYTHONPATH"] == "src"


# ---------------------------------------------------------------------------
# compare_outputs.py

CSV_META = "# adiawalk 0.1\n# config: {}\n# timestamp: 2026-01-01T00:00:00\n"


def write(path: pathlib.Path, text: str) -> pathlib.Path:
    path.write_text(text)
    return path


def test_comparable_drops_only_the_timestamp_line(tmp_path):
    csv = write(tmp_path / "a.csv", CSV_META + "x,y\n1,2\n")
    assert compare_outputs.comparable(csv) == b"# adiawalk 0.1\n# config: {}\nx,y\n1,2\n"
    other = write(tmp_path / "a.json", "# timestamp: kept\n{}\n")
    assert compare_outputs.comparable(other) == other.read_bytes()


def test_without_metadata_drops_config_lines_and_keys(tmp_path):
    csv = write(tmp_path / "a.csv", CSV_META + "x,y\n1,2\n")
    assert compare_outputs.without_metadata(csv) == b"x,y\n1,2\n"
    sidecar = write(tmp_path / "a.csv.json", json.dumps(
        {"config": {"grid": 3}, "config_sha256": "00", "experiment": "e", "slopes": [1.5]}))
    assert compare_outputs.without_metadata(sidecar) == {"experiment": "e", "slopes": [1.5]}


def test_numeric_difference_reads_one_sided_nan_as_infinite(tmp_path):
    first = write(tmp_path / "a.csv", CSV_META + "x,y\n1.0,nan\n2.0,3.0\n")
    second = write(tmp_path / "b.csv", "x,y\n1.0,0.5\n2.0,3.0\n")
    assert compare_outputs.numeric_difference(first, second) == (
        " (largest difference inf absolute, inf relative)")
    both = write(tmp_path / "c.csv", "x,y\n1.0,nan\n2.5,3.0\n")
    assert compare_outputs.numeric_difference(first, both) == (
        " (largest difference 0.5 absolute, 0.2 relative)")


def test_numeric_difference_is_empty_for_other_shapes(tmp_path):
    first = write(tmp_path / "a.csv", "x,y\n1.0,2.0\n")
    header = write(tmp_path / "b.csv", "x,z\n1.0,3.0\n")
    rows = write(tmp_path / "c.csv", "x,y\n1.0,2.0\n1.0,2.0\n")
    assert compare_outputs.numeric_difference(first, header) == ""
    assert compare_outputs.numeric_difference(first, rows) == ""
    assert compare_outputs.numeric_difference(write(tmp_path / "a.json", "{}"),
                                              write(tmp_path / "b.json", "[]")) == ""


def test_numeric_difference_reads_json_leaves_of_one_structure(tmp_path):
    # the config keys are metadata; strings and booleans are not numbers
    first = write(tmp_path / "a.json", json.dumps(
        {"config": {"td": [100]}, "slopes": {"interior": -1.0, "pairwise": [-2.0, -4.0]},
         "experiment": "volterra", "ok": True}))
    second = write(tmp_path / "b.json", json.dumps(
        {"config": {"td": [100, 200]}, "slopes": {"interior": -1.0, "pairwise": [-2.5, -4.0]},
         "experiment": "other", "ok": False}))
    assert compare_outputs.numeric_difference(first, second) == (
        " (largest difference 0.5 absolute, 0.2 relative)")
    longer = write(tmp_path / "c.json", json.dumps(
        {"slopes": {"interior": -1.0, "pairwise": [-2.0, -4.0, -8.0]},
         "experiment": "volterra", "ok": True}))
    assert compare_outputs.numeric_difference(first, longer) == ""


CODE_FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


def f(x):
    """Function docstring."""
    # another comment
    text = """a string that is
not a docstring"""
    return math.sqrt(x) + len(text)


class C:
    """Class docstring
    over two lines."""

    value = (1,
             2)
'''


def test_code_lines_skip_comments_docstrings_and_blank_lines(tmp_path):
    # code: import, def, text (2 lines), return, class, value (2 lines)
    assert compare_outputs.code_lines(CODE_FIXTURE) == 8
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    write(package / "a.py", CODE_FIXTURE)
    write(package / "b.py", '"""Only a docstring."""\n')
    assert compare_outputs.src_code_lines(tmp_path) == 8
    assert compare_outputs.src_lines(tmp_path) == CODE_FIXTURE.count("\n") + 1


# ---------------------------------------------------------------------------
# kernel_timings.py

def test_kernel_timings_prints_both_tables():
    paths = (str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, str(SCRIPTS / "kernel_timings.py"), "--tiny"], env=env,
                         stdout=subprocess.PIPE, text=True, check=True, timeout=120).stdout
    lines = out.splitlines()
    assert lines[0] == "chains, ms (h = 0.7, best of 1)"
    assert [line.split()[:3] for line in lines[2:4]] == [["spf4", "17", "1"], ["pf1", "300", "2"]]
    assert all(len(line.split()) == 9 for line in lines[2:4])
    assert lines[5] == "_walk_stack, us per call (best of 1)"
    assert [line.split()[:2] for line in lines[6:]] == [["pf1", "1"], ["pf1", "8"]]
