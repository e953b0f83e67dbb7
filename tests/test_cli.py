"""Command line behavior: exit codes, config handling, deterministic CSV."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib

import numpy as np
import pytest

from adiawalk import cli, grover
from adiawalk.integrators import INTEGRATORS, PF1, WalkFamily, build_walk_family
from adiawalk.schedules import glue_schedule, schedule_values
from adiawalk.spectral import TrackingAmbiguityError, track_eigenpaths
from adiawalk.toymodels import build_toy


def run_cli(args):
    return cli.main(list(args))


def read_lines(path):
    with open(path) as handle:
        return handle.read().splitlines()


def split_output(path):
    """Metadata, header, and data rows of one CSV file."""
    lines = read_lines(path)
    meta = [l for l in lines if l.startswith("# ")]
    body = [l for l in lines if not l.startswith("# ")]
    return meta, body[0], body[1:]


def without_timestamp(path):
    return [l for l in read_lines(path) if not l.startswith("# timestamp:")]


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# listing and argument errors

def test_list_prints_every_experiment(capsys):
    assert run_cli(["--list"]) == 0
    out = capsys.readouterr().out
    for name in cli.EXPERIMENTS:
        assert name in out


def test_unknown_experiment_is_usage_error(capsys):
    assert run_cli(["no-such-thing"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "gap-table" in err


def test_missing_experiment_is_usage_error(capsys):
    assert run_cli([]) == 2
    assert "no experiment" in capsys.readouterr().err


def test_unknown_parameter_is_usage_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json", {"experiment": "gap-table", "parameters": {"bogus": 1}}
    )
    assert run_cli(["--config", cfg]) == 2
    assert "unknown parameters" in capsys.readouterr().err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["gap-table", "--config", str(bad)]) == 2
    assert "cannot read config" in capsys.readouterr().err
    huge = tmp_path / "huge.json"  # past the interpreter's 4300-digit int parsing limit
    huge.write_text('{"parameters": {"grid": 1%s}}' % ("0" * 5000))
    assert run_cli(["gap-table", "--config", str(huge)]) == 2
    assert "cannot read config" in capsys.readouterr().err
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert run_cli(["gap-table", "--config", str(lst)]) == 2
    extra = write_config(tmp_path / "extra.json", {"experiment": "gap-table", "workers": 4})
    assert run_cli(["--config", extra]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_experiment_mismatch_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"experiment": "gap-table"})
    assert run_cli(["volterra", "--config", cfg]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run_cli(["qaoa-export", "--seed", "-1", "--out", str(out)]) == 2
    assert "non-negative" in capsys.readouterr().err
    cfg = write_config(tmp_path / "c.json", {"experiment": "qaoa-export", "seed": -1})
    assert run_cli(["--config", cfg, "--out", str(out)]) == 2
    assert "non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_grid_bound_is_the_materialize_limit():
    # the step-size report's random source at dim 64: 1,024 grid points fill
    # the 2^22 entries exactly, so the default grid of 1,000 fits
    cli._check_grid(1000, 64)
    cli._check_grid(1023, 64)
    with pytest.raises(cli.ConfigError, match="grid"):
        cli._check_grid(1024, 64)


def test_gap_table_grid_bounds_only_its_schedule_values(tmp_path, monkeypatch, capsys):
    # gap_table walks its grid in chunks, so only the grid + 1 schedule
    # values count against the limit; spectrum-scan holds (grid + 1) 4 x 4 walks
    monkeypatch.setattr(cli, "MATERIALIZE_LIMIT", 200)

    def config(name, experiment, parameters):
        return write_config(tmp_path / name, {"experiment": experiment, "parameters": parameters})

    gap = config("g.json", "gap-table", {"eps_list": [0.05], "grid": 100})
    assert run_cli(["--config", gap, "--out", str(tmp_path / "table.csv")]) == 0
    scan = config("s.json", "spectrum-scan", {"grid": 100})
    assert run_cli(["--config", scan, "--out", str(tmp_path / "scan.csv")]) == 2
    assert "'grid' = 100" in capsys.readouterr().err
    big = config("b.json", "gap-table", {"grid": 200})
    assert run_cli(["--config", big, "--out", str(tmp_path / "big.csv")]) == 2
    assert "'grid' = 200" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, parameters",
    [
        ("gap-table", {"eps_list": [0.5]}),
        ("fidelity-sweep", {"t_list": [float("nan")]}),
        ("fidelity-sweep", {"t_list": [float("inf")]}),
        ("volterra", {"td_list": [100, 1e300]}),  # (td + 1) d^2 above MATERIALIZE_LIMIT
        ("grover-scaling", {"n_list": [4], "m_list": [4]}),
        ("qaoa-export", {"n": 2, "m": 2}),
        ("step-size-report", {"source": "grover", "n": 2, "m": 2}),
        # JSON integers beyond the float range
        ("fidelity-sweep", {"t_list": [10 ** 400]}),
        ("spectrum-scan", {"h": 10 ** 400}),
        ("spectrum-scan", {"grid": 10 ** 400}),
        ("grover-scaling", {"n_list": [10 ** 400]}),
        ("qaoa-export", {"n": 10 ** 400}),
        ("volterra", {"td_list": [100, 10 ** 400]}),
        # sizes whose arrays could not be allocated
        ("gap-table", {"grid": 1e300}),
        ("spectrum-scan", {"grid": 1e300}),
        ("step-size-report", {"grid": 1e300}),
        ("qaoa-export", {"t": 1e300}),
        # step counts td = round(T/h) below 1 or above the search cap
        ("fidelity-sweep", {"t_list": [1.0], "h_list": [10.0]}),
        ("fidelity-sweep", {"t_list": [1e15]}),
        # fewer than two distinct step counts give no slope
        ("volterra", {"td_list": [100]}),
        ("volterra", {"td_list": [100, 100]}),
        # p > 1 search sizes past the power schedule's table
        ("grover-scaling", {"schedule": "power", "p": 1.5, "n_list": [2 ** 65]}),
        ("qaoa-export", {"n": 2 ** 65, "p": 1.5}),
        # rules the library owns: p in [1, 2) for every schedule kind, a
        # target error below 1, integrator tags, n >= 2m in every cell
        ("grover-scaling", {"p": 2.0}),
        ("grover-scaling", {"schedule": "bc", "p": 3.0}),
        ("grover-scaling", {"target_error": 1.0}),
        ("step-size-report", {"kinds": [["x"]]}),
        ("grover-scaling", {"n_list": [65536, 4], "m_list": [1, 4]}),
    ],
)
def test_out_of_range_parameter_is_usage_error(tmp_path, monkeypatch, capsys, experiment,
                                               parameters):
    searches = []
    search = grover.run_search
    monkeypatch.setattr(grover, "run_search", lambda *a: searches.append(a) or search(*a))
    cfg = write_config(tmp_path / "c.json", {"experiment": experiment, "parameters": parameters})
    out = tmp_path / "never.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("adiawalk: ")
    assert not out.exists()
    assert searches == []  # rejected before the first search, not after a valid cell's


# ---------------------------------------------------------------------------
# output format

def test_gap_table_output_shape(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "experiment": "gap-table",
            "parameters": {"eps_list": [0.05, 0.0], "grid": 200},
        },
    )
    out = tmp_path / "table.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    meta, header, rows = split_output(out)
    assert len(meta) == 6
    assert meta[0].startswith("# adiawalk ")
    assert header == "eps,gap_h,gap_w,flag"
    assert len(rows) == 2
    # rows come out sorted by eps
    eps_values = [float(r.split(",")[0]) for r in rows]
    assert eps_values == sorted(eps_values)
    for row in rows:
        gap_h, gap_w = row.split(",")[1:3]
        # floats are emitted with full round-trip precision
        assert gap_h == "%.17g" % float(gap_h)
        assert gap_w == "%.17g" % float(gap_w)


def test_seed_and_hash_metadata(tmp_path):
    out = tmp_path / "angles.csv"
    cfg = write_config(
        tmp_path / "c.json",
        {"experiment": "qaoa-export", "parameters": {"n": 16, "t": 8}},
    )
    assert run_cli(["--config", cfg, "--seed", "7", "--out", str(out)]) == 0
    meta, header, rows = split_output(out)
    assert "# rng: pcg64 seed=7" in meta
    canonical = next(l for l in meta if l.startswith("# config: "))[len("# config: "):]
    sha = next(l for l in meta if l.startswith("# config-sha256: "))[len("# config-sha256: "):]
    assert hashlib.sha256(canonical.encode()).hexdigest() == sha
    payload = json.loads(canonical)
    assert payload["seed"] == 7
    assert payload["parameters"]["n"] == 16
    assert header == "j,gamma,beta"
    assert len(rows) == 8
    for row in rows:
        _, gamma, beta = row.split(",")
        assert float(gamma) + float(beta) == pytest.approx(1.0, abs=1e-15)


def test_runs_are_deterministic_across_threads(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "experiment": "gap-table",
            "parameters": {"eps_list": [0.1, 0.02, 0.0], "grid": 200},
        },
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert run_cli(["--config", cfg, "--out", str(out1)]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert run_cli(["--config", cfg, "--out", str(out2)]) == 0
    assert without_timestamp(out1) == without_timestamp(out2)


def test_random_source_respects_seed(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "experiment": "step-size-report",
            "parameters": {"source": "random", "dim": 4, "grid": 50, "kinds": ["pf1"]},
        },
    )
    paths = [tmp_path / name for name in ("r1.csv", "r2.csv", "r3.csv")]
    assert run_cli(["--config", cfg, "--out", str(paths[0]), "--seed", "5"]) == 0
    assert run_cli(["--config", cfg, "--out", str(paths[1]), "--seed", "5"]) == 0
    assert run_cli(["--config", cfg, "--out", str(paths[2]), "--seed", "6"]) == 0
    assert without_timestamp(paths[0]) == without_timestamp(paths[1])
    assert split_output(paths[0])[2] != split_output(paths[2])[2]


def test_output_overwrites_atomically(tmp_path):
    out = tmp_path / "table.csv"
    out.write_text("stale partial content without newline")
    cfg = write_config(
        tmp_path / "c.json",
        {"experiment": "gap-table", "parameters": {"eps_list": [0.05], "grid": 100}},
    )
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    lines = read_lines(out)
    assert lines[0].startswith("# adiawalk ")
    assert "stale" not in "\n".join(lines)
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


def test_cli_arguments_override_config(tmp_path):
    target = tmp_path / "cli.csv"
    cfg = write_config(
        tmp_path / "c.json",
        {
            "experiment": "qaoa-export",
            "parameters": {"n": 16, "t": 4},
            "seed": 3,
            "output": str(tmp_path / "config.csv"),
        },
    )
    assert run_cli(["--config", cfg, "--seed", "9", "--out", str(target)]) == 0
    assert target.exists()
    assert not (tmp_path / "config.csv").exists()
    meta = split_output(target)[0]
    assert "# rng: pcg64 seed=9" in meta


# ---------------------------------------------------------------------------
# failure paths and sidecars

def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def exploding_runner(params, rng):
        raise TrackingAmbiguityError("eigenpath matching ambiguous at step 3")

    runner, defaults, desc = cli.EXPERIMENTS["gap-table"]
    monkeypatch.setitem(cli.EXPERIMENTS, "gap-table", (exploding_runner, defaults, desc))
    out = tmp_path / "never.csv"
    assert run_cli(["gap-table", "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error, code", [
    (np.linalg.LinAlgError("eigenvalues did not converge"), 3),  # a ValueError subclass
    (ValueError("need n >= 2m, got n = 4, m = 4"), 2),  # the library's bad-input contract
], ids=["LinAlgError", "ValueError"])
def test_runner_error_class_sets_the_exit_code(tmp_path, monkeypatch, capsys, error, code):
    def failing_runner(params, rng):
        raise error

    runner, defaults, desc = cli.EXPERIMENTS["gap-table"]
    monkeypatch.setitem(cli.EXPERIMENTS, "gap-table", (failing_runner, defaults, desc))
    out = tmp_path / "never.csv"
    assert run_cli(["gap-table", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("adiawalk: ") and str(error) in err
    assert ("numerical failure" in err) == (code == 3)
    assert not out.exists()


def test_state_norm_drift_exits_3(tmp_path, monkeypatch, capsys):
    # a drifted final norm used to leave evolve as a ValueError: exit 1
    # with a traceback
    chain = WalkFamily.chain
    monkeypatch.setattr(WalkFamily, "chain", lambda self, j0, j1: (1.0 + 1e-8) * chain(self, j0, j1))
    cfg = write_config(tmp_path / "c.json", {"experiment": "fidelity-sweep",
                                             "parameters": {"t_list": [20.0], "h_list": [1.0]}})
    out = tmp_path / "never.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 3
    assert "norm drifted" in capsys.readouterr().err
    assert not out.exists()


def test_volterra_writes_sidecar(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {"experiment": "volterra", "parameters": {"td_list": [50, 100]}},
    )
    out = tmp_path / "volterra.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    meta, header, rows = split_output(out)
    assert header == "td,interior_max,boundary_term1,boundary_full"
    assert len(rows) == 2
    sidecar = json.loads((tmp_path / "volterra.csv.json").read_text())
    assert set(sidecar["slopes"]) == {"interior", "boundary_term1", "boundary_full"}
    assert "timestamp" not in sidecar
    sha = next(l for l in meta if l.startswith("# config-sha256: "))[len("# config-sha256: "):]
    assert sidecar["config_sha256"] == sha
    # the sidecar is fully deterministic, so a rerun reproduces it exactly
    first = (tmp_path / "volterra.csv.json").read_bytes()
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    assert (tmp_path / "volterra.csv.json").read_bytes() == first


def test_grover_scaling_sidecar_cells(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "experiment": "grover-scaling",
            "parameters": {"n_list": [256], "m_list": [1], "target_error": 0.1},
        },
    )
    out = tmp_path / "scaling.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "scaling.csv.json").read_text())
    assert sidecar["cells"] == [
        {
            "N": 256,
            "M": 1,
            "T_required": 290,
            "normalized_ratio": pytest.approx(290.0 / (16.0 * np.log(256.0))),
            "unreached": False,
        }
    ]


def test_spectrum_scan_smoke(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {"experiment": "spectrum-scan", "parameters": {"grid": 50}},
    )
    out = tmp_path / "scan.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    _, header, rows = split_output(out)
    assert header.split(",") == (
        ["s"] + [f"h_band_{k}" for k in range(4)] + [f"w_band_{k}" for k in range(4)]
    )
    assert len(rows) == 51


def test_spectrum_scan_sidecar_records_min_overlap(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {"experiment": "spectrum-scan", "parameters": {"grid": 50}},
    )
    out = tmp_path / "scan.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "scan.csv.json").read_text())
    model = build_toy("toy1", 0.05)
    fam = build_walk_family(model.h0, model.h1, model.schedule, PF1, 1.0, 50)
    assert sidecar["min_overlap"] == track_eigenpaths(fam).min_overlap
    assert np.sqrt(0.5) <= sidecar["min_overlap"] <= 1.0
    first = (tmp_path / "scan.csv.json").read_bytes()
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    assert (tmp_path / "scan.csv.json").read_bytes() == first


@pytest.mark.parametrize(
    "params,message",
    [
        ({"model": "toy1", "eps": 0.1, "grid": 10, "integrator": "pf2"}, "ambiguous at step 1:"),
        ({"model": "toy1", "eps": 0.0, "grid": 60}, "degenerate at step 30:"),
    ],
    ids=["ambiguous", "degenerate"],
)
def test_spectrum_scan_refuses_undetermined_labels(tmp_path, capsys, params, message):
    cfg = write_config(tmp_path / "c.json", {"experiment": "spectrum-scan", "parameters": params})
    out = tmp_path / "scan.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def glue_scheduled_toys(monkeypatch):
    """Make every toy model the CLI builds run on the glue schedule, so that
    H(s) and H(f(s)) differ."""
    build = cli.build_toy
    monkeypatch.setattr(
        cli, "build_toy",
        lambda kind, eps=0.0: dataclasses.replace(build(kind, eps), schedule=glue_schedule()),
    )
    return build("toy1", 0.05)


def test_spectrum_scan_bands_follow_the_schedule(tmp_path, monkeypatch):
    model = glue_scheduled_toys(monkeypatch)
    cfg = write_config(
        tmp_path / "c.json",
        {"experiment": "spectrum-scan",
         "parameters": {"model": "toy1", "eps": 0.05, "grid": 50, "integrator": "exp"}},
    )
    out = tmp_path / "scan.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    _, _, rows = split_output(out)
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    f = schedule_values(glue_schedule(), table[:, 0])
    hs = (1.0 - f)[:, None, None] * model.h0.matrix + f[:, None, None] * model.h1.matrix
    assert np.max(np.abs(table[:, 1:5] - np.linalg.eigvalsh(hs))) < 1e-12


def test_step_size_report_gap_follows_the_schedule(tmp_path, monkeypatch):
    model = glue_scheduled_toys(monkeypatch)
    cfg = write_config(
        tmp_path / "c.json",
        {"experiment": "step-size-report",
         "parameters": {"source": "toy1", "eps": 0.05, "grid": 50, "kinds": ["exp"]}},
    )
    out = tmp_path / "report.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    _, header, rows = split_output(out)
    row = dict(zip(header.split(","), rows[0].split(",")))
    f = schedule_values(glue_schedule(), np.linspace(0.0, 1.0, 51))
    hs = (1.0 - f)[:, None, None] * model.h0.matrix + f[:, None, None] * model.h1.matrix
    w = np.linalg.eigvalsh(hs)
    gap_star = np.min(w[:, 1] - w[:, 0])
    # the exp walk's guaranteed gap is h times the minimal Hamiltonian gap
    assert float(row["gap_lower"]) == pytest.approx(float(row["h_recommended"]) * gap_star,
                                                    rel=1e-12)


def test_step_size_report_covers_every_integrator(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {"experiment": "step-size-report", "parameters": {"kinds": list(INTEGRATORS)}},
    )
    out = tmp_path / "report.csv"
    assert run_cli(["--config", cfg, "--out", str(out)]) == 0
    _, header, rows = split_output(out)
    table = {row.split(",")[0]: dict(zip(header.split(","), row.split(","))) for row in rows}
    assert sorted(table) == sorted(INTEGRATORS)
    for tag, row in table.items():
        lo, hi, measured = (float(row[c]) for c in ("gap_lower", "gap_upper", "gap_measured"))
        if tag == "exp":  # its bounds are the measured gap itself
            assert lo == hi == pytest.approx(measured, rel=1e-12)
        else:
            assert lo <= measured <= hi, tag


def test_step_size_report_rejects_a_deleted_alias_tag(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {"experiment": "step-size-report", "parameters": {"kinds": ["spf1"]}},
    )
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "report.csv")]) == 2
    err = capsys.readouterr().err
    assert "'spf1'" in err
    assert str(sorted(INTEGRATORS)) in err


def test_experiment_driver_table_matches_the_cli():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    names = [name for name, *_ in driver.RUNS]
    assert len(set(names)) == len(names)
    for name, experiment, overrides, seed in driver.RUNS:
        assert experiment in cli.EXPERIMENTS, name
        assert set(overrides) <= set(cli.EXPERIMENTS[experiment][1]), name
        assert isinstance(seed, int), name
