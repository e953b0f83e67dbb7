"""Command line front end: named experiments writing deterministic CSV.

Usage: ``adiawalk <experiment> [--config FILE] [--out PATH] [--seed S]`` or
``adiawalk --list``.  Configs are JSON with the shape
{"experiment": ..., "parameters": {...}, "seed": ..., "output": ...};
unknown keys anywhere are rejected.  Outputs carry '#' metadata lines
(version, canonical config and its hash, RNG, timestamp) and are written
atomically; two runs with the same config differ only in the timestamp
line.

Exit codes: 0 success, 2 bad usage or config, 3 numerical failure.  The
CLI checks only a config's JSON shape (types, integrality, the float
range), its own bounds (such as h >= 1e-6) and its resource limits
(``MATERIALIZE_LIMIT``, ``SCALING_CAP`` step counts); the library owns
every other range check.  A runner's errors follow the library's
contract: a ValueError is bad input (exit 2), and a RuntimeError or
``np.linalg.LinAlgError`` (a ValueError subclass, so caught first) is a
numerical failure (exit 3).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from .linalg import HermitianOperator
from .schedules import glue_schedule, linear_schedule, schedule_values
from .integrators import (
    GAPLESS_TOL,
    INTEGRATORS,
    build_walk_family,
    hamiltonian_bands,
    parse_integrator_tag,
    problem_constants,
    recommended_step_size,
    walk_operator,
)
from .spectral import gap_perturbation_bounds, lowest_phase_gap, track_eigenpaths
from .evolution import boundary_vs_interior_scaling
from .grover import (
    SCALING_CAP,
    GroverInstance,
    effective_hamiltonians,
    qaoa_angles,
    scaling_experiment,
    search_schedule,
)
from .toymodels import (
    DEFAULT_EPSILONS,
    TOY_KINDS,
    build_toy,
    fidelity_sweep,
    four_level_pair,
    gap_table,
)

MATERIALIZE_LIMIT = 2 ** 22  # complex entries of the largest stack a config may ask for

__all__ = ["main", "EXPERIMENTS"]


# ---------------------------------------------------------------------------
# parameter validation helpers

class ConfigError(ValueError):
    pass


def _values(params, key, many):
    """The parameter as a list: a nonempty JSON list if ``many``, else one value."""
    v = params[key]
    if not many:
        return [v]
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError(f"parameter {key!r} must be a nonempty list, got {v!r}")
    return v


def _numbers(params, key, *, integral=False, lo=None, hi=None, many=False):
    """A JSON number (a nonempty list of them if ``many``) in the float
    range (the comparison is exact; NaN fails), integral if asked, within
    the CLI's own bounds ``lo`` and ``hi``."""
    out = []
    for v in _values(params, key, many):
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not (number and abs(v) <= sys.float_info.max) or (integral and v != int(v)):
            what = "an integer" if integral else "a number"
            raise ConfigError(f"parameter {key!r} must be {what} in the float range, got {v!r}")
        out.append(int(v) if integral else float(v))
        if lo is not None and out[-1] < lo:
            raise ConfigError(f"parameter {key!r} must be >= {lo}, got {out[-1]}")
        if hi is not None and out[-1] > hi:
            raise ConfigError(f"parameter {key!r} must be <= {hi}, got {out[-1]}")
    return out if many else out[0]


def _choices(params, key, choices, *, many=False):
    """One of ``choices`` (a nonempty list of them if ``many``)."""
    values = _values(params, key, many)
    for v in values:
        if v not in choices:
            raise ConfigError(f"parameter {key!r} must be one of {sorted(choices)}, got {v!r}")
    return list(values) if many else values[0]


def _check_grid(grid, dim, key="grid"):
    """Reject a ``key`` whose grid + 1 points of dim x dim entries pass MATERIALIZE_LIMIT."""
    if (grid + 1) * dim * dim > MATERIALIZE_LIMIT:
        raise ConfigError(
            f"parameter {key!r} = {grid} needs ({key} + 1) * {dim}^2 entries, "
            f"above {MATERIALIZE_LIMIT}"
        )


# ---------------------------------------------------------------------------
# experiment runners: params, rng -> (columns, rows, sidecar | None)

def _run_gap_table(params, rng):
    kind = _choices(params, "model", TOY_KINDS)
    eps_list = _numbers(params, "eps_list", many=True)
    grid = _numbers(params, "grid", integral=True, lo=10)
    _check_grid(grid, 1)  # gap_table holds grid + 1 schedule values; it chunks the rest
    rows = [(row.eps, row.gap_h, row.gap_w, row.flag)
            for row in gap_table(kind, sorted(eps_list), grid=grid)]
    return ["eps", "gap_h", "gap_w", "flag"], rows, None


def _run_spectrum_scan(params, rng):
    kind = _choices(params, "model", TOY_KINDS)
    eps = _numbers(params, "eps")
    grid = _numbers(params, "grid", integral=True, lo=10)
    tag = _choices(params, "integrator", ("exp", "pf1", "pf2", "pf2-simplified"))
    h = _numbers(params, "h", lo=1e-6)
    model = build_toy(kind, eps)
    _check_grid(grid, model.h0.dim)
    s = np.linspace(0.0, 1.0, grid + 1)
    bands = hamiltonian_bands(model.h0, model.h1, schedule_values(model.schedule, s))
    fam = build_walk_family(model.h0, model.h1, model.schedule, parse_integrator_tag(tag), h, grid)
    track = track_eigenpaths(fam)
    dim = bands.shape[1]
    cols = ["s"]
    cols += [f"h_band_{k}" for k in range(dim)]
    cols += [f"w_band_{k}" for k in range(dim)]
    rows = [
        (float(s[i]), *map(float, bands[i]), *map(float, track.phases[i]))
        for i in range(len(s))
    ]
    return cols, rows, {"min_overlap": track.min_overlap}


def _run_fidelity_sweep(params, rng):
    kind = _choices(params, "model", TOY_KINDS)
    eps = _numbers(params, "eps")
    t_list = _numbers(params, "t_list", lo=1.0, many=True)
    h_list = _numbers(params, "h_list", lo=1e-6, many=True)
    for t in t_list:
        for h in h_list:  # T/h may overflow; the clamp keeps round() finite
            if not 1 <= round(min(t / h, 2.0 * SCALING_CAP)) <= SCALING_CAP:
                raise ConfigError(f"T = {t}, h = {h} gives round(T/h) outside [1, {SCALING_CAP}]")
    rows = [
        (r.h, r.t, r.td, r.fidelity_ground, r.fidelity_excited)
        for r in fidelity_sweep(t_list, h_list, eps=eps, kind=kind)
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    return ["h", "t", "td", "fidelity_ground", "fidelity_excited"], rows, None


def _run_volterra(params, rng):
    sched_kind = _choices(params, "schedule", ("glue", "linear"))
    td_list = _numbers(params, "td_list", integral=True, many=True)
    sched = glue_schedule() if sched_kind == "glue" else linear_schedule()
    h0, h1 = four_level_pair()
    _check_grid(max(td_list), h0.dim, "td_list")  # each td holds (td + 1, d, d) stacks
    report = boundary_vs_interior_scaling(h0, h1, sorted(td_list), sched)
    rows = [
        (td, float(report.interior[i]), float(report.boundary_term1[i]), float(report.boundary_full[i]))
        for i, td in enumerate(report.td_list)
    ]
    sidecar = {
        "slopes": report.slopes,
        "pairwise": {k: list(map(float, v)) for k, v in report.pairwise.items()},
    }
    return ["td", "interior_max", "boundary_term1", "boundary_full"], rows, sidecar


def _run_grover_scaling(params, rng):
    sched_kind = _choices(params, "schedule", ("power", "bc", "linear"))
    p = _numbers(params, "p")
    n_list = _numbers(params, "n_list", integral=True, many=True)
    m_list = _numbers(params, "m_list", integral=True, many=True)
    target = _numbers(params, "target_error", lo=1e-6)
    cells = scaling_experiment(n_list, m_list, sched_kind, target, p=p)
    cells.sort(key=lambda c: (c.n, c.m))
    rows = [
        (
            c.n,
            c.m,
            c.schedule,
            c.target_error,
            float("nan") if c.t_required is None else c.t_required,
            c.normalized_ratio,
        )
        for c in cells
    ]
    sidecar = {
        "cells": [
            {
                "N": c.n,
                "M": c.m,
                "T_required": c.t_required,
                "normalized_ratio": None if math.isnan(c.normalized_ratio) else c.normalized_ratio,
                "unreached": c.unreached,
            }
            for c in cells
        ]
    }
    return ["N", "M", "schedule", "target_error", "T_required", "normalized_ratio"], rows, sidecar


def _run_qaoa_export(params, rng):
    n, m = _numbers(params, "n", integral=True), _numbers(params, "m", integral=True)
    p = _numbers(params, "p")
    t = _numbers(params, "t", integral=True, hi=MATERIALIZE_LIMIT)
    angles = qaoa_angles(search_schedule(GroverInstance(n, m), p), t)
    rows = [(j, float(angles.gammas[j]), float(angles.betas[j])) for j in range(t)]
    return ["j", "gamma", "beta"], rows, None


def _step_size_source(params, rng):
    source = _choices(params, "source", ("grover", "toy1", "toy2", "random"))
    if source == "grover":
        n, m = _numbers(params, "n", integral=True), _numbers(params, "m", integral=True)
        h0, h1 = effective_hamiltonians(GroverInstance(n, m))
        return h0, h1, linear_schedule()
    if source in TOY_KINDS:
        model = build_toy(source, _numbers(params, "eps"))
        return model.h0, model.h1, model.schedule
    dim = _numbers(params, "dim", integral=True, lo=2, hi=64)
    a0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h0 = HermitianOperator((a0 + a0.conj().T) / 2.0)
    h1 = HermitianOperator((a1 + a1.conj().T) / 2.0)
    return h0, h1, linear_schedule()


def _run_step_size_report(params, rng):
    kinds = _choices(params, "kinds", tuple(INTEGRATORS), many=True)
    grid = _numbers(params, "grid", integral=True, lo=10)
    h0, h1, sched = _step_size_source(params, rng)
    _check_grid(grid, h0.dim)
    orders = tuple(sorted({INTEGRATORS[k].effective_order for k in kinds}))
    consts = problem_constants(h0, h1, sched, grid=grid, orders=orders)
    s_star, gapless = consts.s_star, consts.delta_star <= GAPLESS_TOL

    rows = []
    for tag in sorted(set(kinds)):
        kind = INTEGRATORS[tag]
        if gapless:
            h_rec = 1.0 / consts.alpha
            lo = hi = float("nan")
        else:
            h_rec = recommended_step_size(consts, kind)
            if not kind.factors:
                lo = hi = h_rec * consts.delta_star
            else:
                order = kind.effective_order  # gap_perturbation_bounds folds 1 into 2
                lo, hi = gap_perturbation_bounds(h0, h1, sched, s_star, h_rec, order=order)
        wmat = walk_operator(h0, h1, sched, kind, h_rec, s_star)
        measured = float(lowest_phase_gap(wmat))
        rows.append((tag, float(h_rec), float(lo), float(hi), measured, int(gapless)))
    rows.sort(key=lambda r: r[0])
    cols = ["kind", "h_recommended", "gap_lower", "gap_upper", "gap_measured", "gapless"]
    return cols, rows, None


EXPERIMENTS = {
    "gap-table": (
        _run_gap_table,
        {"model": "toy1", "eps_list": list(DEFAULT_EPSILONS), "grid": 10000},
        "minimal Hamiltonian and walk angular gaps per near-degeneracy eps",
    ),
    "spectrum-scan": (
        _run_spectrum_scan,
        {"model": "toy1", "eps": 0.05, "grid": 400, "integrator": "pf1", "h": 1.0},
        "Hamiltonian bands and tracked walk phase bands across the schedule",
    ),
    "fidelity-sweep": (
        _run_fidelity_sweep,
        {"model": "toy2", "eps": 0.0, "t_list": [1e3, 1e4, 1e5], "h_list": [1.0, 0.03125]},
        "final-eigenstate overlap amplitudes versus total time and step size",
    ),
    "volterra": (
        _run_volterra,
        {"schedule": "glue", "td_list": [100, 200, 400, 800, 1600]},
        "interior versus boundary error generation as the step count grows",
    ),
    "grover-scaling": (
        _run_grover_scaling,
        {
            "schedule": "power",
            "p": 1.0,
            "n_list": [256, 4096, 65536, 1048576],
            "m_list": [1],
            "target_error": 0.1,
        },
        "minimal search step count per database size, with normalized ratios",
    ),
    "qaoa-export": (
        _run_qaoa_export,
        {"n": 1024, "m": 1, "p": 1.0, "t": 64},
        "alternating-operator angles equivalent to a schedule-driven search",
    ),
    "step-size-report": (
        _run_step_size_report,
        {"source": "grover", "n": 1024, "m": 1, "eps": 0.05, "dim": 8,
         "kinds": ["exp", "pf1", "pf2", "spf4"], "grid": 1000},
        "recommended step sizes with guaranteed and measured angular gaps",
    ),
}


# ---------------------------------------------------------------------------
# output formatting

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _canonical_config(experiment: str, params: dict, seed: int) -> str:
    payload = {"experiment": experiment, "parameters": params, "seed": seed}
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".adiawalk-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, columns, rows, meta_lines):
    lines = [f"# {line}" for line in meta_lines]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# entry point

def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8, 4300+ digit ints
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"experiment", "parameters", "seed", "output"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "parameters" in cfg and not isinstance(cfg["parameters"], dict):
        raise ConfigError("config 'parameters' must be an object")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adiawalk",
        description="discretized adiabatic evolution experiments",
    )
    parser.add_argument("experiment", nargs="?", help="experiment name (see --list)")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--seed", type=int, help="RNG seed (default 0)")
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.list:
        for name in sorted(EXPERIMENTS):
            print(f"{name}: {EXPERIMENTS[name][2]}")
        return 0

    try:
        cfg = _load_config(args.config) if args.config else {}
        experiment = args.experiment or cfg.get("experiment")
        if experiment is None:
            raise ConfigError("no experiment given (positional argument or config)")
        if args.experiment and "experiment" in cfg and args.experiment != cfg["experiment"]:
            raise ConfigError(
                f"experiment mismatch: {args.experiment!r} on the command line, "
                f"{cfg['experiment']!r} in the config"
            )
        if experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {experiment!r}; available: {sorted(EXPERIMENTS)}"
            )
        runner, defaults, _ = EXPERIMENTS[experiment]
        params = dict(defaults)
        overrides = cfg.get("parameters", {})
        unknown = set(overrides) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown parameters for {experiment}: {sorted(unknown)}")
        params.update(overrides)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        out = args.out or cfg.get("output") or f"{experiment}.csv"
        if not isinstance(out, str):
            raise ConfigError(f"output must be a path string, got {out!r}")
    except ConfigError as exc:
        print(f"adiawalk: {exc}", file=sys.stderr)
        return 2

    rng = np.random.Generator(np.random.PCG64(seed))
    try:
        columns, rows, sidecar = runner(params, rng)
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"adiawalk: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"adiawalk: {exc}", file=sys.stderr)
        return 2

    from . import __version__

    canonical = _canonical_config(experiment, params, seed)
    meta = [
        f"adiawalk {__version__}",
        f"experiment: {experiment}",
        f"config: {canonical}",
        f"config-sha256: {hashlib.sha256(canonical.encode()).hexdigest()}",
        f"rng: pcg64 seed={seed}",
        f"timestamp: {datetime.now(timezone.utc).isoformat()}",
    ]
    _write_csv(out, columns, rows, meta)
    if sidecar is not None:
        payload = {
            "experiment": experiment,
            "config": json.loads(canonical),
            "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            **sidecar,
        }
        _atomic_write(out + ".json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
