"""Command line front end: named experiments writing deterministic CSV.

Usage: ``adiawalk <experiment> [--config FILE] [--out PATH] [--threads N]
[--seed S]`` or ``adiawalk --list``.  Configs are JSON with the shape
{"experiment": ..., "parameters": {...}, "seed": ..., "output": ...};
unknown keys anywhere are rejected.  Outputs carry '#' metadata lines
(version, canonical config and its hash, RNG, timestamp) and are written
atomically; two runs with the same config differ only in the timestamp
line.  Exit codes: 0 success, 2 bad usage or config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import numpy as np

from .linalg import EigensolverError, HermitianOperator
from .schedules import (
    build_grover_schedule,
    glue_schedule,
    linear_schedule,
    schedule_values,
)
from .integrators import (
    GaplessError,
    build_walk_family,
    hamiltonian_bands,
    parse_integrator_tag,
    problem_constants,
    recommended_step_size,
    walk_operator,
)
from .spectral import (
    TrackingAmbiguityError,
    gap_perturbation_bounds,
    lowest_phase_gap,
    track_eigenpaths,
)
from .evolution import GapCollapseError, boundary_vs_interior_scaling
from .grover import GroverInstance, effective_hamiltonians, qaoa_angles, scaling_experiment
from .toymodels import (
    DEFAULT_EPSILONS,
    TOY_KINDS,
    build_toy,
    fidelity_sweep,
    four_level_pair,
    gap_table,
)

GAPLESS_TOL = 1e-12

__all__ = ["main", "EXPERIMENTS"]


# ---------------------------------------------------------------------------
# parameter validation helpers

class ConfigError(ValueError):
    pass


def _bounded(key, v, lo, hi):
    if lo is not None and v < lo:
        raise ConfigError(f"parameter {key!r} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"parameter {key!r} must be <= {hi}, got {v}")
    return v


def _as_int(params, key, lo=None, hi=None):
    v = params[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != int(v):
        raise ConfigError(f"parameter {key!r} must be an integer, got {v!r}")
    return _bounded(key, int(v), lo, hi)


def _as_float(params, key, lo=None, hi=None):
    v = params[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"parameter {key!r} must be a finite number, got {v!r}")
    return _bounded(key, float(v), lo, hi)


def _as_choice(params, key, choices):
    v = params[key]
    if v not in choices:
        raise ConfigError(f"parameter {key!r} must be one of {sorted(choices)}, got {v!r}")
    return v


def _as_number_list(params, key, *, integral=False, lo=None):
    v = params[key]
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError(f"parameter {key!r} must be a nonempty list, got {v!r}")
    out = []
    for item in v:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"parameter {key!r} holds a non-number: {item!r}")
        if integral and item != int(item):
            raise ConfigError(f"parameter {key!r} holds a non-integer: {item!r}")
        if lo is not None and item < lo:
            raise ConfigError(f"parameter {key!r} holds {item!r} below {lo}")
        out.append(int(item) if integral else float(item))
    return out


def _as_str_list(params, key, choices):
    v = params[key]
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError(f"parameter {key!r} must be a nonempty list, got {v!r}")
    for item in v:
        if item not in choices:
            raise ConfigError(f"parameter {key!r} holds {item!r}; allowed: {sorted(choices)}")
    return list(v)


# ---------------------------------------------------------------------------
# experiment runners: params, rng, threads -> (columns, rows, sidecar | None)

def _run_gap_table(params, rng, threads):
    kind = _as_choice(params, "model", TOY_KINDS)
    eps_list = _as_number_list(params, "eps_list", lo=0.0)
    grid = _as_int(params, "grid", lo=10)

    def one(eps):
        row = gap_table(kind, [eps], grid=grid)[0]
        return (row.eps, row.gap_h, row.gap_w, row.flag)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(one, eps_list))
    rows.sort(key=lambda r: r[0])
    return ["eps", "gap_h", "gap_w", "flag"], rows, None


def _run_spectrum_scan(params, rng, threads):
    kind = _as_choice(params, "model", TOY_KINDS)
    eps = _as_float(params, "eps", lo=0.0, hi=0.1)
    grid = _as_int(params, "grid", lo=10)
    tag = _as_choice(params, "integrator", ("exp", "pf1", "pf2", "pf2-simplified"))
    h = _as_float(params, "h", lo=1e-6)
    model = build_toy(kind, eps)
    s = np.linspace(0.0, 1.0, grid + 1)
    bands = hamiltonian_bands(model.h0, model.h1, schedule_values(model.schedule, s)[0])
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


def _run_fidelity_sweep(params, rng, threads):
    kind = _as_choice(params, "model", TOY_KINDS)
    eps = _as_float(params, "eps", lo=0.0, hi=0.1)
    t_list = _as_number_list(params, "t_list", lo=1.0)
    h_list = _as_number_list(params, "h_list", lo=1e-6)
    rows = [
        (r.h, r.t, r.td, r.fidelity_ground, r.fidelity_excited)
        for r in fidelity_sweep(t_list, h_list, eps=eps, kind=kind)
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    return ["h", "t", "td", "fidelity_ground", "fidelity_excited"], rows, None


def _run_volterra(params, rng, threads):
    sched_kind = _as_choice(params, "schedule", ("glue", "linear"))
    td_list = _as_number_list(params, "td_list", integral=True, lo=2)
    j_max = _as_int(params, "j_max", lo=1, hi=6)
    sched = glue_schedule() if sched_kind == "glue" else linear_schedule()
    h0, h1 = four_level_pair()
    report = boundary_vs_interior_scaling(h0, h1, sorted(td_list), sched, j_max=j_max)
    rows = [
        (td, float(report.interior[i]), float(report.boundary_term1[i]), float(report.boundary_full[i]))
        for i, td in enumerate(report.td_list)
    ]
    sidecar = {
        "slopes": report.slopes,
        "pairwise": {k: list(map(float, v)) for k, v in report.pairwise.items()},
    }
    return ["td", "interior_max", "boundary_term1", "boundary_full"], rows, sidecar


def _run_grover_scaling(params, rng, threads):
    sched_kind = _as_choice(params, "schedule", ("power", "bc", "linear"))
    p = _as_float(params, "p", lo=1.0)
    if p >= 2.0:
        raise ConfigError(f"parameter 'p' must be below 2, got {p}")
    n_list = _as_number_list(params, "n_list", integral=True, lo=2)
    m_list = _as_number_list(params, "m_list", integral=True, lo=1)
    target = _as_float(params, "target_error", lo=1e-6)
    if not target < 1.0:
        raise ConfigError(f"parameter 'target_error' must be below 1, got {target}")

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


def _run_qaoa_export(params, rng, threads):
    n = _as_int(params, "n", lo=2)
    m = _as_int(params, "m", lo=1)
    p = _as_float(params, "p", lo=1.0)
    if p >= 2.0:
        raise ConfigError(f"parameter 'p' must be below 2, got {p}")
    t = _as_int(params, "t", lo=1)
    GroverInstance(n, m)  # validates n >= 2m
    n_eff = max(2, round(n / m))
    angles = qaoa_angles(build_grover_schedule(n_eff, p), t)
    rows = [(j, float(angles.gammas[j]), float(angles.betas[j])) for j in range(t)]
    return ["j", "gamma", "beta"], rows, None


def _step_size_source(params, rng):
    source = _as_choice(params, "source", ("grover", "toy1", "toy2", "random"))
    if source == "grover":
        inst = GroverInstance(_as_int(params, "n", lo=2), _as_int(params, "m", lo=1))
        h0, h1 = effective_hamiltonians(inst)
        return h0, h1, linear_schedule()
    if source in TOY_KINDS:
        model = build_toy(source, _as_float(params, "eps", lo=0.0, hi=0.1))
        return model.h0, model.h1, model.schedule
    dim = _as_int(params, "dim", lo=2, hi=64)
    a0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h0 = HermitianOperator((a0 + a0.conj().T) / 2.0)
    h1 = HermitianOperator((a1 + a1.conj().T) / 2.0)
    return h0, h1, linear_schedule()


def _run_step_size_report(params, rng, threads):
    kinds = _as_str_list(params, "kinds", ("exp", "pf1", "pf2", "pf2-simplified",
                                           "spf1", "spf2", "spf4", "spf6", "spf8"))
    grid = _as_int(params, "grid", lo=10)
    h0, h1, sched = _step_size_source(params, rng)
    orders = sorted({parse_integrator_tag(k).effective_order for k in kinds if k.startswith("spf")}
                    | {1, 2})
    consts = problem_constants(h0, h1, sched, grid=grid, orders=tuple(o for o in orders if o <= 6))
    s_star, gapless = consts.s_star, consts.delta_star <= GAPLESS_TOL

    rows = []
    for tag in sorted(set(kinds)):
        kind = parse_integrator_tag(tag)
        if gapless:
            h_rec = 1.0 / consts.alpha
            lo = hi = float("nan")
        else:
            h_rec = recommended_step_size(consts, kind)
            if kind.method == "exp":
                lo = hi = h_rec * consts.delta_star
            else:
                order = 2 if kind.effective_order <= 2 else kind.effective_order
                lo, hi = gap_perturbation_bounds(h0, h1, sched, s_star, h_rec, order=order)
        measure_kind = parse_integrator_tag("pf2-simplified") if tag == "pf2" else kind
        wmat = walk_operator(h0, h1, sched, measure_kind, h_rec, s_star).matrix
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
        {"schedule": "glue", "td_list": [100, 200, 400, 800, 1600], "j_max": 2},
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
    except (OSError, json.JSONDecodeError) as exc:
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


def _resolve_threads(arg_threads):
    if arg_threads is not None:
        return max(1, int(arg_threads))
    env = os.environ.get("ADIAWALK_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"ADIAWALK_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adiawalk",
        description="discretized adiabatic evolution experiments",
    )
    parser.add_argument("experiment", nargs="?", help="experiment name (see --list)")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--threads", type=int, help="worker threads (env: ADIAWALK_THREADS)")
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
        out = args.out or cfg.get("output") or f"{experiment}.csv"
        if not isinstance(out, str):
            raise ConfigError(f"output must be a path string, got {out!r}")
        threads = _resolve_threads(args.threads)
    except ConfigError as exc:
        print(f"adiawalk: {exc}", file=sys.stderr)
        return 2

    rng = np.random.Generator(np.random.PCG64(seed))
    try:
        columns, rows, sidecar = runner(params, rng, threads)
    except ConfigError as exc:
        print(f"adiawalk: {exc}", file=sys.stderr)
        return 2
    except (
        TrackingAmbiguityError,
        GapCollapseError,
        GaplessError,
        EigensolverError,
        RuntimeError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"adiawalk: numerical failure: {exc}", file=sys.stderr)
        return 3

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
