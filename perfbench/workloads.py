"""The benchmark's four workloads and their output checks.

Each workload has four steps:

* ``prepare(seed, workdir, tiny)`` builds the inputs: JSON configs for
  ``adiawalk.cli.main``, random operators, and the stored reference rows.
  Its cost is what ``setup_s`` measures.
* ``run(inputs)`` is one repetition of the timed computation.  It calls
  the program only through ``adiawalk.cli.main`` with JSON configs and the
  public names ``build_toy``, ``build_walk_family``,
  ``adiabatic_error_bound``, ``walk_operator``, ``exact_step_propagator``,
  ``linear_schedule`` and ``operator_norm``.  Names are looked up on their
  module at call time, so the traced run sees its wrappers.
* ``collect(inputs, raw)`` turns one repetition's raw results into
  comparable outputs (it reads the CSVs back), untimed.
* ``check(inputs, outs)`` counts the operations of one repetition that
  disagree with their reference; it runs after all timing ends.

Why these workloads: each layer that a planned optimization targets does
most of the work in one workload and little or none in another, so a
change to that layer predicts a gain on one and no change on the rest.

* ``long-evolve``: lazily built walk blocks and ``chain_product`` (pf1 on
  a linear schedule, so schedule evaluation is negligible).
* ``spectral-gaps``: eigenpath tracking, ``normal_eig``, gap and Volterra
  diagnostics, and one-step ``walk(j)`` calls on materialized families.
* ``search-scaling``: tabulated power-schedule evaluation, 2x2 closed-form
  walks; it bypasses the dense kernels and tracking.
* ``step-error``: the reference propagator ``exact_step_propagator``,
  which no CLI experiment calls.
"""


import json
import math
import os
import traceback

import numpy as np

import adiawalk.cli
import adiawalk.integrators
import adiawalk.linalg
import adiawalk.schedules
import adiawalk.spectral
import adiawalk.toymodels

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Column checks: None compares exactly; (abs_tol, rel_tol) admits
# |got - want| <= abs_tol + rel_tol * |want|.  The tolerances admit the
# roundoff drift of a reordered walk kernel (about 4e-14 per block) and
# still catch any wrong result, which moves these values by far more.
FIDELITY = (1e-8, 0.0)
GAP = (1e-10, 1e-8)
PHASE = (1e-9, 0.0)
VOLTERRA = (1e-9, 1e-6)
STEP_SIZE = (1e-12, 1e-8)
RATIO = (0.0, 1e-12)

# step-error: the oracle against scipy's DOP853 solution, whose own
# accuracy is about 1e-10; the exp walk against scipy.linalg.expm.
ORACLE_TOL = 1e-8
EXP_WALK_TOL = 1e-10
STEP_ERROR_BASE_SEED = 11  # the draw test_criterion_11 uses


class CliSpec:
    """One ``cli.main`` call, checked row by row against stored rows."""

    def __init__(self, experiment, params, key_cols, tols, rows):
        self.experiment = experiment
        self.params = params
        self.key_cols = key_cols  # leading columns that identify a row
        self.tols = tols  # one entry per column
        self.rows = rows  # rows the config must produce


def _read_csv(path):
    with open(path) as handle:
        lines = [ln for ln in handle.read().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _field_ok(got, want, tol):
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if tol is None:
        return g == w
    return math.isfinite(g) and abs(g - w) <= tol[0] + tol[1] * abs(w)


def check_rows(spec, header, rows, reference):
    """Number of the spec's rows that are missing or disagree."""
    if header != reference["header"]:
        return spec.rows
    k = spec.key_cols
    want = {tuple(r[:k]): r for r in reference["rows"]}
    good = 0
    seen = set()
    for row in rows:
        key = tuple(row[:k])
        ref = want.get(key)
        if ref is None or key in seen or len(row) != len(ref):
            continue
        seen.add(key)
        if all(_field_ok(g, w, t) for g, w, t in zip(row, ref, spec.tols)):
            good += 1
    return spec.rows - min(good, spec.rows)


class CliWorkload:
    """Workload made of ``cli.main`` runs checked against stored rows."""

    def __init__(self, name, specs, tiny_specs):
        self.name = name
        self._specs = specs
        self._tiny_specs = tiny_specs

    def prepare(self, seed, workdir, tiny):
        with open(REFERENCE_PATH) as handle:
            reference = json.load(handle)[self.name]
        calls = []
        for i, spec in enumerate(self._tiny_specs if tiny else self._specs):
            out = os.path.join(workdir, f"{self.name}-{i}.csv")
            cfg = os.path.join(workdir, f"{self.name}-{i}.json")
            payload = {
                "experiment": spec.experiment,
                "parameters": spec.params,
                "seed": seed,
                "output": out,
            }
            with open(cfg, "w") as handle:
                json.dump(payload, handle)
            calls.append((spec, cfg, out))
        return {"calls": calls, "reference": reference}

    def run(self, inputs):
        codes = []
        for _, cfg, _ in inputs["calls"]:
            codes.append(_guarded(adiawalk.cli.main, ["--config", cfg]))
        return codes

    def collect(self, inputs, raw):
        outs = []
        for (spec, _, out), code in zip(inputs["calls"], raw):
            outs.append(_read_csv(out) if code == 0 else None)
            if code == 0:
                os.unlink(out)
        return outs

    def ops_per_rep(self, inputs):
        return sum(spec.rows for spec, _, _ in inputs["calls"])

    def check(self, inputs, outs):
        failed = 0
        for (spec, _, _), got in zip(inputs["calls"], outs):
            if got is None:
                failed += spec.rows
            else:
                failed += check_rows(spec, *got, inputs["reference"][spec.experiment])
        return failed


def _guarded(fn, *args):
    """Call ``fn``; an exception counts as a failed call, not a crash."""
    try:
        return fn(*args)
    except Exception:  # a failing operation is counted, the run goes on
        traceback.print_exc()
        return None


# ---------------------------------------------------------------------------
# long-evolve

LONG_EVOLVE = CliWorkload(
    "long-evolve",
    [CliSpec("fidelity-sweep", {"t_list": [1e3, 3e3, 1e4], "h_list": [1.0, 0.03125]},
             2, [None, None, None, FIDELITY, FIDELITY], 6)],
    [CliSpec("fidelity-sweep", {"t_list": [1e3], "h_list": [1.0]},
             2, [None, None, None, FIDELITY, FIDELITY], 1)],
)


# ---------------------------------------------------------------------------
# spectral-gaps

BOUND_MODEL = ("toy1", 0.05)
# A quarter of the CLI default: at 10,000 points the gap table's busy time
# exceeds that of tracking, which this workload is meant to stress.
GAP_GRID = 2500


class SpectralGaps(CliWorkload):
    """Four diagnostic CLI experiments plus the adiabatic error bound of a
    toy1 pf1 family at h = 1."""

    def prepare(self, seed, workdir, tiny):
        inputs = super().prepare(seed, workdir, tiny)
        inputs["model"] = adiawalk.toymodels.build_toy(*BOUND_MODEL)
        inputs["td"] = 400 if tiny else 4000
        return inputs

    def run(self, inputs):
        codes = super().run(inputs)
        m = inputs["model"]

        def bound():
            fam = adiawalk.integrators.build_walk_family(
                m.h0, m.h1, m.schedule, adiawalk.integrators.PF1, 1.0, inputs["td"]
            )
            return adiawalk.spectral.adiabatic_error_bound(fam)

        return codes, _guarded(bound)

    def collect(self, inputs, raw):
        codes, bound = raw
        return super().collect(inputs, codes), bound

    def ops_per_rep(self, inputs):
        return super().ops_per_rep(inputs) + 1

    def check(self, inputs, outs):
        rows, bound = outs
        want = inputs["reference"]["bound"][str(inputs["td"])]
        ok = bound is not None and abs(bound - want) <= 1e-8 * abs(want)
        return super().check(inputs, rows) + (0 if ok else 1)


_GAP_TOLS = [None, GAP, GAP, None]
_SCAN_TOLS = [None] + [PHASE] * 8
_VOLTERRA_TOLS = [None, VOLTERRA, VOLTERRA, VOLTERRA]
_REPORT_TOLS = [None, STEP_SIZE, STEP_SIZE, STEP_SIZE, STEP_SIZE, None]

SPECTRAL_GAPS = SpectralGaps(
    "spectral-gaps",
    [
        CliSpec("gap-table", {"grid": GAP_GRID}, 1, _GAP_TOLS, 11),
        CliSpec("spectrum-scan", {}, 1, _SCAN_TOLS, 401),
        CliSpec("volterra", {}, 1, _VOLTERRA_TOLS, 5),
        CliSpec("step-size-report", {}, 1, _REPORT_TOLS, 4),
    ],
    [
        CliSpec("gap-table", {"eps_list": [0.1, 0.0], "grid": GAP_GRID}, 1, _GAP_TOLS, 2),
        CliSpec("spectrum-scan", {}, 1, _SCAN_TOLS, 401),
        CliSpec("volterra", {"td_list": [100, 200]}, 1, _VOLTERRA_TOLS, 2),
        CliSpec("step-size-report", {}, 1, _REPORT_TOLS, 4),
    ],
)


# ---------------------------------------------------------------------------
# search-scaling

_SCALING_TOLS = [None, None, None, None, None, RATIO]

SEARCH_SCALING = CliWorkload(
    "search-scaling",
    [CliSpec("grover-scaling", {"p": 1.5, "n_list": [256, 4096, 65536, 262144]},
             2, _SCALING_TOLS, 4)],
    [CliSpec("grover-scaling", {"p": 1.5, "n_list": [256]}, 2, _SCALING_TOLS, 1)],
)


# ---------------------------------------------------------------------------
# step-error

def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


class StepError:
    """One exp walk step against the reference propagator, per problem.

    The problems (d 2-6, h, s and T) are the first draws of
    test_criterion_11.  The workload seed draws a Haar-random frame U per
    problem and the benchmark runs (U H0 U^dag, U H1 U^dag).  Conjugation
    keeps every norm and commutator, so each seed does about the same
    work (within 3% in oracle substeps) while the matrices differ.  Sets
    drawn afresh per seed differ in oracle work by 23% for 40 problems,
    because the substep doubling stops at a data-dependent power of two.
    """

    name = "step-error"

    def prepare(self, seed, workdir, tiny):
        count = 5 if tiny else 25
        base = np.random.default_rng(STEP_ERROR_BASE_SEED)
        frames = np.random.default_rng(seed)
        norm = adiawalk.linalg.operator_norm
        problems = []
        for _ in range(count):
            n = int(base.integers(2, 7))
            h0, h1 = _random_hermitian(base, n), _random_hermitian(base, n)
            alpha = norm(h0) + norm(h1)
            t_total = base.uniform(10.0, 1000.0)
            h = base.uniform(0.1, 1.0) / alpha
            s = base.uniform(0.0, t_total - h) / t_total
            u = _haar_unitary(frames, n)
            g0 = u @ h0 @ u.conj().T
            g1 = u @ h1 @ u.conj().T
            problems.append(((g0 + g0.conj().T) / 2, (g1 + g1.conj().T) / 2, h, s, h / t_total))
        return {"problems": problems, "schedule": adiawalk.schedules.linear_schedule()}

    def run(self, inputs):
        ig = adiawalk.integrators
        sched = inputs["schedule"]
        out = []
        for h0, h1, h, s, ds in inputs["problems"]:
            out.append((
                _guarded(ig.walk_operator, h0, h1, sched, ig.EXP_INTEGRATOR, h, s),
                _guarded(ig.exact_step_propagator, h0, h1, sched, h, s, ds),
            ))
        return out

    def collect(self, inputs, raw):
        return [(None if w is None else np.asarray(getattr(w, "matrix", w)), e) for w, e in raw]

    def ops_per_rep(self, inputs):
        return len(inputs["problems"])

    def check(self, inputs, outs):
        if "scipy_refs" not in inputs:
            inputs["scipy_refs"] = [_scipy_refs(*p) for p in inputs["problems"]]
        failed = 0
        for (w, e), (w_ref, e_ref) in zip(outs, inputs["scipy_refs"]):
            ok = (
                w is not None
                and e is not None
                and np.linalg.norm(w - w_ref, 2) <= EXP_WALK_TOL
                and np.linalg.norm(np.asarray(e) - e_ref, 2) <= ORACLE_TOL
            )
            failed += not ok
        return failed


def _scipy_refs(h0, h1, h, s, ds):
    """exp(-i h H(s)) and the time-ordered propagator over [s, s + ds],
    from scipy alone; the schedule is linear, f(s) = s."""
    # imported only now, after timing, so scipy stays out of peak memory
    import scipy.integrate
    import scipy.linalg

    n = h0.shape[0]
    walk = scipy.linalg.expm(-1j * h * ((1.0 - s) * h0 + s * h1))

    def rhs(t, y):
        f = min(s + ds * t / h, 1.0)
        return (-1j * ((1.0 - f) * h0 + f * h1) @ y.reshape(n, n)).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, h), np.eye(n, dtype=complex).ravel(),
        rtol=1e-11, atol=1e-12, method="DOP853",
    )
    return walk, sol.y[:, -1].reshape(n, n)


WORKLOADS = {
    w.name: w for w in (LONG_EVOLVE, SPECTRAL_GAPS, SEARCH_SCALING, StepError())
}
