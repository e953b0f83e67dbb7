"""End-to-end acceptance checks, one test per headline behavior.

Every test here exercises public APIs only and asserts a quantitative
result at its stated tolerance, so a verbose run reads as a scorecard.
Two checks place their threshold by an independent prediction of the
models' own physics rather than at a fixed size: the ground-fidelity
threshold (test_criterion_03b) at the step count where the Landau-Zener
formula, fed with walk eigenphases, puts the 0.9 crossing, and the
boundary-cancellation slopes (test_criterion_10) in the window where a
near-continuous reference of the same search is asymptotic.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from adiawalk.evolution import (
    boundary_vs_interior_scaling,
    ideal_adiabatic_family,
    volterra_diagnostics,
)
from adiawalk.grover import (
    GroverInstance,
    ThresholdWarning,
    effective_hamiltonians,
    gap_closed_forms,
    run_search,
    scaling_experiment,
)
from adiawalk.integrators import (
    EXP_INTEGRATOR,
    PF1,
    PF2,
    build_walk_family,
    exact_step_propagator,
    walk_operator,
)
from adiawalk.linalg import normal_eig, operator_norm
from adiawalk.schedules import (
    bc_composite_schedule,
    build_grover_schedule,
    glue_schedule,
    linear_schedule,
)
from adiawalk.spectral import gap_perturbation_bounds, track_eigenpaths
from adiawalk.toymodels import (
    DEFAULT_EPSILONS,
    build_toy,
    fidelity_sweep,
    four_level_pair,
    gap_table,
)

LINEAR = linear_schedule()

# Two-significant-figure reference gaps, parallel to DEFAULT_EPSILONS.
# None marks rows checked by dedicated windows instead of a relative
# comparison: the flagged eps = 1e-2 row and the degenerate eps = 0
# entries, where one gap vanishes and a 25% band is meaningless.
TOY1_REFERENCE_H = (5.1e-2, 2.3e-2, 7.9e-3, None, 5.6e-4, 8.9e-4,
                    1.4e-3, 1.6e-3, 1.8e-3, 1.8e-3, 1.9e-3)
TOY1_REFERENCE_W = (5.2e-2, 2.5e-2, 9.7e-3, None, 2.6e-3, 9.5e-4,
                    4.8e-4, 2.4e-4, 1.0e-4, 5.2e-5, None)
TOY2_REFERENCE_H = (5.1e-2, 2.5e-2, 9.6e-3, None, 2.4e-3, 9.4e-4,
                    4.7e-4, 2.3e-4, 1.0e-4, 5.1e-5, None)
TOY2_REFERENCE_W = (5.3e-2, 2.6e-2, 1.1e-2, None, 4.2e-3, 2.8e-3,
                    2.4e-3, 2.1e-3, 1.9e-3, 1.9e-3, None)

FLAGGED_EPS = 1e-2


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def loglog_slope(x, y):
    return float(np.polyfit(np.log(np.asarray(x, dtype=float)), np.log(y), 1)[0])


def relative_check(rows, reference, attr):
    for row, ref in zip(rows, reference):
        if ref is None:
            continue
        got = getattr(row, attr)
        assert abs(got - ref) <= 0.25 * ref, (
            f"eps={row.eps:g}: {attr}={got:.4e} outside 25% of {ref:.1e}"
        )


# ---------------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def toy_tables():
    out = {}
    for kind in ("toy1", "toy2"):
        start = time.perf_counter()
        out[kind] = (gap_table(kind), time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def fidelity_data():
    start = time.perf_counter()
    rows_h1 = fidelity_sweep([1e3, 1e4, 1e5], [1.0])
    row_h32 = fidelity_sweep([1e5], [1.0 / 32.0])[0]
    return rows_h1, row_h32, time.perf_counter() - start


@pytest.fixture(scope="module")
def volterra_reports():
    h0, h1 = four_level_pair()
    start = time.perf_counter()
    glue = boundary_vs_interior_scaling(
        h0, h1, (100, 200, 400, 800, 1600), glue_schedule())
    # the linear control needs larger step counts: at td = 100 its boundary
    # term sits well above the 1/td envelope it settles into from td ~ 300
    control = boundary_vs_interior_scaling(
        h0, h1, (400, 800, 1600, 3200, 6400), linear_schedule())
    return glue, control, time.perf_counter() - start


@pytest.fixture(scope="module")
def grover_scaling_cells():
    start = time.perf_counter()
    cells_n = scaling_experiment([2 ** 8, 2 ** 12, 2 ** 16, 2 ** 20], [1], "power", 0.1)
    cells_m = scaling_experiment([2 ** 12], [1, 2, 4, 8], "power", 0.1)
    return cells_n, cells_m, time.perf_counter() - start


# step counts 100 sqrt(N) .. 800 sqrt(N) for N = 1024, 12 per octave; every
# twelfth one is also a pointwise sample of the companion check
BC_STEPS = [round(3200 * 2.0 ** (k / 12)) for k in range(37)]


@pytest.fixture(scope="module")
def bc_error_curves():
    inst = GroverInstance(1024, 1)
    schedules = {"bc": bc_composite_schedule(), "p1": build_grover_schedule(1024, 1.0)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThresholdWarning)
        return {name: [run_search(inst, sched, t).error for t in BC_STEPS]
                for name, sched in schedules.items()}


def running_max_envelope(errs):
    """Largest error at this or any later step count of the grid."""
    return np.maximum.accumulate(np.asarray(errs)[::-1])[::-1]


# ---------------------------------------------------------------------------
# gap tables

def test_criterion_01_toy1_gap_table(toy_tables):
    """Avoided-crossing model: both gap columns track the reference values,
    and at eps = 0 the walk gap closes while the Hamiltonian gap does not."""
    rows, elapsed = toy_tables["toy1"]
    assert [row.eps for row in rows] == list(DEFAULT_EPSILONS)
    relative_check(rows, TOY1_REFERENCE_H, "gap_h")
    relative_check(rows, TOY1_REFERENCE_W, "gap_w")
    for row in rows:
        if row.eps == FLAGGED_EPS:
            assert row.flag == "reference-mismatch"
        else:
            assert row.flag == ""
    zero = rows[-1]
    assert zero.eps == 0.0
    assert zero.gap_w <= 1e-12
    assert 1e-3 <= zero.gap_h <= 4e-3
    assert elapsed <= 120.0


def test_criterion_02_toy2_gap_table(toy_tables):
    """Exact-crossing model: the roles of the two gap columns swap at eps = 0,
    the walk staying gapped where the Hamiltonian degenerates."""
    rows, elapsed = toy_tables["toy2"]
    assert [row.eps for row in rows] == list(DEFAULT_EPSILONS)
    relative_check(rows, TOY2_REFERENCE_H, "gap_h")
    relative_check(rows, TOY2_REFERENCE_W, "gap_w")
    for row in rows:
        assert row.flag == ("reference-mismatch" if row.eps == FLAGGED_EPS else "")
    zero = rows[-1]
    assert zero.gap_h <= 1e-12
    assert 1e-3 <= zero.gap_w <= 4e-3
    assert elapsed <= 120.0


# ---------------------------------------------------------------------------
# gapless evolution fidelities

def test_criterion_03a_ground_fidelity_increases_with_t(fidelity_data):
    rows_h1, _, elapsed = fidelity_data
    grounds = [row.fidelity_ground for row in rows_h1]
    assert grounds[0] < grounds[1] < grounds[2], grounds
    assert elapsed <= 600.0


def toy2_walk_gap(f):
    """Arc between the two lowest eigenphases of the eps = 0 toy2 walk
    (first-order splitting, h = 1) at mixing value f."""
    model = build_toy("toy2", 0.0)
    w = walk_operator(model.h0, model.h1, model.schedule, PF1, 1.0, f)
    phases = np.sort(-np.angle(normal_eig(w)[0]))
    return float(phases[1] - phases[0])


def landau_zener_amplitude(t, gap, slope):
    """Ground amplitude after t unit steps through one avoided crossing whose
    angular splitting is d(f)^2 = gap^2 + slope^2 (f - f*)^2, f = j / t."""
    return math.sqrt(1.0 - math.exp(-math.pi * gap ** 2 * t / (2.0 * slope)))


def test_criterion_03b_ground_fidelity_threshold(fidelity_data, toy_tables):
    """At eps = 0 the toy2 Hamiltonian gap closes but the h = 1 walk keeps an
    avoided crossing, so a long enough walk ends in the ground state.  How
    long follows from the walk's eigenphases alone, without evolve: the
    minimal splitting dw = 1.888e-3 at f* = 0.4990 (criterion 02's gap) and
    the asymptotic slope v = 1.095 of d(f)^2 = dw^2 + v^2 (f - f*)^2, read
    at f* +- 0.02 and f* +- 0.05, fix the Landau-Zener ground probability
    1 - exp(-pi dw^2 T / (2 v)).  It predicts amplitudes 0.0714, 0.2233 and
    0.6327 at T = 1e3, 1e4 and 1e5, where fidelity_sweep measures 0.0756,
    0.2229 and 0.6325, and puts the 0.9 crossing at T* = 3.25e5, beyond the
    sweep.  So the T = 1e5 amplitude is checked against the prediction, and
    the threshold 0.9 at 1.25 T* (about 4.1e5 steps).  The four slope
    readings span 1.081 to 1.108, which moves the prediction by at most
    3e-3; the tolerance below is set just above that spread."""
    rows_h1, _, _ = fidelity_data
    threshold, tolerance = 0.9, 5e-3
    crossing = minimize_scalar(toy2_walk_gap, bounds=(0.4, 0.6), method="bounded",
                               options={"xatol": 1e-10})
    f_star, gap = float(crossing.x), float(crossing.fun)
    assert gap == pytest.approx(toy_tables["toy2"][0][-1].gap_w, rel=1e-3)
    slope = float(np.mean([math.sqrt(toy2_walk_gap(f_star + df) ** 2 - gap ** 2) / abs(df)
                           for df in (-0.05, -0.02, 0.02, 0.05)]))

    ground = rows_h1[2].fidelity_ground
    predicted = landau_zener_amplitude(1e5, gap, slope)
    assert abs(ground - predicted) <= tolerance, (
        f"T=1e5, h=1: ground amplitude {ground:.4f}, Landau-Zener {predicted:.4f}"
    )

    t_star = 2.0 * slope * math.log(1.0 / (1.0 - threshold ** 2)) / (math.pi * gap ** 2)
    t_check = math.ceil(1.25 * t_star)
    ground = fidelity_sweep([t_check], [1.0])[0].fidelity_ground
    predicted = landau_zener_amplitude(t_check, gap, slope)
    assert abs(ground - predicted) <= tolerance, (
        f"T={t_check}, h=1: ground amplitude {ground:.4f}, Landau-Zener {predicted:.4f}"
    )
    assert ground > threshold, (
        f"ground amplitude at T={t_check} (1.25 T*, T* = {t_star:.4g}), h=1 "
        f"measured {ground:.4f}"
    )


def test_criterion_03c_small_step_prefers_excited_state(fidelity_data):
    _, row_h32, _ = fidelity_data
    assert row_h32.fidelity_excited > row_h32.fidelity_ground, (
        f"h=1/32, T=1e5: excited {row_h32.fidelity_excited:.4f} "
        f"vs ground {row_h32.fidelity_ground:.4f}"
    )


def test_criterion_03d_companion_threshold_at_later_t():
    row = fidelity_sweep([1e6], [1.0])[0]
    assert row.fidelity_ground > 0.9, row.fidelity_ground


# ---------------------------------------------------------------------------
# product-formula spectra

def test_criterion_04_pf1_pf2_share_eigenphases():
    """First- and second-order product formulas at the same mixing value are
    isospectral far below the comparison tolerance."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        h0, h1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
        alpha = operator_norm(h0) + operator_norm(h1)
        h = rng.uniform(0.1, 1.0) / alpha
        s = rng.uniform(0.0, 1.0)
        p1 = np.sort(-np.angle(normal_eig(walk_operator(h0, h1, LINEAR, PF1, h, s))[0]))
        p2 = np.sort(-np.angle(normal_eig(walk_operator(h0, h1, LINEAR, PF2, h, s))[0]))
        worst = max(worst, float(np.max(np.abs(p1 - p2))))
    assert worst <= 1e-11, worst


def test_criterion_05_gap_window_containment():
    """The measured walk ground gap always lies in the commutator-width
    window h*gapH +- (h^3/95)(2||[H1,[H1,H0]]|| + ||[H0,[H0,H1]]||)."""
    rng = np.random.default_rng(7)
    for i in range(200):
        h0, h1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
        alpha = operator_norm(h0) + operator_norm(h1)
        h = rng.uniform(0.1, 1.0) / alpha
        s = rng.uniform(0.0, 1.0)
        lo, hi = gap_perturbation_bounds(h0, h1, LINEAR, s, h)
        for kind in (PF1, PF2):
            w = walk_operator(h0, h1, LINEAR, kind, h, s)
            phases = np.sort(-np.angle(normal_eig(w)[0]))
            gap = phases[1] - phases[0]
            assert lo - 1e-12 <= gap <= hi + 1e-12, (
                f"instance {i} ({kind.tag}): gap {gap:.6e} outside [{lo:.6e}, {hi:.6e}]"
            )


def test_criterion_06_closed_form_walk_gap():
    """The closed-form search walk gap matches a direct eigendecomposition,
    and never drops below two thirds of the Hamiltonian gap."""
    fgrid = np.linspace(0.0, 1.0, 1000)
    for n, m in ((64, 1), (1024, 16)):
        inst = GroverInstance(n, m)
        h0, h1 = effective_hamiltonians(inst)
        gap_h, gap_w = gap_closed_forms(inst, fgrid, 1.0)
        worst = 0.0
        for f, ref in zip(fgrid, gap_w):
            w = walk_operator(h0, h1, LINEAR, PF1, 1.0, float(f))
            phases = np.sort(-np.angle(np.linalg.eigvals(w)))
            d = phases[1] - phases[0]
            worst = max(worst, abs(min(d, 2.0 * np.pi - d) - ref))
        assert worst <= 1e-10, f"(n={n}, m={m}): worst deviation {worst:.3e}"
        assert np.all(gap_w >= (2.0 / 3.0) * gap_h - 1e-14)


# ---------------------------------------------------------------------------
# boundary vs interior decay

def test_criterion_07_boundary_vs_interior_slopes(volterra_reports):
    """With the glue schedule the interior series term decays like 1/td while
    both boundary values decay faster than td^-3 and keep steepening; with a
    plain linear schedule the boundary value is stuck at first order."""
    glue, control, elapsed = volterra_reports
    assert -1.3 <= glue.slopes["interior"] <= -0.7, glue.slopes
    assert glue.slopes["boundary_term1"] <= -3.0, glue.slopes
    assert glue.slopes["boundary_full"] <= -3.0, glue.slopes
    for key in ("boundary_term1", "boundary_full"):
        pairwise = glue.pairwise[key]
        assert all(b < a for a, b in zip(pairwise, pairwise[1:])), (key, pairwise)
    assert -1.3 <= control.slopes["boundary_term1"] <= -0.7, control.slopes
    assert elapsed <= 300.0


def test_criterion_08_intertwining_identities():
    """Every ideal adiabatic family built in the suite intertwines its
    projectors to 1e-8, and its correction operator equals the ideal-frame
    transfer operator to the same tolerance."""
    h0f, h1f = four_level_pair()
    toy1 = build_toy("toy1", 0.05)
    toy2 = build_toy("toy2", 0.05)
    grover = GroverInstance(64, 1)
    g0, g1 = effective_hamiltonians(grover)
    cases = [
        (toy1.h0, toy1.h1, toy1.schedule, 150),
        (toy2.h0, toy2.h1, toy2.schedule, 150),
        (h0f, h1f, glue_schedule(), 200),
        (g0, g1, build_grover_schedule(64, 1.0), 150),
    ]
    for h0, h1, sched, td in cases:
        family = build_walk_family(h0, h1, sched, EXP_INTEGRATOR, 1.0, td)
        ideal = ideal_adiabatic_family(track_eigenpaths(family), family)
        diag = volterra_diagnostics(ideal, family, j_max=1)
        assert ideal.intertwining_residual <= 1e-8
        assert diag.residual_identity <= 1e-8


# ---------------------------------------------------------------------------
# search-schedule scaling

def test_criterion_09_power_schedule_scaling(grover_scaling_cells):
    """Steps to reach error 0.1 stay within a 3x band of sqrt(N) log N across
    twelve octaves of N, and shrink as the number of marked items grows."""
    cells_n, cells_m, elapsed = grover_scaling_cells
    assert not any(cell.unreached for cell in cells_n + cells_m)
    ratios = [cell.normalized_ratio for cell in cells_n]
    assert max(ratios) / min(ratios) <= 3.0, ratios
    steps = [cell.t_required for cell in cells_m]
    assert all(b <= a for a, b in zip(steps, steps[1:])), steps
    assert elapsed <= 300.0


def test_criterion_10_bc_schedule_design_window(bc_error_curves):
    """Boundary cancellation converges faster than T^-3 while the p = 1 power
    schedule converges like 1/T, for N = 1024 over T in [100 sqrt(N),
    800 sqrt(N)].  Both errors oscillate in T: the p = 1 error falls from
    3.3e-5 at T = 8543 to 2.2e-6 at T = 9051 and is back at 2.9e-5 at
    T = 9589.  So the slopes are read from the running-maximum envelope on
    12 step counts per octave; a few pointwise samples land on arbitrary
    phases of the oscillation.

    The window is where the continuous-time schedules are asymptotic, not
    an artifact of h = 1.  A near-continuous reference (the same 2x2
    reduction with walks at h = 1/16 read at substep midpoints, 16x the
    steps) gives envelope slopes bc -9.9 and p = 1 -1.01 here, against
    -10.0 and -1.06 for the h = 1 walk.  One decade earlier, over
    [10 sqrt(N), 80 sqrt(N)], the reference gives bc -0.74 and p = 1 -3.75
    (walk: -0.73 and -3.69): the bc error still swings between 0.02 and
    0.77 and the p = 1 error is in its fast pre-asymptotic decay, so
    neither schedule shows its asymptotic slope there at any step size."""
    slope_bc = loglog_slope(BC_STEPS, running_max_envelope(bc_error_curves["bc"]))
    slope_p1 = loglog_slope(BC_STEPS, running_max_envelope(bc_error_curves["p1"]))
    assert slope_bc < -3.0 and -1.3 <= slope_p1 <= -0.7, (
        f"T in [{BC_STEPS[0]}, {BC_STEPS[-1]}]: envelope slopes bc {slope_bc:.3f} "
        f"(want < -3), p=1 {slope_p1:.3f} (want in [-1.3, -0.7])"
    )


def test_criterion_10_companion_late_window(bc_error_curves):
    ts = BC_STEPS[::12]
    bc_errs = bc_error_curves["bc"][::12]
    p1_errs = bc_error_curves["p1"][::12]
    slope_bc = loglog_slope(ts, bc_errs)
    slope_p1 = loglog_slope(ts, p1_errs)
    assert slope_bc < -3.0, (slope_bc, bc_errs)
    assert -1.3 <= slope_p1 <= -0.7, (slope_p1, p1_errs)


# ---------------------------------------------------------------------------
# one-step error baseline

def test_criterion_11_exponential_step_error_baseline():
    """One step of the exponential integrator stays within 10 h^2 alpha / T of
    the time-ordered propagator and converges at second order in h."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        h0, h1 = random_hermitian(rng, n), random_hermitian(rng, n)
        alpha = operator_norm(h0) + operator_norm(h1)
        t_total = rng.uniform(10.0, 1000.0)
        h = rng.uniform(0.1, 1.0) / alpha
        s = rng.uniform(0.0, t_total - h) / t_total
        w = walk_operator(h0, h1, LINEAR, EXP_INTEGRATOR, h, s)
        ref = exact_step_propagator(h0, h1, LINEAR, h, s, h / t_total)
        worst = max(worst, operator_norm(w - ref) / (h * h * alpha / t_total))
    assert worst <= 10.0, worst

    rng = np.random.default_rng(4)
    h0, h1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    alpha = operator_norm(h0) + operator_norm(h1)
    t_total, s = 100.0, 0.37
    steps = np.array([1.0, 0.5, 0.25, 0.125]) / alpha
    errs = []
    for h in steps:
        w = walk_operator(h0, h1, LINEAR, EXP_INTEGRATOR, float(h), s)
        ref = exact_step_propagator(h0, h1, LINEAR, float(h), s, float(h) / t_total)
        errs.append(operator_norm(w - ref))
    slope = loglog_slope(steps, errs)
    assert abs(slope - 2.0) <= 0.2, slope


# ---------------------------------------------------------------------------
# coverage statement

def test_criterion_12_statement_coverage():
    """Asymptotic complexity statements, the absolute constant of the error
    bound, and the conjecture behind the boundary-cancellation analysis are
    not reproduced quantitatively; the property suites stand in for them."""
    covering = (
        "test_criterion_05_gap_window_containment",
        "test_criterion_07_boundary_vs_interior_slopes",
        "test_criterion_08_intertwining_identities",
        "test_criterion_10_bc_schedule_design_window",
    )
    for name in covering:
        assert callable(globals().get(name)), name
