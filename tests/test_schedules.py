"""Schedule functions, checked against adaptive-quadrature oracles.

The glue normalizer and the search-schedule normalizers are recomputed
with scipy.integrate.quad; slopes are centered finite differences of the
values, checked against the normalized glue integrand and the search
ODE's right-hand side d Delta(f)^p.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from adiawalk import schedules
from adiawalk.schedules import (
    Schedule,
    bc_composite_schedule,
    build_grover_schedule,
    glue_constant_ce,
    glue_schedule,
    grover_d_constant,
    grover_gap_of_f,
    linear_schedule,
    schedule_values,
)


# ---------------------------------------------------------------------------
# oracles

def quad_glue_integral(s: float) -> float:
    """Adaptive-quadrature int_0^s exp(-1/(t(1-t))) dt."""
    val, _ = quad(lambda t: math.exp(-1.0 / (t * (1.0 - t))) if 0 < t < 1 else 0.0,
                  0.0, s, epsabs=1e-16, epsrel=1e-13, limit=200)
    return val


def quad_power_normalizer(n: int, p: float) -> float:
    """Adaptive-quadrature int_0^1 Delta(f)^{-p} df with mu = 1/n."""
    mu = 1.0 / n
    val, _ = quad(lambda f: ((1.0 - 2.0 * f) ** 2 * (1.0 - mu) + mu) ** (-p / 2.0),
                  0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=400)
    return val


def sinh_power_normalizer(n: int, p: float) -> float:
    """int_0^1 Delta(f)^{-p} df after 1 - 2f = sqrt(mu/(1-mu)) sinh(u), which
    turns the integrand into the smooth cosh(u)^{1-p} at any n."""
    mu = 1.0 / n
    top = math.asinh(math.sqrt((1.0 - mu) / mu))
    val, _ = quad(lambda u: math.cosh(u) ** (1.0 - p), 0.0, top, epsabs=0.0, epsrel=1e-13,
                  limit=400)
    return val * mu ** ((1.0 - p) / 2.0) / math.sqrt(1.0 - mu)


def bisect_power_inverse(n: int, p: float, s: np.ndarray) -> np.ndarray:
    """Reference f(s) for 1 < p < 2: bisection on _power_partial from the
    table segment's left edge until the bracket is two adjacent floats,
    then the bracket end with the smaller residual."""
    seg_lo, seg_hi, seg_origin, s_nodes, _, d = schedules._power_table(n, p)
    mu = 1.0 / n
    idx = np.clip(np.searchsorted(s_nodes, s, side="right") - 1, 0, len(s_nodes) - 2)
    base, origin = seg_lo[idx], seg_origin[idx]
    target = (s - s_nodes[idx]) * d

    def residual(u):
        return schedules._power_partial(base, u, mu, p, origin) - target

    lo, hi = base.copy(), np.where(target > 0.0, seg_hi[idx], base)
    mid = (lo + hi) / 2
    live = (mid != lo) & (mid != hi)
    while live.any():
        below = residual(mid) <= 0.0
        lo = np.where(live & below, mid, lo)
        hi = np.where(live & ~below, mid, hi)
        mid = (lo + hi) / 2
        live = (mid != lo) & (mid != hi)
    u = np.where(np.abs(residual(lo)) <= np.abs(residual(hi)), lo, hi)
    return origin + u


def centered_fd(values_of, s: np.ndarray, delta: float = 1e-6) -> np.ndarray:
    return (values_of(s + delta) - values_of(s - delta)) / (2.0 * delta)


# ---------------------------------------------------------------------------
# glue function

def test_glue_normalizer_matches_quadrature():
    assert glue_constant_ce() == pytest.approx(quad_glue_integral(1.0), rel=1e-11)


def test_glue_normalizer_square_root_value():
    # the bump normalizer's square root is close to 0.0838
    assert math.sqrt(glue_constant_ce()) == pytest.approx(0.0838, abs=2e-4)


def test_glue_values_match_quadrature():
    sched = glue_schedule()
    ce = glue_constant_ce()
    for s in (0.1, 0.25, 0.5, 0.8, 0.97):
        f = schedule_values(sched, s)
        assert f == pytest.approx(quad_glue_integral(s) / ce, abs=1e-12)


def glue_slope(s):
    """The glue schedule's slope: its normalized integrand."""
    return np.exp(-1.0 / (s * (1.0 - s))) / glue_constant_ce()


def test_glue_derivative_is_normalized_integrand():
    sched = glue_schedule()
    s = np.linspace(0.05, 0.95, 19)
    fd = centered_fd(lambda x: schedule_values(sched, x), s)
    assert np.max(np.abs(fd - glue_slope(s))) < 1e-6


def test_glue_midpoint_slope():
    sched = glue_schedule()
    assert schedule_values(sched, 0.5) == pytest.approx(0.5, abs=1e-12)
    # sixth-order centered difference; its truncation and rounding errors
    # at h = 2e-3 are both near 1e-14 relative
    h = 2e-3

    def gap(k):
        return schedule_values(sched, 0.5 + k * h) - schedule_values(sched, 0.5 - k * h)

    slope = (45.0 * gap(1) - 9.0 * gap(2) + gap(3)) / (60.0 * h)
    assert slope == pytest.approx(math.exp(-4.0) / glue_constant_ce(), rel=1e-12)


def test_glue_endpoints_are_flat():
    sched = glue_schedule()
    edge = np.linspace(0.0, 1e-3, 101)
    assert np.all(schedule_values(sched, edge) == 0.0)
    assert np.all(schedule_values(sched, 1.0 - edge) == schedule_values(sched, 1.0))
    assert schedule_values(sched, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_glue_symmetry_and_monotonicity():
    s = np.linspace(0.0, 1.0, 10001)
    f = schedule_values(glue_schedule(), s)
    assert np.max(np.abs(f + f[::-1] - 1.0)) < 1e-8
    assert np.all(np.diff(f) >= 0.0)


# ---------------------------------------------------------------------------
# boundary-cancellation composite

def test_bc_composite_joins_two_glue_halves():
    sched = bc_composite_schedule()
    s = np.linspace(0.0, 1.0, 2001)
    f = schedule_values(sched, s)
    assert schedule_values(sched, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(f + f[::-1] - 1.0)) < 1e-8
    assert np.all(np.diff(f) >= 0.0)
    # flat at both endpoints and at the seam
    for s0 in (0.0, 0.5, 1.0):
        near = np.clip(s0 + np.linspace(-5e-4, 5e-4, 101), 0.0, 1.0)
        assert np.all(schedule_values(sched, near) == schedule_values(sched, s0))
    # f = g(2s) / 2 on the left half, so f'(1/4) = g'(1/2); the right half repeats it
    fd = centered_fd(lambda x: schedule_values(sched, x), np.array([0.25, 0.75]))
    assert np.allclose(fd, glue_slope(0.5), atol=1e-6)


# ---------------------------------------------------------------------------
# search schedules

def test_d_constant_p1_closed_form_vs_quadrature():
    for n in (4, 64, 1024):
        assert grover_d_constant(n, 1.0) == pytest.approx(quad_power_normalizer(n, 1.0), rel=1e-9)


def test_d_constant_reference_values():
    # d at p = 1 for n = 4, 16, 256, 65536
    expected = {4: 1.5207, 16: 2.1311, 256: 3.4715, 65536: 6.2384}
    for n, val in expected.items():
        assert grover_d_constant(n) == pytest.approx(val, abs=5e-4)
        assert grover_d_constant(n) <= 2.0 * math.log(n)


def test_d_constant_p_greater_one_vs_quadrature():
    for n, p in ((256, 1.5), (1024, 1.2)):
        assert grover_d_constant(n, p) == pytest.approx(quad_power_normalizer(n, p), rel=1e-7)


def test_d_constant_domain_errors():
    with pytest.raises(ValueError):
        grover_d_constant(1)
    with pytest.raises(ValueError):
        grover_d_constant(64, 2.0)
    with pytest.raises(ValueError):
        grover_d_constant(64, 0.5)


@pytest.mark.parametrize("p, tol", ((1.0, 1e-6), (1.5, 1e-5)))
def test_power_schedule_satisfies_its_ode(p, tol):
    n = 256
    sched = build_grover_schedule(n, p)
    d = grover_d_constant(n, p)
    s = np.linspace(1e-3, 1.0 - 1e-3, 1001)
    target = d * grover_gap_of_f(schedule_values(sched, s), 1.0 / n) ** p
    fd = centered_fd(lambda x: schedule_values(sched, x), s)
    assert np.max(np.abs(fd - target)) < tol


def test_power_schedule_midpoint_slope_hits_gap_minimum():
    # f'(1/2) / d = Delta(1/2)^p = n^{-p/2}
    for n, p in ((1024, 1.0), (256, 1.5)):
        sched = build_grover_schedule(n, p)
        d = grover_d_constant(n, p)
        fd_mid = centered_fd(lambda x: schedule_values(sched, x), 0.5)
        assert abs(fd_mid / d - n ** (-p / 2.0)) < 1e-8


@pytest.mark.parametrize("p", (1.2, 1.5, 1.9))
def test_d_constant_p_greater_one_resolves_large_n(p):
    # the table grades its central segments down to the gap width 1/sqrt(n)
    for log2n in (8, 20, 32, 40, 60):
        n = 2 ** log2n
        assert grover_d_constant(n, p) == pytest.approx(sinh_power_normalizer(n, p), rel=1e-12)


def test_power_schedule_satisfies_its_ode_at_large_n():
    # f near 1/2 carries an ulp of 1.1e-16 while f' there is d N^{-p/2}, so
    # the difference quotient uses delta = 1e-5 and compares relatively
    n = 2 ** 40
    s = np.linspace(1e-2, 1.0 - 1e-2, 1001)
    for p in (1.2, 1.5, 1.9):
        sched = build_grover_schedule(n, p)
        target = grover_d_constant(n, p) * grover_gap_of_f(schedule_values(sched, s), 1.0 / n) ** p
        fd = centered_fd(lambda x: schedule_values(sched, x), s, delta=1e-5)
        assert np.max(np.abs(fd / target - 1.0)) < 1e-5


def test_power_schedule_rejects_n_beyond_the_table():
    build_grover_schedule(schedules.POWER_MAX_N, 1.5)
    with pytest.raises(ValueError, match="tabulated for N"):
        build_grover_schedule(schedules.POWER_MAX_N + 1, 1.5)


@pytest.mark.parametrize("log2n", (8, 12, 18, 20))
@pytest.mark.parametrize("p", (1.2, 1.5, 1.9))
def test_power_inversion_matches_bisection(log2n, p):
    n = 2 ** log2n
    s_nodes = schedules._power_table(n, p)[3]
    s = np.concatenate([np.linspace(0.0, 1.0, 2049), s_nodes[1:-1:7]])
    f = schedule_values(build_grover_schedule(n, p), s)
    f_ref = mirrored_bisection(n, p, s)
    assert np.all(np.abs(f - f_ref) <= 2.0 * np.spacing(f_ref))


def mirrored_bisection(n: int, p: float, s: np.ndarray) -> np.ndarray:
    """The bisection reference on the left half, mirrored onto the right
    one: the gap is symmetric about f = 1/2, so f(s) = 1 - f(1 - s)."""
    right = s > 0.5
    f = bisect_power_inverse(n, p, np.where(right, 1.0 - s, s))
    return np.where(right, 1.0 - f, f)


@pytest.mark.parametrize("log2n, p", [(48, 1.9), (52, 1.9), (56, 1.9), (52, 1.99), (56, 1.99),
                                      (60, 1.99), (64, 1.99), (64, 1.6), (64, 1.7), (64, 1.8),
                                      (60, 1.7)])
def test_power_schedule_ends_hold_where_d_is_large(log2n, p):
    # at (2^52, 1.9), (2^56, 1.99), (2^64, 1.7) and (2^64, 1.99), with d
    # from 1.9e7 to 5.4e9, inverting s near 1 from the left gave f(1) off 1
    # by up to 1.6e-7: df/ds = 1/d there, so the rounding of the last s
    # nodes moved f by about 1e-16 d
    n = 2 ** log2n
    sched = build_grover_schedule(n, p)
    s_nodes = schedules._power_table(n, p)[3]
    s = np.concatenate([np.linspace(0.0, 1.0, 513), s_nodes[1:-1:97], 1.0 - s_nodes[1:-1:97]])
    f = schedule_values(sched, s)
    assert schedule_values(sched, 0.0) == 0.0 and schedule_values(sched, 1.0) == 1.0
    assert np.all(np.abs(f - mirrored_bisection(n, p, s)) <= 2.0 * np.spacing(f))


def test_power_inversion_raises_at_its_iteration_cap(monkeypatch):
    sched = build_grover_schedule(2 ** 18, 1.5)
    monkeypatch.setattr(schedules, "POWER_NEWTON_CAP", 1)
    with pytest.raises(RuntimeError, match="unconverged"):
        schedule_values(sched, np.linspace(0.0, 1.0, 101))


@pytest.mark.parametrize("log2n", (8, 18, 40, 64))
@pytest.mark.parametrize("p", (1.01, 1.5, 1.9))
def test_power_guess_matches_the_closed_forms_at_both_nodes(log2n, p):
    # the quintic of each segment, as a_k t^k in t = (s - s_lo) / width,
    # against the value, slope d Delta^p and curvature
    # -2p d^2 (1 - 2f)(1 - mu) Delta^(2p - 2) at t = 0 and t = 1, computed
    # from x = f - 1/2; every error is within 64 eps of the size of the
    # terms it sums
    n = 2 ** log2n
    mu = 1.0 / n
    lo, hi, origin, s_nodes, guess, d = schedules._power_table(n, p)
    width = np.diff(s_nodes)
    k = np.arange(1, 6)[:, None]
    a = guess * width ** k
    eps = np.finfo(float).eps
    for t, u in ((0.0, lo), (1.0, hi)):
        x = (origin - 0.5) + u
        gap = np.sqrt(4.0 * x * x * (1.0 - mu) + mu)
        slope = width * d * gap ** p
        curv = 4.0 * p * (1.0 - mu) * (width * d) ** 2 * x * gap ** (2.0 * p - 2.0)
        terms = (a * t ** k, k * a * t ** (k - 1), k * (k - 1) * a * t ** np.maximum(k - 2, 0))
        for (term, ref) in zip(terms, (u - lo, slope, curv)):
            assert np.all(np.abs(term.sum(axis=0) - ref) <= 64 * eps * np.abs(term).sum(axis=0))


def test_power_inversion_takes_few_evaluations_per_point(monkeypatch):
    # the quintic guess leaves most points one Newton step from converged;
    # the cubic Hermite guess it replaced took 1.98 evaluations per point
    sched = build_grover_schedule(2 ** 18, 1.5)
    s = np.arange(6101) / 6101
    evaluated = []
    partial = schedules._power_partial

    def counting(u_lo, *args):
        evaluated.append(np.size(u_lo))
        return partial(u_lo, *args)

    monkeypatch.setattr(schedules, "_power_partial", counting)
    schedule_values(sched, s)
    assert sum(evaluated) / s.size <= 1.7


def test_power_schedule_symmetry_and_monotonicity():
    s = np.linspace(0.0, 1.0, 4001)
    for p in (1.0, 1.5):
        f = schedule_values(build_grover_schedule(4096, p), s)
        assert np.max(np.abs(f + f[::-1] - 1.0)) < 1e-8
        assert np.all(np.diff(f) >= 0.0)
        assert abs(f[0]) < 1e-12
        assert f[-1] == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# validation

def test_schedule_validation_errors():
    with pytest.raises(ValueError, match="unknown schedule kind"):
        Schedule("cosine")
    with pytest.raises(ValueError, match="no parameters"):
        Schedule("linear", {"a": 1})
    with pytest.raises(ValueError, match="N >= 2"):
        build_grover_schedule(1)
    with pytest.raises(ValueError, match="power p"):
        build_grover_schedule(64, 2.5)


def test_search_schedule_size_must_be_an_integer():
    # int(N) used to build the N = 100 schedule
    for n in (100.7, 100.0, True):
        with pytest.raises(ValueError, match="N must be an integer"):
            build_grover_schedule(n)
        with pytest.raises(ValueError, match="n must be an integer"):
            grover_d_constant(n)
    with pytest.raises(ValueError, match="N must be an integer"):
        Schedule("grover-power", {"N": "256"})
    assert build_grover_schedule(np.int64(256), 1.5) == build_grover_schedule(256, 1.5)
    assert type(build_grover_schedule(np.int64(256)).parameters["N"]) is int


def test_schedule_values_domain():
    with pytest.raises(ValueError, match="outside"):
        schedule_values(linear_schedule(), 1.5)
    with pytest.raises(ValueError, match="outside"):
        schedule_values(linear_schedule(), np.array([-0.2, 0.5]))
    with pytest.raises(ValueError, match="outside"):  # NaN fails the range check
        schedule_values(linear_schedule(), np.array([np.nan, 0.5]))
    with pytest.raises(ValueError, match="outside"):
        schedule_values(glue_schedule(), np.nan)


def test_schedule_values_scalar_form():
    f = schedule_values(linear_schedule(), 0.3)
    assert isinstance(f, float)
    assert f == 0.3


def test_schedule_values_preserves_shape():
    sched = glue_schedule()
    out = schedule_values(sched, np.full((3, 2), 0.5))
    assert out.shape == (3, 2)
    scalar = schedule_values(sched, 0.5)
    assert isinstance(scalar, float)


# ---------------------------------------------------------------------------
# serialization

@pytest.mark.parametrize(
    "sched",
    [
        linear_schedule(),
        glue_schedule(),
        bc_composite_schedule(),
        build_grover_schedule(256, 1.0),
        build_grover_schedule(64, 1.5),
    ],
    ids=lambda s: s.kind + str(s.parameters.get("p", "")),
)
def test_schedule_round_trips_through_json(sched):
    data = json.loads(json.dumps({"kind": sched.kind, "parameters": sched.parameters}))
    back = Schedule(data["kind"], data["parameters"])
    s = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(schedule_values(back, s), schedule_values(sched, s))

