"""Walk operators and product formulas against exponential oracles.

scipy.linalg.expm supplies closed references for single steps; the
time-ordered reference is cross-checked with an ODE integration from
scipy.integrate before it is trusted as a convergence-order oracle.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from adiawalk import integrators
from adiawalk.integrators import (
    EXP_INTEGRATOR,
    INTEGRATORS,
    PF1,
    PF2,
    PF2_SIMPLIFIED,
    GaplessError,
    ProblemConstants,
    WalkFamily,
    _check_unitary,
    _endpoints,
    _factor_products,
    _group_size,
    _phases,
    _walk_stack,
    build_walk_family,
    commutator_combo,
    exact_step_propagator,
    hamiltonian_bands,
    nested_commutator_sum,
    parse_integrator_tag,
    problem_constants,
    recommended_step_size,
    suzuki_coefficients,
    walk_operator,
)
from adiawalk.linalg import HermitianOperator, chain_product, operator_norm
from adiawalk.schedules import (
    bc_composite_schedule,
    glue_schedule,
    linear_schedule,
    schedule_values,
)
from adiawalk.spectral import gap_perturbation_bounds
from adiawalk.toymodels import build_toy, four_level_pair

LINEAR = linear_schedule()


# ---------------------------------------------------------------------------
# oracles

def expm_mix(h0, h1, f: float, h: float) -> np.ndarray:
    """exp(-i h H(f)) straight from scipy."""
    return scipy.linalg.expm(-1j * h * ((1.0 - f) * h0 + f * h1))


def expm_pf1(h0, h1, f: float, h: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * h * f * h1) @ scipy.linalg.expm(-1j * h * (1.0 - f) * h0)


def expm_pf2(h0, h1, f: float, h: float) -> np.ndarray:
    e0h = scipy.linalg.expm(-1j * h * (1.0 - f) * h0 / 2.0)
    return e0h @ scipy.linalg.expm(-1j * h * f * h1) @ e0h


def ode_propagator(
    h0, h1, sched, h: float, s: float, ds: float, *, rtol: float = 1e-11, atol: float = 1e-12
) -> np.ndarray:
    """Time-ordered propagator via scipy's adaptive ODE solver.

    Independent of the Strang-substep construction it validates.
    """
    n = h0.shape[0]

    def rhs(t, y):
        f = schedule_values(sched, min(s + ds * t / h, 1.0))
        ham = (1.0 - f) * h0 + f * h1
        return (-1j * ham @ y.reshape(n, n)).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, h), np.eye(n, dtype=complex).ravel(),
        rtol=rtol, atol=atol, method="DOP853",
    )
    return sol.y[:, -1].reshape(n, n)


def brute_nested_sum(h0, h1, p: int) -> float:
    """Recursive enumeration of the nested-commutator sum."""
    ops = (h0, h1)

    def rec(depth, term):
        if depth == p:
            return operator_norm(term)
        return sum(rec(depth + 1, g @ term - term @ g) for g in ops)

    return sum(rec(0, base) for base in ops)


def random_pair(seed: int, n: int = 4):
    rng = np.random.default_rng(seed)

    def herm():
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (a + a.conj().T) / 2

    return herm(), herm()


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def loglog_slope(hs, errs) -> float:
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# integrator tags

ALL_TAGS = ("exp", "pf1", "pf2", "pf2-simplified", "spf4", "spf6", "spf8")


def test_integrator_tags_round_trip():
    # one tag per factor list and offset
    assert sorted(INTEGRATORS) == sorted(ALL_TAGS)
    assert len({(kind.factors, kind.offset) for kind in INTEGRATORS.values()}) == len(ALL_TAGS)
    assert {EXP_INTEGRATOR, PF1, PF2, PF2_SIMPLIFIED} <= set(INTEGRATORS.values())
    for kind in INTEGRATORS.values():
        assert parse_integrator_tag(kind.tag) == kind
    assert EXP_INTEGRATOR.factors == ()
    assert PF2_SIMPLIFIED.factors == PF2.factors == suzuki_coefficients(2)
    assert PF2.offset == 0.5
    assert all(parse_integrator_tag(t).offset == 0.0 for t in ALL_TAGS if t != "pf2")


def test_integrator_tag_errors():
    for tag in ("pf3", "spf1", "spf2", "spf3", "spfx", "euler", ""):
        with pytest.raises(ValueError):
            parse_integrator_tag(tag)
    for order in (3, 5, 10):
        with pytest.raises(ValueError, match="bad integrator tag"):
            parse_integrator_tag(f"spf{order}")


def test_effective_orders():
    assert EXP_INTEGRATOR.effective_order == 1
    assert PF1.effective_order == 1
    assert PF2.effective_order == 2
    assert PF2_SIMPLIFIED.effective_order == 2
    assert INTEGRATORS["spf6"].effective_order == 6


# ---------------------------------------------------------------------------
# factor lists

def test_suzuki_order2_is_strang():
    assert suzuki_coefficients(2) == ((0, 0.5), (1, 1.0), (0, 0.5))


def test_suzuki_fractal_constant():
    # first fractal weight 1 / (4 - 4^(1/3))
    factors = suzuki_coefficients(4)
    u2 = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    assert factors[0] == (0, pytest.approx(u2 / 2.0, abs=1e-15))
    assert factors[1] == (1, pytest.approx(u2, abs=1e-15))


def test_suzuki_stage_counts_after_merging():
    expected = {2: 3, 4: 11, 6: 51, 8: 251}
    for order, count in expected.items():
        factors = suzuki_coefficients(order)
        assert len(factors) == count
        # alternating, starting and ending with H0
        assert [op for op, _ in factors] == [i % 2 for i in range(count)]
        for op in (0, 1):
            assert sum(w for o, w in factors if o == op) == pytest.approx(1.0, abs=1e-12)


def test_suzuki_rejects_odd_orders():
    with pytest.raises(ValueError):
        suzuki_coefficients(3)
    with pytest.raises(ValueError):
        suzuki_coefficients(10)


def test_walk_operator_is_the_family_kernel_at_one_point():
    h0, h1 = four_level_pair()
    td = 9
    for sched in (LINEAR, glue_schedule(), bc_composite_schedule()):
        for tag in ALL_TAGS:
            kind = parse_integrator_tag(tag)
            fam = build_walk_family(h0, h1, sched, kind, 0.7, td)
            for j in range(td + 1):
                s = min(j / td + kind.offset / td, 1.0)  # the family's read point
                w = walk_operator(h0, h1, sched, kind, 0.7, s)
                assert np.array_equal(w, fam.block(j, j + 1)[0]), (tag, sched.kind, j)


def test_hamiltonian_bands_match_pointwise_eigvalsh():
    h0, h1 = four_level_pair()
    glue = glue_schedule()
    s = np.linspace(0.0, 1.0, 41)
    f = schedule_values(glue, s)
    bands = hamiltonian_bands(h0, h1, f)
    for i, s_i in enumerate(s):
        fi = schedule_values(glue, float(s_i))
        ref = np.linalg.eigvalsh((1.0 - fi) * h0.matrix + fi * h1.matrix)
        assert np.max(np.abs(bands[i] - ref)) < 1e-14
    w, v = hamiltonian_bands(h0, h1, f, vectors=True)
    assert np.max(np.abs(w - bands)) < 1e-14
    hs = (1.0 - f)[:, None, None] * h0.matrix + f[:, None, None] * h1.matrix
    assert np.max(np.abs(hs @ v - v * w[:, None, :])) < 1e-13


# ---------------------------------------------------------------------------
# single walk operators vs expm oracles

def test_exp_walk_matches_expm():
    h0, h1 = random_pair(21)
    for s in (0.0, 0.3, 1.0):
        w = walk_operator(h0, h1, LINEAR, EXP_INTEGRATOR, 0.7, s)
        assert np.max(np.abs(w - expm_mix(h0, h1, s, 0.7))) < 1e-12


def test_pf1_walk_matches_expm_product():
    h0, h1 = random_pair(22)
    w = walk_operator(h0, h1, LINEAR, PF1, 0.9, 0.4)
    assert np.max(np.abs(w - expm_pf1(h0, h1, 0.4, 0.9))) < 1e-12


def test_pf2_simplified_matches_expm_product():
    h0, h1 = random_pair(23)
    w = walk_operator(h0, h1, LINEAR, PF2_SIMPLIFIED, 0.9, 0.4)
    assert np.max(np.abs(w - expm_pf2(h0, h1, 0.4, 0.9))) < 1e-12


def test_pf2_midpoint_reads_shifted_schedule():
    h0, h1 = random_pair(24)
    fam = build_walk_family(h0, h1, LINEAR, PF2, 0.9, 10)
    assert np.max(np.abs(fam.block(4, 5)[0] - expm_pf2(h0, h1, 0.45, 0.9))) < 1e-12
    # the midpoint never reads beyond the end of the schedule
    assert np.max(np.abs(fam.block(10, 11)[0] - expm_pf2(h0, h1, 1.0, 0.9))) < 1e-12


def test_one_point_pf2_walk_is_pf2_simplified():
    # walk_operator reads the schedule at s for every kind, and the two
    # kinds share one factor list; the step-size report relies on this
    h0, h1 = random_pair(25)
    for s in (0.0, 0.4, 1.0):
        a = walk_operator(h0, h1, LINEAR, PF2, 0.9, s)
        b = walk_operator(h0, h1, LINEAR, PF2_SIMPLIFIED, 0.9, s)
        assert np.array_equal(a, b)


def test_walk_operator_rejects_bad_step():
    h0, h1 = random_pair(26)
    for h in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            walk_operator(h0, h1, LINEAR, PF1, h, 0.5)


def test_walk_operator_rejects_a_non_unitary_walk():
    # h * lambda overflows, exp(-i inf) is NaN, and NaN must fail the check
    h0, h1 = random_pair(26)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError, match="unitarity"):
        walk_operator(1e10 * h0, h1, LINEAR, PF1, 1e300, 0.5)


def test_endpoints_are_diagonalized_once_per_operator(monkeypatch):
    # np.linalg.eigh of one (d, d) matrix is an endpoint diagonalization;
    # an exp walk hands its H(f) to eigh as an (n, d, d) stack instead
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if np.ndim(a) == 2:
            calls.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    h0, h1 = (HermitianOperator(m) for m in random_pair(26))
    walk_operator(h0, h1, LINEAR, EXP_INTEGRATOR, 0.6, 0.3)
    assert len(calls) == 0
    for s in (0.0, 0.3, 0.8):
        walk_operator(h0, h1, LINEAR, PF1, 0.6, s)
    build_walk_family(h0, h1, LINEAR, PF2, 0.6, 12).block(3, 7)
    assert len(calls) == 2


def test_endpoint_walks_collapse_to_single_exponentials():
    h0, h1 = random_pair(27)
    for kind in (EXP_INTEGRATOR, PF1, PF2_SIMPLIFIED, INTEGRATORS["spf4"]):
        w0 = walk_operator(h0, h1, LINEAR, kind, 0.6, 0.0)
        w1 = walk_operator(h0, h1, LINEAR, kind, 0.6, 1.0)
        assert np.max(np.abs(w0 - scipy.linalg.expm(-1j * 0.6 * h0))) < 1e-12
        assert np.max(np.abs(w1 - scipy.linalg.expm(-1j * 0.6 * h1))) < 1e-12


def test_commuting_pair_makes_all_formulas_exact():
    h0 = np.diag([0.3, -0.7, 1.1, 0.2])
    h1 = np.diag([-0.5, 0.4, 0.9, -1.3])
    ref = expm_mix(h0, h1, 0.6, 1.3)
    spfs = (INTEGRATORS["spf4"], INTEGRATORS["spf6"])
    for kind in (PF1, PF2_SIMPLIFIED, *spfs):
        w = walk_operator(h0, h1, LINEAR, kind, 1.3, 0.6)
        assert np.max(np.abs(w - ref)) < 1e-12


def grover_pair(n: int = 8, marked: int = 3):
    """H0 = I - |u><u| and H1 = I - |m><m|: both spectra are degenerate."""
    u = np.full(n, 1.0 / math.sqrt(n))
    e = np.eye(n)[marked]
    return np.eye(n) - np.outer(u, u), np.eye(n) - np.outer(e, e)


@pytest.mark.parametrize("pair", ["random", "grover"])
@pytest.mark.parametrize(
    "tag", ["exp", "pf1", "pf2", "pf2-simplified", "spf4", "spf6", "spf8"]
)
def test_walk_kernel_matches_expm_product_of_its_factors(tag, pair):
    h0, h1 = random_pair(29, n=5) if pair == "random" else grover_pair()
    kind = parse_integrator_tag(tag)
    f = np.array([0.0, 0.23, 0.5, 0.81, 1.0])
    stack = _walk_stack(*_endpoints(h0, h1), kind, 0.7, f)
    for walk, fk in zip(stack, f):
        ref = expm_mix(h0, h1, fk, 0.7) if not kind.factors else np.eye(len(h0))
        for op, weight in kind.factors:
            ref = ref @ scipy.linalg.expm(-1j * 0.7 * weight * (h1 * fk if op else h0 * (1.0 - fk)))
        assert np.max(np.abs(walk - ref)) < 1e-12


# ---------------------------------------------------------------------------
# second-order error bound

def test_pf2_error_bound_with_slack():
    # ||PF2 - exp|| at h = 0.1 stays within 2% of h^3/192 (2 C110 + C001)
    h = 0.1
    worst = 0.0
    for seed in range(60):
        h0, h1 = random_pair(1000 + seed)
        bound = (h ** 3 / 192.0) * commutator_combo(h0, h1)
        for f in np.linspace(0.0, 1.0, 11):
            err = operator_norm(expm_pf2(h0, h1, f, h) - expm_mix(h0, h1, f, h))
            worst = max(worst, err / bound)
    assert worst <= 1.02


def test_pf2_error_bound_exact_split():
    # the sharper f-weighted split holds with no slack
    h = 0.1
    for seed in range(40):
        h0, h1 = random_pair(2000 + seed)
        c = h0 @ h1 - h1 @ h0
        c110 = operator_norm(h1 @ c - c @ h1)
        c001 = operator_norm(h0 @ c - c @ h0)
        for f in np.linspace(0.0, 1.0, 11):
            err = operator_norm(expm_pf2(h0, h1, f, h) - expm_mix(h0, h1, f, h))
            bound = h ** 3 * (f * f * (1 - f) * c110 / 12.0 + f * (1 - f) ** 2 * c001 / 24.0)
            assert err <= bound + 1e-14


# ---------------------------------------------------------------------------
# time-ordered reference propagator

def test_oracle_with_frozen_schedule_is_plain_exponential():
    h0, h1 = random_pair(31)
    u = exact_step_propagator(h0, h1, LINEAR, 0.8, 0.35, 0.0)
    assert np.max(np.abs(u - expm_mix(h0, h1, 0.35, 0.8))) < 1e-9


def test_oracle_matches_ode_solver():
    h0, h1 = random_pair(32)
    u = exact_step_propagator(h0, h1, LINEAR, 0.7, 0.2, 0.1)
    ref = ode_propagator(h0, h1, LINEAR, 0.7, 0.2, 0.1)
    assert operator_norm(u - ref) < 1e-8


def test_oracle_is_unitary_and_accepts_roundoff_plateau(monkeypatch):
    h0, h1 = random_pair(33)
    # tolerance below the roundoff floor forces the plateau acceptance path
    monkeypatch.setattr(integrators, "ORACLE_TOL", 1e-16)
    u = exact_step_propagator(h0, h1, LINEAR, 0.5, 0.1, 0.05)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9
    assert operator_norm(u - ode_propagator(h0, h1, LINEAR, 0.5, 0.1, 0.05)) < 1e-8


def test_oracle_raises_when_capped_early(monkeypatch):
    h0, h1 = random_pair(34)
    monkeypatch.setattr(integrators, "ORACLE_TOL", 1e-14)
    monkeypatch.setattr(integrators, "ORACLE_MAX_SUBSTEPS", 4)
    with pytest.raises(RuntimeError, match="doubling"):
        exact_step_propagator(h0, h1, LINEAR, 3.0, 0.0, 0.5)


@pytest.mark.parametrize(
    "h,s,ds,match",
    [
        (0.5, 0.95, 0.5, "window"),  # not to be clipped into [0.95, 1]
        (0.5, 0.5, -0.1, "window"),
        (0.5, 0.3, float("nan"), "window"),
        (-0.5, 0.3, 0.1, "positive"),
        (float("nan"), 0.3, 0.1, "positive"),
    ],
    ids=["past-one", "negative-ds", "nan-ds", "negative-h", "nan-h"],
)
def test_oracle_rejects_bad_windows_and_step_sizes(h, s, ds, match):
    h0, h1 = random_pair(35)
    with pytest.raises(ValueError, match=match):
        exact_step_propagator(h0, h1, LINEAR, h, s, ds)


def test_oracle_accepts_a_window_ending_within_roundoff_of_one():
    h0, h1 = random_pair(36)
    u = exact_step_propagator(h0, h1, LINEAR, 0.5, 0.9, 0.1 + 1e-13)
    assert operator_norm(u - ode_propagator(h0, h1, LINEAR, 0.5, 0.9, 0.1)) < 1e-8


def test_oracle_matches_tight_ode_solver():
    # windows of up to a tenth of the schedule, so the time ordering matters
    worst = 0.0
    for seed in range(10):
        h0, h1 = random_pair(300 + seed)
        alpha = operator_norm(h0) + operator_norm(h1)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            h = rng.uniform(0.1, 1.0) / alpha
            s, ds = rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.1)
            u = exact_step_propagator(h0, h1, LINEAR, h, s, ds)
            ref = ode_propagator(h0, h1, LINEAR, h, s, ds, rtol=1e-13, atol=1e-15)
            worst = max(worst, operator_norm(u - ref))
    h0, h1 = random_pair(310)
    glue = glue_schedule()
    u = exact_step_propagator(h0, h1, glue, 0.3, 0.02, 0.1)
    ref = ode_propagator(h0, h1, glue, 0.3, 0.02, 0.1, rtol=1e-13, atol=1e-15)
    worst = max(worst, operator_norm(u - ref))
    assert worst < 1e-11, worst


def test_oracle_work_is_bounded(monkeypatch):
    # the first 25 problems of the exponential step-error baseline
    monkeypatch.setattr(integrators, "ORACLE_MAX_SUBSTEPS", 64)
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        h0, h1 = random_hermitian(rng, n), random_hermitian(rng, n)
        alpha = operator_norm(h0) + operator_norm(h1)
        t_total = rng.uniform(10.0, 1000.0)
        h = rng.uniform(0.1, 1.0) / alpha
        s = rng.uniform(0.0, t_total - h) / t_total
        exact_step_propagator(h0, h1, LINEAR, h, s, h / t_total)


# ---------------------------------------------------------------------------
# convergence orders

@pytest.mark.parametrize("order,expected", [(1, 2.0), (2, 3.0), (4, 5.0)])
def test_spf_convergence_small_steps(order, expected):
    h0, h1 = random_pair(41)
    s = 0.3
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    kind = {1: PF1, 2: PF2_SIMPLIFIED, 4: INTEGRATORS["spf4"]}[order]
    errs = []
    for h in hs:
        w = walk_operator(h0, h1, LINEAR, kind, float(h), s)
        ref = exact_step_propagator(h0, h1, LINEAR, float(h), s, 0.0)
        errs.append(operator_norm(w - ref))
    slope = loglog_slope(hs, errs)
    assert slope >= order + 0.8
    assert slope == pytest.approx(expected, abs=0.35)


@pytest.mark.parametrize("order,scale", [(6, (2.4, 1.8, 1.2, 0.9)), (8, (4.0, 3.0, 2.0, 1.5))])
def test_spf_convergence_high_orders(order, scale):
    # with ds = 0 the exact step is just exp(-i h H(s)), so scipy's expm is
    # the reference; steps are scaled by 1/alpha to compare spectra
    h0, h1 = random_pair(42)
    alpha = operator_norm(h0) + operator_norm(h1)
    s = 0.3
    f = schedule_values(LINEAR, s)
    hs = np.array(scale) / alpha
    errs = []
    for h in hs:
        w = walk_operator(h0, h1, LINEAR, INTEGRATORS[f"spf{order}"], float(h), s)
        errs.append(operator_norm(w - expm_mix(h0, h1, f, float(h))))
    assert loglog_slope(hs, errs) >= order + 0.8


# ---------------------------------------------------------------------------
# commutator sums and step-size rules

def test_nested_sum_vanishes_for_commuting_pair():
    assert nested_commutator_sum(np.diag([1.0, 2.0]), np.diag([3.0, -1.0]), 3) == 0.0


def test_nested_sum_matches_brute_force():
    h0, h1 = random_pair(51, n=3)
    for p in (1, 2, 3):
        assert nested_commutator_sum(h0, h1, p) == pytest.approx(
            brute_nested_sum(h0, h1, p), rel=1e-12
        )


def test_nested_sum_order_validation():
    h0, h1 = random_pair(52)
    for p in (0, 9):
        with pytest.raises(ValueError):
            nested_commutator_sum(h0, h1, p)


def test_commutator_combo_matches_direct():
    h0, h1 = random_pair(53)
    c = h0 @ h1 - h1 @ h0
    expected = 2.0 * operator_norm(h1 @ c - c @ h1) + operator_norm(h0 @ c - c @ h0)
    assert commutator_combo(h0, h1) == pytest.approx(expected, rel=1e-13)


def test_commutator_combo_is_two_nested_commutator_norms():
    # 2 N(0, 1, 1) + N(1, 0, 0), with N the norms that nested_commutator_sum
    # adds up, is bitwise the explicit formula on the step-size-report
    # sources, since IEEE subtraction gives a - b = -(b - a) exactly
    from adiawalk.grover import GroverInstance, effective_hamiltonians

    pairs = [effective_hamiltonians(GroverInstance(1024, 1))]
    pairs += [(t.h0, t.h1) for t in (build_toy("toy1", 0.05), build_toy("toy2", 0.05))]
    for h0, h1 in pairs:
        m0, m1 = h0.matrix, h1.matrix
        c = m0 @ m1 - m1 @ m0
        c110 = m1 @ (-c) - (-c) @ m1  # [H1, [H1, H0]]
        c001 = m0 @ c - c @ m0  # [H0, [H0, H1]]
        assert commutator_combo(h0, h1) == 2.0 * operator_norm(c110) + operator_norm(c001)


def test_problem_constants_on_search_pair():
    from adiawalk.grover import effective_hamiltonians, GroverInstance

    h0, h1 = effective_hamiltonians(GroverInstance(16))
    consts = problem_constants(h0, h1, LINEAR)
    assert consts.alpha == pytest.approx(2.0, abs=1e-12)
    # minimal gap sqrt(mu) at f = 1/2
    assert consts.delta_star == pytest.approx(0.25, abs=1e-4)
    assert consts.s_star == 0.5
    assert set(consts.alpha_tilde) == {1, 2, 4}
    assert consts.alpha_tilde[1] == pytest.approx(2.0 * math.sqrt(15.0) / 16.0, rel=1e-10)


def test_problem_constants_validation():
    with pytest.raises(ValueError, match="delta_star"):
        ProblemConstants(alpha=1.0, delta_star=3.0, comm_combo=0.0, alpha_tilde={})


def test_recommended_step_sizes():
    consts = ProblemConstants(alpha=2.0, delta_star=0.5, comm_combo=3.0, alpha_tilde={4: 2.0})
    assert recommended_step_size(consts, EXP_INTEGRATOR) == 0.5
    expected_pf = min(0.5, math.sqrt(95.0 * 0.5 / 6.0))
    assert recommended_step_size(consts, PF1) == pytest.approx(expected_pf)
    assert recommended_step_size(consts, PF2) == pytest.approx(expected_pf)
    expected_spf = min(0.5, (0.5 / 2.0) ** 0.25)
    assert recommended_step_size(consts, INTEGRATORS["spf4"]) == pytest.approx(expected_spf)


def test_recommended_step_size_gapless():
    consts = ProblemConstants(alpha=2.0, delta_star=0.0, comm_combo=3.0, alpha_tilde={})
    with pytest.raises(GaplessError):
        recommended_step_size(consts, EXP_INTEGRATOR)


def test_recommended_step_size_rejects_a_roundoff_gap():
    # toy2 at eps = 0 has no gap; problem_constants measures roundoff there
    model = build_toy("toy2", 0.0)
    consts = problem_constants(model.h0, model.h1, model.schedule)
    assert 0.0 <= consts.delta_star <= integrators.GAPLESS_TOL
    for kind in INTEGRATORS.values():
        with pytest.raises(GaplessError, match="GAPLESS_TOL"):
            recommended_step_size(consts, kind)


def test_recommended_step_size_needs_tabulated_order():
    consts = ProblemConstants(alpha=2.0, delta_star=0.5, comm_combo=3.0, alpha_tilde={})
    with pytest.raises(ValueError, match="order-6"):
        recommended_step_size(consts, INTEGRATORS["spf6"])


# ---------------------------------------------------------------------------
# walk families

def test_family_matches_single_operators():
    h0, h1 = random_pair(61)
    td = 12
    for kind in (EXP_INTEGRATOR, PF1, PF2, PF2_SIMPLIFIED, INTEGRATORS["spf4"]):
        fam = build_walk_family(h0, h1, LINEAR, kind, 0.5, td)
        for j in (0, 5, td):
            s = min(j / td + kind.offset / td, 1.0)  # the family's read point
            single = walk_operator(h0, h1, LINEAR, kind, 0.5, s)
            assert np.max(np.abs(fam.block(j, j + 1)[0] - single)) < 1e-12


def test_family_lazy_equals_materialized(monkeypatch):
    h0, h1 = random_pair(62)
    lazy = build_walk_family(h0, h1, LINEAR, PF1, 0.5, 9)
    eager = build_walk_family(h0, h1, LINEAR, PF1, 0.5, 9)
    eager.walks  # noqa: B018  (builds and caches the stack)
    assert eager.walks is eager.walks
    assert np.allclose(lazy.block(2, 7), eager.walks[2:7], atol=1e-15)
    assert np.allclose(lazy.walks, eager.walks, atol=1e-15)

    def no_build(*args, **kwargs):
        raise AssertionError("walks built before a block, chain or walks was asked for")

    # construction builds nothing; a cached family slices its blocks
    monkeypatch.setattr(integrators, "_factor_products", no_build)
    build_walk_family(h0, h1, LINEAR, PF1, 0.5, 9)
    assert np.array_equal(eager.block(2, 7), eager.walks[2:7])


def test_family_grid_and_block_bounds():
    h0, h1 = random_pair(63)
    fam = build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 1.0, 4)
    assert fam.walks.shape == (5, 4, 4)
    with pytest.raises(ValueError, match="block range"):
        fam.block(3, 3)
    with pytest.raises(ValueError, match="block range"):
        fam.block(0, 6)


def test_family_construction_errors():
    h0, h1 = random_pair(64)
    with pytest.raises(ValueError, match="td"):
        build_walk_family(h0, h1, LINEAR, PF1, 0.5, 0)
    with pytest.raises(ValueError, match="positive"):
        build_walk_family(h0, h1, LINEAR, PF1, 0.0, 4)
    with pytest.raises(ValueError, match="mismatch"):
        build_walk_family(h0, np.eye(3), LINEAR, PF1, 0.5, 4)


def test_family_td_must_be_an_integer():
    # a float td used to build and serve blocks, then stop evolve and the
    # tracker with a TypeError from range()
    h0, h1 = random_pair(65)
    for td in (100.0, 2.5, True):
        with pytest.raises(ValueError, match="integer"):
            build_walk_family(h0, h1, LINEAR, PF1, 0.5, td)
    fam = build_walk_family(h0, h1, LINEAR, PF1, 0.5, np.int64(4))
    assert type(fam.td) is int and fam.td == 4
    assert fam.dim == 4


@pytest.mark.parametrize("call", [
    lambda a, b: hamiltonian_bands(a, b, 0.5),
    lambda a, b: nested_commutator_sum(a, b, 2),
    commutator_combo,
    lambda a, b: problem_constants(a, b, LINEAR, grid=10),
    lambda a, b: gap_perturbation_bounds(a, b, LINEAR, 0.5, 0.1),
], ids=["hamiltonian_bands", "nested_commutator_sum", "commutator_combo",
        "problem_constants", "gap_perturbation_bounds"])
def test_endpoints_of_different_dimensions_are_rejected(call):
    # they used to fail inside numpy, on broadcasting or a matmul mismatch
    h3, h2 = random_pair(69, n=3)[0], random_pair(69, n=2)[0]
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
        call(h3, h2)


def test_non_finite_walks_fail_the_unitarity_checks():
    with pytest.raises(RuntimeError, match="unitarity"):
        _check_unitary(np.full((3, 2, 2), np.nan), "walk lost unitarity")
    # 161 pf1 steps group two per product, so the chain checks its phases
    assert _group_size(161, len(PF1.factors)) == 2
    h0, h1 = random_pair(66, n=2)
    fam = WalkFamily(td=160, h=math.nan, kind=PF1, h0=HermitianOperator(h0),
                     h1=HermitianOperator(h1), schedule=LINEAR)
    with pytest.raises(RuntimeError, match="unitarity"):
        fam.block(0, 3)
    with pytest.raises(RuntimeError, match="walk phases lost unitarity"):
        fam.chain(0, 161)
    # one bad entry among unitary walks, in either stack layout: a NaN in the
    # last column of the last step enters only late pairs of the Gram
    # triangle, where a max() fold over per-pair maxima would drop it
    rng = np.random.default_rng(67)
    for d in (2, 6):
        q, r = np.linalg.qr(rng.standard_normal((9, d, d)) + 1j * rng.standard_normal((9, d, d)))
        qs = q * (np.diagonal(r, axis1=1, axis2=2) / np.abs(np.diagonal(r, axis1=1, axis2=2)))[:, None, :]
        for ws in (qs, np.ascontiguousarray(qs.transpose(1, 2, 0)).transpose(2, 0, 1)):
            _check_unitary(ws, "walk lost unitarity")
            bad = ws.copy(order="K")
            bad[-1, -1, -1] = np.nan
            with pytest.raises(RuntimeError, match="unitarity"):
                _check_unitary(bad, "walk lost unitarity")
            off = ws.copy(order="K")
            off[4] *= 1.0 + 1e-10  # |W^dag W - I| = 2e-10 > WALK_UNITARITY_TOL
            with pytest.raises(RuntimeError, match="unitarity"):
                _check_unitary(off, "walk lost unitarity")


# ---------------------------------------------------------------------------
# chains of grouped walk products

PRODUCT_FORMULAS = [tag for tag, kind in INTEGRATORS.items() if kind.factors]


def test_phases_match_the_complex_exponential():
    rng = np.random.default_rng(68)
    x = np.concatenate([np.linspace(-1e6, 1e6, 200_001), rng.uniform(-1e6, 1e6, 100_000),
                        rng.uniform(-4.0, 4.0, 100_000)])
    assert x.size >= integrators.PHASES_COS_SIN_MIN
    assert np.max(np.abs(_phases(x) - np.exp(-1j * x))) <= 2.3e-16
    small = x[: integrators.PHASES_COS_SIN_MIN - 1]
    assert np.max(np.abs(_phases(small) - np.exp(-1j * small))) <= 2.3e-16
    for size in (1, integrators.PHASES_COS_SIN_MIN):
        assert np.all(_phases(np.zeros(size)) == 1.0)
    assert np.array_equal(_phases(x[1:].reshape(4, -1)), _phases(x[1:]).reshape(4, -1))


@pytest.mark.parametrize("sched", [LINEAR, glue_schedule()], ids=["linear", "glue"])
@pytest.mark.parametrize("tag", PRODUCT_FORMULAS)
def test_eigenframe_chain_matches_the_walk_product(tag, sched):
    # range lengths 1, 15, 16, 17, 32, 1767 and 3000: one step per product,
    # so the block's product, for every list, and for pf1 groups of 6 steps
    # with a remainder of 3 and of 8 with none (pf2: 5 with a remainder of 2,
    # 7 with one of 4)
    h0, h1 = four_level_pair()
    td = 3000
    ranges = ((17, 18), (5, 20), (16, 32), (100, 117), (33, 65), (1234, td + 1), (0, td))
    assert [_group_size(j1 - j0, 2) for j0, j1 in ranges] == [1, 1, 1, 1, 1, 6, 8]
    for h in (0.7, 3.0):
        fam = build_walk_family(h0, h1, sched, INTEGRATORS[tag], h, td)
        for j0, j1 in ranges:
            ref = chain_product(fam.block(j0, j1))
            assert np.max(np.abs(fam.chain(j0, j1) - ref)) <= 1e-11, (h, j0, j1)


def test_group_size_follows_the_chain_length():
    # about sqrt(n / (20 m)) steps per product, at most CHAIN_GROUP: one
    # per step for short chains and long factor lists
    assert integrators.CHAIN_GROUP == 16
    lengths = (1, 79, 80, 300, 3000, 10240, 65536)
    assert [_group_size(n, 2) for n in lengths] == [1, 1, 1, 2, 8, 16, 16]
    assert [_group_size(n, 11) for n in (17, 3000, 65536)] == [1, 3, 16]
    assert [_group_size(n, 251) for n in (17, 3000, 65536)] == [1, 1, 3]


def test_group_products_match_the_walks():
    # the kernel returns the walk products W_{ik+k-1} ... W_{ik} as a
    # steps-last stack, for lists that start and end on different operators
    # (pf1: H1 then H0) and on one operator (pf2, spf4: H0, so their seams
    # only scale), at k = 1, 7 and 16 over 112 steps, which both group sizes
    # divide (the kernel multiplies whole groups only).  At k = 1 the
    # products are the walks, bitwise, and no phase is checked.  Both bases
    # are far from the identity; toy2's diagonal H1 has V1 = I, so it cannot
    # tell a frame from no frame.
    h0, h1 = four_level_pair()
    for op in (h0, h1):
        assert np.max(np.abs(np.abs(op.eigh[1]) - np.eye(4))) > 0.1
    f = np.linspace(0.0, 1.0, 7 * 16)
    for kind in (PF1, PF2, INTEGRATORS["spf4"]):
        ws = _walk_stack(h0, h1, kind, 0.9, f)
        walks, none = _factor_products(h0, h1, kind, 0.9, f, 1)
        assert none is None
        assert np.array_equal(walks, ws)
        for k, count in ((16, 7), (7, 16)):
            ps, dev = _factor_products(h0, h1, kind, 0.9, f, k)
            assert ps.shape == (count, 4, 4) and ps.strides[0] == ps.itemsize
            assert dev <= 1e-15
            for i in range(count):
                ref = chain_product(ws[i * k : (i + 1) * k])
                assert np.max(np.abs(ps[i] - ref)) <= 1e-13, (kind.tag, k, i)


def test_chain_of_exp_and_materialized_families_is_the_block_product():
    # exp families multiply their blocks; a product formula whose stack is
    # cached still chains its group products where it groups steps, and
    # multiplies its cached block where it does not, as a fresh family does
    h0, h1 = four_level_pair()
    td = 300
    args = ((LINEAR, EXP_INTEGRATOR, 0.7), (LINEAR, EXP_INTEGRATOR, 0.7),
            (glue_schedule(), PF1, 3.0), (LINEAR, INTEGRATORS["spf4"], 0.7))
    families = [build_walk_family(h0, h1, *a, td) for a in args]
    for fam in families[1:]:
        fam.walks  # noqa: B018  (builds and caches the stack)
    ranges = ((0, td), (5, 6), (100, td + 1))
    for i, fam in enumerate(families):
        for j0, j1 in ranges:
            if fam.kind.factors:
                fresh = build_walk_family(h0, h1, *args[i], td)
                assert np.array_equal(fam.chain(j0, j1), fresh.chain(j0, j1))
            else:
                assert np.array_equal(fam.chain(j0, j1), chain_product(fam.block(j0, j1)))
        with pytest.raises(ValueError, match="block range"):
            fam.chain(4, 4)
        with pytest.raises(ValueError, match="block range"):
            fam.chain(0, td + 2)


def test_one_step_groups_chain_the_block(monkeypatch):
    # at one step per product a product formula's chain is its block's
    # product, bitwise; a longer chain still multiplies group products, and
    # builds the steps left over (2,048 mod 7 = 4) as a block of walks
    h0, h1 = four_level_pair()
    calls = []
    factor_products = integrators._factor_products

    def counting(h0, h1, kind, h, f, k):
        calls.append((kind.tag, len(f), k))
        return factor_products(h0, h1, kind, h, f, k)

    monkeypatch.setattr(integrators, "_factor_products", counting)
    for tag, j0, j1 in (("spf8", 40, 57), ("pf1", 0, 100), ("pf1", 3, 2051)):
        fam = build_walk_family(h0, h1, glue_schedule(), INTEGRATORS[tag], 0.7, 3000)
        ref = chain_product(fam.block(j0, j1))
        calls.clear()
        chain = fam.chain(j0, j1)
        k = _group_size(j1 - j0, len(fam.kind.factors))
        if k == 1:
            assert np.array_equal(chain, ref), tag
        else:
            assert np.max(np.abs(chain - ref)) <= 1e-11
        if k == 1:
            assert calls == [(tag, j1 - j0, 1)], tag
        else:
            assert calls == [(tag, 2044, 7), (tag, 4, 1)], tag
    assert k == 7


@pytest.mark.parametrize("tag", ["pf1", "spf4"])
def test_chain_multiplies_the_steps_left_over_after_its_groups(tag, monkeypatch):
    # a chain of n steps at k per product multiplies n - n mod k of them in
    # whole groups and the n mod k left over as their block's product; every
    # r = 0 .. k-1 must match the block product: for pf1 at the length
    # rule's k = 5 (1,000 to 1,004 steps), then for both lists at a set k
    # on short ranges, which keep the roundoff of both products far below
    # the tolerance (spf4's rule needs 880 steps for k = 2)
    h0, h1 = four_level_pair()
    if tag == "pf1":
        fam = build_walk_family(h0, h1, glue_schedule(), PF1, 0.7, 1100)
        for r in range(5):
            j0, j1 = 90 - r, 1090
            assert _group_size(j1 - j0, 2) == 5
            ref = chain_product(fam.block(j0, j1))
            assert np.max(np.abs(fam.chain(j0, j1) - ref)) <= 1e-13, r
    fam = build_walk_family(h0, h1, glue_schedule(), INTEGRATORS[tag], 0.7, 200)
    for k in (4, 7):
        monkeypatch.setattr(integrators, "_group_size", lambda n, m, k=k: k)
        for r in range(k):
            j0, j1 = 3 + r, 3 + r + 6 * k + r
            ref = chain_product(fam.block(j0, j1))
            assert np.max(np.abs(fam.chain(j0, j1) - ref)) <= 1e-13, (k, r)


def one_bad_phase_at(monkeypatch, fam, step, error=1e-8):
    """Make ``integrators._phases`` put a modulus error ``error`` on one phase
    of the H1 factor of ``step`` of the pf1 family ``fam``.  That factor's
    phase arguments h lambda_1 f(step) are found by value, as a column of
    a phase array of the kernel, wherever the kernel lays the step out."""
    f = schedule_values(fam.schedule, np.array([step / fam.td]))
    target = fam.h * np.outer(fam.h1.eigh[0], f)
    phases = integrators._phases

    def one_bad_phase(x):
        out = phases(x)
        hit = np.isclose(x, target, rtol=1e-14, atol=0.0).all(axis=-2)
        out[..., 2, :] *= np.where(hit, 1.0 + error, 1.0)
        return out

    monkeypatch.setattr(integrators, "_phases", one_bad_phase)


def test_eigenframe_chain_checks_every_step(monkeypatch):
    # one phase of one step off the unit circle by 1e-8 makes that W_j
    # non-unitary by far more than WALK_UNITARITY_TOL; the chain must see it
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, PF1, 0.7, 500)
    fam.chain(0, 500)
    one_bad_phase_at(monkeypatch, fam, 321)
    with pytest.raises(RuntimeError, match="unitarity"):
        fam.chain(0, 500)
    fam.chain(0, 321)  # the bad step lies outside this range


def test_eigenframe_chain_checks_the_steps_of_its_last_group(monkeypatch):
    # 10,244 = 640 * 16 + 4: step 10,241 lies among the four steps left
    # over, which the chain multiplies as a Gram-checked block of walks
    assert _group_size(10244, len(PF1.factors)) == 16
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, PF1, 0.7, 10244)
    one_bad_phase_at(monkeypatch, fam, 10241)
    with pytest.raises(RuntimeError, match="walk block lost unitarity"):
        fam.chain(0, 10244)
    with pytest.raises(RuntimeError, match="unitarity"):
        fam.chain(10240, 10242)
    fam.chain(0, 10241)  # the bad step lies outside this range


def test_eigenframe_chain_checks_every_phase_modulus(monkeypatch):
    # one phase off by 1.2 times the per-phase budget WALK_UNITARITY_TOL / (2m)
    # leaves its step and its group product within WALK_UNITARITY_TOL: only
    # the phase check sees it
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, PF1, 0.7, 500)
    budget = integrators.WALK_UNITARITY_TOL / (2 * len(PF1.factors))
    one_bad_phase_at(monkeypatch, fam, 321, 1.2 * budget)
    with pytest.raises(RuntimeError, match="walk phases lost unitarity"):
        fam.chain(0, 500)


def test_eigenframe_chain_checks_the_link(monkeypatch):
    # 160 pf1 steps group two per product: a chain that runs the link
    assert _group_size(160, len(PF1.factors)) == 2
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, PF1, 0.7, 160)
    links = integrators._links

    def bad_link(*args):
        ends, (cd, c) = links(*args)
        return ends, (cd, c * (1.0 + 1e-9))

    monkeypatch.setattr(integrators, "_links", bad_link)
    with pytest.raises(RuntimeError, match="walk link lost unitarity"):
        fam.chain(0, 160)


def test_eigenframe_chain_checks_its_group_products(monkeypatch):
    # every phase off the unit circle by 0.9 of the per-phase tolerance
    # passes the phase check and leaves each step within WALK_UNITARITY_TOL,
    # but 32 such phases make a 16-step pf1 product non-unitary by about
    # 1.4e-9: the Gram check of the group products must see it
    assert _group_size(10240, len(PF1.factors)) == 16
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, PF1, 0.7, 10240)
    phases = integrators._phases
    scale = 1.0 + 0.9 * integrators.WALK_UNITARITY_TOL / (2 * len(PF1.factors))
    monkeypatch.setattr(integrators, "_phases", lambda x: phases(x) * scale)
    with pytest.raises(RuntimeError, match="walk block lost unitarity"):
        fam.chain(0, 10240)


def test_cached_walks_are_read_only():
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, PF1, 1.0, 50)
    fam.walks  # noqa: B018  (builds and caches the stack)
    with pytest.raises(ValueError, match="read-only"):
        fam.walks[10][:] = 1j * np.eye(4)
    with pytest.raises(ValueError, match="read-only"):
        fam.block(3, 9)[0, 0, 0] = 0.0
