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
    _endpoints,
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
    walk_family_from_operators,
    walk_operator,
)
from adiawalk.linalg import HermitianOperator, chain_product, operator_norm
from adiawalk.schedules import (
    bc_composite_schedule,
    glue_schedule,
    linear_schedule,
    schedule_values,
)
from adiawalk.toymodels import four_level_pair

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

def test_integrator_tags_round_trip():
    spfs = (INTEGRATORS["spf2"], INTEGRATORS["spf4"], INTEGRATORS["spf8"])
    for kind in (EXP_INTEGRATOR, PF1, PF2, PF2_SIMPLIFIED, *spfs):
        assert parse_integrator_tag(kind.tag) == kind


def test_integrator_tag_errors():
    for tag in ("pf3", "spf3", "spfx", "euler", ""):
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

ALL_TAGS = ("exp", "pf1", "pf2", "pf2-simplified", "spf1", "spf2", "spf4", "spf6", "spf8")


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


def test_aliases_share_one_factor_list():
    assert INTEGRATORS["spf1"].factors == PF1.factors == ((1, 1.0), (0, 1.0))
    assert (
        INTEGRATORS["spf2"].factors == PF2_SIMPLIFIED.factors == PF2.factors
        == suzuki_coefficients(2)
    )
    assert EXP_INTEGRATOR.factors == ()
    assert PF2.offset == 0.5
    assert all(parse_integrator_tag(t).offset == 0.0 for t in ALL_TAGS if t != "pf2")


def test_alias_families_are_bitwise_equal():
    h0, h1 = four_level_pair()
    for sched in (LINEAR, glue_schedule(), bc_composite_schedule()):
        for a, b in ((PF1, INTEGRATORS["spf1"]), (PF2_SIMPLIFIED, INTEGRATORS["spf2"])):
            fa = build_walk_family(h0, h1, sched, a, 0.7, 23)
            fb = build_walk_family(h0, h1, sched, b, 0.7, 23)
            assert np.array_equal(fa.walks, fb.walks)


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
                assert np.array_equal(w, fam.walk(j)), (tag, sched.kind, j)


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
    assert np.max(np.abs(fam.walk(4) - expm_pf2(h0, h1, 0.45, 0.9))) < 1e-12
    # the midpoint never reads beyond the end of the schedule
    assert np.max(np.abs(fam.walk(10) - expm_pf2(h0, h1, 1.0, 0.9))) < 1e-12


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
    spfs = (INTEGRATORS["spf2"], INTEGRATORS["spf4"], INTEGRATORS["spf6"])
    for kind in (PF1, PF2_SIMPLIFIED, *spfs):
        w = walk_operator(h0, h1, LINEAR, kind, 1.3, 0.6)
        assert np.max(np.abs(w - ref)) < 1e-12


def test_spf_order_one_is_pf1():
    h0, h1 = random_pair(28)
    a = walk_operator(h0, h1, LINEAR, INTEGRATORS["spf1"], 0.8, 0.35)
    b = walk_operator(h0, h1, LINEAR, PF1, 0.8, 0.35)
    assert np.array_equal(a, b)


def grover_pair(n: int = 8, marked: int = 3):
    """H0 = I - |u><u| and H1 = I - |m><m|: both spectra are degenerate."""
    u = np.full(n, 1.0 / math.sqrt(n))
    e = np.eye(n)[marked]
    return np.eye(n) - np.outer(u, u), np.eye(n) - np.outer(e, e)


@pytest.mark.parametrize("pair", ["random", "grover"])
@pytest.mark.parametrize(
    "tag", ["exp", "pf1", "pf2", "pf2-simplified", "spf1", "spf2", "spf4", "spf6", "spf8"]
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
    kind = PF1 if order == 1 else INTEGRATORS[f"spf{order}"]
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
            assert np.max(np.abs(fam.walk(j) - single)) < 1e-12


def test_family_lazy_equals_materialized():
    h0, h1 = random_pair(62)
    lazy = build_walk_family(h0, h1, LINEAR, PF1, 0.5, 9, materialize=False)
    eager = build_walk_family(h0, h1, LINEAR, PF1, 0.5, 9, materialize=True)
    assert lazy._walks is None
    assert eager._walks is not None
    assert np.allclose(lazy.block(2, 7), eager.walks[2:7], atol=1e-15)
    assert np.allclose(lazy.walks, eager.walks, atol=1e-15)


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


def test_family_from_explicit_operators():
    rng = np.random.default_rng(65)
    qs = []
    for _ in range(3):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        qs.append(q * (np.diag(r) / np.abs(np.diag(r))))
    fam = walk_family_from_operators(np.stack(qs), h=0.5)
    assert fam.td == 2
    assert fam.dim == 3
    assert np.array_equal(fam.walk(1), qs[1])
    with pytest.raises(ValueError, match="unitary"):
        walk_family_from_operators(np.stack([qs[0], 1.1 * qs[1]]))


def test_non_finite_walks_fail_the_unitarity_checks():
    with pytest.raises(ValueError, match="unitary"):
        walk_family_from_operators(np.full((3, 2, 2), np.nan))
    h0, h1 = random_pair(66, n=2)
    fam = WalkFamily(td=2, h=math.nan, dim=2, kind=PF1, h0=HermitianOperator(h0),
                     h1=HermitianOperator(h1), schedule=LINEAR)
    with pytest.raises(RuntimeError, match="unitarity"):
        fam.block(0, 3)
    # one bad entry among unitary walks, in either stack layout: a NaN in the
    # last column of the last step enters only late pairs of the Gram
    # triangle, where a max() fold over per-pair maxima would drop it
    rng = np.random.default_rng(67)
    for d in (2, 6):
        q, r = np.linalg.qr(rng.standard_normal((9, d, d)) + 1j * rng.standard_normal((9, d, d)))
        qs = q * (np.diagonal(r, axis1=1, axis2=2) / np.abs(np.diagonal(r, axis1=1, axis2=2)))[:, None, :]
        for ws in (qs, np.ascontiguousarray(qs.transpose(1, 2, 0)).transpose(2, 0, 1)):
            walk_family_from_operators(ws)
            bad = ws.copy(order="K")
            bad[-1, -1, -1] = np.nan
            with pytest.raises(ValueError, match="unitary"):
                walk_family_from_operators(bad)
            off = ws.copy(order="K")
            off[4] *= 1.0 + 1e-10  # |W^dag W - I| = 2e-10 > WALK_UNITARITY_TOL
            with pytest.raises(ValueError, match="unitary"):
                walk_family_from_operators(off)


# ---------------------------------------------------------------------------
# chains in the first factor's eigenbasis

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
    h0, h1 = four_level_pair()
    td = 3000
    for h in (0.7, 3.0):
        fam = build_walk_family(h0, h1, sched, INTEGRATORS[tag], h, td, materialize=False)
        for j0, j1 in ((0, td), (17, 18), (1234, td + 1)):
            ref = chain_product(fam.block(j0, j1))
            assert np.max(np.abs(fam.chain(j0, j1) - ref)) <= 1e-11, (h, j0, j1)


def test_eigenframe_frame_and_link_match_the_walks():
    # (V_a, M) with W_j = V_a M_j V_a^dag, for lists that start and end on
    # different operators (pf1: H1 then H0) and on one operator (pf2: H0).
    # Both bases are far from the identity; toy2's diagonal H1 has V1 = I,
    # so it cannot tell a frame from no frame.
    h0, h1 = four_level_pair()
    for op in (h0, h1):
        assert np.max(np.abs(np.abs(op.eigh[1]) - np.eye(4))) > 0.1
    f = np.linspace(0.0, 1.0, 7)
    for kind, first in ((PF1, h1), (PF2, h0), (INTEGRATORS["spf4"], h0)):
        va, ms = _walk_stack(h0, h1, kind, 0.9, f, frame=True)
        assert va is first.eigh[1]
        ws = _walk_stack(h0, h1, kind, 0.9, f)
        assert np.max(np.abs(va @ ms @ va.conj().T - ws)) <= 1e-14


def test_chain_of_exp_and_materialized_families_is_the_block_product():
    h0, h1 = four_level_pair()
    td = 300
    families = [
        build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.7, td, materialize=False),
        build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.7, td, materialize=True),
        build_walk_family(h0, h1, glue_schedule(), PF1, 3.0, td, materialize=True),
        build_walk_family(h0, h1, LINEAR, INTEGRATORS["spf4"], 0.7, td, materialize=True),
    ]
    families.append(walk_family_from_operators(families[-1].walks))
    for fam in families:
        for j0, j1 in ((0, td), (5, 6), (100, td + 1)):
            assert np.array_equal(fam.chain(j0, j1), chain_product(fam.block(j0, j1)))
        with pytest.raises(ValueError, match="block range"):
            fam.chain(4, 4)
        with pytest.raises(ValueError, match="block range"):
            fam.chain(0, td + 2)


def test_eigenframe_chain_checks_every_step(monkeypatch):
    # one phase of one step off the unit circle by 1e-8 makes that M_j
    # non-unitary by far more than WALK_UNITARITY_TOL; the chain must see it
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, PF1, 0.7, 500, materialize=False)
    fam.chain(0, 500)
    phases = integrators._phases

    def one_bad_phase(x):
        out = phases(x)
        if out.shape[1] > 321:
            out[2, 321] *= 1.0 + 1e-8
        return out

    monkeypatch.setattr(integrators, "_phases", one_bad_phase)
    with pytest.raises(RuntimeError, match="unitarity"):
        fam.chain(0, 500)
    fam.chain(0, 321)  # the bad step lies outside this range


def test_cached_and_wrapped_walks_are_read_only():
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, PF1, 1.0, 50)
    assert fam._walks is not None
    with pytest.raises(ValueError, match="read-only"):
        fam.walk(10)[:] = 1j * np.eye(4)
    with pytest.raises(ValueError, match="read-only"):
        fam.block(3, 9)[0, 0, 0] = 0.0
    # a wrapped stack is a copy: later writes by the caller do not reach it
    steps_first = fam.walks.copy(order="C")
    steps_last = fam.walks.transpose(1, 2, 0).copy(order="C").transpose(2, 0, 1)
    for stack in (steps_first, steps_last):
        wrapped = walk_family_from_operators(stack)
        stack[10] = 2.0 * np.eye(4)
        assert np.array_equal(wrapped.walk(10), fam.walk(10))
        with pytest.raises(ValueError, match="read-only"):
            wrapped.walk(10)[:] = 1j * np.eye(4)
