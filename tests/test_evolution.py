"""State propagation, the projector-following reference, and the
discrete comparison series."""

import math
import tracemalloc

import numpy as np
import pytest

from adiawalk import evolution
from adiawalk.evolution import (
    EvolutionResult,
    GapCollapseError,
    boundary_vs_interior_scaling,
    evolve,
    ground_state,
    ideal_adiabatic_family,
    volterra_diagnostics,
)
from adiawalk.integrators import (
    EXP_INTEGRATOR,
    INTEGRATORS,
    PF1,
    build_walk_family,
    walk_family_from_operators,
)
from adiawalk.linalg import normal_eig
from adiawalk.schedules import glue_schedule, linear_schedule
from adiawalk.spectral import EigenpathTrack, track_eigenpaths
from adiawalk.toymodels import build_toy, four_level_pair

LINEAR = linear_schedule()


# ---------------------------------------------------------------------------
# oracles

def brute_evolution_operator(family, n: int) -> np.ndarray:
    """Running walk product by a plain left-multiplication loop."""
    u = np.eye(family.dim, dtype=complex)
    for j in range(n):
        u = family.walk(j) @ u
    return u


def final_basis_overlaps(family, psi: np.ndarray) -> np.ndarray:
    """Overlap amplitudes against the last walk's ascending-phase basis."""
    lam, vecs = normal_eig(family.walk(family.td))
    return np.abs(vecs[:, np.argsort(-np.angle(lam))].conj().T @ psi)


def toy_family(td: int, h: float = 1.0):
    model = build_toy("toy2", 0.05)
    return build_walk_family(model.h0, model.h1, LINEAR, PF1, h, td)


def sequential_running_product(ws: np.ndarray) -> np.ndarray:
    """Prefix products ws[n-1] @ ... @ ws[0], one step at a time."""
    out = [np.eye(ws.shape[-1], dtype=complex)]
    for w in ws:
        out.append(w @ out[-1])
    return np.stack(out)


def running_sum_omega(ideal, td: int) -> np.ndarray:
    """Omega(n) = I - (1/td) sum_{m<n} K(m) Omega(m), with K(m) =
    td (I - U_A(m+1)^dag V(m)^dag U_A(m+1)), by the running-sum loop."""
    ua1 = ideal.adiabatic_evolution[1:]
    d = ua1.shape[-1]
    eye = np.eye(d)
    kernel = td * (eye - ua1.conj().transpose(0, 2, 1)
                   @ ideal.v_rotations.conj().transpose(0, 2, 1) @ ua1)
    omega = [eye.astype(complex)]
    acc = np.zeros((d, d), dtype=complex)
    for n in range(td):
        acc = acc + kernel[n] @ omega[n]
        omega.append(eye - acc / td)
    return np.stack(omega)


# ---------------------------------------------------------------------------
# states

def test_ground_state_picks_smallest_eigenvalue():
    g = ground_state(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(np.abs(g), [0.0, 1.0, 0.0], atol=1e-14)
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-14)
    h0, _ = four_level_pair()
    w, v = np.linalg.eigh(h0.matrix)
    assert abs(np.vdot(v[:, 0], ground_state(h0))) == pytest.approx(1.0, abs=1e-12)


def test_evolution_result_rejects_drifted_norm():
    with pytest.raises(ValueError, match="norm"):
        EvolutionResult(
            final_state=np.array([2.0, 0.0]), leakage=0.0, fidelities=np.array([1.0, 0.0])
        )


# ---------------------------------------------------------------------------
# evolve

def test_evolve_matches_brute_product():
    fam = toy_family(20)
    psi0 = ground_state(fam.h0)
    res = evolve(fam, psi0)
    assert np.allclose(res.final_state, brute_evolution_operator(fam, 20) @ psi0, atol=1e-12)


def test_evolve_block_size_does_not_change_result(monkeypatch):
    fam = toy_family(20)
    psi0 = ground_state(fam.h0)
    res_full = evolve(fam, psi0)
    monkeypatch.setattr(evolution, "EVOLVE_BLOCK", 3)
    res_small = evolve(fam, psi0)
    assert np.allclose(res_full.final_state, res_small.final_state, atol=1e-13)


def test_evolve_keeps_one_walk_block_alive(monkeypatch):
    # each block is released before the next one is built, so the peak is
    # one block plus its construction and product temporaries
    monkeypatch.setattr(evolution, "EVOLVE_BLOCK", 4096)
    model = build_toy("toy2", 0.05)
    fam = build_walk_family(model.h0, model.h1, LINEAR, PF1, 1.0, 3 * 4096,
                            materialize=False)
    psi0 = ground_state(fam.h0)
    block_bytes = 4096 * fam.dim * fam.dim * 16
    tracemalloc.start()
    try:
        evolve(fam, psi0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * block_bytes


def test_evolve_trackless_measures_final_walk_basis():
    fam = toy_family(25)
    psi0 = ground_state(fam.h0)
    res = evolve(fam, psi0)
    expected = final_basis_overlaps(fam, res.final_state)
    assert np.allclose(res.fidelities, expected, atol=1e-12)
    assert res.leakage == pytest.approx(math.sqrt(max(1.0 - expected[0] ** 2, 0.0)), abs=1e-12)


def test_trackless_leakage_resolves_below_roundoff_of_the_ground_amplitude():
    # At f = 1 the pf1 walk is exp(-i h H1), so the final walk basis is H1's
    # eigenbasis and the leakage is the state's component off H1's ground
    # state.  At h = 0.5 the state norm drifts by 7.7e-13, enough to push
    # the ground amplitude to 1 and sqrt(1 - |amplitude|^2) to 0.0.
    h0, h1 = four_level_pair()
    for h, expected in ((0.5, 9.56e-7), (1.0, 1.08e-6)):
        fam = build_walk_family(h0, h1, glue_schedule(), PF1, h, int(1600 / h))
        res = evolve(fam, ground_state(h0))
        g1 = ground_state(h1)
        off_ground = np.linalg.norm(res.final_state - g1 * (g1.conj() @ res.final_state))
        assert res.leakage == pytest.approx(off_ground, rel=1e-6)
        assert res.leakage == pytest.approx(expected, rel=1e-2)


def test_ground_labels_hold_once_the_walk_phases_wrap():
    # Scaled by 3, the pair's H0 spectrum is {1.5, 2.4, 3.6, 4.2}: at h = 1
    # the spread 2.7 stays below pi but h * lambda runs past it, so the
    # lowest wrapped phase is not the ground path.  At f = 1 the exp walk
    # is exp(-i H1), so the true leakage is the component off H1's ground.
    h0, h1 = four_level_pair()
    a, b = 3.0 * h0.matrix, 3.0 * h1.matrix
    fam = build_walk_family(a, b, LINEAR, EXP_INTEGRATOR, 1.0, 2000)
    psi0 = ground_state(a)
    res = evolve(fam, psi0)
    g1 = ground_state(b)
    off_ground = np.linalg.norm(res.final_state - g1 * (g1.conj() @ res.final_state))
    assert off_ground == pytest.approx(5.73e-4, rel=1e-2)
    assert res.leakage == pytest.approx(off_ground, rel=1e-6)
    # path 0 of the track must still be H1's ground state after the wraps
    v = track_eigenpaths(fam).vectors[fam.td][:, 0]
    tracked = np.linalg.norm(res.final_state - v * (v.conj() @ res.final_state))
    assert tracked == pytest.approx(off_ground, rel=1e-6)


def test_leakage_holds_at_exact_eigenphase_aliasing(monkeypatch):
    # At h = 2 pi / (lambda_max - lambda_min) of H1 the extreme eigenphases of
    # the final walk exp(-i h H1) coincide, so its eigenspace is degenerate
    # and a basis diagonalized from it mixes the ground state with the top
    # state.  The leakage must stay the component off H1's ground state.
    h0, h1 = four_level_pair()
    w = h1.eigh[0]
    h = 2.0 * np.pi / (w[-1] - w[0])
    g1 = ground_state(h1)
    for kind in (PF1, INTEGRATORS["spf4"], EXP_INTEGRATOR):
        fam = build_walk_family(h0, h1, LINEAR, kind, h, 200)
        res = evolve(fam, ground_state(h0))
        off_ground = np.linalg.norm(res.final_state - g1 * (g1.conj() @ res.final_state))
        assert res.leakage == pytest.approx(off_ground, rel=1e-9), kind.tag
    # the final amplitudes come from H1's cached eigenbasis, not from an
    # eigensolve of the last walk
    fam = build_walk_family(h0, h1, LINEAR, PF1, h, 200, materialize=True)

    def no_eig(*args, **kwargs):
        raise AssertionError("evolve called np.linalg.eig")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    evolve(fam, ground_state(h0))


@pytest.mark.parametrize("sched", [LINEAR, glue_schedule()], ids=["linear", "glue"])
@pytest.mark.parametrize("tag", [tag for tag, kind in INTEGRATORS.items() if kind.factors])
def test_lazy_and_materialized_evolve_agree(tag, sched):
    # a lazy product formula chains its blocks in the first factor's
    # eigenbasis, a materialized one multiplies its cached walks
    h0, h1 = four_level_pair()
    psi0 = ground_state(h0)
    for h in (0.7, 3.0):
        lazy, eager = (build_walk_family(h0, h1, sched, INTEGRATORS[tag], h, 3000,
                                         materialize=m) for m in (False, True))
        a, b = evolve(lazy, psi0), evolve(eager, psi0)
        assert np.max(np.abs(a.final_state - b.final_state)) <= 1e-11
        assert abs(a.leakage - b.leakage) <= 1e-12


def test_evolve_raises_when_the_phases_overflow():
    # at h = 1e308 the phases h w g lambda overflow and turn NaN, which the
    # unitarity check of every step must catch
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, PF1, 1e308, 100, materialize=False)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError, match="unitarity"):
        evolve(fam, ground_state(h0))


def test_evolve_rejects_a_family_without_endpoints():
    with pytest.raises(ValueError, match="H1"):
        evolve(walk_family_from_operators(np.stack([np.eye(2, dtype=complex)] * 3)),
               np.array([1.0, 0.0]))


def test_evolve_input_validation():
    fam = toy_family(10)
    with pytest.raises(ValueError, match="dim"):
        evolve(fam, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="normalized"):
        evolve(fam, np.full(4, 0.9))


def test_non_finite_states_fail_the_norm_checks():
    # abs(nan - 1) > tol is False, so the checks must read "not <= tol"
    nan_state = np.array([np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="norm"):
        EvolutionResult(final_state=nan_state[:2], leakage=0.0, fidelities=np.array([1.0]))
    with pytest.raises(ValueError, match="normalized"):
        evolve(toy_family(3), nan_state)


# ---------------------------------------------------------------------------
# ideal adiabatic reference

def test_constant_family_needs_no_rotation():
    h0, _ = four_level_pair()
    fam = build_walk_family(h0, h0, LINEAR, EXP_INTEGRATOR, 0.5, 30)
    ideal = ideal_adiabatic_family(track_eigenpaths(fam), fam)
    eye = np.eye(4)
    assert np.max(np.abs(ideal.v_rotations - eye)) <= 1e-12
    assert np.allclose(ideal.singular_values, 1.0, atol=1e-12)
    assert ideal.intertwining_residual <= 1e-10
    # with V = I the adiabatic evolution is the plain walk product
    assert np.allclose(ideal.adiabatic_evolution[30], brute_evolution_operator(fam, 30), atol=1e-11)


def test_rotation_size_halves_with_step_doubling():
    h0, h1 = four_level_pair()
    devs = {}
    for td in (100, 200):
        fam = build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.5, td)
        ideal = ideal_adiabatic_family(track_eigenpaths(fam), fam)
        devs[td] = float(np.max(np.abs(ideal.v_rotations - np.eye(4))))
    assert devs[100] / devs[200] == pytest.approx(2.0, rel=0.1)


def test_intertwining_holds_and_matches_report():
    fam = toy_family(60)
    track = track_eigenpaths(fam)
    ideal = ideal_adiabatic_family(track, fam)
    assert ideal.intertwining_residual <= 1e-8
    p = ideal.projectors
    ua = ideal.adiabatic_evolution
    worst = 0.0
    for j in (0, 17, 60):
        from adiawalk.linalg import operator_norm

        worst = max(worst, operator_norm(ua[j] @ p[0] - p[j] @ ua[j]))
    assert worst <= ideal.intertwining_residual + 1e-15


def test_ideal_family_checks_track_compatibility():
    fam = toy_family(10)
    other = track_eigenpaths(toy_family(11))
    with pytest.raises(ValueError, match="match"):
        ideal_adiabatic_family(other, fam)


def test_gap_collapse_on_orthogonal_projector_jump():
    # the tracked ground vector flips to the orthogonal basis vector in one
    # step, so S(0) = P(1)P(0) + Q(1)Q(0) is singular
    walks = np.stack([np.eye(2, dtype=complex)] * 2)
    fam = walk_family_from_operators(walks)
    track = EigenpathTrack(
        phases=np.zeros((2, 2)),
        vectors=np.stack(
            [np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)]
        ),
        min_overlap=1.0,
    )
    with pytest.raises(GapCollapseError, match="step 0"):
        ideal_adiabatic_family(track, fam)


# ---------------------------------------------------------------------------
# comparison series

def test_volterra_recursion_reproduces_frame_change():
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.5, 120)
    ideal = ideal_adiabatic_family(track_eigenpaths(fam), fam)
    diag = volterra_diagnostics(ideal, fam, j_max=2)
    assert diag.residual_identity <= 1e-8
    eye = np.eye(4)
    for n in (0, 40, 120):
        check = ideal.adiabatic_evolution[n].conj().T @ brute_evolution_operator(fam, n)
        assert np.allclose(diag.omega[n], check, atol=1e-10)
        assert np.max(np.abs(diag.omega[n].conj().T @ diag.omega[n] - eye)) <= 1e-8
    # the zeroth iterate is the identity, so its off-diagonal block vanishes
    assert diag.off_diag_terms[0].max() <= 1e-14
    assert diag.omega_terms.shape == (3, 121, 4, 4)


def test_volterra_iterates_converge_to_omega():
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.5, 400)
    ideal = ideal_adiabatic_family(track_eigenpaths(fam), fam)
    diag = volterra_diagnostics(ideal, fam, j_max=6)
    devs = [float(np.abs(diag.omega_terms[j] - diag.omega).max()) for j in range(7)]
    assert devs[6] <= 1e-3
    assert devs[6] < devs[2] < devs[0]


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 400, 1601])
def test_blocked_running_product_matches_the_sequential_loop(n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    ws = np.linalg.qr(z)[0]
    ref = sequential_running_product(ws)
    last = np.ascontiguousarray(ws.transpose(1, 2, 0)).transpose(2, 0, 1)
    for stack in (ws, last):
        out = evolution._running_product(stack)
        assert out.shape == (n + 1, 4, 4)
        assert np.array_equal(out[0], np.eye(4)) and np.array_equal(out[1], ws[0])
        assert not np.shares_memory(out, stack)
        assert np.max(np.abs(out - ref)) <= 1e-13


@pytest.mark.parametrize("td", [100, 1600])
def test_blocked_omega_matches_the_running_sum_recursion(td):
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, glue_schedule(), EXP_INTEGRATOR, 1.0, td)
    ideal = ideal_adiabatic_family(track_eigenpaths(fam), fam)
    diag = volterra_diagnostics(ideal, fam, j_max=1)
    assert np.max(np.abs(diag.omega - running_sum_omega(ideal, td))) <= 1e-11


def test_offdiag_profiles_match_svd():
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, glue_schedule(), EXP_INTEGRATOR, 1.0, 300)
    ideal = ideal_adiabatic_family(track_eigenpaths(fam), fam)
    diag = volterra_diagnostics(ideal, fam, j_max=2)
    p0 = ideal.projectors[0]
    q0 = np.eye(4) - p0
    assert round(np.trace(p0).real) == 1

    def svd_profile(x):
        return np.linalg.svd(q0 @ x @ p0, compute_uv=False)[:, 0]

    np.testing.assert_allclose(diag.off_diag_omega, svd_profile(diag.omega), rtol=1e-12, atol=1e-15)
    for j in range(3):
        np.testing.assert_allclose(
            diag.off_diag_terms[j], svd_profile(diag.omega_terms[j]), rtol=1e-12, atol=1e-15
        )


def test_nan_fails_the_projector_intertwining_and_series_checks(monkeypatch):
    # nan > tol is False, so each check must read "not <= tol"
    fam = toy_family(12)
    track = track_eigenpaths(fam)
    ideal = ideal_adiabatic_family(track, fam)
    product = evolution._running_product

    def nan_at_last_step(ws):
        out = product(ws)
        out[-1, 0, 0] = np.nan
        return out

    monkeypatch.setattr(evolution, "_running_product", nan_at_last_step)
    with pytest.raises(RuntimeError, match="intertwine"):
        ideal_adiabatic_family(track, fam)
    with pytest.raises(RuntimeError, match="drifted"):
        volterra_diagnostics(ideal, fam, j_max=1)


def test_volterra_path_keeps_few_walk_stacks_alive():
    # Peak numpy memory of the ideal family plus its j_max = 2 series, in
    # units of one (td + 1, d, d) complex stack: 10.2 here, 16.2 when S(j),
    # V(j) W(j), Theta and the kernel were kept and the series' temporaries
    # were not released.
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, glue_schedule(), EXP_INTEGRATOR, 1.0, 400)
    track = track_eigenpaths(fam)
    tracemalloc.start()
    try:
        volterra_diagnostics(ideal_adiabatic_family(track, fam), fam, j_max=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * fam.walks[0].nbytes * (fam.td + 1)


def test_volterra_validation():
    fam = toy_family(10)
    ideal = ideal_adiabatic_family(track_eigenpaths(fam), fam)
    with pytest.raises(ValueError, match="j_max"):
        volterra_diagnostics(ideal, fam, j_max=-1)
    with pytest.raises(ValueError, match="match"):
        volterra_diagnostics(ideal, toy_family(11))


# ---------------------------------------------------------------------------
# scaling report

def test_scaling_report_smoke():
    h0, h1 = four_level_pair()
    rep = boundary_vs_interior_scaling(h0, h1, (50, 100), glue_schedule())
    assert rep.td_list == (50, 100)
    assert rep.interior[1] < rep.interior[0]
    assert rep.boundary_full[1] < rep.boundary_full[0]
    assert set(rep.slopes) == {"interior", "boundary_term1", "boundary_full"}
    assert all(len(v) == 1 for v in rep.pairwise.values())


def test_scaling_report_validation():
    h0, h1 = four_level_pair()
    with pytest.raises(ValueError, match="two step counts"):
        boundary_vs_interior_scaling(h0, h1, (50,), glue_schedule())


def test_scaling_report_rejects_repeated_step_counts():
    # a repeated td gives a zero log-td step: NaN pairwise slopes and a
    # rank-deficient fit
    h0, h1 = four_level_pair()
    with pytest.raises(ValueError, match="distinct"):
        boundary_vs_interior_scaling(h0, h1, (50, 50), glue_schedule())
