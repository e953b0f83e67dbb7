"""Eigenpath tracking, angular gap profiles, and the discrete error bound."""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from adiawalk.grover import GroverInstance, effective_hamiltonians, gap_closed_forms
from adiawalk.integrators import (
    EXP_INTEGRATOR,
    PF1,
    PF2,
    PF2_SIMPLIFIED,
    build_walk_family,
    commutator_combo,
    hamiltonian_bands,
    nested_commutator_sum,
    walk_operator,
)
from adiawalk.linalg import HermitianOperator, chain_product, normal_eig, operator_norm
from adiawalk.schedules import glue_schedule, linear_schedule, schedule_values
from adiawalk import spectral
from adiawalk.spectral import (
    EigenpathTrack,
    StepCountWarning,
    TrackingAmbiguityError,
    adiabatic_error_bound,
    ck_profiles,
    discrete_adiabatic_bound,
    gap_perturbation_bounds,
    track_eigenpaths,
    walk_gap_profile,
)
from adiawalk.toymodels import build_toy, four_level_pair

LINEAR = linear_schedule()


# ---------------------------------------------------------------------------
# oracles

def wrapped_arc(x: float) -> float:
    """Shorter arc between two circle points separated by phase x."""
    r = abs(x) % (2.0 * math.pi)
    return math.pi - abs(r - math.pi)


def sorted_step_phases(family, j: int) -> np.ndarray:
    """Principal eigenphases of W(j/td), sorted, with no continuity logic
    and no code shared with the tracker's eigensolver."""
    return np.sort(-np.angle(np.linalg.eigvals(family.block(j, j + 1)[0])))


def sequential_track(family):
    """Per-step tracking loop: labels in ascending phase order at step 0,
    then one eigensolve per step, each label moved to the column where its
    row of |overlaps| peaks (asserted above |o|^2 = 1/2, so the peaks form
    a permutation), unwrapped onto the previous sheet and its vector
    phases aligned to it."""
    lam, vecs = normal_eig(family.block(0, 1)[0])
    theta = -np.angle(lam)
    order = np.argsort(theta)
    phases, vectors, worst = [theta[order]], [vecs[:, order]], 1.0
    for j in range(1, family.td + 1):
        lam, vecs = normal_eig(family.block(j, j + 1)[0])
        theta = -np.angle(lam)
        amp = np.abs(vectors[-1].conj().T @ vecs)
        perm, peaks = amp.argmax(axis=1), amp.max(axis=1)
        assert np.all(peaks ** 2 > 0.5)
        worst = min(worst, peaks.min())
        theta, vecs = theta[perm], vecs[:, perm]
        theta = phases[-1] + ((theta - phases[-1] + np.pi) % (2.0 * np.pi) - np.pi)
        vecs = vecs * np.exp(-1j * np.angle(np.einsum("ik,ik->k", vectors[-1].conj(), vecs)))
        phases.append(theta)
        vectors.append(vecs)
    return np.array(phases), np.array(vectors), worst


def brute_difference_norm(family, k: int, j: int) -> float:
    acc = np.zeros((family.dim, family.dim), dtype=complex)
    for m in range(k + 1):
        i = j + k - m
        acc = acc + ((-1.0) ** m) * math.comb(k, m) * family.block(i, i + 1)[0]
    return operator_norm(acc)


def brute_windowed_gap(track: EigenpathTrack, k: int, j: int) -> float:
    """Min arc between the ground phase and the other phases over steps j..j+k."""
    best = math.inf
    for ja in range(j, j + k + 1):
        for jb in range(j, j + k + 1):
            for iq in range(1, track.dim):
                best = min(best, wrapped_arc(track.phases[ja, 0] - track.phases[jb, iq]))
    return best


def measured_ground_leakage(h0, h1, h: float, td: int) -> float:
    """Final weight outside the target ground state, computed directly."""
    fam = build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, h, td)
    u = chain_product(fam.walks[:td])
    v0 = np.linalg.eigh(h0.matrix)[1]
    v1 = np.linalg.eigh(h1.matrix)[1]
    ov = v1[:, 0].conj() @ (u @ v0[:, 0])
    return math.sqrt(max(0.0, 1.0 - abs(ov) ** 2))


def random_pair(seed: int, n: int = 4):
    rng = np.random.default_rng(seed)

    def herm():
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (m + m.conj().T) / 2.0

    return herm(), herm()


def symmetric_phase_family(a0: float, a1: float, td: int):
    """Exp walks at h = 1 along the linear schedule from diag(-a0, a0) to
    diag(-a1, a1): step j has eigenphases exactly -+a for
    a = (1 - j/td) a0 + (j/td) a1, the ground path at -a."""
    return build_walk_family(np.diag([-a0, a0]), np.diag([-a1, a1]), LINEAR, EXP_INTEGRATOR,
                             1.0, td)


# ---------------------------------------------------------------------------
# tracking

def test_two_level_symmetric_phases():
    a = np.linspace(0.3, 1.2, 21)
    track = track_eigenpaths(symmetric_phase_family(0.3, 1.2, 20))
    # phases are -angle(eigenvalue); H0's ground energy -a0 labels -a first
    assert np.allclose(track.phases[:, 0], -a, atol=1e-14)
    assert np.allclose(track.phases[:, 1], a, atol=1e-14)
    assert track.min_overlap == pytest.approx(1.0, abs=1e-12)
    prof = walk_gap_profile(track, ks=(0, 1))
    assert np.allclose(prof[0], 2.0 * a, atol=1e-14)
    # a is increasing, so each 1-step window bottoms out at its left edge
    assert np.allclose(prof[1], 2.0 * a[:-1], atol=1e-14)


def test_constant_family_flat_profiles():
    h0, _ = four_level_pair()
    fam = build_walk_family(h0, h0, LINEAR, EXP_INTEGRATOR, 0.5, 40)
    track = track_eigenpaths(fam)
    prof = walk_gap_profile(track, ks=(0, 1, 2, 3))
    assert np.allclose(prof[0], prof[0][0], atol=1e-13)
    for k in (1, 2, 3):
        assert np.allclose(prof[k], prof[0][: len(prof[k])], atol=1e-13)
    cks = ck_profiles(fam, ks=(1, 2))
    assert np.max(cks[1]) <= 1e-9
    assert np.max(cks[2]) <= 1e-9


def test_track_phases_match_per_step_multisets():
    model = build_toy("toy1", 0.05)
    fam = build_walk_family(model.h0, model.h1, LINEAR, PF1, 1.0, 60)
    track = track_eigenpaths(fam)
    for j in range(fam.td + 1):
        wrapped = np.sort(np.angle(np.exp(1j * track.phases[j])))
        assert np.allclose(wrapped, sorted_step_phases(fam, j), atol=1e-9)


def test_tracking_ambiguity_on_basis_jump():
    # step 1 re-expresses the same spectrum in the discrete Fourier basis,
    # so every overlap with the step-0 basis is 1/sqrt(5) < 0.5
    d = 5
    f = np.exp(-2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / math.sqrt(d)
    h0 = np.diag([0.1, 0.7, 1.3, 1.9, 2.5])
    fam = build_walk_family(h0, f @ h0 @ f.conj().T, LINEAR, EXP_INTEGRATOR, 1.0, 1)
    with pytest.raises(TrackingAmbiguityError, match="step 1"):
        track_eigenpaths(fam)


def test_tracking_ambiguity_when_row_maxima_form_a_permutation():
    # Every row of |O| peaks in a different column, so the row argmax is a
    # permutation, but row 5 peaks at 0.454, so its label is not determined
    # and the step must be refused.
    rounded = np.array([
        [-0.263, 0.265, 0.365, -0.091, -0.809, 0.254],
        [-0.142, -0.382, 0.328, -0.295, 0.331, 0.728],
        [-0.096, 0.075, -0.636, -0.749, -0.127, 0.062],
        [0.839, 0.087, 0.352, -0.393, -0.066, -0.078],
        [-0.138, -0.792, 0.159, -0.19, -0.269, -0.469],
        [0.422, -0.379, -0.454, 0.392, -0.378, 0.419],
    ])
    u, _, vt = np.linalg.svd(rounded)
    o = u @ vt  # the nearest orthogonal matrix, within 3e-4 of the rounded one
    assert sorted(np.abs(o).argmax(axis=1)) == list(range(6))
    assert np.abs(o).max(axis=1).min() < 0.46
    h0 = np.diag(np.linspace(0.1, 2.6, 6))
    fam = build_walk_family(h0, o @ h0 @ o.T, LINEAR, EXP_INTEGRATOR, 1.0, 1)
    with pytest.raises(TrackingAmbiguityError, match="step 1"):
        track_eigenpaths(fam)


def test_unwraps_phases_across_the_branch_cut():
    a = np.linspace(2.5, 3.8, 27)  # -arg(e^{-ia}) jumps from pi to -pi near a = pi
    track = track_eigenpaths(symmetric_phase_family(2.5, 3.8, 26))
    assert np.allclose(track.phases[:, 0], -a, atol=1e-14)
    assert np.allclose(track.phases[:, 1], a, atol=1e-14)


def test_tracked_ground_vectors_overlap_their_predecessors_by_min_overlap():
    model = build_toy("toy1", 0.05)
    fam = build_walk_family(model.h0, model.h1, LINEAR, PF2, 1.0, 80)
    track = track_eigenpaths(fam)
    ov = np.abs(np.einsum("ni,ni->n", track.ground[:-1].conj(), track.ground[1:]))
    assert np.allclose(np.linalg.norm(track.ground, axis=1), 1.0, atol=1e-12)
    assert np.min(ov) >= track.min_overlap - 1e-12


@pytest.mark.parametrize(
    "kind,eps,integrator,td",
    [("toy1", 0.0, PF1, 51), ("toy2", 0.05, PF1, 50), ("toy2", 0.05, PF2, 400)],
    ids=["toy1-eps0-pf1-51", "toy2-pf1-50", "toy2-pf2-400"],
)
def test_tracks_glue_families_near_f_one(kind, eps, integrator, td):
    # The glue schedule approaches f = 1 so slowly that the last walks hold
    # a mirror pair of eigenphases near +-1 rad whose cosines differ by
    # 1e-7 or less; a solver that splits them through the Hermitian part
    # mixes their vectors and fails its reconstruction check there.  (toy1
    # at eps 0 and td 50 puts a step on its degenerate midpoint; see
    # test_degenerate_ground_step_raises.)
    model = build_toy(kind, eps)
    fam = build_walk_family(model.h0, model.h1, glue_schedule(), integrator, 1.0, td)
    track = track_eigenpaths(fam)
    for j in range(td + 1):
        wrapped = np.sort(np.angle(np.exp(1j * track.phases[j])))
        assert np.allclose(wrapped, sorted_step_phases(fam, j), atol=1e-9)


def rotated_step_family():
    """Walks diag(e^{-i phi}) for steps 0..5, then the same phases on the
    columns of O = R_z(40 deg) R_x(55 deg) for steps 6..11, as a stand-in
    with the attributes the tracker reads: no schedule holds H(f) piecewise
    constant.  H0 = diag(phi) labels the paths at step 0.

    |O| = [[.766, .369, .527], [.643, .439, .628], [0, .819, .574]]: rows
    0 and 1 both peak in column 0 and row 1 peaks at |O|^2 = 0.41 < 1/2,
    so the overlaps do not determine the labels at step 6.
    """
    phi = np.array([0.2, 0.9, 2.0])
    a, b = np.radians(40.0), np.radians(55.0)
    rz = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]])
    rx = np.array([[1, 0, 0], [0, np.cos(b), -np.sin(b)], [0, np.sin(b), np.cos(b)]])
    o = rz @ rx
    w0 = np.diag(np.exp(-1j * phi))
    w1 = (o * np.exp(-1j * phi)) @ o.T
    ws = np.stack([w0] * 6 + [w1] * 6)
    return SimpleNamespace(td=11, dim=3, h0=HermitianOperator(np.diag(phi)),
                           block=lambda j0, j1: ws[j0:j1])


@pytest.mark.parametrize("block", [spectral.TRACK_BLOCK, 6, 5, 4])
def test_rotated_step_raises(block, monkeypatch):
    # blocks run from step 1: block 6 puts step 6 last in its block, block 5
    # first and block 4 in the middle of one
    monkeypatch.setattr(spectral, "TRACK_BLOCK", block)
    with pytest.raises(TrackingAmbiguityError, match="ambiguous at step 6:"):
        track_eigenpaths(rotated_step_family())


@pytest.mark.parametrize(
    "kind,sched,integrator,td,step",
    [
        ("toy1", LINEAR, PF1, 60, 30),
        ("toy1", LINEAR, PF2_SIMPLIFIED, 60, 30),
        ("toy2", LINEAR, EXP_INTEGRATOR, 400, 200),
        ("toy1", glue_schedule(), PF1, 50, 25),
    ],
    ids=["toy1-pf1-60", "toy1-pf2s-60", "toy2-exp-400", "toy1-glue-pf1-50"],
)
def test_degenerate_ground_step_raises(kind, sched, integrator, td, step):
    # At eps 0 the midpoint walk has phases (-0.5, -0.5, 0.2, 0.6): path 0
    # meets path 1 there, and the eigensolver may return any basis of that
    # eigenspace, so the labels past it would be arbitrary.
    model = build_toy(kind, 0.0)
    fam = build_walk_family(model.h0, model.h1, sched, integrator, 1.0, td)
    with pytest.raises(TrackingAmbiguityError, match=f"degenerate at step {step}:"):
        track_eigenpaths(fam)


@pytest.mark.parametrize("case", ["toy1-pf1", "toy2-glue-pf2"])
def test_batched_tracking_matches_the_per_step_loop(case, monkeypatch):
    model = build_toy(case[:4], 0.05)
    sched = glue_schedule() if "glue" in case else LINEAR
    fam = build_walk_family(model.h0, model.h1, sched, PF2 if "pf2" in case else PF1, 1.0, 90)
    monkeypatch.setattr(spectral, "TRACK_BLOCK", 16)
    track = track_eigenpaths(fam)
    phases, vectors, worst = sequential_track(fam)
    assert np.max(np.abs(track.phases - phases)) <= 1e-12
    proj = np.einsum("ni,nj->nij", track.ground, track.ground.conj())
    ref = np.einsum("ni,nj->nij", vectors[:, :, 0], vectors[:, :, 0].conj())
    assert np.max(np.abs(proj - ref)) <= 1e-10
    assert track.min_overlap == pytest.approx(worst, abs=1e-12)


def test_tracks_do_not_depend_on_the_block_length(monkeypatch):
    model = build_toy("toy1", 0.05)
    fam = build_walk_family(model.h0, model.h1, LINEAR, PF1, 1.0, 60)
    whole = track_eigenpaths(fam)
    cached = build_walk_family(model.h0, model.h1, LINEAR, PF1, 1.0, 60)
    cached.walks  # noqa: B018  (builds and caches the stack)
    # the cumulative sums run on from the previous block, so the split
    # changes no rounding, and a cached block is bitwise the one built
    for block in (spectral.TRACK_BLOCK, 1, 2, 7):
        monkeypatch.setattr(spectral, "TRACK_BLOCK", block)
        for split in (track_eigenpaths(fam), track_eigenpaths(cached)):
            assert np.array_equal(split.phases, whole.phases), block
            assert np.array_equal(split.ground, whole.ground), block
            assert split.min_overlap == whole.min_overlap, block


def test_tracking_keeps_few_walk_stacks_alive():
    # Peak numpy memory of tracking a cached family, in units of one
    # (td + 1, d, d) complex stack: 5.2 here, 7.6 when the track held every
    # path's phase-aligned eigenvectors.
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, glue_schedule(), EXP_INTEGRATOR, 1.0, 400)
    fam.walks  # noqa: B018  (cached up front, as boundary_vs_interior_scaling does)
    tracemalloc.start()
    try:
        track_eigenpaths(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * fam.walks[0].nbytes * (fam.td + 1)


def test_track_shape_validation():
    with pytest.raises(ValueError, match="shapes"):
        EigenpathTrack(
            phases=np.zeros((3, 2)),
            ground=np.zeros((3, 3), dtype=complex),
            min_overlap=1.0,
        )


# ---------------------------------------------------------------------------
# gap profiles

def test_multistep_gap_below_windowed_min_and_matches_brute():
    model = build_toy("toy1", 0.05)
    fam = build_walk_family(model.h0, model.h1, LINEAR, PF1, 1.0, 40)
    track = track_eigenpaths(fam)
    prof = walk_gap_profile(track, ks=(0, 1, 2, 3))
    for k in (1, 2, 3):
        gk = prof[k]
        assert len(gk) == fam.td + 1 - k
        for j in range(len(gk)):
            assert gk[j] <= np.min(prof[0][j : j + k + 1]) + 1e-15
        for j in (0, 10, 37 - k):
            assert gk[j] == pytest.approx(brute_windowed_gap(track, k, j), abs=1e-13)


def test_window_size_validation():
    fam = symmetric_phase_family(0.3, 0.5, 3)
    track = track_eigenpaths(fam)
    with pytest.raises(ValueError, match="window"):
        walk_gap_profile(track, ks=(-1,))
    with pytest.raises(ValueError, match="window"):
        walk_gap_profile(track, ks=(fam.td + 1,))


def test_exp_walk_gap_is_scaled_hamiltonian_gap():
    # with h ||H(s)|| well inside (-pi/2, pi/2) no eigenphase wraps, so the
    # walk arc is exactly h times the spectral gap
    h0, h1 = four_level_pair()
    h = 0.7
    fam = build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, h, 200)
    walk_gaps = walk_gap_profile(track_eigenpaths(fam), ks=(0,))[0]
    w = hamiltonian_bands(h0, h1, schedule_values(LINEAR, np.linspace(0.0, 1.0, 201)))
    ham_gaps = w[:, 1] - w[:, 0]
    assert np.max(np.abs(walk_gaps - h * ham_gaps)) <= 1e-10


def test_hamiltonian_profile_matches_search_closed_form():
    inst = GroverInstance(64, 1)
    h0, h1 = effective_hamiltonians(inst)
    f = schedule_values(LINEAR, np.linspace(0.0, 1.0, 501))
    w = hamiltonian_bands(h0, h1, f)
    closed = gap_closed_forms(inst, f)[0]
    assert np.max(np.abs((w[:, 1] - w[:, 0]) - closed)) <= 1e-12


# ---------------------------------------------------------------------------
# difference norms

def test_ck_profiles_match_stepwise_norms():
    model = build_toy("toy2", 0.05)
    fam = build_walk_family(model.h0, model.h1, LINEAR, PF2, 0.8, 30)
    cks = ck_profiles(fam, ks=(1, 2, 3))
    for k in (1, 2, 3):
        assert len(cks[k]) == fam.td + 1 - k
        for j in range(len(cks[k])):
            expected = (fam.td ** k) * brute_difference_norm(fam, k, j)
            assert cks[k][j] == pytest.approx(expected, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("block", [4, 7])
@pytest.mark.parametrize("td", [3, 6, 13, 29])
def test_ck_profiles_in_blocks_match_brute_force(monkeypatch, block, td):
    # the blocks' difference windows reach k walks past their last j; td
    # below the block size and td spanning several ragged blocks
    monkeypatch.setattr(spectral, "TRACK_BLOCK", block)
    model = build_toy("toy1", 0.05)
    fam = build_walk_family(model.h0, model.h1, LINEAR, PF1, 0.8, td)
    cks = ck_profiles(fam, ks=(1, 2, 3))
    for k in (1, 2, 3):
        expected = [(td ** k) * brute_difference_norm(fam, k, j) for j in range(td + 1 - k)]
        assert cks[k] == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_ck_profiles_stable_under_grid_refinement():
    # td^k scaling makes the profiles grid-size invariants up to O(1/td)
    h0, h1 = four_level_pair()
    coarse = ck_profiles(build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.5, 150), ks=(1, 2))
    fine = ck_profiles(build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.5, 300), ks=(1, 2))
    assert coarse[1].max() == pytest.approx(fine[1].max(), rel=0.1)
    assert coarse[2].max() == pytest.approx(fine[2].max(), rel=0.1)


# ---------------------------------------------------------------------------
# gap transfer

def test_gap_window_containment_random_instances():
    for seed in range(100, 125):
        h0, h1 = random_pair(seed)
        alpha = operator_norm(h0) + operator_norm(h1)
        h = 0.9 / alpha
        lo, hi = gap_perturbation_bounds(h0, h1, LINEAR, 0.37, h)
        for kind in (PF1, PF2):
            w = walk_operator(h0, h1, LINEAR, kind, h, 0.37)
            phases = np.sort(-np.angle(normal_eig(w)[0]))
            gap = phases[1] - phases[0]
            assert lo - 1e-12 <= gap <= hi + 1e-12


def test_gap_window_widths():
    h0, h1 = random_pair(7)
    alpha = operator_norm(h0) + operator_norm(h1)
    h = 0.8 / alpha
    s = 0.42
    f = schedule_values(LINEAR, s)
    evals = np.linalg.eigvalsh((1.0 - f) * h0 + f * h1)
    center = h * (evals[1] - evals[0])
    lo2, hi2 = gap_perturbation_bounds(h0, h1, LINEAR, s, h)
    width2 = (h ** 3 / 95.0) * commutator_combo(h0, h1)
    assert hi2 - lo2 == pytest.approx(2.0 * width2, rel=1e-12)
    assert hi2 == pytest.approx(center + width2, rel=1e-12)
    lo4, hi4 = gap_perturbation_bounds(h0, h1, LINEAR, s, h, order=4)
    width4 = math.pi * h ** 5 * nested_commutator_sum(h0, h1, 4)
    assert hi4 == pytest.approx(center + width4, rel=1e-12)
    assert lo4 == pytest.approx(max(center - width4, 0.0), rel=1e-12)


def test_gap_window_rejects_oversized_step():
    h0, h1 = random_pair(8)
    alpha = operator_norm(h0) + operator_norm(h1)
    with pytest.raises(ValueError, match="exceeds"):
        gap_perturbation_bounds(h0, h1, LINEAR, 0.5, 1.2 / alpha)


@pytest.mark.parametrize("h", [math.nan, 0.0, -0.1])
def test_gap_window_rejects_a_step_size_that_is_not_positive(h):
    # a NaN h used to give (nan, nan), and h = -0.1 the inverted (0.0, -0.0227)
    h0, h1 = four_level_pair()
    with pytest.raises(ValueError, match="positive"):
        gap_perturbation_bounds(h0, h1, LINEAR, 0.3, h)


# ---------------------------------------------------------------------------
# error bounds

def flat_profiles(td: int, gap: float) -> tuple:
    """c1 = 1, c2 = 1 and delta2 = gap at the lengths that fit td."""
    return np.full(td, 1.0), np.full(td - 1, 1.0), np.full(td - 1, gap)


def test_bound_warns_below_regime():
    # regime needs td >= 4 * 1.0 / 0.1 = 40
    with pytest.warns(StepCountWarning, match="threshold"):
        value = discrete_adiabatic_bound(*flat_profiles(3, 0.1), td=3)
    assert math.isfinite(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        discrete_adiabatic_bound(*flat_profiles(41, 0.1), td=41)


def test_bound_infinite_on_vanishing_gap():
    c1, c2, delta2 = flat_profiles(100, 0.1)
    delta2[-1] = 0.0
    with pytest.warns(StepCountWarning, match="vanishes"):
        value = discrete_adiabatic_bound(c1, c2, delta2, td=100)
    assert value == math.inf


def test_bound_rejects_profiles_that_do_not_fit_td():
    # profiles measured at td = 120 and passed with td = 400 used to give
    # 0.263 instead of 1.93 without a warning
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.5, 120)
    delta2 = walk_gap_profile(track_eigenpaths(fam), ks=(2,))[2]
    cks = ck_profiles(fam, ks=(1, 2))
    assert (len(cks[1]), len(cks[2]), len(delta2)) == (120, 119, 119)
    assert discrete_adiabatic_bound(cks[1], cks[2], delta2, 120) == pytest.approx(1.93, rel=1e-2)
    with pytest.raises(ValueError, match="do not fit td = 400"):
        discrete_adiabatic_bound(cks[1], cks[2], delta2, 400)
    with pytest.raises(ValueError, match="do not fit"):
        discrete_adiabatic_bound(cks[1][:-1], cks[2], delta2, 120)
    c1, c2, d2 = flat_profiles(41, 0.1)
    for bad in ((c1[:-1], c2, d2), (c1, c2[:-1], d2), (c1, c2, d2[1:]), (c1[:, None], c2, d2)):
        with pytest.raises(ValueError, match="do not fit"):
            discrete_adiabatic_bound(*bad, td=41)
    with pytest.raises(ValueError, match="do not fit td = 1"):
        discrete_adiabatic_bound(np.ones(1), np.ones(0), np.ones(0), td=1)


def test_bound_halves_with_step_doubling():
    h0, h1 = four_level_pair()
    bounds = {}
    for td in (200, 400):
        fam = build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.5, td)
        bounds[td] = adiabatic_error_bound(fam)
    assert bounds[200] / bounds[400] == pytest.approx(2.0, rel=0.2)


def test_bound_composition_matches_pieces():
    h0, h1 = four_level_pair()
    fam = build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.5, 120)
    track = track_eigenpaths(fam)
    gaps = walk_gap_profile(track, ks=(2,))
    cks = ck_profiles(fam, ks=(1, 2))
    manual = discrete_adiabatic_bound(cks[1], cks[2], gaps[2], fam.td)
    assert adiabatic_error_bound(fam) == pytest.approx(manual, rel=1e-14)


def test_bound_dominates_measured_leakage():
    h0, h1 = four_level_pair()
    for td in (200, 400):
        fam = build_walk_family(h0, h1, LINEAR, EXP_INTEGRATOR, 0.5, td)
        assert adiabatic_error_bound(fam) >= measured_ground_leakage(h0, h1, 0.5, td)
    model = build_toy("toy2", 0.1)
    fam = build_walk_family(model.h0, model.h1, LINEAR, EXP_INTEGRATOR, 0.8, 300)
    assert adiabatic_error_bound(fam) >= measured_ground_leakage(model.h0, model.h1, 0.8, 300)
