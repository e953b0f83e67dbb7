"""Eigenpath tracking, angular gaps, and discrete adiabatic error bounds.

A walk family W(j/T_d) has eigenphases theta on the unit circle; this
module follows a labeled group of eigenpaths across the grid by vector
overlap, measures angular gaps between the group and its complement
(both pointwise and over sliding windows of consecutive steps), and
evaluates the closed-form adiabatic error bound driven by the scaled
difference norms c_k and the windowed gaps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import HermitianOperator, arc_distance_angles, normal_eig, operator_norm
from .integrators import WalkFamily, commutator_combo, hamiltonian_bands, nested_commutator_sum
from .schedules import Schedule, schedule_values

OVERLAP_FLOOR = 0.5
OVERLAP_TIE_TOL = 1e-9
GAP_ZERO_TOL = 1e-14
TRACK_BLOCK = 4096

__all__ = [
    "TrackingAmbiguityError",
    "StepCountWarning",
    "EigenpathTrack",
    "track_eigenpaths",
    "GapProfile",
    "walk_gap_profile",
    "hamiltonian_gap_profile",
    "lowest_phase_gap",
    "finite_difference_norm",
    "ck_profiles",
    "gap_perturbation_bounds",
    "discrete_adiabatic_bound",
    "adiabatic_error_bound",
]


class TrackingAmbiguityError(RuntimeError):
    """Eigenpath continuation lost its target (best overlap below floor)."""


class StepCountWarning(UserWarning):
    """Step count below the regime the error bound is derived for."""


def _resolve_p_group(selector, dim: int) -> tuple:
    if selector == "ground":
        return (0,)
    group = tuple(sorted(int(p) for p in selector))
    if not group:
        raise ValueError("eigenpath group must be nonempty")
    if len(set(group)) != len(group):
        raise ValueError(f"eigenpath group has repeats: {group}")
    if group[0] < 0 or group[-1] >= dim:
        raise ValueError(f"eigenpath group {group} out of range for dim {dim}")
    if len(group) == dim:
        raise ValueError("eigenpath group must leave a nonempty complement")
    return group


def _match_columns(vprev, tprev, v, t, *, wrap: bool, step: int):
    """Greedy max-overlap assignment of new eigenvectors to previous labels.

    Ties in overlap are broken by phase proximity.  Returns the column
    permutation and the smallest matched overlap amplitude.
    """
    d = v.shape[1]
    m = np.abs(vprev.conj().T @ v)
    work = m.copy()
    perm = np.full(d, -1, dtype=int)
    worst = 1.0
    for _ in range(d):
        flat = int(np.argmax(work))
        r, c = divmod(flat, d)
        best = work[r, c]
        if best < OVERLAP_FLOOR:
            raise TrackingAmbiguityError(
                f"eigenpath matching ambiguous at step {step}: "
                f"best remaining overlap {best:.4f} is below {OVERLAP_FLOOR}"
            )
        cand = np.argwhere(work >= best - OVERLAP_TIE_TOL)
        if len(cand) > 1:
            def phase_dist(rc):
                diff = t[rc[1]] - tprev[rc[0]]
                if wrap:
                    diff = (diff + np.pi) % (2.0 * np.pi) - np.pi
                return abs(diff)

            r, c = min(map(tuple, cand), key=phase_dist)
        perm[r] = c
        worst = min(worst, float(m[r, c]))
        work[r, :] = -1.0
        work[:, c] = -1.0
    return perm, worst


@dataclass(frozen=True)
class EigenpathTrack:
    """Continuously labeled eigenphases and eigenvectors over a step grid.

    ``phases[j, q]`` is the unwrapped phase of path q at step j (paths are
    labeled by their phase order at step 0) and ``vectors[j, :, q]`` the
    matching unit eigenvector with phase chosen for continuity in j.
    """

    phases: np.ndarray
    vectors: np.ndarray
    p_group: tuple
    min_overlap: float

    def __post_init__(self):
        ph = np.asarray(self.phases, dtype=float)
        vec = np.asarray(self.vectors, dtype=complex)
        if ph.ndim != 2 or vec.shape != (*ph.shape, ph.shape[1]):
            raise ValueError(f"inconsistent track shapes {ph.shape} / {vec.shape}")
        group = _resolve_p_group(self.p_group, ph.shape[1])
        object.__setattr__(self, "phases", ph)
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "p_group", group)

    @property
    def steps(self) -> int:
        return self.phases.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.phases.shape[1]

    @property
    def q_group(self) -> tuple:
        return tuple(q for q in range(self.dim) if q not in self.p_group)


def track_eigenpaths(family: WalkFamily, p_selector="ground") -> EigenpathTrack:
    """Follow every eigenpath of the family across j = 0..td.

    Step 0 fixes the labels in ascending phase order; each later step is
    matched to the previous one by greedy maximal vector overlap, with a
    hard floor of 0.5 on the matched amplitude.
    """
    td = family.td
    dim = family.dim
    group = _resolve_p_group(p_selector, dim)
    phases = np.empty((td + 1, dim))
    vectors = np.empty((td + 1, dim, dim), dtype=complex)
    worst = 1.0
    prev_t = None
    prev_v = None
    for j0 in range(0, td + 1, TRACK_BLOCK):
        j1 = min(j0 + TRACK_BLOCK, td + 1)
        ws = family.block(j0, j1)
        for j in range(j0, j1):
            dec = normal_eig(ws[j - j0])
            theta = -np.angle(dec.eigenvalues)
            vecs = dec.eigenvectors
            if prev_t is None:
                order = np.argsort(theta)
                theta = theta[order]
                vecs = vecs[:, order]
            else:
                perm, w = _match_columns(prev_v, prev_t, vecs, theta, wrap=True, step=j)
                worst = min(worst, w)
                theta = theta[perm]
                vecs = vecs[:, perm]
                # unwrap onto the previous sheet and align vector phases
                theta = prev_t + ((theta - prev_t + np.pi) % (2.0 * np.pi) - np.pi)
                ov = np.einsum("ik,ik->k", prev_v.conj(), vecs)
                vecs = vecs * np.exp(-1j * np.angle(ov))
            phases[j] = theta
            vectors[j] = vecs
            prev_t = theta
            prev_v = vecs
    return EigenpathTrack(phases=phases, vectors=vectors, p_group=group, min_overlap=worst)


# ---------------------------------------------------------------------------
# gap profiles

def _wrapped_arc(diff: np.ndarray) -> np.ndarray:
    red = np.abs(diff) % (2.0 * np.pi)
    return np.pi - np.abs(red - np.pi)


@dataclass(frozen=True)
class GapProfile:
    """Angular gaps between a path group and its complement.

    ``fixed[j]`` is the pointwise gap at step j.  ``multistep[k][j]`` is
    the gap between the two phase sets collected over the window
    j..j+k, so it can only shrink relative to the windowed pointwise
    minimum.  Gaps below 1e-14 are reported as exact zeros.
    """

    fixed: np.ndarray
    multistep: dict | None
    minima: dict

    def fixed_min(self) -> float:
        return float(self.minima["fixed"])


def _zero_floor(gaps: np.ndarray) -> np.ndarray:
    return np.where(gaps < GAP_ZERO_TOL, 0.0, gaps)


def walk_gap_profile(track: EigenpathTrack, ks=(0, 1, 2)) -> GapProfile:
    p = list(track.p_group)
    q = list(track.q_group)
    a = track.phases[:, p]  # (n+1, |P|)
    b = track.phases[:, q]
    fixed = _zero_floor(_wrapped_arc(a[:, :, None] - b[:, None, :]).min(axis=(1, 2)))
    multistep = {}
    minima = {"fixed": float(fixed.min())}
    for k in sorted(set(int(k) for k in ks)):
        if k < 0 or k > track.steps:
            raise ValueError(f"window size {k} out of range")
        if k == 0:
            gk = fixed.copy()
        else:
            wa = sliding_window_view(a, k + 1, axis=0)  # (n+1-k, |P|, k+1)
            wb = sliding_window_view(b, k + 1, axis=0)
            diff = wa[:, :, :, None, None] - wb[:, None, None, :, :]
            gk = _zero_floor(_wrapped_arc(diff).min(axis=(1, 2, 3, 4)))
        multistep[k] = gk
        minima[k] = float(gk.min())
    return GapProfile(fixed=fixed, multistep=multistep, minima=minima)


def hamiltonian_gap_profile(
    H0,
    H1,
    sched: Schedule,
    grid: int = 1000,
    p_selector="ground",
) -> GapProfile:
    """Spectral gap of H(s) = (1-f)H0 + fH1 on a uniform s grid.

    Bands are labeled by ascending eigenvalue at each point; the group is
    resolved at s = 0 and kept as sorted-index bands throughout.
    """
    s = np.linspace(0.0, 1.0, grid + 1)
    w = hamiltonian_bands(H0, H1, schedule_values(sched, s)[0])
    group = _resolve_p_group(p_selector, w.shape[1])
    comp = [q for q in range(w.shape[1]) if q not in group]
    diff = np.abs(w[:, group][:, :, None] - w[:, comp][:, None, :])
    fixed = _zero_floor(diff.min(axis=(1, 2)))
    return GapProfile(fixed=fixed, multistep=None, minima={"fixed": float(fixed.min())})


def lowest_phase_gap(walks) -> np.ndarray:
    """Arc distance from the lowest eigenphase of each walk in a stack (or
    of one walk) to the nearest of its other eigenphases, untracked."""
    theta = np.sort(-np.angle(np.linalg.eigvals(walks)), axis=-1)
    return arc_distance_angles(theta[..., :1], theta[..., 1:]).min(axis=-1)


# ---------------------------------------------------------------------------
# difference norms

def finite_difference_norm(family: WalkFamily, k: int, j: int) -> float:
    """Spectral norm of the k-th forward difference of W at step j."""
    if not 1 <= k <= 3:
        raise ValueError(f"difference order must be 1..3, got {k}")
    if not 0 <= j <= family.td - k:
        raise ValueError(f"step {j} leaves no room for a {k}-step difference")
    ws = family.block(j, j + k + 1)
    acc = np.zeros_like(ws[0])
    for m in range(k + 1):
        acc = acc + ((-1) ** m) * comb(k, m) * ws[k - m]
    return operator_norm(acc)


def ck_profiles(family: WalkFamily, ks=(1, 2)) -> dict:
    """c_k(j) = td^k * ||k-th forward difference of W at j|| for all j."""
    td = family.td
    out = {}
    kmax = max(int(k) for k in ks)
    for k in ks:
        out[int(k)] = np.empty(td + 1 - int(k))
    block = max(TRACK_BLOCK, kmax + 1)
    for j0 in range(0, td, block):
        j1 = min(j0 + block, td)
        ws = family.block(j0, min(j1 + kmax, td) + 1)
        for k in ks:
            k = int(k)
            hi = min(j1, td - k)
            if hi <= j0 - 1:
                continue
            n_here = hi - j0 + 1
            acc = np.zeros((n_here, family.dim, family.dim), dtype=complex)
            for m in range(k + 1):
                off = k - m
                acc += ((-1) ** m) * comb(k, m) * ws[off:off + n_here]
            norms = np.linalg.svd(acc, compute_uv=False)[:, 0]
            out[k][j0:hi + 1] = (td ** k) * norms
    return out


# ---------------------------------------------------------------------------
# gap transfer and error bounds

def gap_perturbation_bounds(
    H0,
    H1,
    sched: Schedule,
    s: float,
    h: float,
    *,
    order: int = 2,
) -> tuple:
    """Interval guaranteed to contain the walk's ground angular gap.

    Valid for h <= 1/alpha with alpha = ||H0|| + ||H1||; larger h is a
    usage error.  ``order`` 2 covers the first- and second-order product
    formulas (their eigenphases coincide); higher even orders use the
    nested-commutator width.
    """
    h0 = HermitianOperator(getattr(H0, "matrix", H0))
    h1 = HermitianOperator(getattr(H1, "matrix", H1))
    alpha = operator_norm(h0) + operator_norm(h1)
    if h > 1.0 / alpha + 1e-12:
        raise ValueError(f"h = {h} exceeds 1/alpha = {1.0 / alpha}")
    w = hamiltonian_bands(h0, h1, schedule_values(sched, float(s))[0])
    gap_h = float(w[1] - w[0])
    if order <= 2:
        width = (h ** 3 / 95.0) * commutator_combo(h0, h1)
    else:
        width = np.pi * h ** (order + 1) * nested_commutator_sum(h0, h1, int(order))
    return (max(h * gap_h - width, 0.0), h * gap_h + width)


def _hat(x: np.ndarray) -> np.ndarray:
    lo = np.concatenate(([x[0]], x[:-1]))
    hi = np.concatenate((x[1:], [x[-1]]))
    return np.maximum(np.maximum(lo, x), hi)


def _check(x: np.ndarray) -> np.ndarray:
    lo = np.concatenate(([x[0]], x[:-1]))
    hi = np.concatenate((x[1:], [x[-1]]))
    return np.minimum(np.minimum(lo, x), hi)


def discrete_adiabatic_bound(c1, c2, delta2, td: int, n: int | None = None) -> float:
    """Closed-form adiabatic error bound after n of td steps.

    ``c1`` and ``c2`` are the scaled difference-norm profiles, ``delta2``
    the 2-step windowed gap profile (or a GapProfile holding one).  The
    hat/check regularizations take the max/min over the neighbor steps
    {j-1, j, j+1} clipped to each profile's domain.  Requires
    td >= sup_j 4 c1_hat(j) / delta2_check(j); a violation still returns
    the value but carries a StepCountWarning.
    """
    if isinstance(delta2, GapProfile):
        if delta2.multistep is None or 2 not in delta2.multistep:
            raise ValueError("gap profile lacks the 2-step window")
        delta2 = delta2.multistep[2]
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    delta2 = np.asarray(delta2, dtype=float)
    if n is None:
        n = td
    if not 1 <= n <= td:
        raise ValueError(f"step index n = {n} out of range 1..{td}")
    if np.any(delta2 <= 0.0):
        warnings.warn("2-step gap vanishes somewhere; bound is infinite", StepCountWarning)
        return float("inf")
    c1h = _hat(c1)
    c2h = _hat(c2)
    d2c = _check(delta2)
    ratio = float(np.max(4.0 * c1h / d2c[np.clip(np.arange(len(c1h)), 0, len(d2c) - 1)]))
    if td < ratio:
        warnings.warn(
            f"step count {td} is below the bound's regime threshold {ratio:.1f}",
            StepCountWarning,
        )
    j = np.arange(n + 1)
    c1_j = c1h[np.clip(j, 0, len(c1h) - 1)]
    c2_j = c2h[np.clip(j, 0, len(c2h) - 1)]
    d2_j = d2c[np.clip(j, 0, len(d2c) - 1)]
    boundary = c1_j[0] / d2_j[0] ** 2 + c1_j[n] / d2_j[n] ** 2
    interior = np.sum(c1_j[:n] ** 2 / (td * d2_j[:n] ** 3) + c2_j[:n] / (td * d2_j[:n] ** 2))
    return float((boundary + interior) / td)


def adiabatic_error_bound(family: WalkFamily, *, p_selector="ground", n: int | None = None) -> float:
    """discrete_adiabatic_bound with profiles measured from the family."""
    track = track_eigenpaths(family, p_selector)
    gaps = walk_gap_profile(track, ks=(2,))
    cks = ck_profiles(family, ks=(1, 2))
    return discrete_adiabatic_bound(cks[1], cks[2], gaps, family.td, n=n)
