"""Eigenpath tracking, angular gaps, and discrete adiabatic error bounds.

A walk family W(j/T_d) has eigenphases theta on the unit circle; this
module follows every eigenpath across the grid by vector overlap, ground
path first, keeping all phases but only the ground path's eigenvectors,
and refuses a step whose labels the overlaps do not determine or whose
ground path is degenerate.  It measures the angular
gap between the ground path and the others over windows of k + 1 steps
(k = 0: pointwise), and evaluates the closed-form adiabatic error bound
driven by the scaled difference norms c_k and the 2-step windowed gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import _normal_eig_stack, _wrap_phase, arc_distance_angles, operator_norm
from .integrators import (
    WalkFamily,
    _check_step_size,
    _endpoints,
    commutator_combo,
    hamiltonian_bands,
    nested_commutator_sum,
)
from .schedules import Schedule, schedule_values

GAP_ZERO_TOL = 1e-14
TRACK_BLOCK = 256  # walks per batched eigensolve and gap-table chunk; more costs memory, not time
# above the eigenvectors' orthonormality tolerance, so a step's overlap matrix,
# unitary to within it, cannot hold two row maxima in one column
FAST_MATCH_MARGIN = 1e-6

__all__ = [
    "TrackingAmbiguityError",
    "StepCountWarning",
    "EigenpathTrack",
    "track_eigenpaths",
    "walk_gap_profile",
    "lowest_phase_gap",
    "ck_profiles",
    "gap_perturbation_bounds",
    "discrete_adiabatic_bound",
    "adiabatic_error_bound",
]


class TrackingAmbiguityError(RuntimeError):
    """A step's eigenpath labels are not determined: some path keeps
    |overlap|^2 of at most 1/2 + FAST_MATCH_MARGIN on every next
    eigenvector, or the ground path's phase meets another path's."""


class StepCountWarning(UserWarning):
    """Step count below the regime the error bound is derived for."""


@dataclass(frozen=True)
class EigenpathTrack:
    """Continuously labeled eigenphases and ground eigenvectors over a step grid.

    ``phases[j, q]`` is the unwrapped phase of path q at step j (paths are
    labeled at step 0 by ascending H0 energy, ground first, see
    ``_label_order``) and ``ground[j]`` the unit eigenvector of path 0 at
    step j, in the eigensolver's phase, which its projector does not see.
    ``min_overlap``, the least |overlap| of any path's eigenvector with its
    predecessor, is above sqrt(1/2) (``track_eigenpaths``).
    """

    phases: np.ndarray
    ground: np.ndarray
    min_overlap: float

    def __post_init__(self):
        ph = np.asarray(self.phases, dtype=float)
        g = np.asarray(self.ground, dtype=complex)
        if ph.ndim != 2 or g.shape != ph.shape:
            raise ValueError(f"inconsistent track shapes {ph.shape} / {g.shape}")
        object.__setattr__(self, "phases", ph)
        object.__setattr__(self, "ground", g)

    @property
    def steps(self) -> int:
        return self.phases.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.phases.shape[1]


def _label_order(family: WalkFamily, vecs: np.ndarray) -> np.ndarray:
    """Ground-first column order of the eigenvectors ``vecs`` of walk 0: by
    energy sum_k |<u_k|v>|^2 E_k against H0's cached eigenpairs (E_k, u_k).
    Unlike the order of the phases, this stays right once h * lambda wraps
    past pi."""
    w, u = family.h0.eigh
    return np.argsort(w @ np.abs(u.conj().T @ vecs) ** 2)


def track_eigenpaths(family: WalkFamily) -> EigenpathTrack:
    """Follow every eigenpath of the family across j = 0..td.

    Step 0 fixes the labels (``_label_order``).  From step 1 on, each
    block of ``TRACK_BLOCK`` walks takes one batched eigensolve and one
    batched product for the overlaps of consecutive eigenbases, the
    previous step's basis prepended.  A step is matched only if every row
    of its overlap matrix peaks above |overlap|^2 = 1/2 + FAST_MATCH_MARGIN:
    the matrix is unitary, so those peaks sit in distinct columns and the
    row argmax is the step's permutation.  Label maps are composed only
    where it is not the identity.  Phases are unwrapped by a cumulative
    sum of the wrapped differences of the labeled raw phases, then snapped
    to the raw phase plus a multiple of 2 pi.  Of the eigenvectors only
    path 0's is kept.  Raises TrackingAmbiguityError at the first step
    j >= 1 that is not matched or whose ground phase (path 0) lies within
    GAP_ZERO_TOL of another path's: past it, the eigensolver's choice of
    basis, not the family, would decide the labels.
    """
    td = family.td
    dim = family.dim
    phases = np.empty((td + 1, dim))
    ground = np.empty((td + 1, dim), dtype=complex)
    worst = 1.0
    identity = np.arange(dim)
    lam, v = _normal_eig_stack(family.block(0, 1))
    perm = _label_order(family, v[0])
    phases[0] = -np.angle(lam[0, perm])
    ground[0] = v[0][:, perm[0]]
    # raw vectors, label map, labeled raw phases and tracked phases of the last step
    v_prev, p_last, r_last, t_last = v[0], perm, phases[0], phases[0]
    for j0 in range(1, td + 1, TRACK_BLOCK):
        j1 = min(j0 + TRACK_BLOCK, td + 1)
        lam, v = _normal_eig_stack(family.block(j0, j1))
        theta = -np.angle(lam)
        vs = np.concatenate([v_prev[None], v])
        amp = np.abs(vs[:-1].conj().transpose(0, 2, 1) @ vs[1:])  # [i, column j - 1, column j]
        rel = amp.argmax(axis=2)
        best = amp.max(axis=2).min(axis=1)  # each step's least row maximum
        n = j1 - j0
        perms = np.empty((n, dim), dtype=np.intp)
        perm, start = p_last, 0
        for i in np.flatnonzero(np.any(rel != identity, axis=1)):
            perms[start:i] = perm
            perm = rel[i, perm]
            start = i
        perms[start:] = perm
        raw = np.take_along_axis(theta, perms, axis=1)
        diff = np.diff(raw, axis=0, prepend=r_last[None])
        steps = np.concatenate([t_last[None], _wrap_phase(diff)])
        est = np.cumsum(steps, axis=0)[1:]  # sequential, so blocks do not change roundoff
        phases[j0:j1] = raw + 2.0 * np.pi * np.round((est - raw) / (2.0 * np.pi))
        unmatched = best ** 2 <= 0.5 + FAST_MATCH_MARGIN
        arc = np.abs(_wrap_phase(phases[j0:j1, 1:] - phases[j0:j1, :1]))
        bad = np.flatnonzero(unmatched | (arc.min(axis=1, initial=np.inf) < GAP_ZERO_TOL))
        if bad.size:  # labels past an unmatched step are arbitrary: the first bad step decides
            i = bad[0]
            raise TrackingAmbiguityError(
                f"eigenpath matching ambiguous at step {j0 + i}: a path's largest overlap "
                f"{best[i]:.4f} is not above sqrt(1/2)" if unmatched[i] else
                f"ground eigenpath degenerate at step {j0 + i}: its phase is within "
                f"{GAP_ZERO_TOL} of another path's"
            )
        worst = min(worst, float(best.min()))
        ground[j0:j1] = v[np.arange(n), :, perms[:, 0]]
        v_prev, p_last, r_last, t_last = v[-1], perms[-1], raw[-1], phases[j1 - 1]
    return EigenpathTrack(phases=phases, ground=ground, min_overlap=worst)


# ---------------------------------------------------------------------------
# gap profiles

def walk_gap_profile(track: EigenpathTrack, ks=(0, 1, 2)) -> dict:
    """{k: gaps} for each window size k in ``ks``: ``gaps[j]`` is the least
    arc between the ground path's phases (path 0) and the other paths'
    over steps j..j+k, at most the least pointwise (k = 0) gap there.
    Gaps below 1e-14 are reported as exact zeros."""
    a = track.phases[:, :1]  # (n+1, 1): the ground path
    b = track.phases[:, 1:]
    gaps = {}
    for k in sorted(set(int(k) for k in ks)):
        if k < 0 or k > track.steps:
            raise ValueError(f"window size {k} out of range")
        wa = sliding_window_view(a, k + 1, axis=0)  # (n+1-k, 1, k+1)
        wb = sliding_window_view(b, k + 1, axis=0)
        arc = _wrap_phase(wa[:, :, :, None, None] - wb[:, None, None, :, :])
        gk = np.abs(arc, out=arc).min(axis=(1, 2, 3, 4))
        gaps[k] = np.where(gk < GAP_ZERO_TOL, 0.0, gk)
    return gaps


def lowest_phase_gap(walks) -> np.ndarray:
    """Arc distance from the lowest eigenphase of each walk in a stack (or
    of one walk) to the nearest of its other eigenphases, untracked."""
    theta = np.sort(-np.angle(np.linalg.eigvals(walks)), axis=-1)
    return arc_distance_angles(theta[..., :1], theta[..., 1:]).min(axis=-1)


# ---------------------------------------------------------------------------
# difference norms

def ck_profiles(family: WalkFamily, ks=(1, 2)) -> dict:
    """c_k(j) = td^k * ||k-th forward difference of W at j|| for all j."""
    td, ks = family.td, [int(k) for k in ks]
    out = {k: np.empty(td + 1 - k) for k in ks}
    for j0 in range(0, td, TRACK_BLOCK):
        ws = family.block(j0, min(j0 + TRACK_BLOCK + max(ks), td + 1))
        for k in ks:
            dk = np.diff(ws, n=k, axis=0)[:TRACK_BLOCK]
            out[k][j0:j0 + len(dk)] = (td ** k) * operator_norm(dk)
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
    _check_step_size(h)
    h0, h1 = _endpoints(H0, H1)
    alpha = operator_norm(h0) + operator_norm(h1)
    if h > 1.0 / alpha + 1e-12:
        raise ValueError(f"h = {h} exceeds 1/alpha = {1.0 / alpha}")
    w = hamiltonian_bands(h0, h1, schedule_values(sched, float(s)))
    gap_h = float(w[1] - w[0])
    if order <= 2:
        width = (h ** 3 / 95.0) * commutator_combo(h0, h1)
    else:
        width = np.pi * h ** (order + 1) * nested_commutator_sum(h0, h1, int(order))
    return (max(h * gap_h - width, 0.0), h * gap_h + width)


def _neighbour_reduce(x: np.ndarray, op) -> np.ndarray:
    """op (np.maximum or np.minimum) over the steps {j-1, j, j+1} clipped to x."""
    lo = np.concatenate(([x[0]], x[:-1]))
    hi = np.concatenate((x[1:], [x[-1]]))
    return op(op(lo, x), hi)


def discrete_adiabatic_bound(c1, c2, delta2, td: int) -> float:
    """Closed-form adiabatic error bound after all td steps.

    ``c1`` and ``c2`` are the scaled difference-norm profiles, td and
    td - 1 entries (``ck_profiles``), and ``delta2`` the 2-step windowed
    gap array, td - 1 entries (``walk_gap_profile(...)[2]``); other
    lengths, or td < 2, are a ValueError.  The hat/check regularizations
    take the max/min over the neighbor steps {j-1, j, j+1} clipped to each
    profile's domain.  Requires td >= sup_j 4 c1_hat(j) / delta2_check(j);
    a violation still returns the value but carries a StepCountWarning.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    delta2 = np.asarray(delta2, dtype=float)
    if td < 2 or (c1.shape, c2.shape, delta2.shape) != ((td,), (td - 1,), (td - 1,)):
        raise ValueError(f"profiles of shapes {c1.shape}, {c2.shape}, {delta2.shape} do not fit "
                         f"td = {td}: td >= 2, c1 needs td entries, c2 and delta2 td - 1 each")
    if np.any(delta2 <= 0.0):
        warnings.warn("2-step gap vanishes somewhere; bound is infinite", StepCountWarning)
        return float("inf")
    c1h = _neighbour_reduce(c1, np.maximum)
    c2h = _neighbour_reduce(c2, np.maximum)
    d2c = _neighbour_reduce(delta2, np.minimum)
    ratio = float(np.max(4.0 * c1h / d2c[np.clip(np.arange(len(c1h)), 0, len(d2c) - 1)]))
    if td < ratio:
        warnings.warn(
            f"step count {td} is below the bound's regime threshold {ratio:.1f}",
            StepCountWarning,
        )
    j = np.arange(td + 1)
    c1_j = c1h[np.clip(j, 0, len(c1h) - 1)]
    c2_j = c2h[np.clip(j, 0, len(c2h) - 1)]
    d2_j = d2c[np.clip(j, 0, len(d2c) - 1)]
    boundary = c1_j[0] / d2_j[0] ** 2 + c1_j[td] / d2_j[td] ** 2
    interior = np.sum(c1_j[:td] ** 2 / (td * d2_j[:td] ** 3) + c2_j[:td] / (td * d2_j[:td] ** 2))
    return float((boundary + interior) / td)


def adiabatic_error_bound(family: WalkFamily) -> float:
    """discrete_adiabatic_bound with profiles measured from the family."""
    track = track_eigenpaths(family)
    delta2 = walk_gap_profile(track, ks=(2,))[2]
    cks = ck_profiles(family, ks=(1, 2))
    return discrete_adiabatic_bound(cks[1], cks[2], delta2, family.td)
