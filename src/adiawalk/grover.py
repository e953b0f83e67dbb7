"""Unstructured search in the two-dimensional invariant subspace.

With m marked items out of n, the dynamics of the search Hamiltonians
stays in the span of the marked subspace |e0> and its complement |e1>
inside the uniform superposition's plane.  Everything here works with
that 2x2 reduction, so n up to 2**60 costs the same as n = 4: walk
entries, angular gaps, schedule-driven searches, their QAOA angle
export, and the step-count scaling experiment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .evolution import EVOLVE_BLOCK, STATE_NORM_TOL
from .linalg import HermitianOperator, chain_product, steps_last_stack
from .schedules import (
    Schedule,
    _check_power,
    _integer,
    bc_composite_schedule,
    build_grover_schedule,
    grover_d_constant,
    grover_gap_of_f,
    linear_schedule,
    schedule_values,
)

THRESHOLD_FACTOR = 12.0
SCALING_CAP = 10 ** 8

__all__ = [
    "ThresholdWarning",
    "GroverInstance",
    "effective_hamiltonians",
    "search_schedule",
    "gap_closed_forms",
    "walk_closed_form",
    "SearchResult",
    "run_search",
    "QaoaAngleSet",
    "qaoa_angles",
    "qaoa_replay",
    "ScalingCell",
    "scaling_experiment",
]


class ThresholdWarning(UserWarning):
    """Requested step count sits below the asymptotic-regime threshold."""


@dataclass(frozen=True)
class GroverInstance:
    """Search with m marked items among n; kept exactly with integers (a
    float, even an integral one, or a bool is a ValueError)."""

    n: int
    m: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "m", _integer(self.m, "m"))
        if self.m < 1:
            raise ValueError("need at least one marked item")
        if self.n < 2 * self.m:
            raise ValueError(f"need n >= 2m, got n = {self.n}, m = {self.m}")

    @property
    def mu(self) -> float:
        return self.m / self.n


def effective_hamiltonians(inst: GroverInstance):
    """2x2 reduction of the search pair in the (|e0>, |e1>) basis.

    H0 = I - |u><u| with |u> = (sqrt(mu), sqrt(1-mu)) the uniform
    superposition, H1 the projector off the marked subspace.
    """
    mu = inst.mu
    c = math.sqrt(mu * (1.0 - mu))
    h0 = HermitianOperator(np.array([[1.0 - mu, -c], [-c, mu]]))
    h1 = HermitianOperator(np.diag([0.0, 1.0]))
    return h0, h1


def search_schedule(inst: GroverInstance, p: float = 1.0) -> Schedule:
    """The power-p schedule a search for ``inst`` runs: the single-marked
    one at the effective size round(n / m), at least 2 since n >= 2m."""
    return build_grover_schedule(round(inst.n / inst.m), p)


def gap_closed_forms(inst: GroverInstance, f, h: float = 1.0):
    """Hamiltonian gap and the walk's angular gap, in closed form.

    ``f`` may be a scalar or an array.  The walk gap is for the
    first-order splitting at step size h (the second-order splitting
    shares the same eigenphases).
    """
    f = np.asarray(f, dtype=float)
    mu = inst.mu
    gap_h = grover_gap_of_f(f, mu)
    xi = mu * np.cos(h / 2.0) + (1.0 - mu) * np.cos(h * (0.5 - f))
    arc = 2.0 * np.arccos(np.clip(xi, -1.0, 1.0))
    gap_w = np.minimum(arc, 2.0 * np.pi - arc)
    if f.ndim == 0:
        return float(gap_h), float(gap_w)
    return gap_h, gap_w


def _angle_walks(inst: GroverInstance, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """exp(-i gamma H1) exp(-i beta H0) batched over arrays of angles, as a
    steps-last stack."""
    mu = inst.mu
    c = math.sqrt(mu * (1.0 - mu))
    e = np.exp(-1j * beta)
    ph1 = np.exp(-1j * gamma)
    w = steps_last_stack(np.empty((2, 2, *gamma.shape), dtype=complex))
    w[..., 0, 0] = e + (1.0 - e) * mu
    w[..., 0, 1] = (1.0 - e) * c
    w[..., 1, 0] = ph1 * (1.0 - e) * c
    w[..., 1, 1] = ph1 * (e + (1.0 - e) * (1.0 - mu))
    return w


def walk_closed_form(inst: GroverInstance, f, h: float = 1.0) -> np.ndarray:
    """First-order walk operator entries; batched over an array of f, as a
    steps-last stack."""
    f = np.asarray(f, dtype=float)
    return _angle_walks(inst, h * f, h * (1.0 - f))


def _search_state(inst: GroverInstance, angle_blocks) -> np.ndarray:
    """Reduced state after the walks exp(-i gamma H1) exp(-i beta H0), one
    block of (gamma, beta) arrays at a time, from the uniform superposition."""
    mu = inst.mu
    psi = np.array([math.sqrt(mu), math.sqrt(1.0 - mu)], dtype=complex)
    for gamma, beta in angle_blocks:
        psi = chain_product(_angle_walks(inst, gamma, beta)) @ psi
    return psi


@dataclass(frozen=True)
class SearchResult:
    """Final reduced state; ``error`` is its distance from the marked
    subspace and ``success`` the marked-subspace probability."""

    final_state: np.ndarray
    error: float
    success: float


def _result_from_state(psi: np.ndarray) -> SearchResult:
    p0, p1 = np.abs(psi) ** 2
    norm = math.sqrt(p0 + p1)
    if not abs(norm - 1.0) <= STATE_NORM_TOL:
        raise RuntimeError(f"search state norm drifted to {norm!r}")
    # the off-marked amplitude itself: sqrt(1 - success) cancels to
    # roundoff once the error drops below about 1e-7; success is divided
    # by the norm so that the product's roundoff drift cannot lift it above 1
    return SearchResult(
        final_state=psi,
        error=float(np.abs(psi[1])),
        success=float(p0 / (p0 + p1)),
    )


def _maybe_warn_threshold(sched: Schedule, t: int):
    if sched.kind != "grover-power":
        return
    n = int(sched.parameters["N"])
    p = float(sched.parameters["p"])
    threshold = THRESHOLD_FACTOR * grover_d_constant(n, p)
    if t < threshold:
        warnings.warn(
            f"step count {t} is below the schedule's regime threshold "
            f"{threshold:.1f}; the scaling guarantees do not apply",
            ThresholdWarning,
            stacklevel=3,
        )


def run_search(inst: GroverInstance, sched: Schedule, t: int) -> SearchResult:
    """Drive the first-order walk at h = 1 for t steps, f read at j/t."""
    if (t := _integer(t, "t")) < 1:
        raise ValueError(f"need at least one step, got {t}")
    _maybe_warn_threshold(sched, t)
    fs = (
        schedule_values(sched, np.arange(j0, min(j0 + EVOLVE_BLOCK, t)) / t)
        for j0 in range(0, t, EVOLVE_BLOCK)
    )
    return _result_from_state(_search_state(inst, ((f, 1.0 - f) for f in fs)))


@dataclass(frozen=True)
class QaoaAngleSet:
    """Alternating-operator angles equivalent to a schedule-driven search."""

    gammas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        b = np.asarray(self.betas, dtype=float)
        if g.shape != b.shape or g.ndim != 1 or g.size < 1:
            raise ValueError(f"inconsistent angle shapes {g.shape} / {b.shape}")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "betas", b)


def qaoa_angles(sched: Schedule, t: int) -> QaoaAngleSet:
    """Angles gamma_j = f(j/t), beta_j = 1 - gamma_j for j = 0..t-1."""
    if (t := _integer(t, "t")) < 1:
        raise ValueError(f"need at least one step, got {t}")
    gammas = schedule_values(sched, np.arange(t) / t)
    return QaoaAngleSet(gammas=gammas, betas=1.0 - gammas)


def qaoa_replay(inst: GroverInstance, angles: QaoaAngleSet) -> SearchResult:
    """Run the search through the walks exp(-i gamma_j H1) exp(-i beta_j H0);
    bit-identical to run_search when the angles came from the same
    schedule and step count."""
    g, b, n = angles.gammas, angles.betas, EVOLVE_BLOCK
    blocks = ((g[j:j + n], b[j:j + n]) for j in range(0, len(g), n))
    return _result_from_state(_search_state(inst, blocks))


# ---------------------------------------------------------------------------
# step-count scaling

@dataclass(frozen=True)
class ScalingCell:
    """Minimal step count hitting the target error for one (n, m) cell."""

    n: int
    m: int
    schedule: str
    target_error: float
    t_required: int | None
    normalized_ratio: float
    unreached: bool = False


def _cell_schedule(kind: str, inst: GroverInstance, p: float) -> Schedule:
    if kind == "power":
        return search_schedule(inst, p)
    if kind == "bc":
        return bc_composite_schedule()
    if kind == "linear":
        return linear_schedule()
    raise ValueError(f"unknown scaling schedule kind {kind!r}")


def _normalized_ratio(kind: str, n: int, m: int, t: float | None) -> float:
    if t is None:  # unreached
        return float("nan")
    ratio_base = math.sqrt(n / m)
    if kind == "power":
        return t / (ratio_base * math.log(n))
    if kind == "bc":
        return t / (ratio_base * math.log(n / m) ** 4)
    return t / (n / m)


def scaling_experiment(
    n_list,
    m_list,
    schedule_kind: str,
    target_error: float,
    *,
    p: float = 1.0,
) -> list:
    """Minimal t with search error <= target, per (n, m) cell.

    Found by doubling from t = 4 and then bisecting on the step count;
    a cell whose doubling passes ``SCALING_CAP`` is flagged unreached.
    Regime warnings from the probing runs are suppressed.  The target,
    p (1 <= p < 2, for every schedule kind) and every cell's instance and
    schedule are checked before the first search.
    """
    if not 0.0 < target_error < 1.0:
        raise ValueError(f"target error must be in (0, 1), got {target_error}")
    _check_power(p)
    instances = [GroverInstance(n, m) for n in n_list for m in m_list]
    pairs = [(inst, _cell_schedule(schedule_kind, inst, p)) for inst in instances]
    cells = []
    for inst, sched in pairs:

        def err(t: int) -> float:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ThresholdWarning)
                return run_search(inst, sched, t).error

        t = 4
        while t <= SCALING_CAP and err(t) > target_error:
            t *= 2
        hi = None if t > SCALING_CAP else t  # None: unreached
        lo = t // 2 if t > 4 else 0  # largest step count known to fail (0: untested)
        while hi is not None and hi - lo > 1:
            mid = (lo + hi) // 2
            if err(mid) <= target_error:
                hi = mid
            else:
                lo = mid
        cells.append(
            ScalingCell(
                n=inst.n,
                m=inst.m,
                schedule=schedule_kind,
                target_error=target_error,
                t_required=hi,
                normalized_ratio=_normalized_ratio(schedule_kind, inst.n, inst.m, hi),
                unreached=hi is None,
            )
        )
    return cells
