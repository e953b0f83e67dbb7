"""Small closed interpolation models with tunable near-degeneracies.

Two four-dimensional families share a target spectrum D(eps) =
diag(-0.5, -0.5 + eps, 0.2, 0.6) reached at the schedule midpoint, but
plant it in different objects:

* ``toy1`` plants a prescribed unitary at s = 1/2, so the walk's angular
  gap closes as eps -> 0 while the Hamiltonian gap stays open,
* ``toy2`` plants a prescribed Hamiltonian at s = 1/2, so the roles
  swap: the Hamiltonian gap closes and the walk gap stays open.

A separate well-gapped four-level pair drives the boundary-versus-
interior error experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator, expm_i_hermitian, logm_unitary
from .schedules import Schedule, linear_schedule, schedule_values
from .integrators import PF1, _endpoints, _walk_stack, build_walk_family, hamiltonian_bands
from .spectral import lowest_phase_gap
from .evolution import evolve, ground_state

DEFAULT_EPSILONS = (1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4, 0.0)
EPS_MAX = 0.1
MISMATCH_EPS = 1e-2  # published reference row that disagrees with remeasurement
GAP_ZERO_TOL = 1e-14
MIDPOINT_WALK_TOL = 1e-10
MIDPOINT_HAM_TOL = 1e-12
TOY_KINDS = ("toy1", "toy2")
GAP_TABLE_CHUNK = 256  # grid points per band and walk stack (64 KiB at d = 4)

__all__ = [
    "DEFAULT_EPSILONS",
    "TOY_KINDS",
    "qr_basis",
    "ToyModel",
    "build_toy",
    "four_level_pair",
    "GapTableRow",
    "gap_table",
    "FidelityRow",
    "fidelity_sweep",
]


def qr_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis from QR with a deterministic sign convention."""
    q, r = np.linalg.qr(np.asarray(m, dtype=float))
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s


def _target_spectrum(eps: float) -> np.ndarray:
    return np.array([-0.5, -0.5 + eps, 0.2, 0.6])


_COUPLING = np.array(
    [
        [2.0, -1.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, 2.0],
    ]
)

_H1_DIAG = np.array([-1.0, -0.6, 0.0, 1.0])


@dataclass(frozen=True)
class ToyModel:
    """Interpolation endpoints with the midpoint object they were built from."""

    kind: str
    eps: float
    h0: HermitianOperator
    h1: HermitianOperator
    schedule: Schedule
    reference: np.ndarray  # planted midpoint unitary (toy1) or Hamiltonian (toy2)


def build_toy(kind: str, eps: float = 0.0) -> ToyModel:
    if kind not in TOY_KINDS:
        raise ValueError(f"kind must be one of {TOY_KINDS}, got {kind!r}")
    if not 0.0 <= eps <= EPS_MAX:
        raise ValueError(f"eps must lie in [0, {EPS_MAX}], got {eps}")
    q = qr_basis(_COUPLING)
    d = _target_spectrum(eps)
    h1 = HermitianOperator(np.diag(_H1_DIAG))
    sched = linear_schedule()

    if kind == "toy1":
        target = (q * np.exp(-1j * d)) @ q.conj().T
        shifted = expm_i_hermitian(h1, -0.5).matrix @ target
        theta = logm_unitary(shifted)
        h0 = HermitianOperator(-2.0 * theta.matrix)
        half0 = expm_i_hermitian(h0, 0.5).matrix
        half1 = expm_i_hermitian(h1, 0.5).matrix
        dev = float(np.max(np.abs(half1 @ half0 - target)))
        if dev > MIDPOINT_WALK_TOL:
            raise RuntimeError(f"midpoint walk deviates from its target by {dev:.3e}")
        reference = target
    else:
        target = (q * d) @ q.T
        h0 = HermitianOperator(2.0 * target - h1.matrix)
        dev = float(np.max(np.abs((h0.matrix + h1.matrix) / 2.0 - target)))
        if dev > MIDPOINT_HAM_TOL:
            raise RuntimeError(f"midpoint Hamiltonian deviates from its target by {dev:.3e}")
        reference = target
    return ToyModel(kind=kind, eps=float(eps), h0=h0, h1=h1, schedule=sched, reference=reference)


def four_level_pair():
    """Well-gapped four-level endpoint pair for the error-locality runs."""
    d0 = np.array([0.5, 0.8, 1.2, 1.4])
    d1 = np.array([0.3, 1.0, 1.5, 1.9])
    m0 = np.array(
        [
            [2.0, 1.0, 0.0, 1.0],
            [1.0, 2.0, 1.0, 0.0],
            [0.0, 1.0, 2.0, 1.0],
            [1.0, 0.0, 1.0, 2.0],
        ]
    )
    m1 = np.array(
        [
            [3.0, -0.5, 0.0, -2.0],
            [-0.5, 3.0, 1.0, 0.0],
            [0.0, 1.0, 3.0, -1.0],
            [-2.0, 0.0, -1.0, 3.0],
        ]
    )
    q0 = qr_basis(m0)
    q1 = qr_basis(m1)
    h0 = HermitianOperator(q0.T @ np.diag(d0) @ q0)
    h1 = HermitianOperator(q1.T @ np.diag(d1) @ q1)
    return h0, h1


# ---------------------------------------------------------------------------
# gap tables

@dataclass(frozen=True)
class GapTableRow:
    eps: float
    gap_h: float
    gap_w: float
    flag: str = ""


def gap_table(kind: str, eps_list=None, grid: int = 10000) -> list:
    """Minimal Hamiltonian gap and minimal walk angular gap over the
    schedule, one row per eps, on grid + 1 evenly spaced points.

    The walk is the first-order splitting at h = 1, built by the walk
    kernel from the same schedule values as the bands.  Its gap is the
    untracked arc from the lowest eigenphase to the nearest other one.
    Both are taken ``GAP_TABLE_CHUNK`` points at a time, which bounds the
    memory a worker thread of the CLI holds on to after it is done and
    keeps it the same from one run to the next.
    """
    if eps_list is None:
        eps_list = DEFAULT_EPSILONS
    s = np.linspace(0.0, 1.0, grid + 1)
    rows = []
    for eps in eps_list:
        model = build_toy(kind, float(eps))
        f = schedule_values(model.schedule, s)[0]
        ends = _endpoints(model.h0, model.h1)
        gap_h = gap_w = np.inf
        for c in range(0, len(f), GAP_TABLE_CHUNK):
            fc = f[c:c + GAP_TABLE_CHUNK]
            w = hamiltonian_bands(model.h0, model.h1, fc)
            gap_h = min(gap_h, float(np.min(w[:, 1] - w[:, 0])))
            gap_w = min(gap_w, float(np.min(lowest_phase_gap(_walk_stack(ends, PF1, 1.0, fc)))))
        if gap_w < GAP_ZERO_TOL:
            gap_w = 0.0
        if gap_h < GAP_ZERO_TOL:
            gap_h = 0.0
        flag = "reference-mismatch" if abs(float(eps) - MISMATCH_EPS) < 1e-15 else ""
        rows.append(GapTableRow(eps=float(eps), gap_h=gap_h, gap_w=gap_w, flag=flag))
    return rows


# ---------------------------------------------------------------------------
# fidelity sweeps

@dataclass(frozen=True)
class FidelityRow:
    t: float
    h: float
    td: int
    fidelity_ground: float
    fidelity_excited: float


def fidelity_sweep(t_list, h_list, *, eps: float = 0.0, kind: str = "toy2") -> list:
    """Overlap amplitudes of the evolved state with the final ground and
    first-excited eigenstates, across total times and step sizes.

    The walk is the first-order splitting; a total time T at step size h
    runs td = round(T/h) steps.
    """
    model = build_toy(kind, eps)
    psi0 = ground_state(model.h0)
    rows = []
    for h in h_list:
        for t in t_list:
            td = int(round(float(t) / float(h)))
            if td < 1:
                raise ValueError(f"T = {t}, h = {h} gives no steps")
            fam = build_walk_family(
                model.h0, model.h1, model.schedule, PF1, float(h), td, materialize=False
            )
            res = evolve(fam, psi0)
            fid0 = float(res.fidelities[0])
            fid1 = float(res.fidelities[1])
            if fid0 ** 2 + fid1 ** 2 > 1.0 + 1e-9:
                raise RuntimeError(
                    f"overlap amplitudes violate normalization at T = {t}, h = {h}"
                )
            rows.append(
                FidelityRow(
                    t=float(t), h=float(h), td=td, fidelity_ground=fid0, fidelity_excited=fid1
                )
            )
    return rows
