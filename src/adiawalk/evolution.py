"""State propagation under walk families and its ideal-adiabatic reference.

The product U(n) = W((n-1)/T_d) ... W(1/T_d) W(0) drives a state across
the schedule.  Its ideal counterpart U_A follows the tracked spectral
projectors exactly; comparing the two through the discrete integral
kernel K diagnoses where adiabatic error is generated (interior of the
schedule versus its endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator, chain_product, normal_eig
from .integrators import EXP_INTEGRATOR, WalkFamily, build_walk_family
from .schedules import glue_schedule
from .spectral import EigenpathTrack, track_eigenpaths

PROJECTOR_TOL = 1e-10
STATE_NORM_TOL = 1e-9
SINGULAR_FLOOR = 1e-16  # on the eigenvalues of S S^dag, i.e. (1e-8)^2 on v
ROTATION_UNITARITY_TOL = 1e-9
INTERTWINING_TOL = 1e-8
SERIES_IDENTITY_TOL = 1e-8
EVOLVE_BLOCK = 65536

__all__ = [
    "GapCollapseError",
    "ground_state",
    "spectral_projector",
    "EvolutionResult",
    "evolve",
    "IdealAdiabaticFamily",
    "ideal_adiabatic_family",
    "VolterraDiagnostics",
    "volterra_diagnostics",
    "ScalingReport",
    "boundary_vs_interior_scaling",
]


class GapCollapseError(RuntimeError):
    """Consecutive spectral projectors became orthogonal somewhere."""


def ground_state(H) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue."""
    m = HermitianOperator(getattr(H, "matrix", H)).matrix
    _, v = np.linalg.eigh(m)
    return np.ascontiguousarray(v[:, 0])


def spectral_projector(track: EigenpathTrack, step: int) -> np.ndarray:
    """Orthogonal projector onto the tracked group at one step."""
    vecs = track.vectors[step][:, list(track.p_group)]
    p = vecs @ vecs.conj().T
    dev = max(
        float(np.max(np.abs(p - p.conj().T))),
        float(np.max(np.abs(p @ p - p))),
    )
    if dev > PROJECTOR_TOL:
        raise RuntimeError(f"projector validation failed at step {step}: deviation {dev:.3e}")
    return p


def _projector_stack(track: EigenpathTrack) -> np.ndarray:
    vecs = track.vectors[:, :, list(track.p_group)]
    return np.einsum("nik,njk->nij", vecs, vecs.conj())


@dataclass(frozen=True)
class EvolutionResult:
    """Final state with its leakage out of the target group and the
    amplitude overlaps against the final eigenbasis (ascending phase)."""

    final_state: np.ndarray
    leakage: float
    fidelities: np.ndarray
    trajectory: np.ndarray | None = None

    def __post_init__(self):
        psi = np.asarray(self.final_state, dtype=complex)
        if not abs(np.linalg.norm(psi) - 1.0) <= STATE_NORM_TOL:
            raise ValueError(f"final state norm drifted to {np.linalg.norm(psi)!r}")
        object.__setattr__(self, "final_state", psi)
        object.__setattr__(self, "fidelities", np.asarray(self.fidelities, dtype=float))


def evolve(
    family: WalkFamily,
    initial,
    track: EigenpathTrack | None = None,
    *,
    store_trajectory: bool = False,
    block: int = EVOLVE_BLOCK,
) -> EvolutionResult:
    """Apply the td walk steps to ``initial``.

    With a track, leakage is measured against the tracked group's final
    projector and fidelities against the tracked final eigenbasis.
    Without one, the final walk operator is diagonalized on the spot and
    its ascending-phase eigenbasis used instead (ground path first); the
    leakage is then the norm of the non-ground amplitudes, which keeps
    its relative precision where 1 - |ground amplitude|^2 would cancel.
    """
    psi = np.asarray(initial, dtype=complex).reshape(-1)
    if psi.shape[0] != family.dim:
        raise ValueError(f"state dim {psi.shape[0]} does not match family dim {family.dim}")
    if not abs(np.linalg.norm(psi) - 1.0) <= STATE_NORM_TOL:
        raise ValueError("initial state must be normalized")
    td = family.td
    trajectory = None
    if store_trajectory:
        trajectory = np.empty((td + 1, family.dim), dtype=complex)
        trajectory[0] = psi
        for j0 in range(0, td, block):
            j1 = min(j0 + block, td)
            ws = family.block(j0, j1)
            for j in range(j0, j1):
                psi = ws[j - j0] @ psi
                trajectory[j + 1] = psi
    else:
        for j0 in range(0, td, block):
            ws = family.block(j0, min(j0 + block, td))
            psi = chain_product(ws) @ psi

    if track is not None:
        if track.steps != td or track.dim != family.dim:
            raise ValueError("track does not match the family")
        p_end = spectral_projector(track, td)
        leakage = float(np.linalg.norm(psi - p_end @ psi))
        fidelities = np.abs(track.vectors[td].conj().T @ psi)
    else:
        dec = normal_eig(family.walk(td))
        theta = -np.angle(dec.eigenvalues)
        order = np.argsort(theta)
        basis = dec.eigenvectors[:, order]
        fidelities = np.abs(basis.conj().T @ psi)
        leakage = float(np.linalg.norm(fidelities[1:]))
    return EvolutionResult(
        final_state=psi, leakage=leakage, fidelities=fidelities, trajectory=trajectory
    )


# ---------------------------------------------------------------------------
# ideal adiabatic reference

@dataclass(frozen=True)
class IdealAdiabaticFamily:
    """Projector-following reference evolution for one walk family.

    ``v_rotations[j]`` is the unitary part of S(j) = P(j+1)P(j) +
    Q(j+1)Q(j); the adiabatic walks are V(j) W(j) and ``adiabatic_evolution``
    their running product, which intertwines the endpoint projectors up to
    ``intertwining_residual``.
    """

    projectors: np.ndarray
    s_operators: np.ndarray
    singular_values: np.ndarray
    v_rotations: np.ndarray
    adiabatic_walks: np.ndarray
    adiabatic_evolution: np.ndarray
    intertwining_residual: float


def ideal_adiabatic_family(track: EigenpathTrack, family: WalkFamily) -> IdealAdiabaticFamily:
    td = family.td
    if track.steps != td or track.dim != family.dim:
        raise ValueError("track does not match the family")
    d = family.dim
    eye = np.eye(d)
    p = _projector_stack(track)
    q = eye - p
    s = p[1:] @ p[:-1] + q[1:] @ q[:-1]
    gram = s @ s.conj().transpose(0, 2, 1)
    w, r = np.linalg.eigh(gram)
    if np.min(w) < SINGULAR_FLOOR:
        j = int(np.argmin(np.min(w, axis=1)))
        raise GapCollapseError(
            f"projector overlap collapsed at step {j}: "
            f"smallest singular value {np.sqrt(max(np.min(w), 0.0)):.3e}"
        )
    inv_sqrt = np.einsum("nik,nk,njk->nij", r, 1.0 / np.sqrt(w), r.conj())
    v = inv_sqrt @ s
    vdev = float(np.max(np.abs(v.conj().transpose(0, 2, 1) @ v - eye)))
    if vdev > ROTATION_UNITARITY_TOL:
        raise RuntimeError(f"polar rotation lost unitarity: deviation {vdev:.3e}")
    wa = np.empty((td, d, d), dtype=complex)
    ua = np.empty((td + 1, d, d), dtype=complex)
    ua[0] = eye
    for j in range(td):
        wa[j] = v[j] @ family.walk(j)
        ua[j + 1] = wa[j] @ ua[j]
    resid_ops = ua @ p[0] - p @ ua
    residual = float(np.linalg.svd(resid_ops, compute_uv=False)[:, 0].max())
    if residual > INTERTWINING_TOL:
        raise RuntimeError(
            f"adiabatic evolution fails to intertwine the projectors: {residual:.3e}"
        )
    sv = np.sqrt(np.maximum(w, 0.0))
    return IdealAdiabaticFamily(
        projectors=p,
        s_operators=s,
        singular_values=sv,
        v_rotations=v,
        adiabatic_walks=wa,
        adiabatic_evolution=ua,
        intertwining_residual=residual,
    )


# ---------------------------------------------------------------------------
# Volterra comparison series

@dataclass(frozen=True)
class VolterraDiagnostics:
    """Discrete comparison series between U and its adiabatic reference.

    ``omega[n]`` solves the exact running-sum recursion and equals
    U_A(n)^dag U(n) to roundoff; ``omega_terms[j]`` is the j-th iterate of
    that recursion started from the identity.  The off-diagonal profiles
    take the initial-frame block Q(0) X P(0) of each operator.
    """

    theta: np.ndarray
    kernel: np.ndarray
    omega: np.ndarray
    omega_terms: np.ndarray
    off_diag_omega: np.ndarray
    off_diag_terms: np.ndarray
    residual_identity: float


def _offdiag_profile(x: np.ndarray, p0: np.ndarray, q0: np.ndarray) -> np.ndarray:
    return np.linalg.svd(q0[None] @ x @ p0[None], compute_uv=False)[:, 0]


def volterra_diagnostics(
    ideal: IdealAdiabaticFamily,
    family: WalkFamily,
    j_max: int = 6,
) -> VolterraDiagnostics:
    td = family.td
    d = family.dim
    if ideal.adiabatic_evolution.shape[0] != td + 1:
        raise ValueError("ideal family does not match the walk family")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    eye = np.eye(d)

    u = np.empty((td + 1, d, d), dtype=complex)
    u[0] = eye
    for j in range(td):
        u[j + 1] = family.walk(j) @ u[j]

    ua = ideal.adiabatic_evolution
    ua1 = ua[1:]
    vh = ideal.v_rotations.conj().transpose(0, 2, 1)
    theta = ua1.conj().transpose(0, 2, 1) @ vh @ ua1
    kernel = td * (eye - theta)

    omega = np.empty((td + 1, d, d), dtype=complex)
    omega[0] = eye
    acc = np.zeros((d, d), dtype=complex)
    for n in range(1, td + 1):
        acc = acc + kernel[n - 1] @ omega[n - 1]
        omega[n] = eye - acc / td

    terms = np.empty((j_max + 1, td + 1, d, d), dtype=complex)
    terms[0] = eye
    for j in range(1, j_max + 1):
        prod = kernel @ terms[j - 1, :-1]
        csum = np.cumsum(prod, axis=0)
        terms[j, 0] = eye
        terms[j, 1:] = eye - csum / td

    check = ua.conj().transpose(0, 2, 1) @ u
    residual = float(np.linalg.svd(omega - check, compute_uv=False)[:, 0].max())
    if residual > SERIES_IDENTITY_TOL:
        raise RuntimeError(f"comparison recursion drifted from U_A^dag U: {residual:.3e}")
    unit_dev = float(np.max(np.abs(omega.conj().transpose(0, 2, 1) @ omega - eye)))
    if unit_dev > SERIES_IDENTITY_TOL:
        raise RuntimeError(f"comparison operator lost unitarity: {unit_dev:.3e}")

    p0 = ideal.projectors[0]
    q0 = eye - p0
    off_omega = _offdiag_profile(omega, p0, q0)
    off_terms = np.stack([_offdiag_profile(terms[j], p0, q0) for j in range(j_max + 1)])
    return VolterraDiagnostics(
        theta=theta,
        kernel=kernel,
        omega=omega,
        omega_terms=terms,
        off_diag_omega=off_omega,
        off_diag_terms=off_terms,
        residual_identity=residual,
    )


# ---------------------------------------------------------------------------
# boundary versus interior scaling

@dataclass(frozen=True)
class ScalingReport:
    """Log-log scaling of the comparison-series error metrics in td.

    ``interior`` is the peak first-iterate off-diagonal over the whole
    evolution; the boundary metrics are the endpoint values of the first
    iterate and of the full comparison operator.
    """

    td_list: tuple
    interior: np.ndarray
    boundary_term1: np.ndarray
    boundary_full: np.ndarray
    slopes: dict
    pairwise: dict


def _loglog_slope(td: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log(td), np.log(np.maximum(y, 1e-300)), 1)[0])


def boundary_vs_interior_scaling(
    H0,
    H1,
    td_list,
    schedule=None,
    *,
    j_max: int = 1,
    p_selector="ground",
) -> ScalingReport:
    """Measure the td-scaling of interior and boundary error generation.

    Uses exp walks at h = 1 for each td in ``td_list``.  A schedule with
    vanishing endpoint derivatives sends the boundary metrics down
    superpolynomially while the interior metric keeps a roughly 1/td
    decay; a linear schedule keeps the boundary at 1/td as a control.
    """
    if j_max < 1:
        raise ValueError("the first comparison iterate is needed")
    sched = glue_schedule() if schedule is None else schedule
    tds = tuple(int(t) for t in td_list)
    if len(tds) < 2 or any(t < 2 for t in tds):
        raise ValueError("need at least two step counts of at least 2")
    interior = np.empty(len(tds))
    b_term1 = np.empty(len(tds))
    b_full = np.empty(len(tds))
    for i, td in enumerate(tds):
        fam = build_walk_family(H0, H1, sched, EXP_INTEGRATOR, 1.0, td)
        track = track_eigenpaths(fam, p_selector)
        diag = volterra_diagnostics(ideal_adiabatic_family(track, fam), fam, j_max=j_max)
        interior[i] = float(diag.off_diag_terms[1].max())
        b_term1[i] = float(diag.off_diag_terms[1][-1])
        b_full[i] = float(diag.off_diag_omega[-1])
    tarr = np.asarray(tds, dtype=float)
    metrics = {"interior": interior, "boundary_term1": b_term1, "boundary_full": b_full}
    slopes = {name: _loglog_slope(tarr, y) for name, y in metrics.items()}
    pairwise = {
        name: np.diff(np.log(np.maximum(y, 1e-300))) / np.diff(np.log(tarr))
        for name, y in metrics.items()
    }
    return ScalingReport(
        td_list=tds,
        interior=interior,
        boundary_term1=b_term1,
        boundary_full=b_full,
        slopes=slopes,
        pairwise=pairwise,
    )
