"""State propagation under walk families and its ideal-adiabatic reference.

The product U(n) = W((n-1)/T_d) ... W(1/T_d) W(0) drives a state across
the schedule.  Its ideal counterpart U_A follows the tracked spectral
projectors exactly; comparing the two through the discrete integral
kernel K diagnoses where adiabatic error is generated (interior of the
schedule versus its endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

# chain_product is not called here; it stays bound because perfbench/selftest.py
# checks that its tracer wraps evolution.chain_product
from .linalg import chain_product, operator_norm, unitarity_deviation  # noqa: F401
from .integrators import EXP_INTEGRATOR, WalkFamily, _operator, build_walk_family
from .spectral import EigenpathTrack, track_eigenpaths

STATE_NORM_TOL = 1e-9
SINGULAR_FLOOR = 1e-16  # on the eigenvalues of S S^dag, i.e. (1e-8)^2 on v
ROTATION_UNITARITY_TOL = 1e-9
INTERTWINING_TOL = 1e-8
SERIES_IDENTITY_TOL = 1e-8
EVOLVE_BLOCK = 65536

__all__ = [
    "GapCollapseError",
    "ground_state",
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
    return np.ascontiguousarray(_operator(H).eigh[1][:, 0])


@dataclass(frozen=True)
class EvolutionResult:
    """Final state, its amplitudes |<u_k|psi>| on H1's eigenvectors in
    ascending energy, and its leakage, their norm off H1's ground state."""

    final_state: np.ndarray
    leakage: float
    fidelities: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.final_state, dtype=complex)
        if not abs(np.linalg.norm(psi) - 1.0) <= STATE_NORM_TOL:
            raise ValueError(f"final state norm drifted to {np.linalg.norm(psi)!r}")
        object.__setattr__(self, "final_state", psi)
        object.__setattr__(self, "fidelities", np.asarray(self.fidelities, dtype=float))


def evolve(family: WalkFamily, initial) -> EvolutionResult:
    """Apply the td walk steps to ``initial``, one block of ``EVOLVE_BLOCK``
    walks at a time, each block's product (``WalkFamily.chain``) released
    before the next is built.  A lazy product formula multiplies its block
    in the first factor's eigenbasis and checks the unitarity of every
    step there; see the ``integrators`` module docstring.

    The final state is read on H1's cached eigenbasis: at f = 1 every
    walk is exp(-i h H1), so this is the last walk's eigenbasis, labeled
    by energy even where its eigenphases alias.  The leakage, a norm of
    amplitudes, keeps its relative precision where 1 - |P psi|^2 would
    cancel.  A family without H1 (``walk_family_from_operators``) is a
    ValueError.
    """
    if family.h1 is None:
        raise ValueError("evolve reads H1's eigenbasis: build the family from H0 and H1")
    psi = np.asarray(initial, dtype=complex).reshape(-1)
    if psi.shape[0] != family.dim:
        raise ValueError(f"state dim {psi.shape[0]} does not match family dim {family.dim}")
    if not abs(np.linalg.norm(psi) - 1.0) <= STATE_NORM_TOL:
        raise ValueError("initial state must be normalized")
    td = family.td
    for j0 in range(0, td, EVOLVE_BLOCK):
        psi = family.chain(j0, min(j0 + EVOLVE_BLOCK, td)) @ psi
    fidelities = np.abs(family.h1.eigh[1].conj().T @ psi)
    leakage = float(np.linalg.norm(fidelities[1:]))
    return EvolutionResult(final_state=psi, leakage=leakage, fidelities=fidelities)


# ---------------------------------------------------------------------------
# ideal adiabatic reference

@dataclass(frozen=True)
class IdealAdiabaticFamily:
    """Projector-following reference evolution for one walk family.

    ``v_rotations[j]`` is the unitary part of S(j) = P(j+1)P(j) +
    Q(j+1)Q(j); the adiabatic walks are V(j) W(j) and ``adiabatic_evolution``
    their running product, which intertwines the endpoint projectors up to
    ``intertwining_residual``.  S(j) and V(j) W(j) are not kept: each
    (td, d, d) stack held here adds to the peak memory of the Volterra
    diagnostics built on top.
    """

    projectors: np.ndarray
    singular_values: np.ndarray
    v_rotations: np.ndarray
    adiabatic_evolution: np.ndarray
    intertwining_residual: float


def _running_product(ws: np.ndarray) -> np.ndarray:
    """Fresh stack of ws[n-1] @ ... @ ws[0] for n = 0..len(ws), in blocks of
    b = ceil(sqrt(len(ws))) steps: the products within every block at once,
    one batched product per position, then each block times the last
    product before it; see the ``linalg`` module docstring."""
    n = len(ws)
    d = ws.shape[-1]
    b = isqrt(n - 1) + 1 if n else 1
    out = np.empty((n + 1, d, d), dtype=complex)
    out[0] = np.eye(d)
    out[1::b] = ws[::b]
    for i in range(1, b):
        step = ws[i::b]
        np.matmul(step, out[i::b][: len(step)], out=out[i + 1::b])
    for k in range(b, n, b):
        blk = out[k + 1 : k + b + 1].reshape(-1, d)
        blk[...] = blk @ out[k]
    return out


def ideal_adiabatic_family(track: EigenpathTrack, family: WalkFamily) -> IdealAdiabaticFamily:
    td = family.td
    if track.steps != td or track.dim != family.dim:
        raise ValueError("track does not match the family")
    d = family.dim
    eye = np.eye(d)
    # Intermediate stacks are released as soon as they are used, so that
    # the ideal family and the Volterra series stay the only large arrays.
    g = track.vectors[:, :, 0]
    p = np.einsum("ni,nj->nij", g, g.conj())  # projectors onto the ground path (path 0)
    q = eye - p
    s = p[1:] @ p[:-1] + q[1:] @ q[:-1]
    del q
    w, r = np.linalg.eigh(s @ s.conj().transpose(0, 2, 1))
    if np.min(w) < SINGULAR_FLOOR:
        j = int(np.argmin(np.min(w, axis=1)))
        raise GapCollapseError(
            f"projector overlap collapsed at step {j}: "
            f"smallest singular value {np.sqrt(max(np.min(w), 0.0)):.3e}"
        )
    v = np.einsum("nik,nk,njk->nij", r, 1.0 / np.sqrt(w), r.conj()) @ s
    del r, s
    vdev = float(unitarity_deviation(v).max())
    if not vdev <= ROTATION_UNITARITY_TOL:
        raise RuntimeError(f"polar rotation lost unitarity: deviation {vdev:.3e}")
    ua = _running_product(v @ family.block(0, td))
    residual = float(operator_norm(ua @ p[0] - p @ ua).max())
    if not residual <= INTERTWINING_TOL:
        raise RuntimeError(
            f"adiabatic evolution fails to intertwine the projectors: {residual:.3e}"
        )
    sv = np.sqrt(np.maximum(w, 0.0))
    return IdealAdiabaticFamily(
        projectors=p,
        singular_values=sv,
        v_rotations=v,
        adiabatic_evolution=ua,
        intertwining_residual=residual,
    )


# ---------------------------------------------------------------------------
# Volterra comparison series

@dataclass(frozen=True)
class VolterraDiagnostics:
    """Discrete comparison series between U and its adiabatic reference.

    ``omega[n]`` solves the exact running-sum recursion Omega(n) =
    I - (1/td) sum_{m<n} K(m) Omega(m), with kernel K(n) = td (I - Theta(n))
    and Theta(n) = U_A(n+1)^dag V(n)^dag U_A(n+1), and equals U_A(n)^dag U(n)
    to roundoff.  Its differences give Omega(n+1) = Theta(n) Omega(n), so
    ``omega`` is the running product of the Theta(n), taken once the series
    have used the kernel, which is turned back into Theta in place.
    ``omega_terms[j]`` is the j-th iterate of the recursion started from the
    identity.  The off-diagonal profiles take the initial-frame block
    Q(0) X P(0) of each operator.
    """

    omega: np.ndarray
    omega_terms: np.ndarray
    off_diag_omega: np.ndarray
    off_diag_terms: np.ndarray
    residual_identity: float


def _offdiag_profile(x: np.ndarray, p0: np.ndarray, q0: np.ndarray) -> np.ndarray:
    """||Q0 X P0|| for every X of an (n, d, d) stack.  P0 = v v^dag has
    rank 1, so Q0 X P0 = (Q0 X v) v^dag has one nonzero singular value, the
    vector norm |Q0 X v|."""
    n, d, _ = x.shape
    v = np.linalg.eigh(p0)[1][:, -1]
    return np.linalg.norm((x.reshape(-1, d) @ v).reshape(n, d) @ q0.T, axis=1)


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

    ua = ideal.adiabatic_evolution
    ua1 = ua[1:]
    kernel = td * (
        eye - ua1.conj().transpose(0, 2, 1) @ ideal.v_rotations.conj().transpose(0, 2, 1) @ ua1
    )

    terms = np.empty((j_max + 1, td + 1, d, d), dtype=complex)
    terms[0] = eye
    for j in range(1, j_max + 1):
        csum = kernel @ terms[j - 1, :-1]  # summed, scaled and subtracted in place
        np.cumsum(csum, axis=0, out=csum)
        csum /= td
        terms[j, 0] = eye
        np.subtract(eye, csum, out=terms[j, 1:])
        del csum
    kernel /= -td
    kernel += eye  # now Theta(n) = I - K(n)/td
    omega = _running_product(kernel)
    del kernel

    check = ua.conj().transpose(0, 2, 1) @ _running_product(family.block(0, td))
    residual = float(operator_norm(np.subtract(omega, check, out=check)).max())
    del check
    if not residual <= SERIES_IDENTITY_TOL:
        raise RuntimeError(f"comparison recursion drifted from U_A^dag U: {residual:.3e}")
    unit_dev = float(unitarity_deviation(omega).max())
    if not unit_dev <= SERIES_IDENTITY_TOL:
        raise RuntimeError(f"comparison operator lost unitarity: {unit_dev:.3e}")

    p0 = ideal.projectors[0]
    q0 = eye - p0
    off_omega = _offdiag_profile(omega, p0, q0)
    off_terms = np.stack([_offdiag_profile(terms[j], p0, q0) for j in range(j_max + 1)])
    return VolterraDiagnostics(
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


def _offdiag_endpoints(H0, H1, sched, td: int):
    """First-iterate off-diagonal profile and the last off-diagonal of the
    full comparison operator, exp walks at h = 1 over td steps.  Nothing
    of one step count outlives its call, and the track is released before
    the comparison series is built, which keeps peak memory down."""
    fam = build_walk_family(H0, H1, sched, EXP_INTEGRATOR, 1.0, td)
    ideal = ideal_adiabatic_family(track_eigenpaths(fam), fam)
    diag = volterra_diagnostics(ideal, fam, j_max=1)
    return diag.off_diag_terms[1], float(diag.off_diag_omega[-1])


def boundary_vs_interior_scaling(H0, H1, td_list, schedule) -> ScalingReport:
    """Measure the td-scaling of interior and boundary error generation.

    Uses exp walks at h = 1 along ``schedule`` for each td in ``td_list``,
    with the comparison series cut at j_max = 1, all the metrics read.  A
    schedule with vanishing endpoint derivatives sends the boundary metrics
    down superpolynomially while the interior metric keeps a roughly 1/td
    decay; a linear schedule keeps the boundary at 1/td as a control.
    """
    tds = tuple(int(t) for t in td_list)
    if len(set(tds)) < max(len(tds), 2) or any(t < 2 for t in tds):
        raise ValueError("need at least two step counts, distinct and each at least 2")
    interior = np.empty(len(tds))
    b_term1 = np.empty(len(tds))
    b_full = np.empty(len(tds))
    for i, td in enumerate(tds):
        term1, b_full[i] = _offdiag_endpoints(H0, H1, schedule, td)
        interior[i] = float(term1.max())
        b_term1[i] = float(term1[-1])
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
