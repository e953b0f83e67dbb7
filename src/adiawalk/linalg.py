"""Dense linear algebra for small complex operators.

Eigendecompositions, matrix exponentials and logarithms of unitaries,
operator norms, and arc geometry on the unit circle.  Everything works on
dense square matrices (dimension up to a few dozen) in double precision.

Normal (in practice unitary) matrices are diagonalized by one batched
kernel over an (n, d, d) stack: ``np.linalg.eig``, Loewdin
re-orthonormalization V (V^dag V)^(-1/2) of its eigenvectors (it repairs
the non-orthogonal vectors eig returns inside a degenerate eigenspace),
and eigenvalues diag(V^dag W V).  An orthonormality and a reconstruction
check then raise ``EigensolverError`` naming the first failing matrix.

Phase conventions used throughout the package:

* ``logm_unitary(U)`` returns Theta with ``U = exp(i Theta)`` and every
  eigenvalue of Theta in (-pi, pi].
* Walk eigenphases are reported as ``theta = -arg(lambda)``, so a walk
  built as ``exp(-i h H)`` has eigenphases ``h * eig(H)`` whenever
  ``h * ||H|| < pi``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
NORMALITY_TOL = 1e-8
BRANCH_CUT_TOL = 1e-12
UNIT_MODULUS_TOL = 1e-8

__all__ = [
    "HERMITICITY_TOL",
    "UNITARITY_TOL",
    "BranchCutWarning",
    "EigensolverError",
    "HermitianOperator",
    "UnitaryOperator",
    "NormalEigenDecomposition",
    "hermitian_eig",
    "normal_eig",
    "expm_i_hermitian",
    "logm_unitary",
    "operator_norm",
    "angular_distance",
    "arc_distance_angles",
    "chain_product",
]


class EigensolverError(RuntimeError):
    """The dense eigensolver failed to converge or left a large residual."""


class BranchCutWarning(UserWarning):
    """A unitary has an eigenvalue within 1e-12 of -1, on the log branch cut."""


def _coerce(a) -> np.ndarray:
    """Accept a wrapper dataclass or a bare array-like, return an ndarray."""
    m = getattr(a, "matrix", a)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class HermitianOperator:
    """Square complex matrix validated to be Hermitian at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _coerce(self.matrix).copy()
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max |A - A^dag| = {dev:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class UnitaryOperator:
    """Square complex matrix validated to be unitary at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _coerce(self.matrix).copy()
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if dev > UNITARITY_TOL:
            raise ValueError(f"not unitary: max |U^dag U - I| = {dev:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class NormalEigenDecomposition:
    """Eigenvalues plus an orthonormal set of eigenvectors (as columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=complex).copy()
        v = np.asarray(self.eigenvectors, dtype=complex).copy()
        n = w.shape[0]
        if v.shape != (n, n):
            raise ValueError(f"shape mismatch: {w.shape} values, {v.shape} vectors")
        dev = float(np.max(np.abs(v.conj().T @ v - np.eye(n))))
        if dev > ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvectors not orthonormal: deviation {dev:.3e}")
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _check_reconstruction(dec: NormalEigenDecomposition, a: np.ndarray, what: str):
    res = float(np.max(np.abs(dec.reconstruct() - a)))
    if res > RECONSTRUCTION_TOL:
        raise EigensolverError(f"{what}: reconstruction residual {res:.3e}")


def hermitian_eig(H) -> NormalEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Accepts a HermitianOperator or a bare array (validated on entry).
    """
    if isinstance(H, HermitianOperator):
        m = H.matrix
    else:
        m = HermitianOperator(H).matrix
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigh failed on dim {m.shape[0]}: {exc}") from exc
    dec = NormalEigenDecomposition(w.astype(complex), v)
    _check_reconstruction(dec, m, "hermitian_eig")
    return dec


def _check_stack(dev: np.ndarray, tol: float, what: str) -> None:
    """Raise EigensolverError at the first matrix whose ``dev`` is not <= tol (NaN fails)."""
    bad = np.flatnonzero(~(dev <= tol))
    if bad.size:
        i = int(bad[0])
        raise EigensolverError(f"normal_eig: {what} {dev[i]:.3e} at index {i}")


def _normal_eig_stack(ws: np.ndarray):
    """Eigenvalues (n, d) and orthonormal eigenvectors (n, d, d), as columns,
    of every normal matrix in the stack ``ws``; see the module docstring."""
    try:
        _, v = np.linalg.eig(ws)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eig failed on a {ws.shape} stack: {exc}") from exc
    vh = v.conj().transpose(0, 2, 1)
    g, r = np.linalg.eigh(vh @ v)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = v @ ((r / np.sqrt(g)[:, None, :]) @ r.conj().transpose(0, 2, 1))
    vh = v.conj().transpose(0, 2, 1)
    lam = np.einsum("nik,nik->nk", v.conj(), ws @ v)
    ortho = np.abs(vh @ v - np.eye(ws.shape[-1])).max(axis=(1, 2))
    _check_stack(ortho, ORTHONORMALITY_TOL, "orthonormality deviation")
    recon = np.abs((v * lam[:, None, :]) @ vh - ws).max(axis=(1, 2))
    _check_stack(recon, RECONSTRUCTION_TOL, "reconstruction residual")
    return lam, v


def normal_eig(U) -> NormalEigenDecomposition:
    """Eigendecomposition of a normal (typically unitary) matrix.

    The one-matrix case of the batched kernel: ``np.linalg.eig``, Loewdin
    re-orthonormalization of its eigenvectors, eigenvalues diag(V^dag U V),
    then the orthonormality and reconstruction checks.  Eigenvalues come
    in no particular order.
    """
    m = _coerce(U)
    scale = max(1.0, float(np.max(np.abs(m))))
    normality = float(np.max(np.abs(m @ m.conj().T - m.conj().T @ m)))
    if normality > NORMALITY_TOL * scale:
        raise ValueError(f"matrix not normal: commutator deviation {normality:.3e}")
    lam, v = _normal_eig_stack(m[None])
    return NormalEigenDecomposition(lam[0], v[0])


def expm_i_hermitian(H, scale: float = 1.0) -> UnitaryOperator:
    """exp(-i * scale * H) for Hermitian H, via eigendecomposition."""
    if not np.isfinite(scale):
        raise ValueError("scale must be finite")
    dec = hermitian_eig(H)
    v = dec.eigenvectors
    phases = np.exp(-1j * scale * dec.eigenvalues.real)
    return UnitaryOperator((v * phases) @ v.conj().T)


def logm_unitary(U) -> HermitianOperator:
    """Principal logarithm: Hermitian Theta with U = exp(i Theta).

    Every eigenvalue of Theta lies in (-pi, pi].  Emits BranchCutWarning
    when some eigenvalue of U sits within 1e-12 of -1, where the branch
    choice is numerically arbitrary.
    """
    if isinstance(U, UnitaryOperator):
        m = U.matrix
    else:
        m = UnitaryOperator(U).matrix
    dec = normal_eig(m)
    if float(np.min(np.abs(dec.eigenvalues + 1.0))) <= BRANCH_CUT_TOL:
        warnings.warn(
            "eigenvalue within 1e-12 of -1: principal log branch is arbitrary",
            BranchCutWarning,
            stacklevel=2,
        )
    theta = np.angle(dec.eigenvalues)  # in (-pi, pi], +pi side inclusive
    v = dec.eigenvectors
    out = (v * theta) @ v.conj().T
    return HermitianOperator((out + out.conj().T) / 2)


def operator_norm(A) -> float:
    """Largest singular value, computed from the Hermitian A^dag A."""
    m = _coerce(A)
    gram = m.conj().T @ m
    w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    return float(np.sqrt(max(float(w[-1]), 0.0)))


def angular_distance(z1: complex, z2: complex) -> float:
    """Arc length between two points on the unit circle, in [0, pi]."""
    z1 = complex(z1)
    z2 = complex(z2)
    for z in (z1, z2):
        if abs(abs(z) - 1.0) > UNIT_MODULUS_TOL:
            raise ValueError(f"not on the unit circle: |z| = {abs(z):.12f}")
    half_chord = min(abs(z1 - z2) / 2.0, 1.0)
    return float(2.0 * np.arcsin(half_chord))


def arc_distance_angles(t1, t2):
    """Wrapped distance |t1 - t2| on the circle for angle arrays, in [0, pi]."""
    d = np.mod(np.asarray(t1) - np.asarray(t2) + np.pi, 2 * np.pi) - np.pi
    return np.abs(d)


def chain_product(ws: np.ndarray) -> np.ndarray:
    """Ordered product ws[n-1] @ ... @ ws[0] via pairwise batched reduction.

    The first matrix in the stack is the first applied, matching the
    left-multiplication convention of a discrete evolution.
    """
    ws = np.asarray(ws)
    if ws.ndim == 2:
        return ws.copy()
    if ws.ndim != 3 or ws.shape[0] == 0:
        raise ValueError(f"expected a nonempty stack of matrices, got {ws.shape}")
    m = ws
    while m.shape[0] > 1:
        k = m.shape[0]
        even = m[: k - (k % 2)]
        paired = even[1::2] @ even[0::2]
        if k % 2:
            paired = np.concatenate([paired, m[-1:]], axis=0)
        m = paired
    return m[0]
