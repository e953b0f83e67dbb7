"""Dense linear algebra for small complex operators.

Eigendecompositions of unitaries, operator norms, and arc geometry on the
unit circle.  Everything works on dense square matrices (dimension up to
a few dozen) in double precision.

Normal (in practice unitary) matrices are diagonalized by one batched
kernel over an (n, d, d) stack: ``np.linalg.eig``, Loewdin
re-orthonormalization V (V^dag V)^(-1/2) of its eigenvectors (it repairs
the non-orthogonal vectors eig returns inside a degenerate eigenspace),
and eigenvalues diag(V^dag W V).  An orthonormality and a reconstruction
check then raise ``EigensolverError`` naming the first failing matrix.

Stacks of n small matrices are (n, d, d) arrays.  Batched ``@`` pays
0.3-0.7 us of BLAS dispatch per matrix at d <= 6, so long stacks are
reduced along their step axis, which is fastest when that axis is the
innermost and contiguous one: a (d, d, n) array seen through its
(n, d, d) view, ``steps_last_stack``, as the walk producers build them.
``unitarity_deviation`` sums only the upper triangle of each Gram matrix,
d(d+1)/2 step-axis dot products, on either layout.  ``chain_product``
multiplies neighbour pairs by ``einsum`` on a steps-last stack of
d <= ``EINSUM_CHAIN_MAX_DIM`` and by batched ``@`` otherwise.
``operator_norm`` of a stack takes ``eigvalsh`` of the Gram matrices, not
``svd``; a rank-1 block Q X v v^dag needs only |Q X v| (the Volterra
profiles).  Prefix products (``evolution._running_product``) go in blocks
of sqrt(n) steps.  The walk phases exp(-i x), one (d, n) array per
factor, come from cos and sin written into one complex array, not from
``np.exp`` of a complex array, once they have 256 entries or more
(``integrators._phases``).  Times
in ms at n = 65,536, 4,000 for the norms and 1,601 for the prefix
products (2 cores, BLAS at 1 thread, min of 10):

    d                              2     3     4     5     6
    chain, batched @              27    29    22    44    43
    chain, einsum, steps-last      2.7   8.8  22    50    79
    chain, einsum, steps-first    25    18    43    76   115
    check, full Gram by @         41    43    49    70    83
    check, triangle, steps-last    2.7   7.0  15    30    64
    check, triangle, steps-first   3.6   8.1  20    36    65
    norm, batched svd              5.6  11    15    21    29
    norm, Gram + eigvalsh          3.7   7.5  10    16    27
    norm, rank-1 block |Q X v|     0.22  0.19  0.21  0.41  0.56
    prefix products, loop          4.0   4.0   4.9   4.7   4.7
    prefix products, blocked       0.69  0.85  0.83  1.0   1.1
    d x n phases, np.exp(-1j x)    7.4  11    15    18    20
    d x n phases, cos/sin          5.1   7.8   9.8  13    16

Walk eigenphases are reported as ``theta = -arg(lambda)``, so a walk
built as ``exp(-i h H)`` has eigenphases ``h * eig(H)`` whenever
``h * ||H|| < pi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
NORMALITY_TOL = 1e-8
EINSUM_CHAIN_MAX_DIM = 4  # largest d whose steps-last chains reduce by einsum

__all__ = [
    "HERMITICITY_TOL",
    "EigensolverError",
    "HermitianOperator",
    "normal_eig",
    "operator_norm",
    "arc_distance_angles",
    "steps_last_stack",
    "unitarity_deviation",
    "chain_product",
]


class EigensolverError(RuntimeError):
    """The dense eigensolver failed to converge or left a large residual."""


def _coerce(a) -> np.ndarray:
    """Accept a wrapper dataclass or a bare array-like, return an ndarray."""
    m = getattr(a, "matrix", a)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
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

    @cached_property
    def eigh(self) -> tuple:
        """``np.linalg.eigh`` of the matrix, computed once and shared read-only."""
        w, v = np.linalg.eigh(self.matrix)
        w.flags.writeable = v.flags.writeable = False
        return w, v


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
    _check_stack(unitarity_deviation(v), ORTHONORMALITY_TOL, "orthonormality deviation")
    recon = np.abs((v * lam[:, None, :]) @ vh - ws).max(axis=(1, 2))
    _check_stack(recon, RECONSTRUCTION_TOL, "reconstruction residual")
    return lam, v


def normal_eig(U):
    """(eigenvalues, eigenvectors as columns) of a normal (typically
    unitary) matrix, like ``np.linalg.eig``.

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
    return lam[0], v[0]


def operator_norm(A):
    """Largest singular value of one finite matrix (a float) or of each
    matrix of an (n, d, d) stack (an array, NaN for a non-finite member,
    where ``eigvalsh`` would raise), from the top eigenvalue of X^dag X;
    ``eigvalsh`` reads one triangle, so the Gram matrix is not symmetrized."""
    m = np.asarray(getattr(A, "matrix", A), dtype=complex)
    if m.ndim == 2:  # skips the stack's NaN bookkeeping: 17 against 24 us at d = 4
        m = _coerce(m)
        return float(np.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)[-1], 0.0)))
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    gram = m.conj().transpose(0, 2, 1) @ m
    bad = ~np.isfinite(gram).all(axis=(1, 2))
    gram[bad] = 0.0
    top = np.linalg.eigvalsh(gram)[:, -1]
    top[bad] = np.nan
    return np.sqrt(np.maximum(top, 0.0))


def _wrap_phase(x: np.ndarray) -> np.ndarray:
    """Phase x wrapped onto [-pi, pi) in place in ``x``, a temporary: the one
    formula behind every unwrap, tie break and arc distance (|result|)."""
    np.add(x, np.pi, out=x)
    np.remainder(x, 2.0 * np.pi, out=x)
    return np.subtract(x, np.pi, out=x)


def arc_distance_angles(t1, t2):
    """Wrapped distance |t1 - t2| on the circle for angle arrays, in [0, pi]."""
    return np.abs(_wrap_phase(np.subtract(t1, t2, out=np.empty(np.broadcast(t1, t2).shape))))


def steps_last_stack(t: np.ndarray) -> np.ndarray:
    """The (..., d, d) stack view of an array ``t`` laid out (d, d, ...),
    whose step axes are innermost; see the module docstring."""
    return t.transpose(*range(2, t.ndim), 0, 1)


def unitarity_deviation(ws) -> np.ndarray:
    """max |X^dag X - I| of every matrix X in a (..., d, d) stack, or of one
    matrix, from the upper triangle of the Gram matrix; NaN in X gives NaN."""
    ws = np.asarray(ws)
    d = ws.shape[-1]
    if ws.size == d * d:  # one matrix: one BLAS product beats d(d+1)/2 dots
        m = ws.reshape(d, d)
        return np.abs(m.conj().T @ m - np.eye(d)).max().reshape(ws.shape[:-2])
    x = ws.transpose(ws.ndim - 2, ws.ndim - 1, *range(ws.ndim - 2))
    dev = np.zeros(x.shape[2:])
    for i in range(d):
        xi = x[:, i].conj()
        for j in range(i, d):
            g = np.einsum("k...,k...->...", xi, x[:, j])
            if i == j:
                g -= 1.0
            np.maximum(dev, np.abs(g), out=dev)  # np.maximum keeps NaN
    return dev


def chain_product(ws: np.ndarray) -> np.ndarray:
    """Ordered product ws[n-1] @ ... @ ws[0] via pairwise batched reduction.

    The first matrix in the stack is the first applied, matching the
    left-multiplication convention of a discrete evolution.  A steps-last
    stack of d <= ``EINSUM_CHAIN_MAX_DIM`` multiplies its pairs by einsum,
    whose loops then run along the contiguous step axis; an odd last
    matrix is folded into the last pair.
    """
    ws = np.asarray(ws)
    if ws.ndim == 2:
        return ws.copy()
    if ws.ndim != 3 or ws.shape[0] == 0:
        raise ValueError(f"expected a nonempty stack of matrices, got {ws.shape}")
    by_einsum = ws.strides[0] == ws.itemsize and ws.shape[-1] <= EINSUM_CHAIN_MAX_DIM
    m = ws
    while m.shape[0] > 1:
        k = m.shape[0]
        odd, even = m[1 : k - k % 2 : 2], m[: k - k % 2 : 2]
        paired = np.einsum("nij,njk->nik", odd, even) if by_einsum else odd @ even
        if k % 2:
            paired[-1] = m[-1] @ paired[-1]
        m = paired
    return m[0].copy()  # a one-matrix stack never entered the loop: m is ws
