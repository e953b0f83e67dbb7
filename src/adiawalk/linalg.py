"""Dense linear algebra for small complex operators.

Eigendecompositions of unitaries, operator norms, and arc geometry on the
unit circle.  Everything works on dense square matrices (dimension up to
a few dozen) in double precision.

Unitary matrices are diagonalized by one batched kernel over an
(n, d, d) stack, ``_cayley_eig``, which needs only a Hermitian solver.
For unitary W and a shift z = e^{i phi} that is not an eigenvalue,
C = i (z + W)(z - W)^(-1) is Hermitian with W's eigenvectors, and its
eigenvalues mu = cot((phi - psi) / 2) fall monotonically in each
eigenphase psi.  One batched inverse Y = (I - z^* W)^(-1) gives
C = 2i Y - i I, and ``eigh`` (``eigvalsh`` for phases alone) of its
Hermitian part i (Y - Y^dag) returns orthonormal vectors, also inside a
degenerate eigenspace, where ``np.linalg.eig``'s are not.  A row keeps
its shift only if its nearest eigenvalue, read from max |mu| =
cot(rho / 2), lies at least rho_d = 0.9 pi / (d + 1) from z, and if the
anti-Hermitian part i (Y + Y^dag - I) is within ``CAYLEY_SKEW_TOL``
(1 + max mu^2): a solve on a shift within roundoff of an eigenvalue can
leave a moderate Hermitian part beside a huge anti-Hermitian one, while
a walk within ``WALK_UNITARITY_TOL`` of unitary leaves about
(1 + max mu^2) times that.  Pass 1 shifts every row to z = -1.  Pass 2
gives each rejected row z at the middle of the widest arc between its
pass-1 phases, at least 2 pi / d wide.  Rows still left go through the
fixed shifts pi + 2 pi p / (d + 1), p = 1..d; an eigenvalue blocks at
most one of the d + 1 shifts (p = 0 is pass 1's), so one of them
qualifies, and the last takes whatever rows remain.  A batched inverse
that raises (an eigenvalue exactly on a shift: diag(-1, ...) at pass 1)
is redone row by row, and a singular row moves on to its next shift, so
a row's shifts and its output depend on that row alone.
``_normal_eig_stack`` takes the vectors and the eigenvalues
diag(V^dag W V); an orthonormality and a reconstruction check then raise
``EigensolverError`` naming the first failing matrix.  ``normal_eig``
and ``spectral.lowest_phase_gap`` reject a matrix that is not unitary.
Where h * lambda wraps past pi most walks hold an eigenvalue near -1 and
take pass 2 (88% of a pf1 block of ``toymodels.four_level_pair`` at
h = 3); ``spectral.lowest_phase_gap`` is then no faster than by
``np.linalg.eigvals`` (``scripts/kernel_timings.py``).

Stacks of n small matrices are (n, d, d) arrays.  Batched ``@`` pays
0.3-0.7 us of BLAS dispatch per matrix at d <= 6, so long stacks are
reduced along their step axis, which is fastest when that axis is the
innermost and contiguous one: a (d, d, n) array seen through its
(n, d, d) view, ``steps_last_stack``, as the walk producers build them.
``unitarity_deviation`` sums only the upper triangle of each Gram matrix,
d(d+1)/2 step-axis dot products, on either layout.  ``chain_product``
multiplies neighbour pairs by ``einsum`` on a steps-last stack of
d <= ``EINSUM_CHAIN_MAX_DIM`` and by batched ``@`` otherwise.
A product formula's ``WalkFamily.chain`` hands it products of k <= 16
steps built from the constant links (``integrators._factor_products``),
so it reduces n/k matrices; at n = 65,536 (k = 16) the whole chain runs
1.5x (d = 2) to 2.7x (d = 6) faster than one step at a time.
``operator_norm`` of a stack takes ``eigvalsh`` of the Gram matrices, not
``svd``; a rank-1 block Q X v v^dag needs only |Q X v| (the Volterra
profiles).  Prefix products (``evolution._running_product``) go in blocks
of sqrt(n) steps.  The walk phases exp(-i x), one (d, n) array per
factor, come from cos and sin written into one complex array, not from
``np.exp`` of a complex array, once they have 256 entries or more
(``integrators._phases``).  Times
in ms at n = 65,536, 4,000 for the norms, 1,601 for the prefix
products and 256 for the eigensolvers (2 cores, BLAS at 1 thread, min
of 10):

    d                              2     3     4     5     6
    chain, batched @              27    29    22    44    43
    chain, einsum, steps-last      2.7   8.8  22    50    79
    chain, einsum, steps-first    25    18    43    76   115
    pf1 chain, one step at a time 13    30    58    90   119
    pf1 chain, 16-step groups      8.9  15    22    34    44
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
    vectors, eig + Loewdin         1.3   2.5   3.7   5.2   7.1
    vectors, Cayley + eigh         0.65  1.0   1.4   2.2   2.9
    phase gap, eigvals             0.33  1.0   1.6   2.5   3.3
    phase gap, Cayley + eigvalsh   0.36  0.66  0.94  1.5   2.0

The two pf1 chain rows time ``WalkFamily.chain`` over n steps of random
Hermitian pairs, phases, products and checks included: one step at a
time builds and Gram-checks every step's walk and reduces all n of
them; the 16-step groups are the chain as it was built then, its
products in the first factor's eigenbasis (each now ends with one GEMM
by V_a).  ``scripts/kernel_timings.py`` times chains of every
length against ``chain_product`` of their ``block`` at d = 4.  The
eigensolver rows take 256 pf1 walks at h = 1 of random Hermitian pairs
of norm 1, whose phases do not wrap, so every row keeps the shift of
pass 1: ``_normal_eig_stack`` as it was (``eig`` + Loewdin) and as it
is, then ``spectral.lowest_phase_gap`` by ``eigvals`` and by the kernel,
whose unitarity check costs it the d = 2 column.

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
WALK_UNITARITY_TOL = 1e-10  # max |W^dag W - I| of a walk, and of an input to the eigensolver
CAYLEY_SKEW_TOL = 1e-8  # anti-Hermitian part of a Cayley transform, per unit of 1 + mu_max^2
EINSUM_CHAIN_MAX_DIM = 4  # largest d whose steps-last chains reduce by einsum

__all__ = [
    "HERMITICITY_TOL",
    "WALK_UNITARITY_TOL",
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


def _cayley_pass(ws: np.ndarray, z: np.ndarray, vectors: bool):
    """One Cayley transform per row of ``ws`` at its shift z on the unit
    circle: the ascending eigenvalues mu of the Hermitian part of C, its
    eigenvectors (None unless ``vectors``), the rows whose solve was not
    singular, and the rows whose shift is accepted (see the module
    docstring).  Y = (I - z^* W)^(-1) gives C = 2i Y - i I, so the
    Hermitian part of C is i (Y - Y^dag) and its anti-Hermitian part
    i (Y + Y^dag - I)."""
    n, d = ws.shape[0], ws.shape[-1]
    a = ws * -z.conj()[:, None, None]
    a[:, range(d), range(d)] += 1.0
    solved = np.ones(n, dtype=bool)
    try:
        y = np.linalg.inv(a)
    except np.linalg.LinAlgError:  # some shift is an exact eigenvalue: invert row by row
        y = np.zeros_like(a)
        for i in range(n):
            try:
                y[i] = np.linalg.inv(a[i])
            except np.linalg.LinAlgError:
                solved[i] = False
    yh = y.conj().transpose(0, 2, 1)
    skew = np.abs(y + yh - np.eye(d)).max(axis=(1, 2))
    c = 1j * (y - yh)
    mu, v = np.linalg.eigh(c) if vectors else (np.linalg.eigvalsh(c), None)
    mu_max = np.maximum(-mu[:, 0], mu[:, -1])  # cot(rho / 2), rho the arc to the nearest phase
    ok = solved & (mu_max <= 1.0 / np.tan(0.45 * np.pi / (d + 1)))
    ok &= skew <= CAYLEY_SKEW_TOL * (1.0 + mu_max ** 2)
    return mu, v, solved, ok


def _cayley_eig(ws: np.ndarray, vectors: bool):
    """Eigenphases theta = -arg(lambda) in [-pi, pi), (n, d), and
    orthonormal eigenvectors (n, d, d) as columns (None unless
    ``vectors``) of every unitary in the stack ``ws``; column k of a row's
    vectors belongs to its theta[:, k].  See the module docstring.  A
    row's shifts, and so its output, depend on that row alone."""
    n, d = ws.shape[0], ws.shape[-1]
    theta = vecs = None
    rows = np.arange(n)
    phi, z = np.full(n, np.pi), np.full(n, -1.0 + 0.0j)  # pass 1 at z = -1 exactly
    stage = np.zeros(n, dtype=np.intp)  # 0 pass 1, 1 pass 2, 1 + p fallback shift p
    while True:
        mu, v, solved, ok = _cayley_pass(ws[rows], z, vectors)
        last = stage == d + 1
        if np.any(last & ~solved):
            i = int(rows[np.flatnonzero(last & ~solved)[0]])
            raise EigensolverError(f"normal_eig: singular Cayley transform at index {i}")
        ok |= last
        a = np.arctan2(1.0, mu)  # mu = cot((phi - psi) / 2): a = (phi - psi) / 2 in (0, pi)
        t = _wrap_phase(2.0 * a - phi[:, None])
        if theta is None:  # pass 1 holds every row; later passes overwrite the rejected ones
            theta, vecs = t, v
        else:
            theta[rows[ok]] = t[ok]
            if vectors:
                vecs[rows[ok]] = v[ok]
        if ok.all():
            return theta, vecs
        rows, phi, stage, a, solved = (x[~ok] for x in (rows, phi, stage, a, solved))
        # pass 2: the middle of the widest arc between the pass-1 phases,
        # a descending; the arc through z closes at a_0 - pi
        ring = np.concatenate([a, a[:, :1] - np.pi], axis=1)
        k = np.diff(ring, axis=1).argmin(axis=1)[:, None]
        mid = phi - (np.take_along_axis(ring, k, 1) + np.take_along_axis(ring, k + 1, 1))[:, 0]
        stage = np.where((stage == 0) & solved, 1, np.maximum(stage + 1, 2))
        phi = np.where(stage == 1, mid, np.pi + 2.0 * np.pi * (stage - 1) / (d + 1))
        z = np.cos(phi) + 1j * np.sin(phi)


def _normal_eig_stack(ws: np.ndarray):
    """Eigenvalues (n, d) and orthonormal eigenvectors (n, d, d), as columns,
    of every unitary in the stack ``ws``: the vectors of ``_cayley_eig``
    and the eigenvalues diag(V^dag W V); see the module docstring."""
    v = _cayley_eig(ws, True)[1]
    vh = v.conj().transpose(0, 2, 1)
    lam = np.einsum("nik,nik->nk", v.conj(), ws @ v)
    _check_stack(unitarity_deviation(v), ORTHONORMALITY_TOL, "orthonormality deviation")
    recon = np.abs((v * lam[:, None, :]) @ vh - ws).max(axis=(1, 2))
    _check_stack(recon, RECONSTRUCTION_TOL, "reconstruction residual")
    return lam, v


def normal_eig(U):
    """(eigenvalues, eigenvectors as columns) of a unitary matrix, like
    ``np.linalg.eig``.

    The one-matrix case of the batched kernel: the eigenvectors of a
    shifted Cayley transform (``_cayley_eig``), eigenvalues
    diag(V^dag U V), then the orthonormality and reconstruction checks.
    A matrix that is not normal, or not unitary within
    ``WALK_UNITARITY_TOL``, is a ValueError.  Eigenvalues come in no
    particular order.
    """
    m = _coerce(U)
    scale = max(1.0, float(np.max(np.abs(m))))
    normality = float(np.max(np.abs(m @ m.conj().T - m.conj().T @ m)))
    if normality > NORMALITY_TOL * scale:
        raise ValueError(f"matrix not normal: commutator deviation {normality:.3e}")
    dev = float(unitarity_deviation(m))
    if not dev <= WALK_UNITARITY_TOL:
        raise ValueError(f"matrix not unitary: max |U^dag U - I| = {dev:.3e}")
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
