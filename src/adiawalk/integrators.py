"""One-step propagators for interpolating Hamiltonians.

Given H(s) = (1 - f(s)) H0 + f(s) H1 and a step size h, a walk operator
is either ``exp``, W = exp(-i h H(s)), or a product formula: an ordered
product of factors exp(-i h w g_k H_k), one endpoint operator each, with
weight w and g_0 = 1 - f, g_1 = f (Childs, Su, Tran, Wiebe and Zhu,
PRX 11, 011020 (2021)).  The nine methods are built once, in the table
``INTEGRATORS`` keyed by tag; each is its list of (operator, weight)
factors plus the offset, 0 or 1/2 of a step, at which it reads the
schedule, and the splitting order that the step-size rules use:

* ``pf1`` and ``spf1``: exp(-i h f H1) exp(-i h (1-f) H0), offset 0,
* ``pf2``: the Strang splitting exp(-i h (1-f) H0 / 2) exp(-i h f H1)
  exp(-i h (1-f) H0 / 2) at the step midpoint; ``pf2-simplified`` and
  ``spf2`` are the same list at offset 0,
* ``spf4``, ``spf6``, ``spf8``: the Trotter-Suzuki fractal recursion on
  the Strang list with adjacent factors of one operator merged, offset 0.

One private kernel, ``_walk_stack``, builds every walk from the two
endpoint operators, a factor list and a vector of schedule values;
``walk_operator``, ``WalkFamily``, the reference propagator and the
toy-model gap table all call it.  Only a family applies the offset:
``walk_operator`` reads the schedule at its s for every kind, so its pf2
walk equals its pf2-simplified walk.  Each factor is a phase vector D_i
in its operator's eigenbasis, so a walk is V_a D_1 X D_2 X' ... D_k
V_b^dag, built from the right, with X, X' alternating between the fixed
links C = V1^dag V0 and C^dag: phase scalings and left multiplications
by constant matrices only.  The eigenbases are each
``HermitianOperator``'s own ``eigh``, computed once on first use; ``exp``
walks never read them.  Its stacks are steps-last (see ``linalg``): each
left multiplication is one GEMM whose output columns run over the steps,
so the unitarity check of a lazily built block and its chain product run
along the step axis.  A single walk is a GEMM of the same shape over one
step, and comes out bitwise equal to the same step inside a family block.
Every phase, of either kind, is exp(-i x) from ``_phases``, which writes
cos and sin into one complex array.  ``hamiltonian_bands`` is the only
code that assembles and diagonalizes H(s).

Long products (``WalkFamily.chain``, which ``evolve`` calls) go in the
first factor's eigenbasis: W_j = V_a M_j V_a^dag, so a block's product is
V_a (M_{j1-1} ... M_{j0}) V_a^dag, neighbouring steps' V_a^dag V_a
cancel, and M_j is built like W_j but from V_b^dag V_a and without the
last product by V_a.  That takes a pf1 step from 2 GEMMs to 1 and a pf2
step from 3 to 2.  The unitarity check runs on every M_j at the same
``WALK_UNITARITY_TOL``: V_a is unitary to about 1e-15, so M_j's 2-norm
deviation from unitary is W_j's, and its largest entry deviation is
within a factor d of W_j's.

This module also computes the Hamiltonian-dependent constants (operator
norms, nested commutator sums, minimal gaps) that feed the recommended
step-size formulas, and provides a reference propagator, Romberg
extrapolated over midpoint Strang substeps, for local-truncation-error
measurements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    HermitianOperator,
    chain_product,
    operator_norm,
    steps_last_stack,
    unitarity_deviation,
)
from .schedules import Schedule, schedule_values

COEFFICIENT_SUM_TOL = 1e-12
WALK_UNITARITY_TOL = 1e-10
MATERIALIZE_LIMIT = 2 ** 22  # complex entries held by an eager family
ORACLE_TOL = 1e-12  # accepted difference of consecutive Romberg diagonal entries
ORACLE_MAX_SUBSTEPS = 2 ** 14  # one Romberg row holds this many substeps
ORACLE_ROUNDOFF = 1e-10  # accepted oracle difference once roundoff dominates
PF1_FACTORS = ((1, 1.0), (0, 1.0))  # exp(-i h f H1) exp(-i h (1-f) H0)
PHASES_COS_SIN_MIN = 256  # phase arrays from this size on take cos and sin (``_phases``)

__all__ = [
    "GaplessError",
    "IntegratorKind",
    "EXP_INTEGRATOR",
    "PF1",
    "PF2",
    "PF2_SIMPLIFIED",
    "INTEGRATORS",
    "parse_integrator_tag",
    "suzuki_coefficients",
    "hamiltonian_bands",
    "walk_operator",
    "WalkFamily",
    "build_walk_family",
    "walk_family_from_operators",
    "exact_step_propagator",
    "nested_commutator_sum",
    "commutator_combo",
    "ProblemConstants",
    "problem_constants",
    "recommended_step_size",
]


class GaplessError(RuntimeError):
    """Step-size selection requested for an interpolation with no gap."""


@dataclass(frozen=True)
class IntegratorKind:
    """Discretization method: its tag, the splitting order the step-size
    rules use, its ordered (operator, weight) factors, leftmost first and
    empty for ``exp``, and the fraction of a step after s at which it
    reads the schedule.  The nine methods are the values of
    ``INTEGRATORS``; look one up with ``parse_integrator_tag``."""

    tag: str
    effective_order: int
    factors: tuple = ()
    offset: float = 0.0


def suzuki_coefficients(order: int) -> tuple:
    """Fractal Trotter-Suzuki factors for even orders 2, 4, 6, 8.

    S_2 is the Strang list ((H0, 1/2), (H1, 1), (H0, 1/2)) and
    S_{2k}(h) = S_{2k-2}(u_k h)^2 S_{2k-2}((1-4u_k) h) S_{2k-2}(u_k h)^2
    with u_k = 1 / (4 - 4^{1/(2k-1)}); adjacent exponentials of the same
    operator are merged.  Returns the ordered (operator, weight) factors,
    operator 0 for H0 and 1 for H1 and weights in units of h.  They
    alternate between the operators, start and end with H0, and each
    operator's weights sum to 1.
    """
    if order not in (2, 4, 6, 8):
        raise ValueError(f"supported orders are 2, 4, 6, 8, got {order}")
    seq = [(0, 0.5), (1, 1.0), (0, 0.5)]
    current = 2
    while current < order:
        current += 2
        uk = 1.0 / (4.0 - 4.0 ** (1.0 / (current - 1.0)))
        scaled = []
        for factor in (uk, uk, 1.0 - 4.0 * uk, uk, uk):
            scaled.extend((op, w * factor) for op, w in seq)
        merged = []
        for op, w in scaled:
            if merged and merged[-1][0] == op:
                merged[-1] = (op, merged[-1][1] + w)
            else:
                merged.append((op, w))
        seq = merged
    if any(op != i % 2 for i, (op, _) in enumerate(seq)) or seq[-1][0] != 0:
        raise RuntimeError("splitting sequence lost its H0/H1 alternation")
    for op in (0, 1):
        total = sum(w for o, w in seq if o == op)
        if abs(total - 1.0) > COEFFICIENT_SUM_TOL:
            raise RuntimeError(f"weights of H{op} sum to {total!r}, not 1")
    return tuple(seq)


EXP_INTEGRATOR = IntegratorKind("exp", 1)
PF1 = IntegratorKind("pf1", 1, PF1_FACTORS)
PF2 = IntegratorKind("pf2", 2, suzuki_coefficients(2), offset=0.5)
PF2_SIMPLIFIED = IntegratorKind("pf2-simplified", 2, PF2.factors)
INTEGRATORS = {k.tag: k for k in (
    EXP_INTEGRATOR, PF1, PF2, PF2_SIMPLIFIED,
    IntegratorKind("spf1", 1, PF1_FACTORS),
    IntegratorKind("spf2", 2, PF2.factors),
    *(IntegratorKind(f"spf{p}", p, suzuki_coefficients(p)) for p in (4, 6, 8)),
)}


def parse_integrator_tag(tag: str) -> IntegratorKind:
    if tag not in INTEGRATORS:
        raise ValueError(f"bad integrator tag {tag!r}; valid: {sorted(INTEGRATORS)}")
    return INTEGRATORS[tag]


# ---------------------------------------------------------------------------
# the walk kernel

def _operator(H) -> HermitianOperator:
    """H as a HermitianOperator, validated unless it is one already."""
    return H if isinstance(H, HermitianOperator) else HermitianOperator(H)


def _endpoints(H0, H1) -> tuple:
    """H0 and H1 as HermitianOperators, checked to share one dimension."""
    h0, h1 = _operator(H0), _operator(H1)
    if h0.dim != h1.dim:
        raise ValueError(f"dimension mismatch: {h0.dim} vs {h1.dim}")
    return h0, h1


def hamiltonian_bands(H0, H1, f, *, vectors: bool = False):
    """Ascending eigenvalues of H = (1 - f) H0 + f H1 for every schedule
    value in ``f`` (a scalar or an array; the bands follow on a last
    axis).  With ``vectors`` the eigenvectors come too, as from eigh."""
    f = np.asarray(f, dtype=float)
    m0, m1 = _operator(H0).matrix, _operator(H1).matrix
    hs = (1.0 - f)[..., None, None] * m0 + f[..., None, None] * m1
    return np.linalg.eigh(hs) if vectors else np.linalg.eigvalsh(hs)


def _phases(x: np.ndarray) -> np.ndarray:
    """exp(-i x) for a real array x.  From ``PHASES_COS_SIN_MIN`` entries
    on, cos and sin are written into the real and imaginary views of one
    complex array, about 30% faster than ``np.exp(-1j * x)`` at the size
    of a walk block (see the ``linalg`` timing table); below it, the two
    calls of ``np.exp(-1j * x)`` cost less than the four of that path.
    The two paths agreed bitwise on the machine of that table."""
    if x.size < PHASES_COS_SIN_MIN:
        return np.exp(-1j * x)
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def _walk_stack(h0, h1, kind: IntegratorKind, h: float, f: np.ndarray, *, frame: bool = False):
    """Walks at step h, one per schedule value in ``f``, as a steps-last stack.

    ``h0`` and ``h1`` are HermitianOperators (see ``_endpoints``); only a
    product formula reads their ``eigh``.  It is built from its last factor
    leftwards: D_k V_b^dag, the rows of V_b^dag scaled by the phases
    exp(-i h w g(f) lambda), is left-multiplied by the link into each
    earlier factor's basis, C^dag = V0^dag V1 for an H0 factor or
    C = V1^dag V0 for an H1 factor, and its rows are scaled in place; a
    last product by V_a leaves the first factor's basis.  Only the phases
    vary with f, so each product is one (d, d) @ (d, d n) GEMM by a
    constant matrix, never a batched product of two varying stacks.
    ``exp`` diagonalizes every H(f) instead.

    With ``frame`` a product formula returns (V_a, M) with
    M_j = V_a^dag W_j V_a: the build starts from V_b^dag V_a, the link
    ``links[b]`` or the identity when the list starts and ends on one
    operator, and the last product by V_a is left out.
    """
    if not kind.factors:
        w, v = hamiltonian_bands(h0, h1, f, vectors=True)
        ws = np.einsum("nik,nk,njk->ijn", v, _phases(h * w), v.conj(), order="C")
        return steps_last_stack(ws)
    d, ends = h0.dim, (h0.eigh, h1.eigh)
    c = ends[1][1].conj().T @ ends[0][1]  # C = V1^dag V0
    links = (c.conj().T, c)  # into the H0 and into the H1 eigenbasis
    a, b = kind.factors[0][0], kind.factors[-1][0]
    if frame:
        start = links[b] if a != b else np.eye(d)
    else:
        start = ends[b][1].conj().T
    acc = None
    for op, weight in reversed(kind.factors):
        ph = _phases(h * weight * np.outer(ends[op][0], f if op else 1.0 - f))[:, None, :]
        if acc is None:
            acc = np.ascontiguousarray(start)[:, :, None] * ph  # C order: reshapes are views
        else:
            acc = (links[op] @ acc.reshape(d, -1)).reshape(acc.shape)
            acc *= ph
    if frame:
        return ends[a][1], steps_last_stack(acc)
    return steps_last_stack((ends[a][1] @ acc.reshape(d, -1)).reshape(acc.shape))


def walk_operator(
    H0,
    H1,
    sched: Schedule,
    kind: IntegratorKind,
    h: float,
    s: float,
) -> np.ndarray:
    """One walk operator at step size h with the schedule read at s: the
    walk kernel at one point, checked for unitarity as a family block is.
    Step j of a family is this walk at its read point
    s = min(j/T_d + offset/T_d, 1).
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step size must be positive, got {h}")
    f = schedule_values(sched, np.array([float(s)]))
    ws = _walk_stack(*_endpoints(H0, H1), kind, h, f)
    _check_unitary(ws, RuntimeError, "walk lost unitarity")
    return ws[0].copy()  # owns its memory: a view keeps a second array header per walk


# ---------------------------------------------------------------------------
# walk families

def _check_unitary(ws: np.ndarray, error: type, message: str) -> None:
    """Raise ``error`` unless max |W^dag W - I| <= WALK_UNITARITY_TOL (NaN fails)."""
    dev = float(unitarity_deviation(ws).max())
    if not dev <= WALK_UNITARITY_TOL:
        raise error(f"{message}: deviation {dev:.3e}")


@dataclass
class WalkFamily:
    """Grid {W(j/T_d)} for j = 0..T_d, possibly built lazily in blocks.
    Step j reads the schedule at min(j/T_d + offset/T_d, 1).

    ``walks`` materializes the whole stack, read-only; ``block(j0, j1)``
    builds the sub-stack for steps j0..j1-1 and ``chain(j0, j1)`` their
    product, which keeps very long evolutions out of memory.  Treat
    instances as immutable.
    """

    td: int
    h: float
    dim: int
    kind: IntegratorKind | None = None
    h0: HermitianOperator | None = None
    h1: HermitianOperator | None = None
    schedule: Schedule | None = None
    _walks: np.ndarray | None = field(default=None, repr=False)

    def _stack(self, j0: int, j1: int, frame: bool) -> tuple:
        """Steps j0..j1-1 as (None, walks), from the cache or built and
        checked for unitarity; with ``frame`` a lazy product formula comes
        as (V_a, M), W_j = V_a M_j V_a^dag, and the check runs on M."""
        if not 0 <= j0 < j1 <= self.td + 1:
            raise ValueError(f"bad block range [{j0}, {j1}) for td = {self.td}")
        if self._walks is not None:
            return None, self._walks[j0:j1]
        s = np.arange(j0, j1) / self.td
        if self.kind.offset:
            s = np.minimum(s + self.kind.offset / self.td, 1.0)
        f = schedule_values(self.schedule, s)
        if frame and self.kind.factors:
            va, ws = _walk_stack(self.h0, self.h1, self.kind, self.h, f, frame=True)
        else:
            va, ws = None, _walk_stack(self.h0, self.h1, self.kind, self.h, f)
        _check_unitary(ws, RuntimeError, "walk block lost unitarity")
        return va, ws

    def block(self, j0: int, j1: int) -> np.ndarray:
        """Walk operators at steps j0..j1-1 as an (j1-j0, dim, dim) stack."""
        return self._stack(j0, j1, frame=False)[1]

    def chain(self, j0: int, j1: int) -> np.ndarray:
        """The product W_{j1-1} ... W_{j0} of steps j0..j1-1.  A lazy
        product formula multiplies its steps in the first factor's
        eigenbasis, V_a (M_{j1-1} ... M_{j0}) V_a^dag, where neighbouring
        steps' V_a^dag V_a cancel; see the module docstring."""
        va, ws = self._stack(j0, j1, frame=True)
        prod = chain_product(ws)
        return prod if va is None else va @ prod @ va.conj().T

    def walk(self, j: int) -> np.ndarray:
        return self.block(j, j + 1)[0]

    @property
    def walks(self) -> np.ndarray:
        if self._walks is None:
            self._walks = self.block(0, self.td + 1)
            self._walks.flags.writeable = False
        return self._walks


def build_walk_family(
    H0,
    H1,
    sched: Schedule,
    kind: IntegratorKind,
    h: float,
    td: int,
    *,
    materialize: bool | None = None,
) -> WalkFamily:
    """Family of walk operators on the inclusive grid s = j/td, j = 0..td."""
    if td < 1:
        raise ValueError(f"need td >= 1, got {td}")
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step size must be positive, got {h}")
    h0, h1 = _endpoints(H0, H1)
    fam = WalkFamily(td=td, h=float(h), dim=h0.dim, kind=kind, h0=h0, h1=h1, schedule=sched)
    if materialize is None:
        materialize = (td + 1) * h0.dim * h0.dim <= MATERIALIZE_LIMIT
    if materialize:
        fam.walks  # noqa: B018  (builds and caches the full stack)
    return fam


def walk_family_from_operators(walks, h: float = 1.0) -> WalkFamily:
    """Wrap an explicit stack of unitaries (step j at index j) as a family.
    The family holds a read-only copy, so later writes to ``walks`` do not
    reach it past its unitarity check."""
    ws = np.array(walks, dtype=complex, order="K")
    ws.flags.writeable = False
    if ws.ndim != 3 or ws.shape[1] != ws.shape[2] or ws.shape[0] < 2:
        raise ValueError(f"expected a stack of at least 2 square matrices, got {ws.shape}")
    _check_unitary(ws, ValueError, "entry not unitary")
    return WalkFamily(td=ws.shape[0] - 1, h=float(h), dim=ws.shape[1], _walks=ws)


# ---------------------------------------------------------------------------
# reference propagator

def exact_step_propagator(
    H0,
    H1,
    sched: Schedule,
    h: float,
    s: float,
    ds: float,
) -> np.ndarray:
    """Time-ordered propagator over schedule window [s, s+ds], duration h.

    Midpoint Strang substeps are a symmetric method, so the m-substep
    chain's error expands in even powers of 1/m (Hairer, Lubich and
    Wanner, Geometric Numerical Integration, ch. II).  Row k of a Romberg
    table holds the chain at m = 2^k and
    R[k][j] = R[k][j-1] + (R[k][j-1] - R[k-1][j-1]) / (4^j - 1) cancels
    one even power per column.  The first diagonal entry within
    ``ORACLE_TOL`` of the previous one is returned.  Roundoff grows
    linearly in m, so the diagonal differences reach a floor and then
    grow: once they stop shrinking, the previous entry is returned if its
    difference is below
    ``ORACLE_ROUNDOFF``; above it the table is taken to be pre-asymptotic
    and doubling goes on.  Doubling past ``ORACLE_MAX_SUBSTEPS`` raises.
    """
    h0, h1 = _endpoints(H0, H1)

    def chain(m: int) -> np.ndarray:
        f = schedule_values(sched, np.minimum(s + ds * (np.arange(m) + 0.5) / m, 1.0))
        return chain_product(_walk_stack(h0, h1, PF2, h / m, f))

    row = [chain(1)]
    dprev = math.inf
    m = 2
    while m <= ORACLE_MAX_SUBSTEPS:
        cur = [chain(m)]
        for j, below in enumerate(row, start=1):
            cur.append(cur[-1] + (cur[-1] - below) / (4.0 ** j - 1.0))
        d = operator_norm(cur[-1] - row[-1])
        if d < ORACLE_TOL:
            return cur[-1]
        if d >= dprev and dprev <= ORACLE_ROUNDOFF:
            return row[-1]  # the differences reached the roundoff floor
        row = cur
        dprev = d
        m *= 2
    raise RuntimeError(
        f"Romberg table over substep doubling reached m = {m // 2} at difference "
        f"{dprev:.3e} without reaching {ORACLE_TOL:.0e}"
    )


# ---------------------------------------------------------------------------
# problem constants and step-size rules

def nested_commutator_sum(H0, H1, p: int) -> float:
    """Sum over gamma in {0,1}^(p+1) of ||[H_{gamma_p}, ..., [H_{gamma_1}, H_{gamma_0}]]||."""
    if not 1 <= p <= 8:  # up to the largest spf order
        raise ValueError(f"supported p is 1..8, got {p}")
    m = (_operator(H0).matrix, _operator(H1).matrix)
    total = 0.0
    for gamma in itertools.product((0, 1), repeat=p + 1):
        term = m[gamma[0]]
        for g in gamma[1:]:
            term = m[g] @ term - term @ m[g]
        total += operator_norm(term)
    return total


def commutator_combo(H0, H1) -> float:
    """2 ||[H1, [H1, H0]]|| + ||[H0, [H0, H1]]||, the second-order width."""
    m0, m1 = _operator(H0).matrix, _operator(H1).matrix
    c = m0 @ m1 - m1 @ m0
    c110 = m1 @ (-c) - (-c) @ m1  # [H1, [H1, H0]]
    c001 = m0 @ c - c @ m0  # [H0, [H0, H1]]
    return 2.0 * operator_norm(c110) + operator_norm(c001)


@dataclass(frozen=True)
class ProblemConstants:
    """Norm, gap, and commutator data of one interpolation problem."""

    alpha: float
    delta_star: float
    comm_combo: float
    alpha_tilde: dict
    s_star: float | None = None  # grid point of the minimal gap, when measured

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.delta_star > 2.0 * self.alpha + 1e-9:
            raise ValueError(
                f"delta_star = {self.delta_star} exceeds 2 alpha = {2 * self.alpha}"
            )
        object.__setattr__(self, "alpha_tilde", dict(self.alpha_tilde))


def problem_constants(
    H0,
    H1,
    sched: Schedule,
    *,
    grid: int = 1000,
    orders: tuple = (1, 2, 4),
) -> ProblemConstants:
    """Measure alpha, the minimal ground gap of H(s) over the grid and
    where it sits, and the commutator sums needed by the step-size rules."""
    h0, h1 = _operator(H0).matrix, _operator(H1).matrix
    alpha = operator_norm(h0) + operator_norm(h1)
    s = np.linspace(0.0, 1.0, grid + 1)
    w = hamiltonian_bands(h0, h1, schedule_values(sched, s))
    i_star = int(np.argmin(w[:, 1] - w[:, 0]))
    tilde = {int(p): nested_commutator_sum(h0, h1, int(p)) for p in orders}
    return ProblemConstants(
        alpha=alpha,
        delta_star=float(w[i_star, 1] - w[i_star, 0]),
        comm_combo=commutator_combo(h0, h1),
        alpha_tilde=tilde,
        s_star=float(s[i_star]),
    )


def recommended_step_size(consts: ProblemConstants, kind: IntegratorKind) -> float:
    """Step size from the closed-form rules, with all order constants 1.

    The returned h is a scaling recommendation, not a certified bound;
    pair it with a measured gap check.
    """
    if consts.alpha <= 0:
        raise ValueError("alpha must be positive")
    if consts.delta_star <= 0:
        raise GaplessError(
            "minimal Hamiltonian gap is nonpositive; no step-size rule applies"
        )
    base = 1.0 / consts.alpha
    if not kind.factors:
        return base
    if kind.effective_order <= 2:
        cc = consts.comm_combo
        if cc <= 0:
            return base
        return min(base, math.sqrt(95.0 * consts.delta_star / (2.0 * cc)))
    p = kind.effective_order
    if p not in consts.alpha_tilde:
        raise ValueError(f"constants lack the order-{p} commutator sum")
    at = consts.alpha_tilde[p]
    if at <= 0:
        return base
    return min(base, (consts.delta_star / at) ** (1.0 / p))
