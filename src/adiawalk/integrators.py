"""One-step propagators for interpolating Hamiltonians.

Given H(s) = (1 - f(s)) H0 + f(s) H1 and a step size h, a walk operator
is either ``exp``, W = exp(-i h H(s)), or a product formula: an ordered
product of factors exp(-i h w g_k H_k), one endpoint operator each, with
weight w and g_0 = 1 - f, g_1 = f (Childs, Su, Tran, Wiebe and Zhu,
PRX 11, 011020 (2021)).  The seven methods are built once, in the table
``INTEGRATORS`` keyed by tag, one tag per factor list and offset; each is
its list of (operator, weight) factors (none for ``exp``) plus the
offset, 0 or 1/2 of a step, at which it reads the schedule, and the
splitting order that the step-size rules use:

* ``pf1``: exp(-i h f H1) exp(-i h (1-f) H0), offset 0,
* ``pf2``: the Strang splitting exp(-i h (1-f) H0 / 2) exp(-i h f H1)
  exp(-i h (1-f) H0 / 2) at the step midpoint; ``pf2-simplified`` is
  the same list at offset 0,
* ``spf4``, ``spf6``, ``spf8``: the Trotter-Suzuki fractal recursion on
  the Strang list with adjacent factors of one operator merged, offset 0.

Every product-formula walk and chain comes from one loop over a factor
list, ``_factor_products``.  Each factor is a phase vector D_i in its
operator's eigenbasis (``HermitianOperator.eigh``, computed once), so a
walk is W = V_a D_1 X D_2 X' ... D_m V_b^dag, with a and b the first and
last factors' operators and X, X' the fixed links C = V1^dag V0 and
C^dag.  The loop multiplies the factor lists of k consecutive steps, the
first step's last factor first, on a (d, d, n/k) array whose last axis
runs over the groups, from V_b^dag: each factor scales the rows by its
phases, read at its own step's schedule value, after one (d, d) @
(d, d n/k) GEMM by a link wherever the operator changes (at the seam of
two pf2 or spf4-8 steps it only scales), and one GEMM by V_a ends it.
So it returns the walk products P_i = W_{ik+k-1} ... W_{ik} as a
steps-last stack (see ``linalg``).  Every phase is exp(-i x) from
``_phases``.

* ``_walk_stack`` is the loop at k = 1: the walks at n schedule values,
  so a block's unitarity check and chain product run along the step axis.
  ``walk_operator``, ``WalkFamily.block``, the reference propagator and
  the toy-model gap table call it; a single walk is bitwise the same step
  of a family block.  ``exp`` walks diagonalize every H(f) instead, in
  ``hamiltonian_bands``, the only code that assembles and diagonalizes
  H(s).  Only a family applies the offset, so ``walk_operator``'s pf2
  walk equals its pf2-simplified walk.
* ``WalkFamily.chain``, which ``evolve`` calls, groups k steps per
  product.  A larger k costs k m passes of the loop for a list of m
  factors (and pf1 one more GEMM per seam); a smaller one leaves more
  products to check and reduce.  ``_group_size`` takes the minimum of
  that cost, k = sqrt(n / (``CHAIN_GROUP_SCALE`` m)) as calibrated by
  ``scripts/kernel_timings.py``, at most ``CHAIN_GROUP`` = 16.  The chain
  is ``chain_product`` of the P_i of whole groups, n/k matrices, not n;
  the n mod k < k steps left over are multiplied after it as the product
  of their ``block``, as a k = 1 chain is.

A grouped chain's three checks bound every step of its groups without a
Gram check per step: the modulus of every phase within delta =
``WALK_UNITARITY_TOL`` / (2m) of 1 (the loop checks them at k > 1); the
link C, once per ``chain`` call; and the Gram check of every P_i, all at
``WALK_UNITARITY_TOL``.  The steps left over are walks of a ``block``,
so each is Gram-checked, as ``walk_operator``'s and the gap table's are
(by ``spectral.lowest_phase_gap``); the reference propagator's go
unchecked.  The bound behind the
three: X = A B has X^dag X - I = B^dag (A^dag A - I) B + (B^dag B - I),
so to first order the 2-norm deviations from unitary of a product's
factors add.  A diagonal of phases within delta of the unit circle
deviates by at most 2 delta + delta^2, and the part S_j of P_i that is
step j has m diagonals and at most m links, so

    ||S_j^dag S_j - I|| <= m (2 delta + delta^2) + m eps_C + rho
                        ~= WALK_UNITARITY_TOL + m eps_C + rho,

with eps_C the link's deviation (below 1e-15 on the models here) and rho
the rounding of the m products, O(m d eps); V_a and V_b^dag, once per
product, add about 1e-15.  The Gram check of P_i reads any one step's
deviation unchanged, since the factors around it are unitary:
P_i = A S_j B with A and B unitary has P_i^dag P_i - I =
B^dag (S_j^dag S_j - I) B.  A long evolution's norm drift is rho summed
over its steps, about 1e-16 per factor, plus the deviation of V_b^dag V_a
at each seam of two products (4.0e-11 over 65,536 pf2 steps, 3.7e-11
with I at the seams).

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
    WALK_UNITARITY_TOL,
    HermitianOperator,
    chain_product,
    operator_norm,
    steps_last_stack,
    unitarity_deviation,
)
from .schedules import Schedule, _integer, schedule_values

COEFFICIENT_SUM_TOL = 1e-12
GAPLESS_TOL = 1e-12  # a measured minimal gap at or below this is roundoff: no gap
ORACLE_TOL = 1e-12  # accepted difference of consecutive Romberg diagonal entries
ORACLE_MAX_SUBSTEPS = 2 ** 14  # one Romberg row holds this many substeps
ORACLE_ROUNDOFF = 1e-10  # accepted oracle difference once roundoff dominates
PF1_FACTORS = ((1, 1.0), (0, 1.0))  # exp(-i h f H1) exp(-i h (1-f) H0)
PHASES_COS_SIN_MIN = 256  # phase arrays from this size on take cos and sin (``_phases``)
CHAIN_GROUP = 16  # most steps per product in a product formula's ``WalkFamily.chain``
CHAIN_GROUP_SCALE = 20  # a chain of n steps of m factors groups sqrt(n / (20 m)) steps

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
    reads the schedule.  The seven methods are the values of
    ``INTEGRATORS``; look one up with ``parse_integrator_tag``.  A k = 1
    chain (``WalkFamily.chain``) is the product of its ``block``."""

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
    m0, m1 = (op.matrix for op in _endpoints(H0, H1))
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


def _links(h0, h1) -> tuple:
    """The endpoint eigendecompositions and the links into the H0 and into
    the H1 eigenbasis, C^dag = V0^dag V1 and C = V1^dag V0."""
    ends = (h0.eigh, h1.eigh)
    c = ends[1][1].conj().T @ ends[0][1]
    return ends, (c.conj().T, c)


def _factor_products(h0, h1, kind: IntegratorKind, h: float, f: np.ndarray, k: int):
    """Walk products W_{ik+k-1} ... W_{ik} of k steps of a product formula,
    one step per value in ``f`` (len(f) a multiple of k), as a steps-last
    (len(f)/k, d, d) stack, and the largest deviation of a phase modulus
    from 1 (None at k = 1, which checks no phase); see the module
    docstring.  ``h0`` and ``h1`` are HermitianOperators (``_endpoints``).
    """
    d, a, b = h0.dim, kind.factors[0][0], kind.factors[-1][0]
    ends, links = _links(h0, h1)
    start = np.ascontiguousarray(ends[b][1].conj().T)[:, :, None]  # V_b^dag
    n = len(f) // k
    # the product lives in one of two (d, d n/k) buffers; each GEMM writes the other
    acc, spare = np.empty((d, d * n), dtype=complex), np.empty((d, d * n), dtype=complex)
    x = np.empty((d, n))  # phase arguments
    mods, dev = np.empty(x.shape) if k > 1 else None, 0.0
    basis, first = b, True  # the first factor scales ``start``, broadcast over the groups
    for t in range(k):  # one step of every group
        g1 = np.ascontiguousarray(f[t::k])
        g = (1.0 - g1, g1)
        for op, w in kind.factors[::-1]:  # in the order they act
            np.multiply(ends[op][0][:, None], g[op], out=x)
            x *= h * w
            ph = _phases(x)
            if mods is not None:  # np.maximum keeps a NaN
                np.abs(ph, out=mods)
                dev = np.maximum(dev, np.maximum(mods.max() - 1.0, 1.0 - mods.min()))
            if op != basis:
                np.matmul(links[op], acc, out=spare)
                acc, spare, basis = spare, acc, op
            scaled = acc.reshape(d, d, n)
            if first:
                np.multiply(start, ph[:, None, :], out=scaled)
                first = False
            else:
                scaled *= ph[:, None, :]
    np.matmul(ends[a][1], acc, out=spare)
    return steps_last_stack(spare.reshape(d, d, n)), None if mods is None else float(dev)


def _walk_stack(h0, h1, kind: IntegratorKind, h: float, f: np.ndarray):
    """Walks at step h, one per schedule value in ``f``, as a steps-last
    stack: a product formula's are its one-step products
    (``_factor_products``); ``exp`` diagonalizes every H(f) instead."""
    if not kind.factors:
        w, v = hamiltonian_bands(h0, h1, f, vectors=True)
        ws = np.einsum("nik,nk,njk->ijn", v, _phases(h * w), v.conj(), order="C")
        return steps_last_stack(ws)
    return _factor_products(h0, h1, kind, h, f, 1)[0]


def _group_size(n: int, m: int) -> int:
    """Steps per product in a chain of n steps of a list of m factors."""
    return min(CHAIN_GROUP, max(1, math.isqrt(n // (CHAIN_GROUP_SCALE * m))))


def _check_step_size(h: float) -> None:
    if not (np.isfinite(h) and h > 0):  # NaN fails
        raise ValueError(f"step size must be positive, got {h}")


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
    _check_step_size(h)
    f = schedule_values(sched, np.array([float(s)]))
    ws = _walk_stack(*_endpoints(H0, H1), kind, h, f)
    _check_unitary(ws, "walk lost unitarity")
    return ws[0].copy()  # owns its memory: a view keeps a second array header per walk


# ---------------------------------------------------------------------------
# walk families

def _check_unitary(ws: np.ndarray, message: str) -> None:
    """Raise RuntimeError unless max |W^dag W - I| <= WALK_UNITARITY_TOL (NaN fails)."""
    dev = float(unitarity_deviation(ws).max())
    if not dev <= WALK_UNITARITY_TOL:
        raise RuntimeError(f"{message}: deviation {dev:.3e}")


@dataclass
class WalkFamily:
    """Grid {W(j/T_d)} for j = 0..T_d of the walks of ``kind`` at step
    size ``h`` between the endpoints ``h0`` and ``h1`` along ``schedule``,
    built on demand in blocks (``build_walk_family`` validates the inputs).
    Step j reads the schedule at min(j/T_d + offset/T_d, 1).

    ``block(j0, j1)`` is the stack of steps j0..j1-1 and ``chain(j0, j1)``
    their product (see the module docstring), which keeps very long
    evolutions out of memory; ``walks`` builds and caches the whole stack,
    read-only, which ``block`` then slices.  Treat instances as immutable.
    """

    td: int
    h: float
    kind: IntegratorKind
    h0: HermitianOperator
    h1: HermitianOperator
    schedule: Schedule
    _walks: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.h0.dim

    def _check_range(self, j0: int, j1: int) -> None:
        if not 0 <= j0 < j1 <= self.td + 1:
            raise ValueError(f"bad block range [{j0}, {j1}) for td = {self.td}")

    def _values(self, j0: int, j1: int) -> np.ndarray:
        """Schedule values that steps j0..j1-1 read, after the range check."""
        self._check_range(j0, j1)
        s = np.arange(j0, j1) / self.td
        if self.kind.offset:
            s = np.minimum(s + self.kind.offset / self.td, 1.0)
        return schedule_values(self.schedule, s)

    def block(self, j0: int, j1: int) -> np.ndarray:
        """Walk operators at steps j0..j1-1 as an (j1-j0, dim, dim) stack,
        sliced from the cache or built and checked for unitarity."""
        if self._walks is not None:
            self._check_range(j0, j1)
            return self._walks[j0:j1]
        ws = _walk_stack(self.h0, self.h1, self.kind, self.h, self._values(j0, j1))
        _check_unitary(ws, "walk block lost unitarity")
        return ws

    def chain(self, j0: int, j1: int) -> np.ndarray:
        """The product W_{j1-1} ... W_{j0} of steps j0..j1-1: for a product
        formula, the chain of the walk products of k = ``_group_size``
        steps each, phases, link and products checked, times the product
        of ``block(tail, j1)``, the (j1 - j0) mod k steps left over; at
        k = 1 and for ``exp`` the product of ``block``.  See the module
        docstring."""
        self._check_range(j0, j1)
        m = len(self.kind.factors)
        if not m or (k := _group_size(j1 - j0, m)) == 1:
            return chain_product(self.block(j0, j1))
        _check_unitary(_links(self.h0, self.h1)[1][1], "walk link lost unitarity")
        tail = j1 - (j1 - j0) % k
        f = self._values(j0, tail)
        ps, dev = _factor_products(self.h0, self.h1, self.kind, self.h, f, k)
        if not dev <= WALK_UNITARITY_TOL / (2 * m):
            raise RuntimeError(f"walk phases lost unitarity: modulus deviation {dev:.3e}")
        _check_unitary(ps, "walk block lost unitarity")
        out = chain_product(ps)
        return out if tail == j1 else chain_product(self.block(tail, j1)) @ out

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
) -> WalkFamily:
    """Family of walk operators on the inclusive grid s = j/td, j = 0..td;
    nothing is built until ``block``, ``chain`` or ``walks`` asks.  ``td``
    is an integer (a float is a ValueError, even when integral)."""
    if (td := _integer(td, "td")) < 1:
        raise ValueError(f"need td >= 1, got {td}")
    _check_step_size(h)
    h0, h1 = _endpoints(H0, H1)
    return WalkFamily(td=td, h=float(h), kind=kind, h0=h0, h1=h1, schedule=sched)


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
    difference is below ``ORACLE_ROUNDOFF``; above it the table is taken
    to be pre-asymptotic and doubling goes on.  Doubling past
    ``ORACLE_MAX_SUBSTEPS`` raises.  A window [s, s + ds] outside [0, 1],
    past the slack that ``schedule_values`` allows, is a ValueError.
    """
    _check_step_size(h)
    if not (ds >= 0 and s + ds <= 1.0 + 1e-12):  # NaN fails
        raise ValueError(f"schedule window [{s}, {s} + {ds}] does not fit in [0, 1]")
    h0, h1 = _endpoints(H0, H1)

    def chain(m: int) -> np.ndarray:
        f = schedule_values(sched, s + ds * (np.arange(m) + 0.5) / m)
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

def _nested_commutator_norm(m: tuple, gamma: tuple) -> float:
    """||[H_{gamma_p}, ..., [H_{gamma_1}, H_{gamma_0}]]|| for m = (H0, H1)."""
    term = m[gamma[0]]
    for g in gamma[1:]:
        term = m[g] @ term - term @ m[g]
    return operator_norm(term)


def nested_commutator_sum(H0, H1, p: int) -> float:
    """Sum over gamma in {0,1}^(p+1) of ||[H_{gamma_p}, ..., [H_{gamma_1}, H_{gamma_0}]]||."""
    if not 1 <= p <= 8:  # up to the largest spf order
        raise ValueError(f"supported p is 1..8, got {p}")
    m = tuple(op.matrix for op in _endpoints(H0, H1))
    total = 0.0  # a plain running sum: Python 3.12's sum() compensates float sums
    for gamma in itertools.product((0, 1), repeat=p + 1):
        total += _nested_commutator_norm(m, gamma)
    return total


def commutator_combo(H0, H1) -> float:
    """2 ||[H1, [H1, H0]]|| + ||[H0, [H0, H1]]||, the second-order width."""
    m = tuple(op.matrix for op in _endpoints(H0, H1))
    return 2.0 * _nested_commutator_norm(m, (0, 1, 1)) + _nested_commutator_norm(m, (1, 0, 0))


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
    h0, h1 = _endpoints(H0, H1)
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
    pair it with a measured gap check.  A minimal gap of at most
    ``GAPLESS_TOL`` raises GaplessError.
    """
    if consts.alpha <= 0:
        raise ValueError("alpha must be positive")
    if consts.delta_star <= GAPLESS_TOL:
        raise GaplessError(
            f"minimal Hamiltonian gap {consts.delta_star:.3e} is at most GAPLESS_TOL;"
            " no step-size rule applies"
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
