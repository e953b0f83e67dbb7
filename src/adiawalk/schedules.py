"""Scheduling functions f: [0,1] -> [0,1].

Implemented kinds:

* ``linear``: f(s) = s.
* ``glue``: the normalized bump integral g(s) = ce^{-1} int_0^s
  exp(-1/(t(1-t))) dt, whose derivatives of every order vanish at both
  endpoints.
* ``bc-composite``: two glue functions joined symmetrically at s = 1/2,
  so all derivatives also vanish at the midpoint from both sides.
* ``grover-power``: the gap-adapted search schedule solving
  f'(s) = d_{N,p} * Delta(f)^p for the two-level search gap
  Delta(f) = sqrt((1-2f)^2 (1-mu) + mu) with mu = 1/N.  p = 1 has a
  closed form; 1 < p < 2 is tabulated by quadrature of the inverse map
  s(f) and inverted by safeguarded Newton steps from a cubic Hermite
  guess, for N up to 2^64.

All schedules satisfy f(0) = 0 and f(1) = 1 to 1e-10 and are monotone
nondecreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

GLUE_SEGMENTS = 4096
GLUE_GL_POINTS = 20
POWER_SEGMENTS = 4096
POWER_REFINE = 4
POWER_GL_POINTS = 10
POWER_CORE_FRACTION = 0.25
POWER_GRADING = 2.0
POWER_MAX_N = 2 ** 64  # the gap width 1/sqrt(N) still spans 2^21 ulp of f = 1/2
POWER_NEWTON_CAP = 48
POWER_NEWTON_ULPS = 4
ENDPOINT_TOL = 1e-10

SCHEDULE_KINDS = ("linear", "glue", "bc-composite", "grover-power")

__all__ = [
    "Schedule",
    "SCHEDULE_KINDS",
    "linear_schedule",
    "glue_schedule",
    "bc_composite_schedule",
    "build_grover_schedule",
    "schedule_values",
    "glue_constant_ce",
    "grover_d_constant",
    "grover_gap_of_f",
]


# ---------------------------------------------------------------------------
# glue function machinery

def _glue_integrand(t):
    t = np.asarray(t, dtype=float)
    u = t * (1.0 - t)
    out = np.zeros_like(u)
    pos = u > 0
    # exp(-1/u) underflows to 0 near the endpoints; that is the intended value
    out[pos] = np.exp(-1.0 / u[pos])
    return out


@lru_cache(maxsize=2)
def _gauss_rule(points: int):
    """Gauss-Legendre nodes and weights; leggauss costs 0.2-0.4 ms a call."""
    return np.polynomial.legendre.leggauss(points)


def _glue_partial(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int_a^b of the glue integrand for each pair (a, b), by one
    ``GLUE_GL_POINTS``-point Gauss-Legendre rule on [a, b]."""
    nodes, wts = _gauss_rule(GLUE_GL_POINTS)
    mids = (a + b) / 2
    halfs = (b - a) / 2
    pts = mids[:, None] + halfs[:, None] * nodes[None, :]
    return (halfs[:, None] * wts[None, :] * _glue_integrand(pts)).sum(axis=1)


@lru_cache(maxsize=1)
def _glue_table():
    edges = np.linspace(0.0, 1.0, GLUE_SEGMENTS + 1)
    cum = np.concatenate([[0.0], np.cumsum(_glue_partial(edges[:-1], edges[1:]))])
    return edges, cum, float(cum[-1])


def glue_constant_ce() -> float:
    """The normalizer ce = int_0^1 exp(-1/(s(1-s))) ds, cached."""
    return _glue_table()[2]


def _glue_cumulative(s: np.ndarray) -> np.ndarray:
    """Unnormalized int_0^s of the glue integrand, piecewise Gauss-Legendre."""
    edges, cum, _ = _glue_table()
    idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, GLUE_SEGMENTS - 1)
    return cum[idx] + _glue_partial(edges[idx], s)


# ---------------------------------------------------------------------------
# search-schedule machinery (effective two-level gap, mu = 1/N)

def grover_gap_of_f(f, mu: float):
    """Two-level search gap sqrt((1-2f)^2 (1-mu) + mu) as a function of f."""
    f = np.asarray(f, dtype=float)
    return np.sqrt((1.0 - 2.0 * f) ** 2 * (1.0 - mu) + mu)


def _d_constant_p1(n: int) -> float:
    return math.sqrt(n / (n - 1.0)) * math.log(math.sqrt(n) + math.sqrt(n - 1.0))


def _shifted_gap(u, mu: float, origin):
    """grover_gap_of_f(origin + u), computed from the offset u so that it
    keeps its relative precision near the gap minimum (origin = 1/2)."""
    g = 2.0 * u  # 2u - (1 - 2 origin) is exactly -(1 - 2f)
    g -= 1.0 - 2.0 * origin
    g *= g
    g *= 1.0 - mu
    g += mu
    return np.sqrt(g, out=g)


def _power_partial(u_lo, u_hi, mu: float, p: float, origin):
    """Gauss-Legendre integral of Delta^{-p} over f in origin + [u_lo, u_hi],
    vectorized over segments (origin broadcasts against u_lo).  The
    arithmetic runs in place: a search block evaluates 65,536 segments."""
    nodes, wts = _gauss_rule(POWER_GL_POINTS)
    halfs = (u_hi - u_lo) / 2
    pts = halfs[..., None] * nodes
    pts += ((u_lo + u_hi) / 2)[..., None]
    vals = _shifted_gap(pts, mu, np.asarray(origin)[..., None])
    del pts
    vals **= -p
    vals *= halfs[..., None] * wts
    return vals.sum(axis=-1)


def _power_core_offsets(n: int):
    """Offsets x = f - 1/2 in [0, w0] that grade the central table segment
    of width w0 when the gap width 1/sqrt(n) is smaller than w0 allows.

    Steps of at most POWER_CORE_FRACTION/sqrt(n) cover |x| < 1/sqrt(n),
    then segments grow geometrically, at most POWER_GRADING-fold, out to
    w0, so the gap's complex zeros at x = +-i/(2 sqrt(n)) stay at least
    three half-widths from the centre of every 10-point rule.  None where
    the table's own segments already resolve the gap (n <= 2^24).
    """
    w0 = 1.0 / (POWER_SEGMENTS * POWER_REFINE)
    root = 1.0 / math.sqrt(n)
    if POWER_CORE_FRACTION * root >= w0:
        return None
    inner = min(root, w0)
    xs = np.linspace(0.0, inner, math.ceil(inner / (POWER_CORE_FRACTION * root)) + 1)
    if root < w0:
        m = math.ceil(math.log(w0 / root) / math.log(POWER_GRADING))
        xs = np.concatenate([xs, root * (w0 / root) ** (np.arange(1, m + 1) / m)])
    xs[-1] = w0
    return xs


@lru_cache(maxsize=64)
def _power_table(n: int, p: float):
    """Table segments, normalized s nodes and the normalizer d for 1 < p < 2.

    The f grid has POWER_SEGMENTS uniform segments, refined 4x inside the
    window |f - 1/2| < 2/sqrt(n) where the gap minimum lives; for n > 2^24
    the central refined segments are graded further down to the gap width
    (``_power_core_offsets``).  Segment k spans f in origin[k] + [lo[k],
    hi[k]]: origin is 0, except on the graded segments, which are held as
    offsets from 1/2 because f cannot resolve them.  s(f) is the
    cumulative Gauss-Legendre integral of Delta^{-p}, normalized by its
    total, which is exactly d_{n,p}.
    """
    if n > POWER_MAX_N:
        raise ValueError(
            f"power p > 1 schedules are tabulated for N <= 2^{POWER_MAX_N.bit_length() - 1}, "
            f"got N = {n}"
        )
    mu = 1.0 / n
    window = 2.0 / math.sqrt(n)
    base = np.linspace(0.0, 1.0, POWER_SEGMENTS + 1)
    pieces = [np.array([0.0])]
    for a, b in zip(base[:-1], base[1:]):
        if b > 0.5 - window and a < 0.5 + window:
            pieces.append(np.linspace(a, b, POWER_REFINE + 1)[1:])
        else:
            pieces.append(np.array([b]))
    x = np.concatenate(pieces) - 0.5  # exact: the edges are multiples of 2^-14

    origin = np.zeros(len(x) - 1)
    core = _power_core_offsets(n)
    if core is not None:
        inner = core[1:-1]
        x = np.sort(np.concatenate([x[np.abs(x) >= core[-1]], -inner, [0.0], inner]))
        origin = np.where(np.maximum(-x[:-1], x[1:]) <= core[-1], 0.5, 0.0)
    lo = x[:-1] + (0.5 - origin)
    hi = x[1:] + (0.5 - origin)
    seg = _power_partial(lo, hi, mu, p, origin)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    d = float(cum[-1])
    s_nodes = cum / d
    s_nodes[-1] = 1.0
    return lo, hi, origin, s_nodes, d


def grover_d_constant(n: int, p: float = 1.0) -> float:
    """Normalization constant of the power-p search schedule (closed form
    at p = 1, quadrature of int_0^1 Delta(f)^{-p} df otherwise)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1.0 <= p < 2.0:
        raise ValueError(f"power p must lie in [1, 2), got {p}")
    if p == 1.0:
        return _d_constant_p1(n)
    return _power_table(int(n), float(p))[-1]


def _power_values_p1(s: np.ndarray, mu: float):
    d1 = math.asinh(math.sqrt((1.0 - mu) / mu)) / math.sqrt(1.0 - mu)
    rate = 2.0 * math.sqrt(1.0 - mu) * d1
    arg = rate * (s - 0.5)
    amp = math.sqrt(mu) / (2.0 * math.sqrt(1.0 - mu))
    return np.clip(0.5 + amp * np.sinh(arg), 0.0, 1.0)


def _hermite_guess(s, s0, s1, u0, u1, d, mu: float, p: float, origin):
    """Cubic Hermite interpolant of u(s) on [s0, s1] from the end values and
    the closed-form slopes du/ds = d Delta^p, clipped into [u0, u1]."""
    width = s1 - s0
    t = (s - s0) / width
    m0 = width * d * _shifted_gap(u0, mu, origin) ** p
    m1 = width * d * _shifted_gap(u1, mu, origin) ** p
    t2 = t * t
    u = ((2.0 * t - 3.0) * t2 + 1.0) * u0 + ((t - 2.0) * t + 1.0) * t * m0 \
        + (3.0 - 2.0 * t) * t2 * u1 + (t - 1.0) * t2 * m1
    return np.clip(u, u0, u1)


def _power_values_tabulated(s: np.ndarray, n: int, p: float):
    """Invert s(f) on the table by Newton steps on f' = d Delta(f)^p.

    Each point starts from the cubic Hermite interpolant of its table
    segment (node values and the closed-form node slopes) and solves
    _power_partial(lo, u) = (s - s_lo) d from the segment's left edge,
    the equation the table was built from.  A bracket shrinks with the
    sign of every residual, and a step that leaves it is replaced by the
    bracket midpoint.  A point stops once its update is within
    POWER_NEWTON_ULPS ulp of f; one still moving after POWER_NEWTON_CAP
    iterations raises RuntimeError.
    """
    seg_lo, seg_hi, seg_origin, s_nodes, d = _power_table(n, p)
    mu = 1.0 / n
    idx = np.clip(np.searchsorted(s_nodes, s, side="right") - 1, 0, len(s_nodes) - 2)
    base = seg_lo[idx]
    lo = base.copy()
    hi = seg_hi[idx]
    origin = seg_origin[idx]
    target = (s - s_nodes[idx]) * d

    u = _hermite_guess(s, s_nodes[idx], s_nodes[idx + 1], lo, hi, d, mu, p, origin)
    todo = np.arange(len(s))
    for _ in range(POWER_NEWTON_CAP):
        ua, la, ha = u[todo], lo[todo], hi[todo]
        oa = origin[todo]
        r = _power_partial(base[todo], ua, mu, p, oa) - target[todo]
        low = r <= 0.0
        la = np.where(low, ua, la)
        ha = np.where(low, ha, ua)
        new = ua - r * _shifted_gap(ua, mu, oa) ** p
        new = np.where((new >= la) & (new <= ha), new, (la + ha) / 2)
        u[todo], lo[todo], hi[todo] = new, la, ha
        todo = todo[np.abs(new - ua) > POWER_NEWTON_ULPS * np.spacing(oa + new)]
        if not todo.size:
            break
    else:
        raise RuntimeError(
            f"schedule inversion left {todo.size} of {len(s)} points unconverged after "
            f"{POWER_NEWTON_CAP} Newton steps (N = {n}, p = {p})"
        )
    return np.clip(origin + u, 0.0, 1.0)


# ---------------------------------------------------------------------------
# schedule objects

@dataclass(frozen=True)
class Schedule:
    """Immutable schedule: a kind from SCHEDULE_KINDS and its parameters
    (only ``grover-power`` takes any: N and p).  Construction checks the
    kind, the parameters and the endpoints f(0) = 0, f(1) = 1; evaluate
    with ``schedule_values``."""

    kind: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; valid: {SCHEDULE_KINDS}")
        params = dict(self.parameters)
        if self.kind in ("linear", "glue", "bc-composite"):
            if params:
                raise ValueError(f"{self.kind} schedule takes no parameters, got {params}")
        elif self.kind == "grover-power":
            extra = set(params) - {"N", "p"}
            if extra:
                raise ValueError(f"unexpected grover-power parameters: {sorted(extra)}")
            n = int(params.get("N", 0))
            p = float(params.get("p", 1.0))
            if n < 2:
                raise ValueError(f"need N >= 2, got {n}")
            if not 1.0 <= p < 2.0:
                raise ValueError(f"power p must lie in [1, 2), got {p}")
            params = {"N": n, "p": p}
        object.__setattr__(self, "parameters", params)

        f0, f1 = _eval_array(self, np.array([0.0, 1.0]))
        if abs(f0) > ENDPOINT_TOL or abs(f1 - 1.0) > ENDPOINT_TOL:
            raise ValueError(f"schedule endpoints off: f(0) = {f0:.3e}, f(1) = {f1:.12f}")


def linear_schedule() -> Schedule:
    return Schedule("linear")


def glue_schedule() -> Schedule:
    return Schedule("glue")


def bc_composite_schedule() -> Schedule:
    return Schedule("bc-composite")


def build_grover_schedule(n: int, p: float = 1.0) -> Schedule:
    """Gap-adapted search schedule for an unstructured-search instance of
    size n (single marked state), with power p in [1, 2)."""
    return Schedule("grover-power", {"N": int(n), "p": float(p)})


def _eval_array(sched: Schedule, s: np.ndarray):
    if sched.kind == "linear":
        return s.copy()
    if sched.kind == "glue":
        return _glue_cumulative(s) / glue_constant_ce()
    if sched.kind == "bc-composite":
        ce = glue_constant_ce()
        f = np.empty_like(s)
        left = s <= 0.5
        f[left] = _glue_cumulative(2.0 * s[left]) / ce / 2
        right = ~left
        f[right] = 0.5 + _glue_cumulative(2.0 * s[right] - 1.0) / ce / 2
        return f
    if sched.kind == "grover-power":
        n = sched.parameters["N"]
        p = sched.parameters["p"]
        if p == 1.0:
            return _power_values_p1(s, 1.0 / n)
        return _power_values_tabulated(s, n, p)
    raise ValueError(f"unknown schedule kind {sched.kind!r}")


def schedule_values(sched: Schedule, s):
    """f(s) for s in [0, 1]: a float for a scalar s, otherwise an array
    shaped like s."""
    s = np.asarray(s, dtype=float)
    flat = np.atleast_1d(s).astype(float).ravel()
    if flat.size and not (flat.min() >= -1e-12 and flat.max() <= 1.0 + 1e-12):  # NaN fails
        raise ValueError(
            f"schedule argument outside [0, 1]: range [{flat.min()}, {flat.max()}]"
        )
    flat = np.clip(flat, 0.0, 1.0)
    f = _eval_array(sched, flat)
    if s.ndim == 0:
        return float(f[0])
    return f.reshape(s.shape)
