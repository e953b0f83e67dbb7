"""Dense linear algebra kernels, checked against independent oracles.

Eigenvalues are cross-checked with a Faddeev-LeVerrier characteristic
polynomial fed to np.roots and operator norms with power iteration on the
Gram matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiawalk.integrators import hamiltonian_bands
from adiawalk.linalg import (
    EigensolverError,
    HermitianOperator,
    _normal_eig_stack,
    arc_distance_angles,
    chain_product,
    normal_eig,
    operator_norm,
    steps_last_stack,
    unitarity_deviation,
)


# ---------------------------------------------------------------------------
# oracles

def charpoly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and np.roots.

    Shares no code path with the eigh-based solvers under test.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    aux = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = m @ aux
        coeffs[k] = -np.trace(aux) / k
        aux = aux + coeffs[k] * np.eye(n)
    return np.roots(coeffs)


def power_iteration_norm(m: np.ndarray, iters: int = 600) -> float:
    """Largest singular value by power iteration on A^dag A."""
    rng = np.random.default_rng(0)
    gram = m.conj().T @ m
    x = rng.standard_normal(m.shape[0]) + 1j * rng.standard_normal(m.shape[0])
    x /= np.linalg.norm(x)
    for _ in range(iters):
        x = gram @ x
        x /= np.linalg.norm(x)
    return float(np.sqrt(np.real(x.conj() @ gram @ x)))


def match_multisets(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy complex multiset distance; small iff the sets coincide."""
    b = list(b)
    worst = 0.0
    for z in a:
        d = [abs(z - w) for w in b]
        i = int(np.argmin(d))
        worst = max(worst, d[i])
        b.pop(i)
    return worst


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_unitary(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# wrapper validation

def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_operator_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError, match="square"):
        HermitianOperator(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        HermitianOperator(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_wrapped_matrices_are_read_only():
    op = HermitianOperator(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# normal_eig

def test_normal_eig_matches_charpoly_on_random_unitary():
    rng = np.random.default_rng(12)
    for n in (2, 4, 5):
        u = random_unitary(rng, n)
        lam, v = normal_eig(u)
        assert match_multisets(lam, charpoly_eigenvalues(u)) < 1e-8
        assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-10
        assert np.max(np.abs((v * lam) @ v.conj().T - u)) < 1e-10


def test_normal_eig_separates_conjugate_phase_pairs():
    # e^{+i t} and e^{-i t} share a real part, so a solver working on the
    # Hermitian part (U + U^dag)/2 alone cannot split them.
    rng = np.random.default_rng(13)
    t = 0.8
    phases = np.array([t, -t, 0.3])
    q = random_unitary(rng, 3)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    lam, v = normal_eig(u)
    assert match_multisets(lam, np.exp(1j * phases)) < 1e-10
    assert np.max(np.abs((v * lam) @ v.conj().T - u)) < 1e-10


def test_normal_eig_orthonormalizes_a_repeated_eigenvalue():
    # np.linalg.eig returns non-orthogonal vectors inside a degenerate
    # eigenspace; the Loewdin step must repair them.
    rng = np.random.default_rng(15)
    phases = np.array([0.3, 0.3, 0.3, -1.0])
    raw_dev = 0.0
    for _ in range(20):
        q = random_unitary(rng, 4)
        u = (q * np.exp(1j * phases)) @ q.conj().T
        v = np.linalg.eig(u)[1]
        raw_dev = max(raw_dev, float(np.max(np.abs(v.conj().T @ v - np.eye(4)))))
        lam, vecs = normal_eig(u)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) <= 1e-10
        assert np.max(np.abs((vecs * lam) @ vecs.conj().T - u)) <= 1e-10
        assert match_multisets(lam, np.exp(1j * phases)) < 1e-10
    assert raw_dev > 1e-3  # the repair is needed on these draws


def test_normal_eig_stack_names_the_failing_matrix():
    rng = np.random.default_rng(16)
    good = [random_unitary(rng, 3) for _ in range(3)]
    skewed = np.diag([1.0, 1j, -1.0]).astype(complex)
    skewed[0, 1] = 0.5  # not normal: eig's vectors are not orthogonal
    with pytest.raises(EigensolverError, match="reconstruction residual .* at index 2"):
        _normal_eig_stack(np.stack([good[0], good[1], skewed, good[2]]))
    lam, v = _normal_eig_stack(np.stack(good))
    for k in range(3):
        assert np.max(np.abs((v[k] * lam[k]) @ v[k].conj().T - good[k])) <= 1e-10


def test_normal_eig_rejects_non_normal():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not normal"):
        normal_eig(m)


# ---------------------------------------------------------------------------
# norms and arcs

def test_operator_norm_matches_power_iteration():
    rng = np.random.default_rng(16)
    for n in (2, 3, 5):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert operator_norm(m) == pytest.approx(power_iteration_norm(m), rel=1e-8)


def test_operator_norm_known_values():
    assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-14)
    assert operator_norm(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stacked_operator_norm_matches_svd(d):
    rng = np.random.default_rng(30 + d)
    ws = rng.standard_normal((40, d, d)) + 1j * rng.standard_normal((40, d, d))
    ws[0] = 0.0
    ws[1] = np.outer(ws[1, :, 0], ws[1, 0].conj())  # rank 1
    ws[2, :, -1] = ws[2, :, 0]  # rank d - 1
    ws[3] *= 1e-9
    ref = np.linalg.svd(ws, compute_uv=False)[:, 0]
    last = steps_last_stack(np.ascontiguousarray(ws.transpose(1, 2, 0)))
    for stack in (ws, last):
        norms = operator_norm(stack)
        assert norms.shape == (40,)
        assert norms[0] == 0.0
        np.testing.assert_allclose(norms, ref, rtol=1e-13, atol=0.0)
    assert operator_norm(ws[5]) == pytest.approx(norms[5], rel=1e-14)


def test_stacked_operator_norm_reports_non_finite_members_as_nan():
    rng = np.random.default_rng(36)
    ws = rng.standard_normal((5, 3, 3)) + 0j
    ws[1, 0, 2] = np.nan
    ws[3, 2, 2] = np.inf
    with np.errstate(invalid="ignore"):  # inf * 0 in the Gram product
        norms = operator_norm(ws)
    assert np.isnan(norms[[1, 3]]).all()
    np.testing.assert_allclose(norms[[0, 2, 4]], np.linalg.norm(ws[[0, 2, 4]], 2, axis=(1, 2)))
    with pytest.raises(ValueError, match="square"):
        operator_norm(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="square"):
        operator_norm(np.zeros((2, 2, 3, 3)))


def test_angular_distance_known_pairs():
    # the angles of 1, i and -1
    assert arc_distance_angles(0.0, np.pi / 2) == pytest.approx(np.pi / 2, abs=1e-12)
    assert arc_distance_angles(0.0, np.pi) == pytest.approx(np.pi, abs=1e-12)
    assert arc_distance_angles(0.3, 0.3) == 0.0


def test_arc_distance_angles_wraps():
    a = np.array([0.1, 3.0, -3.0])
    b = np.array([-0.1, -3.0, 3.0])
    brute = np.minimum(np.abs(a - b) % (2 * np.pi), 2 * np.pi - np.abs(a - b) % (2 * np.pi))
    assert np.allclose(arc_distance_angles(a, b), brute, atol=1e-14)


def test_arc_distance_matches_angular_distance():
    rng = np.random.default_rng(17)
    t1 = rng.uniform(-10, 10, size=30)
    t2 = rng.uniform(-10, 10, size=30)
    arcs = arc_distance_angles(t1, t2)
    for a, b, d in zip(t1, t2, arcs):
        # arc length from the chord: 2 arcsin(|z1 - z2| / 2)
        chord = min(abs(np.exp(1j * a) - np.exp(1j * b)) / 2.0, 1.0)
        assert d == pytest.approx(2.0 * np.arcsin(chord), abs=1e-10)


# ---------------------------------------------------------------------------
# chain products

@pytest.mark.parametrize("layout", ["steps-first", "steps-last"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_chain_product_order_and_shapes(d, layout):
    rng = np.random.default_rng(18)
    for n in (2, 7, 13, 33):
        ws = np.stack([random_unitary(rng, d) for _ in range(n)])
        if layout == "steps-last":
            ws = steps_last_stack(np.ascontiguousarray(ws.transpose(1, 2, 0)))
            assert ws.strides[0] == ws.itemsize
        ref = np.eye(d, dtype=complex)
        for w in ws:  # step 0 applied first
            ref = w @ ref
        assert np.max(np.abs(chain_product(ws) - ref)) < 1e-12
        assert np.max(np.abs(chain_product(ws[1:]) - ref @ ws[0].conj().T)) < 1e-12


def test_chain_product_edge_cases():
    rng = np.random.default_rng(19)
    w = random_unitary(rng, 2)
    assert np.array_equal(chain_product(w), w)
    assert np.array_equal(chain_product(w[None]), w)
    ws = np.stack([w, w.conj().T])
    kept = ws.copy()
    for stack in (ws[:1], ws):  # the product is a fresh array, never a view of ws
        chain_product(stack)[0, 0] = 5.0
        assert np.array_equal(ws, kept)
    with pytest.raises(ValueError):
        chain_product(np.empty((0, 2, 2)))


def test_unitarity_deviation_matches_the_full_gram_on_both_layouts():
    rng = np.random.default_rng(20)
    for d in (2, 3, 6):
        ws = np.stack([random_unitary(rng, d) for _ in range(11)])
        ws[3] *= 1.0 + 1e-7
        ws[8, 0, -1] += 1e-5
        ref = np.abs(ws.conj().transpose(0, 2, 1) @ ws - np.eye(d)).max(axis=(1, 2))
        last = steps_last_stack(np.ascontiguousarray(ws.transpose(1, 2, 0)))
        for stack in (ws, last):
            assert np.max(np.abs(unitarity_deviation(stack) - ref)) < 1e-15
        assert unitarity_deviation(ws[8]) == pytest.approx(ref[8], abs=1e-15)
        assert unitarity_deviation(ws[8:9]).shape == (1,)
        nan = last.copy(order="K")
        nan[-1, -1, -1] = np.nan
        dev = unitarity_deviation(nan)
        assert np.isnan(dev[-1]) and np.all(dev[:-1] < 1e-4)


def test_strided_complex_matrices_are_accepted():
    # transposes and steps-last stack entries have a strided last axis
    rng = np.random.default_rng(21)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q = random_unitary(rng, 4)
    assert operator_norm(a.T) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    h = a + a.conj().T
    assert np.array_equal(HermitianOperator(h.T).matrix, h.T)
    lam, v = normal_eig(q.conj().T)
    assert np.max(np.abs((v * lam) @ v.conj().T - q.conj().T)) < 1e-12
    walk = steps_last_stack(np.ascontiguousarray(np.stack([q, q]).transpose(1, 2, 0)))[1]
    lam, v = normal_eig(walk)
    assert np.max(np.abs((v * lam) @ v.conj().T - q)) < 1e-12
    bad = a.copy()
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm(bad.T)


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_property_eigenvalues_match_charpoly(seed, n):
    # the Hermitian eigensolver of the package is hamiltonian_bands
    rng = np.random.default_rng(seed)
    h0, h1 = random_hermitian(rng, n), random_hermitian(rng, n)
    f = rng.uniform()
    w = hamiltonian_bands(h0, h1, f)
    assert np.all(np.diff(w) >= 0.0)
    assert match_multisets(w, charpoly_eigenvalues((1.0 - f) * h0 + f * h1)) < 1e-7


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_property_norm_is_submultiplicative(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10
    assert operator_norm(a + b) <= operator_norm(a) + operator_norm(b) + 1e-10
