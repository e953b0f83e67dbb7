"""Dense linear algebra kernels, checked against independent oracles.

Eigenvalues are cross-checked with a Faddeev-LeVerrier characteristic
polynomial fed to np.roots, operator norms with power iteration on the
Gram matrix, and exponentials with scipy.linalg.expm.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adiawalk.linalg import (
    BranchCutWarning,
    EigensolverError,
    HermitianOperator,
    NormalEigenDecomposition,
    UnitaryOperator,
    _normal_eig_stack,
    angular_distance,
    arc_distance_angles,
    chain_product,
    expm_i_hermitian,
    hermitian_eig,
    logm_unitary,
    normal_eig,
    operator_norm,
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


def test_unitary_operator_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_wrapped_matrices_are_read_only():
    op = HermitianOperator(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_decomposition_rejects_skewed_vectors():
    v = np.array([[1.0, 0.9], [0.0, np.sqrt(1 - 0.81)]])
    with pytest.raises(ValueError, match="orthonormal"):
        NormalEigenDecomposition(np.array([1.0, 2.0]), v)


# ---------------------------------------------------------------------------
# hermitian_eig

def test_hermitian_eig_matches_charpoly_roots():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 6):
        h = random_hermitian(rng, n)
        dec = hermitian_eig(h)
        oracle = charpoly_eigenvalues(h)
        assert match_multisets(dec.eigenvalues, oracle) < 1e-8
        assert np.all(np.diff(dec.eigenvalues.real) >= -1e-12)
        assert np.max(np.abs(dec.reconstruct() - h)) < 1e-12


def test_hermitian_eig_accepts_wrapper_and_array():
    h = np.diag([3.0, -1.0, 0.5])
    a = hermitian_eig(h)
    b = hermitian_eig(HermitianOperator(h))
    assert np.allclose(a.eigenvalues, b.eigenvalues)
    assert np.allclose(sorted(np.diag(h)), a.eigenvalues.real)


# ---------------------------------------------------------------------------
# normal_eig

def test_normal_eig_matches_charpoly_on_random_unitary():
    rng = np.random.default_rng(12)
    for n in (2, 4, 5):
        u = random_unitary(rng, n)
        dec = normal_eig(u)
        assert match_multisets(dec.eigenvalues, charpoly_eigenvalues(u)) < 1e-8
        assert np.max(np.abs(np.abs(dec.eigenvalues) - 1.0)) < 1e-10
        assert np.max(np.abs(dec.reconstruct() - u)) < 1e-10


def test_normal_eig_separates_conjugate_phase_pairs():
    # e^{+i t} and e^{-i t} share a real part, so a solver working on the
    # Hermitian part (U + U^dag)/2 alone cannot split them.
    rng = np.random.default_rng(13)
    t = 0.8
    phases = np.array([t, -t, 0.3])
    q = random_unitary(rng, 3)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    dec = normal_eig(u)
    assert match_multisets(dec.eigenvalues, np.exp(1j * phases)) < 1e-10
    assert np.max(np.abs(dec.reconstruct() - u)) < 1e-10


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
        dec = normal_eig(u)
        vecs = dec.eigenvectors
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) <= 1e-10
        assert np.max(np.abs(dec.reconstruct() - u)) <= 1e-10
        assert match_multisets(dec.eigenvalues, np.exp(1j * phases)) < 1e-10
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
# exponential and logarithm

def test_expm_matches_scipy():
    rng = np.random.default_rng(14)
    for scale in (1.0, 0.25, -2.0):
        h = random_hermitian(rng, 4)
        mine = expm_i_hermitian(h, scale).matrix
        ref = scipy.linalg.expm(-1j * scale * h)
        assert np.max(np.abs(mine - ref)) < 1e-12


def test_expm_rejects_non_finite_scale():
    with pytest.raises(ValueError, match="finite"):
        expm_i_hermitian(np.eye(2), np.inf)


def test_logm_round_trip_and_principal_range():
    rng = np.random.default_rng(15)
    u = random_unitary(rng, 5)
    theta = logm_unitary(u)
    # U = exp(i Theta), i.e. expm_i_hermitian with scale -1
    back = expm_i_hermitian(theta, -1.0).matrix
    assert np.max(np.abs(back - u)) < 1e-10
    w = np.linalg.eigvalsh(theta.matrix)
    assert np.all(w > -np.pi - 1e-12)
    assert np.all(w <= np.pi + 1e-12)


def test_logm_takes_plus_pi_branch():
    u = np.diag([np.exp(1j * np.pi), 1.0])
    with pytest.warns(BranchCutWarning):
        theta = logm_unitary(u)
    w = np.sort(np.linalg.eigvalsh(theta.matrix))
    assert abs(w[1] - np.pi) < 1e-12


def test_logm_warns_on_branch_cut():
    with pytest.warns(BranchCutWarning, match="-1"):
        logm_unitary(np.diag([-1.0, 1.0]))


def test_logm_silent_away_from_cut():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logm_unitary(np.diag([np.exp(0.5j), np.exp(-1.2j)]))


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


def test_angular_distance_known_pairs():
    assert angular_distance(1.0, 1j) == pytest.approx(np.pi / 2, abs=1e-12)
    assert angular_distance(1.0, -1.0) == pytest.approx(np.pi, abs=1e-12)
    assert angular_distance(np.exp(0.3j), np.exp(0.3j)) == 0.0


def test_angular_distance_rejects_off_circle():
    with pytest.raises(ValueError, match="unit circle"):
        angular_distance(2.0, 1.0)


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
        assert d == pytest.approx(angular_distance(np.exp(1j * a), np.exp(1j * b)), abs=1e-10)


# ---------------------------------------------------------------------------
# chain products

def test_chain_product_order_and_shapes():
    rng = np.random.default_rng(18)
    ws = np.stack([random_unitary(rng, 3) for _ in range(7)])
    ref = np.eye(3, dtype=complex)
    for w in ws:  # step 0 applied first
        ref = w @ ref
    assert np.max(np.abs(chain_product(ws) - ref)) < 1e-12


def test_chain_product_edge_cases():
    rng = np.random.default_rng(19)
    w = random_unitary(rng, 2)
    assert np.array_equal(chain_product(w), w)
    assert np.array_equal(chain_product(w[None]), w)
    with pytest.raises(ValueError):
        chain_product(np.empty((0, 2, 2)))


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_property_eigenvalues_match_charpoly(seed, n):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    dec = hermitian_eig(h)
    assert match_multisets(dec.eigenvalues, charpoly_eigenvalues(h)) < 1e-7


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_property_norm_is_submultiplicative(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10
    assert operator_norm(a + b) <= operator_norm(a) + operator_norm(b) + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_property_logm_inverts_expm(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 3)
    h *= 0.9 * np.pi / max(operator_norm(h), 1e-12)  # keep phases off the cut
    u = expm_i_hermitian(h, -1.0)  # exp(+iH)
    theta = logm_unitary(u)
    assert np.max(np.abs(theta.matrix - h)) < 1e-9
