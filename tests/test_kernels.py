import numpy as np
import pytest

from gpsde.errors import InputError
from gpsde.field import InducingModel, build_cache
from gpsde.kernels import (
    JITTER_SCALE,
    KernelParams,
    gram,
    gram_blocked,
    rbf_matrix,
)


def rbf_oracle(X, Z, p):
    """Dense reference: squares the explicit (N, M, D) differences."""
    d = (X[:, None, :] - Z[None, :, :]) / p.lengthscales
    return p.variance * np.exp(-0.5 * np.sum(d * d, axis=-1))


def test_params_validation():
    with pytest.raises(InputError):
        KernelParams(0.0, [1.0])
    with pytest.raises(InputError):
        KernelParams(1.0, [1.0, -1.0])
    with pytest.raises(InputError):
        KernelParams(1.0, [])
    p = KernelParams(2.0, [1.0, 3.0])
    assert p.dim == 2


def test_rbf_zero_distance_is_variance():
    p = KernelParams(1.0, [0.7, 2.0])
    x = np.array([[0.3, -1.2]])
    assert gram(x, x, p)[0, 0] == pytest.approx(1.0)
    p2 = KernelParams(2.5, [1.0])
    assert gram([[0.1]], [[0.1]], p2)[0, 0] == pytest.approx(2.5)


def test_rbf_unit_scaled_distance():
    # one lengthscale of separation gives exp(-1/2)
    for ell in (0.5, 1.0, 3.0):
        p = KernelParams(1.0, [ell])
        assert gram([[0.0]], [[ell]], p)[0, 0] == pytest.approx(np.exp(-0.5))


def test_rbf_hand_evaluated_2d():
    # variance 2, lengthscales (1, 2), x=(1,0), x2=(0,1):
    # 2 * exp(-0.5 * (1^2/1 + 1^2/4)) = 2 * exp(-0.625)
    p = KernelParams(2.0, [1.0, 2.0])
    expected = 2.0 * np.exp(-0.625)
    assert gram([[1.0, 0.0]], [[0.0, 1.0]], p)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_rbf_symmetry_and_bounds():
    rng = np.random.default_rng(42)
    p = KernelParams(1.7, [0.8, 1.3, 2.0])
    for _ in range(20):
        x, x2 = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        k1, k2 = gram(x, x2, p)[0, 0], gram(x2, x, p)[0, 0]
        assert k1 == pytest.approx(k2, rel=1e-14)
        assert 0.0 < k1 <= p.variance


def test_rbf_dimension_mismatch():
    p = KernelParams(1.0, [1.0, 1.0])
    with pytest.raises(InputError):
        gram([[0.0]], [[0.0, 1.0]], p)
    with pytest.raises(InputError):
        gram([[0.0, 1.0, 2.0]], [[0.0, 1.0, 2.0]], p)
    p1 = KernelParams(1.0, [1.0])
    with pytest.raises(InputError):
        gram([0.0, 1.0], [[0.0]], p1)          # 1-d points: (N, D) is required


def test_gram_single_point():
    p = KernelParams(1.9, [1.0])
    K = gram([[0.5]], [[0.5]], p)
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(1.9)


def test_gram_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(11)
    p = KernelParams(0.8, [1.0, 1.0])
    X = rng.normal(size=(6, 2))
    K = gram(X, X, p)
    assert np.allclose(K, K.T)
    assert np.allclose(np.diag(K), p.variance)


def test_gram_jittered_psd():
    rng = np.random.default_rng(3)
    p = KernelParams(1.0, [0.9])
    X = rng.normal(size=(10, 1))
    # the prior build_cache keeps is that of the jittered Gram matrix
    m = InducingModel(Z=X, U_f=np.zeros((10, 1)), u_sigma=np.zeros(10), drift_params=p,
                      diff_params=p, noise_vars=[0.1])
    Q, lam = build_cache(m).prior_s
    K = (Q * lam) @ Q.T
    np.testing.assert_allclose(K, gram(X, X, p) + JITTER_SCALE * p.variance * np.eye(10),
                               atol=1e-12)
    assert lam.min() >= JITTER_SCALE * p.variance
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-8
    np.linalg.cholesky(K)  # must not raise


def test_gram_empty_inputs_rejected():
    p = KernelParams(1.0, [1.0])
    with pytest.raises(InputError):
        gram(np.zeros((0, 1)), [[0.0]], p)
    with pytest.raises(InputError):
        gram([[0.0]], np.zeros((0, 1)), p)


def test_gram_blocked_scalar_reduction():
    rng = np.random.default_rng(5)
    p = KernelParams(1.2, [0.7])
    X = rng.normal(size=(4, 1))
    Z = rng.normal(size=(3, 1))
    assert np.array_equal(gram_blocked(X, Z, p, np.eye(1)), gram(X, Z, p))


def test_gram_blocked_single_block():
    p = KernelParams(1.0, [1.0, 1.0])
    x = np.array([[0.0, 0.0]])
    z = np.array([[np.sqrt(2 * np.log(2)), 0.0]])  # places k at exactly 0.5
    B = gram_blocked(x, z, p, np.eye(2))
    assert np.allclose(B, 0.5 * np.eye(2))


def test_gram_blocked_matches_kronecker_oracle():
    rng = np.random.default_rng(13)
    p = KernelParams(1.5, [0.8, 1.4])
    X = rng.normal(size=(5, 2))
    Z = rng.normal(size=(4, 2))
    K = gram(X, Z, p)
    assert np.allclose(gram_blocked(X, Z, p, np.eye(2)), np.kron(K, np.eye(2)))
    # general symmetric PSD A, entry-by-entry oracle
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    B = gram_blocked(X, Z, p, A)
    for i in range(5):
        for j in range(4):
            np.testing.assert_allclose(B[2 * i:2 * i + 2, 2 * j:2 * j + 2], K[i, j] * A)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_rbf_matrix_matches_difference_oracle(D):
    rng = np.random.default_rng(20 + D)
    p = KernelParams(1.7, rng.uniform(0.3, 2.0, size=D))   # anisotropic
    X = rng.normal(scale=2.0, size=(40, D))
    Z = rng.normal(scale=2.0, size=(25, D))
    np.testing.assert_allclose(rbf_matrix(X, Z, p), rbf_oracle(X, Z, p), rtol=1e-10, atol=0)
    # 50 lengthscales away along one axis the kernel underflows to exactly 0
    far = Z.copy()
    far[:, 0] += 50 * p.lengthscales[0]
    K = rbf_matrix(far, Z, p)
    np.testing.assert_allclose(K, rbf_oracle(far, Z, p), rtol=1e-10, atol=1e-300)
    assert np.all(np.diag(K) == 0.0)
    np.testing.assert_allclose(gram(X, Z, p), rbf_oracle(X, Z, p), rtol=1e-12, atol=0)


@pytest.mark.parametrize("N, M, D", [(500, 225, 2), (200, 225, 2), (2700, 15, 1)])
def test_rbf_matrix_bit_identical_to_squared_distance_form(N, M, D):
    # the halved exponent is the squared distance scaled by -1/2, a power of
    # two, which commutes with rounding
    rng = np.random.default_rng(N + M)
    p = KernelParams(1.7, rng.uniform(0.3, 2.0, size=D))
    Z = rng.normal(scale=2.0, size=(M, D))
    k = min(M, N // 2)
    X = np.concatenate([rng.normal(scale=2.0, size=(N - k, D)), Z[:k]])  # coincident rows
    Xs, Zs = X / p.lengthscales, Z / p.lengthscales
    d2 = (-2.0 * (Xs @ Zs.T) + np.einsum("nd,nd->n", Xs, Xs)[:, None]
          + np.einsum("md,md->m", Zs, Zs))
    ref = p.variance * np.exp(-0.5 * np.maximum(d2, 0.0))
    assert np.array_equal(rbf_matrix(X, Z, p), ref)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_rbf_matrix_at_coincident_points_never_exceeds_variance(D):
    # rounding can make |x|^2 + |z|^2 - 2 x.z slightly negative at x == z
    rng = np.random.default_rng(30 + D)
    p = KernelParams(2.3, rng.uniform(0.2, 1.5, size=D))
    Z = rng.normal(scale=3.0, size=(300, D)) * rng.uniform(0.1, 10.0, size=(300, 1))
    diag = np.diag(rbf_matrix(Z, Z, p))
    assert np.all(diag <= p.variance)
    np.testing.assert_allclose(diag, p.variance, rtol=1e-12)
