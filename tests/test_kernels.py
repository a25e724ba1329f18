import numpy as np
import pytest

from gpsde.errors import InputError
from gpsde.field import InducingModel, build_cache
from gpsde.kernels import (
    JITTER_SCALE,
    KernelParams,
    gram,
    gram_blocked,
    rbf,
    rbf_grad_matrix,
)


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
    x = np.array([0.3, -1.2])
    assert rbf(x, x, p) == pytest.approx(1.0)
    p2 = KernelParams(2.5, [1.0])
    assert rbf([0.1], [0.1], p2) == pytest.approx(2.5)


def test_rbf_unit_scaled_distance():
    # one lengthscale of separation gives exp(-1/2)
    for ell in (0.5, 1.0, 3.0):
        p = KernelParams(1.0, [ell])
        assert rbf([0.0], [ell], p) == pytest.approx(np.exp(-0.5))


def test_rbf_hand_evaluated_2d():
    # variance 2, lengthscales (1, 2), x=(1,0), x2=(0,1):
    # 2 * exp(-0.5 * (1^2/1 + 1^2/4)) = 2 * exp(-0.625)
    p = KernelParams(2.0, [1.0, 2.0])
    expected = 2.0 * np.exp(-0.625)
    assert rbf([1.0, 0.0], [0.0, 1.0], p) == pytest.approx(expected, rel=1e-12)


def test_rbf_symmetry_and_bounds():
    rng = np.random.default_rng(42)
    p = KernelParams(1.7, [0.8, 1.3, 2.0])
    for _ in range(20):
        x, x2 = rng.normal(size=3), rng.normal(size=3)
        k1, k2 = rbf(x, x2, p), rbf(x2, x, p)
        assert k1 == pytest.approx(k2, rel=1e-14)
        assert 0.0 < k1 <= p.variance


def test_rbf_dimension_mismatch():
    p = KernelParams(1.0, [1.0, 1.0])
    with pytest.raises(InputError):
        rbf([0.0], [0.0, 1.0], p)
    with pytest.raises(InputError):
        rbf([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], p)


def test_grad_zero_at_coincident_points():
    p = KernelParams(1.0, [0.5, 2.0])
    g = rbf_grad_matrix(np.array([[1.0, -1.0]]), np.array([[1.0, -1.0]]), p)[0, 0]
    assert np.all(g == 0.0)


def test_grad_hand_derived_1d():
    # d/dx exp(-x^2/2) at x=1 is -exp(-1/2)
    p = KernelParams(1.0, [1.0])
    g = rbf_grad_matrix(np.array([[1.0]]), np.array([[0.0]]), p)[0, 0]
    assert g[0] == pytest.approx(-np.exp(-0.5), rel=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    p = KernelParams(1.3, [0.6, 1.1])
    for _ in range(10):
        x, x2 = rng.normal(size=2), rng.normal(size=2)
        g = rbf_grad_matrix(x[None], x2[None], p)[0, 0]
        h = 1e-5
        for d in range(2):
            xp, xm = x.copy(), x.copy()
            xp[d] += h
            xm[d] -= h
            fd = (rbf(xp, x2, p) - rbf(xm, x2, p)) / (2 * h)
            assert g[d] == pytest.approx(fd, rel=1e-6, abs=1e-10)


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
    # the factor build_cache keeps is that of the jittered Gram matrix
    m = InducingModel(Z=X, U_f=np.zeros((10, 1)), u_sigma=np.zeros(10), drift_params=p,
                      diff_params=p, noise_vars=[0.1])
    L = np.tril(build_cache(m).chol_s[0])
    K = L @ L.T
    np.testing.assert_allclose(K, gram(X, X, p) + JITTER_SCALE * p.variance * np.eye(10),
                               atol=1e-12)
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
