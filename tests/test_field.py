import numpy as np
import pytest
from scipy.stats import multivariate_normal

from gpsde.errors import InputError, InternalError
from gpsde.field import (
    InducingModel,
    build_cache,
    diffusion_at,
    drift_at,
    log_prior,
    log_prior_grad,
    step_terms_batch,
    update_values,
)
from gpsde.kernels import KernelParams, gram_blocked, rbf, rbf_matrix
from gpsde.sensitivity import simulate_bundle_with_sensitivities
from gpsde.sim import TimeGrid


def make_model(seed=0, D=2, M=5, spacing=1.0, u_scale=1.0):
    rng = np.random.default_rng(seed)
    # jittered grid keeps the Gram matrices comfortably conditioned
    base = np.stack(np.meshgrid(*[np.arange(M) * spacing] * 1, indexing="ij"), -1)
    Z = rng.permutation(np.arange(M))[:, None] * spacing
    if D == 2:
        Z = np.concatenate([Z, rng.uniform(-1, 1, (M, 1))], axis=1)
    return InducingModel(
        Z=Z,
        U_f=u_scale * rng.normal(size=(M, D)),
        u_sigma=u_scale * rng.normal(size=M),
        drift_params=KernelParams(1.0, [0.8] * D),
        diff_params=KernelParams(1.0, [1.1] * D),
        noise_vars=np.full(D, 0.05),
    )


def state_derivs(x, c):
    """Drift Jacobian (D, D) and diffusion gradient (D,) in the state at x."""
    t = step_terms_batch(np.asarray(x, dtype=float)[None, :], c)
    return t.jac_x[0], t.diff_gx[0]


def u_derivs(x, m, c):
    """d f(x) / d u_f, shape (D, M*D), and d sigma(x) / d u_sigma, shape (M,),
    as pullbacks of one Euler step x + f(x) + sigma(x) e_1 (dt = 1): the
    seed e_d gives row d of the drift Jacobian, and e_1 the diffusion one."""
    grid = TimeGrid(t0=0.0, dt=1.0, n_steps=1, obs_index={0.0: 0, 1.0: 1})
    dW = np.eye(m.D)[:1][None]
    _, pullback = simulate_bundle_with_sensitivities(m, c, x, grid, dW)
    rows = [pullback(np.stack([np.zeros(m.D), e])[None]) for e in np.eye(m.D)]
    return np.stack([gf for gf, _ in rows]), rows[0][1]


@pytest.fixture(scope="module")
def model_and_cache():
    m = make_model()
    return m, build_cache(m)


def test_model_validation():
    p = KernelParams(1.0, [1.0])
    with pytest.raises(InputError):
        InducingModel(Z=np.array([[0.0], [0.0]]), U_f=np.zeros((2, 1)),
                      u_sigma=np.zeros(2), drift_params=p, diff_params=p,
                      noise_vars=[0.1])
    with pytest.raises(InputError):
        InducingModel(Z=np.array([[0.0]]), U_f=np.zeros((1, 1)),
                      u_sigma=np.zeros(1), drift_params=p, diff_params=p,
                      noise_vars=[-0.1])


def test_dependency_matrix_must_be_identity():
    p = KernelParams(1.0, [1.0, 1.0])
    kw = dict(Z=[[0.0, 0.0], [1.0, 0.5]], U_f=np.zeros((2, 2)), u_sigma=np.zeros(2),
              drift_params=p, diff_params=p, noise_vars=[0.1, 0.1])
    InducingModel(**kw, A=np.eye(2))
    with pytest.raises(InputError):
        InducingModel(**kw, A=[[1.5, 0.4], [0.4, 0.8]])
    with pytest.raises(InputError):
        InducingModel(**kw, A=np.eye(3))


def test_drift_cache_factors_only_the_m_by_m_gram(model_and_cache):
    m, c = model_and_cache
    assert c.chol_f[0].shape == (m.M, m.M)
    assert c.alpha_f.shape == (m.M, m.D)


def test_interpolation_property(model_and_cache):
    m, c = model_and_cache
    for i in range(m.M):
        f = drift_at(m.Z[i], m, c)
        assert np.all(np.abs(f - m.U_f[i]) <= 1e-4 * (1.0 + np.abs(m.U_f[i])))
        s = diffusion_at(m.Z[i], m, c)
        assert abs(s - m.u_sigma[i]) <= 1e-4 * (1.0 + abs(m.u_sigma[i]))


def test_zero_values_give_zero_fields(model_and_cache):
    m, c = model_and_cache
    m0, c0 = update_values(c, m, U_f=np.zeros_like(m.U_f),
                           u_sigma=np.zeros_like(m.u_sigma))
    x = np.array([0.5, -0.3])
    assert np.all(drift_at(x, m0, c0) == 0.0)
    J, g = state_derivs(x, c0)
    assert np.all(J == 0.0)
    assert np.all(g == 0.0)


def test_single_point_closed_form():
    # one inducing point in 1-d: field is k(x, z)/k(z, z) * u
    rng = np.random.default_rng(1)
    p = KernelParams(1.0, [0.9])
    m = InducingModel(Z=np.array([[0.4]]), U_f=np.array([[1.7]]),
                      u_sigma=np.array([-0.6]), drift_params=p, diff_params=p,
                      noise_vars=[0.1])
    c = build_cache(m)
    for x in rng.normal(size=4):
        kxz = rbf([x], [0.4], p)
        kzz = p.variance + 1e-6 * p.variance
        assert drift_at([x], m, c)[0] == pytest.approx(kxz / kzz * 1.7, rel=1e-9)
        assert diffusion_at([x], m, c) == pytest.approx(kxz / kzz * -0.6, rel=1e-9)


def test_constant_diffusion_reverts_far_from_inducing():
    p = KernelParams(1.0, [1.0])
    m = InducingModel(Z=np.linspace(-2, 2, 5)[:, None], U_f=np.ones((5, 1)),
                      u_sigma=np.full(5, 3.0), drift_params=p, diff_params=p,
                      noise_vars=[0.1])
    c = build_cache(m)
    assert abs(diffusion_at([40.0], m, c)) < 1e-10
    assert np.max(np.abs(drift_at([40.0], m, c))) < 1e-10


def test_linearity_in_inducing_values(model_and_cache):
    m, c = model_and_cache
    rng = np.random.default_rng(2)
    x = rng.normal(size=2)
    m2, c2 = update_values(c, m, U_f=2.5 * m.U_f, u_sigma=2.5 * m.u_sigma)
    np.testing.assert_allclose(drift_at(x, m2, c2), 2.5 * drift_at(x, m, c), rtol=1e-12)
    assert diffusion_at(x, m2, c2) == pytest.approx(2.5 * diffusion_at(x, m, c), rel=1e-12)


def test_drift_jacobian_x_matches_fd(model_and_cache):
    m, c = model_and_cache
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(0, 4, size=2)
        J, _ = state_derivs(x, c)
        for e in range(2):
            xp, xm = x.copy(), x.copy()
            xp[e] += h
            xm[e] -= h
            fd = (drift_at(xp, m, c) - drift_at(xm, m, c)) / (2 * h)
            np.testing.assert_allclose(J[:, e], fd, rtol=1e-5, atol=1e-9)


def test_drift_jacobian_x_zero_at_single_center():
    p = KernelParams(1.0, [1.0])
    m = InducingModel(Z=np.array([[0.7]]), U_f=np.array([[2.0]]),
                      u_sigma=np.array([0.5]), drift_params=p, diff_params=p,
                      noise_vars=[0.1])
    c = build_cache(m)
    J, g = state_derivs([0.7], c)
    assert np.allclose(J, 0.0)
    assert np.allclose(g, 0.0)


def test_drift_u_jacobian_linearity_identity(model_and_cache):
    m, c = model_and_cache
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.normal(size=2)
        R, _ = u_derivs(x, m, c)
        np.testing.assert_allclose(R @ m.u_f, drift_at(x, m, c), rtol=1e-10, atol=1e-12)


def test_drift_u_jacobian_block_selector_at_inducing_point():
    m = make_model(seed=5, D=1, M=4, spacing=1.5)
    c = build_cache(m)
    R, _ = u_derivs(m.Z[2], m, c)  # (1, 4)
    expected = np.zeros(4)
    expected[2] = 1.0
    np.testing.assert_allclose(R[0], expected, atol=2e-5)


def test_drift_u_jacobian_matches_fd(model_and_cache):
    m, c = model_and_cache
    rng = np.random.default_rng(6)
    x = rng.normal(size=2)
    R, _ = u_derivs(x, m, c)
    h = 1e-6
    for q in range(m.M * m.D):
        up, um = m.u_f.copy(), m.u_f.copy()
        up[q] += h
        um[q] -= h
        mp, cp = update_values(c, m, U_f=up.reshape(m.M, m.D))
        mm, cm = update_values(c, m, U_f=um.reshape(m.M, m.D))
        fd = (drift_at(x, mp, cp) - drift_at(x, mm, cm)) / (2 * h)
        np.testing.assert_allclose(R[:, q], fd, rtol=1e-6, atol=1e-8)


def test_diff_grads(model_and_cache):
    m, c = model_and_cache
    rng = np.random.default_rng(8)
    x = rng.normal(size=2)
    _, g = state_derivs(x, c)
    h = 1e-5
    for e in range(2):
        xp, xm = x.copy(), x.copy()
        xp[e] += h
        xm[e] -= h
        fd = (diffusion_at(xp, m, c) - diffusion_at(xm, m, c)) / (2 * h)
        assert g[e] == pytest.approx(fd, rel=1e-5, abs=1e-9)
    _, r = u_derivs(x, m, c)
    assert r @ m.u_sigma == pytest.approx(diffusion_at(x, m, c), rel=1e-10)
    # unit selector at an inducing location
    _, r2 = u_derivs(m.Z[1], m, c)
    expected = np.zeros(m.M)
    expected[1] = 1.0
    np.testing.assert_allclose(r2, expected, atol=2e-5)


def test_log_prior_zero_values(model_and_cache):
    m, c = model_and_cache
    m0, c0 = update_values(c, m, U_f=np.zeros_like(m.U_f),
                           u_sigma=np.zeros_like(m.u_sigma))
    n_f, n_s = m.M * m.D, m.M
    expected = (-0.5 * (c.logdet_f + c.logdet_s)
                - 0.5 * (n_f + n_s) * np.log(2 * np.pi))
    assert log_prior(m0, c0) == pytest.approx(expected, rel=1e-12)
    gf, gs = log_prior_grad(m0, c0)
    assert np.all(gf == 0.0) and np.all(gs == 0.0)


def test_log_prior_single_point_standard_normal():
    p = KernelParams(1.0, [1.0])
    m = InducingModel(Z=np.array([[0.0]]), U_f=np.array([[0.3]]),
                      u_sigma=np.array([-1.1]), drift_params=p, diff_params=p,
                      noise_vars=[0.1])
    c = build_cache(m)
    expected = (multivariate_normal.logpdf(0.3, 0.0, 1.0)
                + multivariate_normal.logpdf(-1.1, 0.0, 1.0))
    assert log_prior(m, c) == pytest.approx(expected, rel=1e-5)
    gf, gs = log_prior_grad(m, c)
    assert gf[0] == pytest.approx(-0.3, rel=1e-5)
    assert gs[0] == pytest.approx(1.1, rel=1e-5)


def test_log_prior_matches_dense_oracle(model_and_cache):
    m, c = model_and_cache
    Kf = gram_blocked(m.Z, m.Z, m.drift_params, np.eye(m.D)) + 1e-6 * np.eye(m.M * m.D)
    Ks = rbf_matrix(m.Z, m.Z, m.diff_params) + 1e-6 * np.eye(m.M)
    oracle = (multivariate_normal.logpdf(m.u_f, np.zeros(m.M * m.D), Kf)
              + multivariate_normal.logpdf(m.u_sigma, np.zeros(m.M), Ks))
    assert log_prior(m, c) == pytest.approx(oracle, abs=1e-8)


def test_log_prior_grad_matches_fd(model_and_cache):
    m, c = model_and_cache
    gf, gs = log_prior_grad(m, c)
    h = 1e-6
    for q in range(m.M * m.D):
        up, um = m.u_f.copy(), m.u_f.copy()
        up[q] += h
        um[q] -= h
        mp, cp = update_values(c, m, U_f=up.reshape(m.M, m.D))
        mm, cm = update_values(c, m, U_f=um.reshape(m.M, m.D))
        fd = (log_prior(mp, cp) - log_prior(mm, cm)) / (2 * h)
        assert gf[q] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_cache_solves_reproduce_inducing_values(model_and_cache):
    m, c = model_and_cache
    from gpsde.kernels import gram_blocked as gb, rbf_matrix as rm
    Kf = gb(m.Z, m.Z, m.drift_params, np.eye(m.D)) + 1e-6 * np.eye(m.M * m.D)
    Ks = rm(m.Z, m.Z, m.diff_params) + 1e-6 * np.eye(m.M)
    np.testing.assert_allclose(Kf @ c.alpha_f.ravel(), m.u_f, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(Ks @ c.alpha_s, m.u_sigma, rtol=1e-8, atol=1e-10)


def test_cache_mismatch_raises(model_and_cache):
    m, c = model_and_cache
    other = m.with_values(U_f=m.U_f + 1.0)
    with pytest.raises(InternalError):
        drift_at([0.0, 0.0], other, c)
