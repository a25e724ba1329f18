import functools
import tracemalloc

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from gpsde.dataio import load_model, save_model
from gpsde.errors import InputError, InternalError
from gpsde.field import (
    InducingModel,
    _grid_prior,
    build_cache,
    diffusion_batch,
    drift_batch,
    drift_diffusion_batch,
    gram_root,
    gram_solve,
    grid_points,
    log_prior,
    log_prior_grad,
    rows_buffer,
    rows_matmul,
    rows_t_matmul,
    rows_t_products,
    step_terms_batch,
    update_values,
)
from gpsde.kernels import JITTER_SCALE, KernelParams, gram, gram_blocked, rbf_matrix
from gpsde.objective import Trajectory, draw_increments, evaluate_with_increments, make_grids
from gpsde.sensitivity import simulate_bundle_with_sensitivities
from gpsde.sim import TimeGrid


GRID_RULE = "distinct points of a Cartesian grid in grid_points order"


def make_model(seed=0, D=2, M=6, spacing=1.0, u_scale=1.0):
    """A model whose Z is the grid of M // D permuted, evenly spaced
    coordinates and, for D = 2, two jittered ones on the second axis; the
    spacing keeps the Gram matrices comfortably conditioned."""
    rng = np.random.default_rng(seed)
    axes = [rng.permutation(np.arange(M // D)) * spacing]
    if D == 2:
        axes.append((np.arange(2) - 0.5) * spacing + rng.uniform(-0.2, 0.2, 2))
    Z = grid_points(axes)
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
    *_, jac, dg = step_terms_batch(np.asarray(x, dtype=float)[None, :], c)
    return jac[:, :, 0], dg[:, 0]


def u_derivs(x, m, c):
    """d f(x) / d u_f, shape (D, M*D), and d sigma(x) / d u_sigma, shape (M,),
    as pullbacks of one Euler step x + f(x) + sigma(x) e_1 (dt = 1): the
    seed e_d gives row d of the drift Jacobian, and e_1 the diffusion one."""
    grid = TimeGrid(t0=0.0, dt=[1.0], obs_indices=[0, 1])
    dW = np.eye(m.D)[:1][None]
    _, pullback = simulate_bundle_with_sensitivities(m, c, x, grid, dW)
    rows = [pullback(np.stack([np.zeros(m.D), e])[None]) for e in np.eye(m.D)]
    return np.stack([gf for gf, _ in rows]), rows[0][1]


def field_oracle(X, c):
    """Dense reference from the explicit (N, M, D) differences X - Z:
    kernel rows, fields, drift state Jacobian and diffusion state gradient."""
    m = c.model
    diff = X[:, None, :] - m.Z
    rows = []
    for p in (m.drift_params, m.diff_params):
        d = diff / p.lengthscales
        rows.append(p.variance * np.exp(-0.5 * np.sum(d * d, axis=-1)))
    kf, ks = rows
    Gf = -kf[:, :, None] * (diff / np.square(m.drift_params.lengthscales))
    Gs = -ks[:, :, None] * (diff / np.square(m.diff_params.lengthscales))
    return dict(kf=kf, ks=ks, F=kf @ c.alpha_f, sig=ks @ c.alpha_s,
                jac_x=c.alpha_f.T @ Gf, diff_gx=Gs.transpose(0, 2, 1) @ c.alpha_s)


def assert_rel_close(actual, oracle, rtol=1e-10):
    """Agreement within rtol of the oracle's largest magnitude."""
    np.testing.assert_allclose(actual, oracle, rtol=0,
                               atol=rtol * max(np.abs(oracle).max(), 1e-300))


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
    kw = dict(Z=[[0.0], [1.0]], U_f=np.zeros((2, 1)), u_sigma=np.zeros(2),
              drift_params=p, diff_params=p, noise_vars=[0.1])
    InducingModel(**kw)
    for key, bad in (("Z", [0.0, 1.0]),              # 1-d points: (M, D) is required
                     ("Z", [[0.0], [np.inf]]), ("U_f", [[np.nan], [0.0]]),
                     ("u_sigma", [0.0, np.inf])):
        with pytest.raises(InputError):
            InducingModel(**{**kw, key: bad})


def test_equal_inducing_rows_rejected():
    p = KernelParams(1.0, [1.0, 1.0])
    Z = np.array([[0.0, 1.0], [0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(InputError, match=GRID_RULE):
        InducingModel(Z=Z, U_f=np.zeros((3, 2)), u_sigma=np.zeros(3),
                      drift_params=p, diff_params=p, noise_vars=[0.1, 0.1])


def test_update_values_shares_z_and_checks_only_the_values(model_and_cache):
    m, c = model_and_cache
    m2, c2 = update_values(c, m, U_f=np.ones_like(m.U_f), noise_vars=m.noise_vars * 2)
    assert c2.model is m2
    np.testing.assert_array_equal(m2.U_f, 1.0)
    np.testing.assert_array_equal(m2.u_sigma, m.u_sigma)
    assert not m2.U_f.flags.writeable
    np.testing.assert_array_equal(m.U_f, make_model().U_f)     # original untouched
    with pytest.raises(InputError):
        update_values(c, m, U_f=np.ones((m.M + 1, m.D)))
    with pytest.raises(InputError):
        update_values(c, m, noise_vars=-m.noise_vars)
    with pytest.raises(InputError):
        update_values(c, m, u_sigma=np.full(m.M, np.nan))


@pytest.mark.parametrize("equal", [True, False], ids=["equal-kernels", "unequal-kernels"])
def test_update_values_keeps_the_prior(equal):
    m = make_model()
    kw = dict(Z=m.Z, drift_params=m.drift_params,
              diff_params=m.drift_params if equal else m.diff_params)
    m = InducingModel(U_f=m.U_f, u_sigma=m.u_sigma, noise_vars=m.noise_vars, **kw)
    c = build_cache(m)
    m2, c2 = update_values(c, m, U_f=2.0 * m.U_f, u_sigma=m.u_sigma + 1.0,
                           noise_vars=3.0 * m.noise_vars)
    assert c2.prior_f is c.prior_f and c2.prior_s is c.prior_s and c2.row_maps is c.row_maps
    assert m2.Z is m.Z and m2.axes is m.axes
    fresh = build_cache(InducingModel(U_f=m2.U_f, u_sigma=m2.u_sigma,
                                      noise_vars=m2.noise_vars, **kw))
    for name in ("alpha_f", "alpha_s", "weights"):
        assert np.array_equal(getattr(c2, name), getattr(fresh, name))


def test_dependency_matrix_must_be_identity():
    p = KernelParams(1.0, [1.0, 1.0])
    kw = dict(Z=[[0.0, 0.0], [0.0, 0.5]], U_f=np.zeros((2, 2)), u_sigma=np.zeros(2),
              drift_params=p, diff_params=p, noise_vars=[0.1, 0.1])
    InducingModel(**kw, A=np.eye(2))
    with pytest.raises(InputError):
        InducingModel(**kw, A=[[1.5, 0.4], [0.4, 0.8]])
    with pytest.raises(InputError):
        InducingModel(**kw, A=np.eye(3))


def test_drift_cache_factors_only_the_m_by_m_gram(model_and_cache):
    m, c = model_and_cache
    *Qs, lam = c.prior_f
    assert [Q.shape for Q in Qs] == [(a.size, a.size) for a in m.axes]
    assert lam.shape == (m.M,)
    assert c.alpha_f.shape == (m.M, m.D)


def test_interpolation_property(model_and_cache):
    m, c = model_and_cache
    f = drift_batch(m.Z, c)
    assert np.all(np.abs(f - m.U_f) <= 1e-4 * (1.0 + np.abs(m.U_f)))
    s = diffusion_batch(m.Z, c)
    assert np.all(np.abs(s - m.u_sigma) <= 1e-4 * (1.0 + np.abs(m.u_sigma)))


def test_zero_values_give_zero_fields(model_and_cache):
    m, c = model_and_cache
    m0, c0 = update_values(c, m, U_f=np.zeros_like(m.U_f),
                           u_sigma=np.zeros_like(m.u_sigma))
    x = np.array([0.5, -0.3])
    assert np.all(drift_batch(x[None], c0) == 0.0)
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
    X = rng.normal(size=(4, 1))
    kxz = gram(X, [[0.4]], p)[:, 0]
    kzz = p.variance + 1e-6 * p.variance
    assert drift_batch(X, c)[:, 0] == pytest.approx(kxz / kzz * 1.7, rel=1e-9)
    assert diffusion_batch(X, c) == pytest.approx(kxz / kzz * -0.6, rel=1e-9)


def test_constant_diffusion_reverts_far_from_inducing():
    p = KernelParams(1.0, [1.0])
    m = InducingModel(Z=np.linspace(-2, 2, 5)[:, None], U_f=np.ones((5, 1)),
                      u_sigma=np.full(5, 3.0), drift_params=p, diff_params=p,
                      noise_vars=[0.1])
    c = build_cache(m)
    assert abs(diffusion_batch(np.array([[40.0]]), c)[0]) < 1e-10
    assert np.max(np.abs(drift_batch(np.array([[40.0]]), c))) < 1e-10


def test_linearity_in_inducing_values(model_and_cache):
    m, c = model_and_cache
    rng = np.random.default_rng(2)
    X = rng.normal(size=(1, 2))
    m2, c2 = update_values(c, m, U_f=2.5 * m.U_f, u_sigma=2.5 * m.u_sigma)
    np.testing.assert_allclose(drift_batch(X, c2), 2.5 * drift_batch(X, c), rtol=1e-12)
    assert diffusion_batch(X, c2) == pytest.approx(2.5 * diffusion_batch(X, c), rel=1e-12)


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
            fp, fm = drift_batch(np.stack([xp, xm]), c)
            fd = (fp - fm) / (2 * h)
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
        np.testing.assert_allclose(R @ m.u_f, drift_batch(x[None], c)[0],
                                   rtol=1e-10, atol=1e-12)


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
        fd = (drift_batch(x[None], cp) - drift_batch(x[None], cm))[0] / (2 * h)
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
        sp, sm = diffusion_batch(np.stack([xp, xm]), c)
        fd = (sp - sm) / (2 * h)
        assert g[e] == pytest.approx(fd, rel=1e-5, abs=1e-9)
    _, r = u_derivs(x, m, c)
    assert r @ m.u_sigma == pytest.approx(diffusion_batch(x[None], c)[0], rel=1e-10)
    # unit selector at an inducing location
    _, r2 = u_derivs(m.Z[1], m, c)
    expected = np.zeros(m.M)
    expected[1] = 1.0
    np.testing.assert_allclose(r2, expected, atol=2e-5)


def test_log_prior_zero_values(model_and_cache):
    m, c = model_and_cache
    _, c0 = update_values(c, m, U_f=np.zeros_like(m.U_f),
                          u_sigma=np.zeros_like(m.u_sigma))
    n_f, n_s = m.M * m.D, m.M
    logdet_f, logdet_s = (np.linalg.slogdet(gram(m.Z, m.Z, p) + JITTER_SCALE * p.variance
                                            * np.eye(m.M))[1]
                          for p in (m.drift_params, m.diff_params))
    expected = (-0.5 * (m.D * logdet_f + logdet_s)
                - 0.5 * (n_f + n_s) * np.log(2 * np.pi))
    assert log_prior(c0) == pytest.approx(expected, rel=1e-12)
    gf, gs = log_prior_grad(c0)
    assert np.all(gf == 0.0) and np.all(gs == 0.0)


def grid_case(sizes):
    """Sorted random axes and an anisotropic kernel of variance 2.5."""
    rng = np.random.default_rng(len(sizes))
    axes = tuple(np.sort(rng.uniform(-2, 2, size=n)) for n in sizes)
    return axes, KernelParams(2.5, rng.uniform(0.3, 1.2, size=len(sizes)))


@pytest.mark.parametrize("sizes", [(15,), (15, 15), (4, 3, 5)], ids=["1", "15x15", "3-d"])
def test_grid_gram_matches_dense_gram(sizes):
    # Q diag(lam) Q^T from the per-axis eigendecompositions is the dense
    # jittered Gram matrix within 32 ulp of the variance (14 measured)
    axes, p = grid_case(sizes)
    *Qs, lam = _grid_prior(axes, p)
    Q = functools.reduce(np.kron, Qs)
    Z = grid_points(axes)
    dense = gram(Z, Z, p) + JITTER_SCALE * p.variance * np.eye(len(Z))
    assert lam.min() >= JITTER_SCALE * p.variance
    np.testing.assert_allclose((Q * lam) @ Q.T, dense, rtol=0,
                               atol=32 * np.finfo(float).eps * p.variance)


@pytest.mark.parametrize("sizes", [(15,), (15, 15), (4, 3, 5)], ids=["1", "15x15", "3-d"])
def test_gram_root_is_the_symmetric_root_of_the_jittered_gram(sizes):
    # root.root within 64 ulp of the variance (22 measured); root^{-1}.root
    # amplifies rounding by up to sqrt(1 / JITTER_SCALE): within 4096 ulp
    # of 1 (947 measured)
    axes, p = grid_case(sizes)
    Z = grid_points(axes)
    M, D = Z.shape
    m = InducingModel(Z=Z, U_f=np.zeros((M, D)), u_sigma=np.zeros(M), drift_params=p,
                      diff_params=p, noise_vars=np.full(D, 0.1))
    c = build_cache(m)
    eps, I = np.finfo(float).eps, np.eye(M)
    R = gram_root(c, I)
    np.testing.assert_allclose(R, R.T, rtol=0, atol=4 * eps * p.variance)
    np.testing.assert_allclose(gram_root(c, R), gram(Z, Z, p) + JITTER_SCALE * p.variance * I,
                               rtol=0, atol=64 * eps * p.variance)
    np.testing.assert_allclose(gram_root(c, R, inverse=True), I, rtol=0, atol=4096 * eps)
    u = np.arange(M, dtype=float)           # one column as a vector
    assert np.array_equal(gram_root(c, u), gram_root(c, u[:, None])[:, 0])


def test_equal_kernels_factor_like_two_separate_gram_matrices():
    # equal (not identical) kernel parameters: the diffusion shares the drift's
    # prior factors, bit-identical to factoring its own jittered Gram matrix
    rng = np.random.default_rng(12)
    M = 9
    m = InducingModel(Z=grid_points(rng.uniform(-2, 2, size=(2, 3))), U_f=rng.normal(size=(M, 2)),
                      u_sigma=rng.normal(size=M), drift_params=KernelParams(1.3, [0.7, 0.9]),
                      diff_params=KernelParams(1.3, [0.7, 0.9]), noise_vars=[0.1, 0.1])
    c = build_cache(m)
    assert c.prior_s is c.prior_f
    fresh = _grid_prior(m.axes, m.diff_params)
    assert all(np.array_equal(a, b) for a, b in zip(c.prior_s, fresh, strict=True))
    other = build_cache(InducingModel(Z=m.Z, U_f=m.U_f, u_sigma=m.u_sigma,
                                      drift_params=KernelParams(1.0, [0.5, 0.5]),
                                      diff_params=m.diff_params, noise_vars=m.noise_vars))
    assert other.prior_s is not other.prior_f
    assert np.array_equal(c.alpha_s, other.alpha_s)


def test_log_prior_single_point_standard_normal():
    p = KernelParams(1.0, [1.0])
    m = InducingModel(Z=np.array([[0.0]]), U_f=np.array([[0.3]]),
                      u_sigma=np.array([-1.1]), drift_params=p, diff_params=p,
                      noise_vars=[0.1])
    c = build_cache(m)
    expected = (multivariate_normal.logpdf(0.3, 0.0, 1.0)
                + multivariate_normal.logpdf(-1.1, 0.0, 1.0))
    assert log_prior(c) == pytest.approx(expected, rel=1e-5)
    gf, gs = log_prior_grad(c)
    assert gf[0] == pytest.approx(-0.3, rel=1e-5)
    assert gs[0] == pytest.approx(1.1, rel=1e-5)


def test_log_prior_matches_dense_oracle(model_and_cache):
    m, c = model_and_cache
    Kf = gram_blocked(m.Z, m.Z, m.drift_params, np.eye(m.D)) + 1e-6 * np.eye(m.M * m.D)
    Ks = rbf_matrix(m.Z, m.Z, m.diff_params) + 1e-6 * np.eye(m.M)
    oracle = (multivariate_normal.logpdf(m.u_f, np.zeros(m.M * m.D), Kf)
              + multivariate_normal.logpdf(m.u_sigma, np.zeros(m.M), Ks))
    assert log_prior(c) == pytest.approx(oracle, abs=1e-8)


def test_log_prior_grad_matches_fd(model_and_cache):
    m, c = model_and_cache
    gf, gs = log_prior_grad(c)
    h = 1e-6
    for q in range(m.M * m.D):
        up, um = m.u_f.copy(), m.u_f.copy()
        up[q] += h
        um[q] -= h
        cp = update_values(c, m, U_f=up.reshape(m.M, m.D))[1]
        cm = update_values(c, m, U_f=um.reshape(m.M, m.D))[1]
        fd = (log_prior(cp) - log_prior(cm)) / (2 * h)
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
    other, _ = update_values(c, m, U_f=m.U_f + 1.0)
    with pytest.raises(InternalError):
        update_values(c, other, u_sigma=m.u_sigma)


def test_cache_pairs_only_with_the_model_it_was_built_from(tmp_path):
    # a second load of the same file is an equal but distinct model
    m = make_model(D=1)
    save_model(tmp_path / "model.json", m)
    m1, m2 = load_model(tmp_path / "model.json"), load_model(tmp_path / "model.json")
    c1 = build_cache(m1)
    update_values(c1, m1, U_f=m1.U_f)
    with pytest.raises(InternalError):
        update_values(c1, m2, U_f=m2.U_f)
    tr = Trajectory(times=[0.0, 0.1, 0.2], obs=[[0.1], [0.2], [0.15]])
    grids = make_grids([tr], 2)
    incs = draw_increments([tr], grids, m1, 3, 0)
    evaluate_with_increments([tr], m1, c1, grids, incs)
    with pytest.raises(InternalError):
        evaluate_with_increments([tr], m2, c1, grids, incs)


@pytest.mark.parametrize("D,grid", [(1, None), (2, None), (3, None), (2, (4, 3)), (3, (3, 2, 4))],
                         ids=["1", "2", "3", "2-grid", "3-grid"])
@pytest.mark.parametrize("same", [True, False])
def test_fields_and_state_derivatives_match_difference_oracle(D, grid, same):
    # a Cartesian grid, and every 1-d Z, takes per-axis factors; a scattered
    # Z in D >= 2 is no grid and is rejected
    rng = np.random.default_rng(40 + D)
    pf = KernelParams(1.3, rng.uniform(0.6, 1.6, size=D))   # anisotropic
    ps = pf if same else KernelParams(0.7, rng.uniform(0.6, 1.6, size=D))
    if grid is None:
        Z = rng.uniform(-2, 2, size=(12, D))
    else:
        # jittered regular axes keep the Gram matrices conditioned like the
        # scattered cases' (a near-duplicate coordinate would amplify the
        # dense rows' rounding past the tolerance)
        Z = grid_points([np.linspace(-2, 2, n) + rng.uniform(-0.3, 0.3, size=n) for n in grid])
    M = len(Z)
    kw = dict(U_f=rng.normal(size=(M, D)), u_sigma=rng.normal(size=M),
              drift_params=pf, diff_params=ps, noise_vars=np.full(D, 0.1))
    if grid is None and D > 1:
        with pytest.raises(InputError, match=GRID_RULE):
            InducingModel(Z=Z, **kw)
        return
    m = InducingModel(Z=Z, **kw)
    c = build_cache(m)
    assert (c.prior_s is c.prior_f) == same
    far = m.Z + 50 * np.max(np.maximum(pf.lengthscales, ps.lengthscales))
    X = np.concatenate([rng.uniform(-2.5, 2.5, size=(30, D)), m.Z, far])
    ref = field_oracle(X, c)
    F, sig = drift_diffusion_batch(X, c)
    F_step, sig_step, kf, ks, jac, dg = step_terms_batch(X, c)
    assert jac.shape == (D, D, len(X)) and dg.shape == (D, len(X))
    for k in (kf, ks):
        assert [e.shape for e in k] == [(a.size, len(X)) for a in m.axes]
    rows_f, rows_s = rows_matmul(kf, np.eye(M)), rows_matmul(ks, np.eye(M))
    for name, val in (("F", F), ("sig", sig), ("kf", rows_f), ("ks", rows_s),
                      ("jac_x", jac.transpose(2, 0, 1)), ("diff_gx", dg.T),
                      ("F", F_step), ("sig", sig_step),
                      ("F", drift_batch(X, c)), ("sig", diffusion_batch(X, c))):
        assert_rel_close(val, ref[name])
    # the separate fields read the joint evaluation's contraction, to the bit
    assert np.array_equal(drift_batch(X, c), F)
    assert np.array_equal(diffusion_batch(X, c), sig)
    # at the inducing locations the rows peak at the variance; far away they vanish
    at_z = np.arange(30, 30 + M)
    for k, p in ((rows_f, pf), (rows_s, ps)):
        peak = k[at_z, at_z - 30]
        assert np.all(peak <= p.variance)
        np.testing.assert_allclose(peak, p.variance, rtol=1e-12)
        assert np.all(k[30 + M:] == 0.0)
    # products with the rows, against the dense oracle rows
    W, V = rng.normal(size=(M, 3)), rng.normal(size=(len(X), 3))
    for k, dense in ((kf, ref["kf"]), (ks, ref["ks"])):
        assert_rel_close(rows_matmul(k, W), dense @ W)
        assert_rel_close(rows_matmul(k, W[:, 0]), dense @ W[:, 0])
        assert_rel_close(rows_t_matmul(k, V), dense.T @ V)
        assert_rel_close(rows_t_matmul(k, V[:, 0]), dense.T @ V[:, 0])
    if grid is None:
        return
    # a grid out of grid_points order, or with one point moved, is no grid
    perm = rng.permutation(M)
    moved = Z.copy()
    moved[-1, 0] += 0.1
    for bad in (Z[perm], moved):
        with pytest.raises(InputError, match=GRID_RULE):
            InducingModel(Z=bad, **kw)


@pytest.mark.parametrize("sizes", [(7,), (4, 3)], ids=["1-d", "4x3"])
@pytest.mark.parametrize("same", [True, False])
def test_adjoint_products_and_solves_match_dense_oracle(sizes, same):
    # the adjoint's products with kept or re-formed rows, against dense
    # rbf_matrix rows, and its solves, against the jittered Gram matrices
    rng = np.random.default_rng(11)
    D, N = len(sizes), 20
    pf = KernelParams(1.3, rng.uniform(0.6, 1.6, size=D))
    ps = pf if same else KernelParams(0.7, rng.uniform(0.6, 1.6, size=D))
    Z = grid_points([np.linspace(-2, 2, n) + rng.uniform(-0.3, 0.3, size=n) for n in sizes])
    M = len(Z)
    m = InducingModel(Z=Z, U_f=rng.normal(size=(M, D)), u_sigma=rng.normal(size=M),
                      drift_params=pf, diff_params=ps, noise_vars=np.full(D, 0.1))
    c = build_cache(m)
    X, V = rng.uniform(-2.5, 2.5, size=(N, D)), rng.normal(size=(D + 1, N))
    want = np.column_stack([rbf_matrix(X, Z, pf).T @ V[:D].T, rbf_matrix(X, Z, ps).T @ V[D]])
    assert_rel_close(rows_t_products(X, c, V), want)
    kept = rows_buffer(c, 2, N)
    if D == 1:
        assert kept is None          # a 1-d row set is dense: formed again, never kept
    else:
        assert kept.shape == (2, 1 if same else 2, sum(sizes), N)
        step_terms_batch(X, c, kept[1])
        # the kept rows serve, whatever the states passed beside them
        assert np.array_equal(rows_t_products(np.full((N, D), np.nan), c, V, kept[1]),
                              rows_t_products(X, c, V))
    G = rng.normal(size=(M, D + 1))
    gf, gs = gram_solve(c, G)
    for got, p, rhs in ((gf, pf, G[:, :D]), (gs, ps, G[:, D])):
        K = rbf_matrix(Z, Z, p) + JITTER_SCALE * p.variance * np.eye(M)
        assert_rel_close(got, np.linalg.solve(K, rhs).ravel())


def test_step_terms_form_no_n_by_m_by_d_temporary():
    # distinct kernels on a 15 x 15 grid: the rows are per-axis factors, so
    # the peak stays below one dense (N, M) row set
    N, M, D = 200, 225, 2
    rng = np.random.default_rng(9)
    m = InducingModel(Z=grid_points([np.linspace(-2, 2, 15)] * D), U_f=rng.normal(size=(M, D)),
                      u_sigma=rng.normal(size=M), drift_params=KernelParams(1.0, [0.5, 0.7]),
                      diff_params=KernelParams(1.0, [0.6, 0.6]), noise_vars=[0.1, 0.1])
    c = build_cache(m)
    X = rng.uniform(-2, 2, size=(N, D))
    step_terms_batch(X, c)                   # warm-up outside the trace
    tracemalloc.start()
    try:
        kf = step_terms_batch(X, c)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e.shape for e in kf] == [(15, N)] * D
    assert peak < N * M * 8, f"peak {peak} B"
