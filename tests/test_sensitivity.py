import numpy as np
import pytest

from gpsde.errors import SensitivityError, SimulationError
from gpsde.field import InducingModel, build_cache, update_values
from gpsde.kernels import KernelParams, gram_blocked, rbf_matrix
from gpsde.sensitivity import simulate_bundle_with_sensitivities
from gpsde.sim import TimeGrid, build_grid, sample_increments, simulate_batch


def small_model(seed=0, D=1, M=4, u_scale=0.5):
    rng = np.random.default_rng(seed)
    Z = np.linspace(-1.5, 1.5, M)[:, None]
    if D == 2:
        Z = np.concatenate([Z, rng.uniform(-1.5, 1.5, (M, 1))], axis=1)
    m = InducingModel(
        Z=Z,
        U_f=u_scale * rng.normal(size=(M, D)),
        u_sigma=u_scale * rng.normal(size=M),
        drift_params=KernelParams(1.0, [1.0] * D),
        diff_params=KernelParams(1.0, [1.2] * D),
        noise_vars=np.full(D, 0.05),
    )
    return m, build_cache(m)


def one_step_grid(dt):
    return TimeGrid(t0=0.0, dt=dt, n_steps=1, obs_index={0.0: 0, dt: 1})


def test_identity_step_leaves_state_unchanged():
    # with dt = 0 and no noise every step is the identity: the path stays at
    # x0 and no inducing value reaches the observed states
    m, c = small_model()
    grid = TimeGrid(t0=0.0, dt=0.0, n_steps=3, obs_index={0.0: 3})
    paths, pullback = simulate_bundle_with_sensitivities(m, c, [0.2], grid,
                                                         np.zeros((1, 3, 1)))
    assert np.all(paths == 0.2)
    gf, gs = pullback(np.full((1, 1, 1), 1.7))
    assert np.all(gf == 0.0) and np.all(gs == 0.0)


def test_single_step_from_zero_state():
    # one update from a fixed start: the drift block is dt * df/du_f and the
    # diffusion block dW * dsigma/du_sigma, against the dense Gram oracle
    m, c = small_model(seed=1)
    x0 = np.array([0.3])
    dt, dW = 0.05, np.array([0.11])
    seed = np.array([1.3])
    _, pullback = simulate_bundle_with_sensitivities(m, c, x0, one_step_grid(dt),
                                                     dW[None, None, :])
    gf, gs = pullback(np.stack([np.zeros(1), seed])[None])
    Kf = gram_blocked(m.Z, m.Z, m.drift_params, np.eye(m.D)) + 1e-6 * np.eye(m.M * m.D)
    Ks = rbf_matrix(m.Z, m.Z, m.diff_params) + 1e-6 * np.eye(m.M)
    drift_u = gram_blocked(x0[None], m.Z, m.drift_params, np.eye(m.D)) @ np.linalg.inv(Kf)
    grad_u = rbf_matrix(x0[None], m.Z, m.diff_params)[0] @ np.linalg.inv(Ks)
    np.testing.assert_allclose(gf, dt * seed @ drift_u, rtol=1e-12)
    np.testing.assert_allclose(gs, (seed @ dW) * grad_u, rtol=1e-12)


def test_injections_grow_even_at_zero_field():
    # with u = 0 the injection terms do not depend on u and stay nonzero
    m, c = small_model(seed=2)
    m0, c0 = update_values(c, m, U_f=np.zeros_like(m.U_f),
                           u_sigma=np.zeros_like(m.u_sigma))
    _, pullback = simulate_bundle_with_sensitivities(m0, c0, [0.1], one_step_grid(0.1),
                                                     np.full((1, 1, 1), 0.2))
    gf, gs = pullback(np.ones((1, 2, 1)))
    assert np.max(np.abs(gf)) > 0
    assert np.max(np.abs(gs)) > 0


def test_zero_steps_zero_sensitivities():
    m, c = small_model()
    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=0, obs_index={0.0: 0})
    paths, pullback = simulate_bundle_with_sensitivities(m, c, [0.4], grid,
                                                         np.zeros((1, 0, 1)))
    assert paths.shape == (1, 1, 1)
    gf, gs = pullback(np.ones((1, 1, 1)))
    assert np.all(gf == 0.0)
    assert np.all(gs == 0.0)


def frozen_noise_fd(m, c, x0, grid, inc, seeds, h=1e-5):
    """Finite differences of sum(seeds * x) at the observation nodes through
    the deterministic path map u -> x with the increments held fixed."""
    D, M = m.D, m.M
    nodes = grid.obs_indices

    def value(mm, cm):
        return np.sum(seeds * simulate_batch(mm, cm, x0, grid, inc[None])[0][nodes])

    fd_f = np.zeros(M * D)
    for q in range(M * D):
        up, um = m.u_f.copy(), m.u_f.copy()
        up[q] += h
        um[q] -= h
        fd_f[q] = (value(*update_values(c, m, U_f=up.reshape(M, D)))
                   - value(*update_values(c, m, U_f=um.reshape(M, D)))) / (2 * h)
    fd_s = np.zeros(M)
    for q in range(M):
        up, um = m.u_sigma.copy(), m.u_sigma.copy()
        up[q] += h
        um[q] -= h
        fd_s[q] = (value(*update_values(c, m, u_sigma=up))
                   - value(*update_values(c, m, u_sigma=um))) / (2 * h)
    return fd_f, fd_s


@pytest.mark.parametrize("seed,D,M", [(0, 1, 4), (1, 2, 4), (2, 2, 6), (3, 1, 9)])
def test_whole_trajectory_matches_frozen_noise_fd(seed, D, M):
    # the sweep's vector-Jacobian product seed^T dx/du at every node
    m, c = small_model(seed=seed, D=D, M=M)
    grid = build_grid(np.linspace(0.0, 1.0, 6), 8)
    inc = sample_increments(grid, 1, D, seed + 10)[0]
    seeds = np.random.default_rng(seed).normal(size=(grid.n_obs, D))
    x0 = np.full(D, 0.2)
    _, pullback = simulate_bundle_with_sensitivities(m, c, x0, grid, inc[None])
    gf, gs = pullback(seeds[None])
    fd_f, fd_s = frozen_noise_fd(m, c, x0, grid, inc, seeds)
    scale_f = max(1e-8, np.max(np.abs(fd_f)))
    scale_s = max(1e-8, np.max(np.abs(fd_s)))
    assert np.max(np.abs(gf - fd_f)) / scale_f <= 1e-4
    assert np.max(np.abs(gs - fd_s)) / scale_s <= 1e-4


def test_drift_only_diffusion_block_matches_oracle():
    # with u_sigma = 0 the diffusion block is still driven by its injection
    m, c = small_model(seed=4)
    m0, c0 = update_values(c, m, u_sigma=np.zeros(m.M))
    grid = build_grid(np.linspace(0.0, 1.0, 5), 6)
    inc = sample_increments(grid, 1, 1, 3)[0]
    seeds = np.zeros((grid.n_obs, 1))
    seeds[-1] = 1.0
    _, pullback = simulate_bundle_with_sensitivities(m0, c0, [0.1], grid, inc[None])
    _, gs = pullback(seeds[None])
    assert np.max(np.abs(gs)) > 0
    _, fd_s = frozen_noise_fd(m0, c0, [0.1], grid, inc, seeds)
    assert np.max(np.abs(gs - fd_s)) / max(1e-8, np.max(np.abs(fd_s))) <= 1e-4


def test_sensitivities_recorded_at_observation_nodes():
    # seeds enter at the observation nodes only: the start node carries no
    # dependence on u, every later node does, and the pullback is linear
    m, c = small_model(seed=5)
    times = np.array([0.0, 0.3, 0.7, 1.0])
    grid = build_grid(times, 10)
    inc = sample_increments(grid, 1, 1, 1)
    _, pullback = simulate_bundle_with_sensitivities(m, c, [0.0], grid, inc)
    parts = []
    for p in range(grid.n_obs):
        seed = np.zeros((1, grid.n_obs, 1))
        seed[0, p] = 1.0
        parts.append(pullback(seed))
    assert np.all(parts[0][0] == 0.0) and np.all(parts[0][1] == 0.0)
    assert all(np.max(np.abs(gf)) > 0 for gf, _ in parts[1:])
    gf, gs = pullback(np.arange(1.0, 5.0)[None, :, None])
    np.testing.assert_allclose(gf, sum(w * g for w, (g, _) in zip(range(1, 5), parts)),
                               rtol=1e-12)
    np.testing.assert_allclose(gs, sum(w * g for w, (_, g) in zip(range(1, 5), parts)),
                               rtol=1e-12)


def test_bundle_matches_per_sample_runs():
    m, c = small_model(seed=6, D=2)
    grid = build_grid(np.linspace(0.0, 1.0, 4), 5)
    incs = sample_increments(grid, 3, 2, 0)
    seeds = np.random.default_rng(6).normal(size=(3, grid.n_obs, 2))
    paths, pullback = simulate_bundle_with_sensitivities(m, c, [0.1, -0.2], grid, incs)
    gf, gs = pullback(seeds)
    sum_f, sum_s = 0.0, 0.0
    for s in range(3):
        p1, pb1 = simulate_bundle_with_sensitivities(m, c, [0.1, -0.2], grid, incs[s:s + 1])
        np.testing.assert_allclose(paths[s], p1[0], rtol=1e-13, atol=1e-15)
        g1f, g1s = pb1(seeds[s:s + 1])
        sum_f, sum_s = sum_f + g1f, sum_s + g1s
    np.testing.assert_allclose(gf, sum_f, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(gs, sum_s, rtol=1e-13, atol=1e-15)


def test_injection_jacobian_independent_of_u():
    # doubling u_f doubles the drift but leaves its u-Jacobian unchanged
    m, c = small_model(seed=7)
    m2, c2 = update_values(c, m, U_f=2.0 * m.U_f)
    seed = np.ones((1, 2, 1))
    grads = [simulate_bundle_with_sensitivities(mm, cm, [0.25], one_step_grid(0.1),
                                                np.zeros((1, 1, 1)))[1](seed)[0]
             for mm, cm in ((m, c), (m2, c2))]
    np.testing.assert_allclose(grads[0], grads[1], rtol=1e-13)


def test_non_finite_adjoint_raises_with_step():
    m, c = small_model(seed=8)
    grid = build_grid(np.linspace(0.0, 1.0, 5), 4)
    inc = sample_increments(grid, 2, 1, 0)
    _, pullback = simulate_bundle_with_sensitivities(m, c, [0.1], grid, inc)
    seeds = np.ones((2, grid.n_obs, 1))
    seeds[1, 2] = np.nan
    with pytest.raises(SensitivityError) as err:
        pullback(seeds)
    assert err.value.step == grid.obs_indices[2]
    # the fit's rejected-trial logic catches it as a simulation failure
    assert isinstance(err.value, SimulationError)


def test_cost_within_constant_factor_of_plain_simulation():
    import time

    m, c = small_model(seed=8, D=2, M=6)
    grid = build_grid(np.linspace(0.0, 2.0, 10), 20)
    incs = sample_increments(grid, 20, 2, 5)
    seeds = np.ones((20, grid.n_obs, 2))
    t0 = time.perf_counter()
    for _ in range(3):
        simulate_batch(m, c, [0.1, 0.1], grid, incs)
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(3):
        simulate_bundle_with_sensitivities(m, c, [0.1, 0.1], grid, incs)[1](seeds)
    with_sens = time.perf_counter() - t0
    assert with_sens <= 60 * plain + 0.05
