import numpy as np
import pytest

from gpsde.errors import InputError
from gpsde.field import InducingModel, build_cache, log_prior, update_values
from gpsde.kernels import KernelParams
from gpsde.objective import (
    SEGMENT_INTERVALS,
    ObjectiveValue,
    Trajectory,
    draw_increments,
    evaluate_with_increments,
    log_posterior,
    make_grids,
    mc_loglik_grad,
    _obs_logliks,
)
from gpsde.sensitivity import simulate_bundle_with_sensitivities
from gpsde.sim import PathBundle, SimConfig, build_grid, sample_increments, sample_paths


# more than two segments, the last one shorter than the others
LONG_N_OBS = 2 * SEGMENT_INTERVALS + 10


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
        noise_vars=np.full(D, 0.04),
    )
    return m, build_cache(m)


def make_problem(seed=0, D=1, n_obs=5, n_samples=3, factor=6):
    m, c = small_model(seed=seed, D=D)
    rng = np.random.default_rng(seed + 100)
    times = np.linspace(0.0, 1.0, n_obs)
    tr = Trajectory(times=times, obs=0.4 * rng.normal(size=(n_obs, D)))
    grids = make_grids([tr], factor)
    incs = draw_increments([tr], grids, m, n_samples, seed + 7)
    return m, c, tr, grids, incs


def bundle_for(m, c, tr, grid, inc):
    """The bundle and the pullback ``mc_loglik_grad`` takes for it."""
    paths, pullback = simulate_bundle_with_sensitivities(m, c, tr.obs[0], grid, inc)
    return (PathBundle(paths=paths, increments=inc, seed=None, grid=grid),
            lambda seeds: pullback(seeds[0]))


def mc_loglik(tr, m, b):
    """Monte Carlo log-likelihood of one trajectory's bundle."""
    per_obs, _, _ = _obs_logliks(tr.obs, b.paths[:, b.grid.obs_indices, :], m.noise_vars)
    return float(per_obs.sum())


class TestMcLoglik:
    def test_zero_residual_closed_form(self):
        # one sample whose path nodes coincide with the observations
        m, c = small_model()
        times = np.array([0.0, 0.5, 1.0])
        grid = build_grid(times, 2)
        y = np.array([[0.1], [0.2], [0.3]])
        tr = Trajectory(times=times, obs=y)
        paths = np.zeros((1, grid.n_steps + 1, 1))
        paths[0, grid.obs_indices, 0] = y[:, 0]
        b = PathBundle(paths=paths, increments=np.zeros((1, 2, 1)), seed=None, grid=grid)
        got = mc_loglik(tr, m, b)
        N, D = 3, 1
        expected = -(N * D / 2) * np.log(2 * np.pi) - (N / 2) * np.sum(np.log(m.noise_vars))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_duplicating_samples_leaves_value_unchanged(self):
        m, c, tr, grids, incs = make_problem()
        b, _ = bundle_for(m, c, tr, grids[0], incs[0])
        doubled = PathBundle(paths=np.concatenate([b.paths, b.paths]),
                             increments=np.concatenate([b.increments, b.increments]),
                             seed=None, grid=b.grid)
        assert mc_loglik(tr, m, doubled) == pytest.approx(mc_loglik(tr, m, b), rel=1e-12)

    def test_matches_naive_mixture_oracle(self):
        m, c, tr, grids, incs = make_problem(seed=3)
        b, _ = bundle_for(m, c, tr, grids[0], incs[0])
        states = b.paths[:, b.grid.obs_indices, :]
        total = 0.0
        for i in range(tr.n_obs):
            dens = 0.0
            for s in range(states.shape[0]):
                r = tr.obs[i] - states[s, i]
                dens += np.prod(np.exp(-0.5 * r**2 / m.noise_vars)
                                / np.sqrt(2 * np.pi * m.noise_vars))
            total += np.log(dens / states.shape[0])
        assert mc_loglik(tr, m, b) == pytest.approx(total, abs=1e-10)

    def test_additivity_over_observations(self):
        m, c, tr, grids, incs = make_problem(seed=4)
        b, pullback = bundle_for(m, c, tr, grids[0], incs[0])
        val = mc_loglik_grad([tr], m, [b], pullback)
        assert val.per_obs_loglik.shape == (tr.n_obs,)
        lp_sum = val.per_obs_loglik.sum() + log_prior(m, build_cache(m))
        assert val.log_posterior == pytest.approx(lp_sum, rel=1e-12)
        # appending a negative-loglik term can only lower the total
        assert val.per_obs_loglik[-1] < 0
        partial = val.per_obs_loglik[:-1].sum()
        assert val.per_obs_loglik.sum() < partial

        # a trajectory longer than one segment still gives one term per
        # observation, in observation order; each segment scores like a
        # trajectory of its own observations and slice of the increments,
        # except that its first observation is scored by the segment before
        m, c, tr, grids, incs = make_problem(seed=4, n_obs=LONG_N_OBS)
        val = evaluate_with_increments([tr], m, c, grids, incs)
        assert val.per_obs_loglik.shape == (tr.n_obs,)
        lp_sum = val.per_obs_loglik.sum() + log_prior(m, c)
        assert val.log_posterior == pytest.approx(lp_sum, rel=1e-12)
        for a in range(0, tr.n_obs - 1, SEGMENT_INTERVALS):
            b = min(a + SEGMENT_INTERVALS, tr.n_obs - 1)
            part = Trajectory(times=tr.times[a:b + 1], obs=tr.obs[a:b + 1])
            g = make_grids([part], 6)[0]
            node = grids[0].obs_indices[a]
            part_val = evaluate_with_increments(
                [part], m, c, [g], [incs[0][:, node:node + g.n_steps]])
            first = 0 if a == 0 else 1
            np.testing.assert_allclose(val.per_obs_loglik[a + first:b + 1],
                                       part_val.per_obs_loglik[first:], rtol=1e-9)
        # the trajectory's first observation is scored against its start state
        assert val.per_obs_loglik[0] == pytest.approx(
            -0.5 * np.sum(np.log(2 * np.pi * m.noise_vars)), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        m, c, tr, grids, incs = make_problem()
        b, pullback = bundle_for(m, c, tr, grids[0], incs[0])
        with pytest.raises(InputError):
            mc_loglik_grad([tr], m, [b, b], pullback)


class TestSoftmaxWeights:
    def test_weights_sum_to_one(self):
        m, c, tr, grids, incs = make_problem(seed=5, n_samples=4)
        b, _ = bundle_for(m, c, tr, grids[0], incs[0])
        states = b.paths[:, b.grid.obs_indices, :]
        _, _, w = _obs_logliks(tr.obs, states, m.noise_vars)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=1e-12)

    def test_degenerate_weights_for_identical_samples(self):
        # zero diffusion and identical increments make every sample the same
        m, c = small_model(seed=6)
        m0, c0 = update_values(c, m, u_sigma=np.zeros(m.M))
        times = np.linspace(0.0, 1.0, 4)
        tr = Trajectory(times=times, obs=0.3 * np.ones((4, 1)))
        grid = make_grids([tr], 5)[0]
        inc = np.zeros((3, grid.n_steps, 1))
        b, pullback = bundle_for(m0, c0, tr, grid, inc)
        states = b.paths[:, grid.obs_indices, :]
        _, _, w = _obs_logliks(tr.obs, states, m0.noise_vars)
        np.testing.assert_allclose(w, 1.0 / 3.0, rtol=1e-12)
        # the mixture gradient reduces to the plain single-path chain rule
        val = mc_loglik_grad([tr], m0, [b], pullback)
        single, pullback1 = bundle_for(m0, c0, tr, grid, inc[:1])
        val1 = mc_loglik_grad([tr], m0, [single], pullback1)
        np.testing.assert_allclose(val.grad_u_f, val1.grad_u_f, rtol=1e-10)


class TestGradients:
    def frozen_fd(self, trajs, m, cache, grids, incs, h=1e-5):
        M, D = m.M, m.D
        MD = M * D

        def value(x):
            m2, c2 = update_values(
                cache, m, U_f=x[:MD].reshape(M, D), u_sigma=x[MD:MD + M],
                noise_vars=np.exp(x[MD + M:]))
            return evaluate_with_increments(trajs, m2, c2, grids, incs).log_posterior

        x0 = np.concatenate([m.u_f, m.u_sigma, np.log(m.noise_vars)])
        g = np.zeros_like(x0)
        for q in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[q] += h
            xm[q] -= h
            g[q] = (value(xp) - value(xm)) / (2 * h)
        return g

    @pytest.mark.parametrize("seed,D,n_obs", [
        pytest.param(0, 1, 5, id="0-1"),
        pytest.param(1, 2, 5, id="1-2"),
        pytest.param(2, 2, 5, id="2-2"),
        # longer than one segment: samples restart at segment boundaries
        pytest.param(3, 1, LONG_N_OBS, id="3-1-long"),
    ])
    def test_full_gradient_matches_frozen_noise_fd(self, seed, D, n_obs):
        m, c, tr, grids, incs = make_problem(seed=seed, D=D, n_obs=n_obs, n_samples=3)
        val = evaluate_with_increments([tr], m, c, grids, incs)
        fd = self.frozen_fd([tr], m, c, grids, incs)
        an = val.packed_grad()
        rel = np.abs(an - fd) / np.maximum(1e-8, np.abs(fd))
        assert rel.max() <= 1e-4

    def test_noise_gradient_stationarity(self):
        # fixed-point iteration on omega^2: at the weighted mean squared
        # residual the analytic log-noise gradient vanishes
        m, c, tr, grids, incs = make_problem(seed=9, n_samples=4)
        nv = m.noise_vars.copy()
        for _ in range(200):
            m2, c2 = update_values(c, m, noise_vars=nv)
            b, _ = bundle_for(m2, c2, tr, grids[0], incs[0])
            states = b.paths[:, b.grid.obs_indices, :]
            _, _, w = _obs_logliks(tr.obs, states, nv)
            res2 = (tr.obs[None] - states) ** 2
            nv = np.einsum("sn,snd->d", w, res2) / tr.n_obs
        m2, c2 = update_values(c, m, noise_vars=nv)
        b, pullback = bundle_for(m2, c2, tr, grids[0], incs[0])
        val = mc_loglik_grad([tr], m2, [b], pullback, cache=c2)
        assert np.max(np.abs(val.grad_log_noise)) < 1e-6


class TestLogPosterior:
    def test_deterministic_per_seed(self):
        m, _ = small_model(seed=11)
        rng = np.random.default_rng(0)
        tr = Trajectory(times=np.linspace(0, 1, 5), obs=0.3 * rng.normal(size=(5, 1)))
        sim = SimConfig(resolution_factor=4, n_samples=4, seed=5)
        v1 = log_posterior([tr], m, sim)
        v2 = log_posterior([tr], m, sim)
        assert v1.log_posterior == v2.log_posterior
        assert np.array_equal(v1.grad_u_f, v2.grad_u_f)
        v3 = log_posterior([tr], m, SimConfig(resolution_factor=4, n_samples=4, seed=6))
        assert v1.log_posterior != v3.log_posterior

    def test_zero_values_reduce_to_prior_constant(self):
        m, c = small_model(seed=12)
        m0, _ = update_values(c, m, U_f=np.zeros_like(m.U_f),
                              u_sigma=np.zeros_like(m.u_sigma))
        rng = np.random.default_rng(1)
        tr = Trajectory(times=np.linspace(0, 1, 4), obs=rng.normal(size=(4, 1)))
        sim = SimConfig(resolution_factor=3, n_samples=3, seed=2)
        val = log_posterior([tr], m0, sim)
        c0 = build_cache(m0)
        prior = log_prior(m0, c0)
        assert val.log_posterior == pytest.approx(val.per_obs_loglik.sum() + prior, rel=1e-12)
        n_f, n_s = m.M * m.D, m.M
        expected_prior = (-0.5 * (c0.logdet_f + c0.logdet_s)
                          - 0.5 * (n_f + n_s) * np.log(2 * np.pi))
        assert prior == pytest.approx(expected_prior, rel=1e-12)

    def test_permutation_invariance(self):
        m, c = small_model(seed=13)
        rng = np.random.default_rng(3)
        trs = [Trajectory(times=np.linspace(0, 1, 4), obs=0.3 * rng.normal(size=(4, 1)))
               for _ in range(3)]
        grids = make_grids(trs, 4)
        incs = draw_increments(trs, grids, m, 3, 9)
        val = evaluate_with_increments(trs, m, c, grids, incs)
        perm = [2, 0, 1]
        val_p = evaluate_with_increments([trs[j] for j in perm], m, c,
                                         [grids[j] for j in perm],
                                         [incs[j] for j in perm])
        assert val_p.log_posterior == pytest.approx(val.log_posterior, abs=1e-12)
        np.testing.assert_allclose(val_p.grad_u_f, val.grad_u_f, atol=1e-12)
        # reordering samples within a bundle
        b, pullback = bundle_for(m, c, trs[0], grids[0], incs[0])
        b2, pullback2 = bundle_for(m, c, trs[0], grids[0], incs[0][[2, 1, 0]])
        v1 = mc_loglik_grad([trs[0]], m, [b], pullback)
        v2 = mc_loglik_grad([trs[0]], m, [b2], pullback2)
        assert v2.log_posterior == pytest.approx(v1.log_posterior, abs=1e-12)
        np.testing.assert_allclose(v2.grad_u_f, v1.grad_u_f, rtol=1e-10)

    def test_mixture_mean_unbiased_across_seeds(self):
        # the per-observation mixture likelihood is an unbiased average:
        # its mean over many small-sample runs matches one large-sample run
        m, c = small_model(seed=14)
        rng = np.random.default_rng(4)
        tr = Trajectory(times=np.linspace(0, 0.5, 3), obs=0.3 * rng.normal(size=(3, 1)))
        grid = make_grids([tr], 6)[0]

        def mixture_means(n_samples, seed):
            b = sample_paths(m, c, tr.obs[0], grid, n_samples, seed)
            states = b.paths[:, grid.obs_indices, :]
            per_obs, _, _ = _obs_logliks(tr.obs, states, m.noise_vars)
            return np.exp(per_obs)

        small = np.array([mixture_means(8, 1000 + s) for s in range(200)])
        big = mixture_means(4000, 77)
        se = small.std(axis=0, ddof=1) / np.sqrt(small.shape[0])
        assert np.all(np.abs(small.mean(axis=0) - big) <= 3 * se + 1e-4)


def test_trajectory_validation():
    with pytest.raises(InputError):
        Trajectory(times=[0.0, 0.0], obs=np.zeros((2, 1)))
    with pytest.raises(InputError):
        Trajectory(times=[0.0, 1.0], obs=np.zeros((3, 1)))
    with pytest.raises(InputError):
        Trajectory(times=[0.0, 1.0], obs=np.array([[0.0], [np.nan]]))
    tr = Trajectory(times=[0.0, 1.0], obs=[[0.0], [1.0]])
    assert tr.n_obs == 2 and tr.dim == 1
