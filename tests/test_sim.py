import numpy as np
import pytest

from gpsde.errors import InputError, SimulationError
from gpsde.field import InducingModel, build_cache, drift_at, update_values
from gpsde.kernels import KernelParams
from gpsde.sim import (
    SimConfig,
    build_grid,
    sample_increments,
    sample_paths,
    simulate_batch,
    state_density,
)


def ou_model(theta=1.0, sigma=0.5, lo=-4.0, hi=4.0, n=33, ell=0.75):
    """Linear mean-reverting drift -theta*x and constant diffusion sigma,
    embedded on a dense 1-d inducing grid."""
    Z = np.linspace(lo, hi, n)[:, None]
    p = KernelParams(1.0, [ell])
    m = InducingModel(Z=Z, U_f=-theta * Z, u_sigma=np.full(n, sigma),
                      drift_params=p, diff_params=p,
                      noise_vars=[0.01])
    return m, build_cache(m)


class TestBuildGrid:
    def test_unit_times_factor_one(self):
        g = build_grid([0.0, 1.0, 2.0], 1)
        assert g.dt == pytest.approx(1.0)
        assert g.n_steps == 2
        assert list(g.obs_indices) == [0, 1, 2]

    def test_factor_scales_resolution(self):
        g = build_grid([0.0, 1.0], 100)
        assert g.dt == pytest.approx(0.01)
        assert g.n_steps == 100

    def test_observation_gap_half_unit(self):
        # generation at dt=0.005 observed every 100th state: gap 0.5
        times = np.arange(25) * (0.005 * 100)
        g = build_grid(times, 10)
        assert times[1] - times[0] == pytest.approx(0.5)
        assert g.dt == pytest.approx(0.05)
        assert g.n_obs == 25

    def test_snapping_within_half_step(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 10, size=12))
        g = build_grid(times, 25)
        tg = g.times
        for t, i in g.obs_index.items():
            assert abs(tg[i] - t) <= g.dt / 2 + 1e-12

    def test_bad_times_rejected(self):
        with pytest.raises(InputError):
            build_grid([0.0, 0.0, 1.0], 2)
        with pytest.raises(InputError):
            build_grid([0.0, 2.0, 1.0], 2)
        with pytest.raises(InputError):
            build_grid([0.0], 2)

    def test_collision_requires_finer_grid(self):
        with pytest.raises(InputError, match="resolution_factor"):
            build_grid([0.0, 1e-4, 10.0], 1)


class TestIncrements:
    def test_deterministic_per_seed(self):
        g = build_grid([0.0, 1.0], 10)
        a = sample_increments(g, 4, 2, 123)
        b = sample_increments(g, 4, 2, 123)
        assert np.array_equal(a, b)
        c = sample_increments(g, 4, 2, 124)
        assert not np.array_equal(a, c)

    def test_sample_substreams_stable_under_count(self):
        g = build_grid([0.0, 1.0], 10)
        few = sample_increments(g, 2, 1, 5)
        many = sample_increments(g, 6, 1, 5)
        assert np.array_equal(few, many[:2])

    def test_variance_matches_dt(self):
        g = build_grid([0.0, 10.0], 1000)  # dt = 0.01
        inc = sample_increments(g, 1000, 1, 99)
        v = inc.ravel().var()
        assert 0.0097 <= v <= 0.0103


class TestEulerMaruyama:
    def test_zero_field_constant_path(self):
        m, c = ou_model()
        m0, c0 = update_values(c, m, U_f=np.zeros_like(m.U_f),
                               u_sigma=np.zeros_like(m.u_sigma))
        g = build_grid([0.0, 1.0], 50)
        inc = sample_increments(g, 1, 1, 0)
        path = simulate_batch(m0, c0, [0.7], g, inc)[0]
        assert np.all(path == 0.7)

    def test_drift_only_matches_forward_euler_oracle(self):
        m, c = ou_model()
        m0, c0 = update_values(c, m, u_sigma=np.zeros_like(m.u_sigma))
        g = build_grid([0.0, 2.0], 80)
        inc = sample_increments(g, 1, 1, 1)
        path = simulate_batch(m0, c0, [1.0], g, inc)[0]
        # independent forward-Euler stepping of the same drift field
        x = np.array([1.0])
        for i in range(g.n_steps):
            x = x + g.dt * drift_at(x, m0, c0)
            assert path[i + 1] == pytest.approx(x[0], rel=1e-12)

    def test_ou_terminal_moments(self):
        theta, sigma, x0, t = 1.0, 0.5, 1.0, 1.0
        m, c = ou_model(theta, sigma)
        g = build_grid([0.0, t], 100)  # dt = 0.01
        bundle = sample_paths(m, c, [x0], g, 4000, 7)
        term = bundle.paths[:, -1, 0]
        mean_true = x0 * np.exp(-theta * t)
        var_true = sigma**2 * (1 - np.exp(-2 * theta * t)) / (2 * theta)
        se_mean = term.std(ddof=1) / np.sqrt(term.size)
        assert abs(term.mean() - mean_true) < 3 * se_mean + 0.02 * abs(mean_true)
        se_var = term.var(ddof=1) * np.sqrt(2.0 / (term.size - 1))
        assert abs(term.var(ddof=1) - var_true) < 3 * se_var + 0.02 * var_true

    def test_blowup_guard_reports_step(self):
        p = KernelParams(1.0, [1.0])
        # one step of this drift already exceeds the guard threshold
        m = InducingModel(Z=np.array([[0.0], [1.0]]), U_f=np.array([[0.0], [1e8]]),
                          u_sigma=np.zeros(2), drift_params=p, diff_params=p,
                          noise_vars=[0.1])
        c = build_cache(m)
        g = build_grid([0.0, 10.0], 100)
        inc = np.zeros((1, 100, 1))
        with pytest.raises(SimulationError) as err:
            simulate_batch(m, c, [1.0], g, inc)
        assert err.value.step is not None


class TestSamplePaths:
    def test_single_sample_reduces_to_euler_maruyama(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 20)
        bundle = sample_paths(m, c, [0.5], g, 1, 42)
        inc = sample_increments(g, 1, 1, 42)
        path = simulate_batch(m, c, [0.5], g, inc)[0]
        assert np.array_equal(bundle.paths[0], path)

    def test_deterministic_and_seed_sensitive(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 20)
        b1 = sample_paths(m, c, [0.5], g, 5, 1)
        b2 = sample_paths(m, c, [0.5], g, 5, 1)
        b3 = sample_paths(m, c, [0.5], g, 5, 2)
        assert np.array_equal(b1.paths, b2.paths)
        assert not np.array_equal(b1.paths, b3.paths)

    def test_initial_state_recorded(self):
        m, c = ou_model()
        g = build_grid([0.0, 0.5], 10)
        bundle = sample_paths(m, c, [0.3], g, 3, 0)
        assert np.all(bundle.paths[:, 0, 0] == 0.3)

    def test_bundle_matches_individual_runs(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 20)
        bundle = sample_paths(m, c, [0.5], g, 3, 9)
        for s in range(3):
            single = simulate_batch(m, c, [0.5], g, bundle.increments[s:s + 1])[0]
            np.testing.assert_allclose(bundle.paths[s], single, rtol=1e-12, atol=1e-14)

    def test_per_sample_initial_states(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 20)
        inc = sample_increments(g, 3, 1, 0)
        x0s = np.array([[0.1], [0.2], [0.3]])
        paths = simulate_batch(m, c, x0s, g, inc)
        np.testing.assert_array_equal(paths[:, 0], x0s)
        for s in range(3):
            single = simulate_batch(m, c, x0s[s], g, inc[s:s + 1])[0]
            np.testing.assert_allclose(paths[s], single, rtol=1e-12)


class TestWeakConvergence:
    def test_halving_dt_shrinks_ou_moment_error(self):
        # common Brownian path: coarse increments are sums of fine ones
        theta, sigma, x0, t = 1.0, 0.5, 1.0, 1.0
        m, c = ou_model(theta, sigma)
        fine = build_grid([0.0, t], 40)  # dt = 0.025
        inc_fine = sample_increments(fine, 3000, 1, 11)
        mean_true = x0 * np.exp(-theta * t)

        errs = []
        for agg in (4, 2, 1):  # dt = 0.1, 0.05, 0.025
            n = 40 // agg
            g = build_grid([0.0, t], n)
            inc = inc_fine.reshape(3000, n, agg, 1).sum(axis=2)
            paths = simulate_batch(m, c, [x0], g, inc)
            errs.append(abs(paths[:, -1, 0].mean() - mean_true))
        assert errs[0] > errs[1] > errs[2]


class TestStateDensity:
    def test_single_path_peak_value(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 10)
        bundle = sample_paths(m, c, [0.4], g, 1, 3)
        x_end = bundle.paths[0, -1]
        h = 0.3
        val = state_density(bundle, g.n_steps, [x_end], h)
        assert val[0] == pytest.approx((2 * np.pi * h**2) ** -0.5, rel=1e-12)

    def test_nonnegative_and_integrates_to_one(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 50)
        bundle = sample_paths(m, c, [0.0], g, 40, 21)
        xs = np.linspace(-6, 6, 601)[:, None]
        dens = state_density(bundle, g.n_steps, xs, 0.25)
        assert np.all(dens >= 0)
        riemann = dens.sum() * (xs[1, 0] - xs[0, 0])
        assert 0.98 <= riemann <= 1.02

    def test_input_validation(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 10)
        bundle = sample_paths(m, c, [0.0], g, 2, 0)
        with pytest.raises(InputError):
            state_density(bundle, 0, [[0.0]], -1.0)


def test_sim_config_validation():
    with pytest.raises(InputError):
        SimConfig(resolution_factor=0)
    with pytest.raises(InputError):
        SimConfig(n_samples=0)
    with pytest.raises(InputError):
        SimConfig(resample_period=0)
    assert SimConfig(resample_period=None).resample_period is None
