import numpy as np
import pytest

from gpsde.errors import InputError
from gpsde.field import InducingModel, build_cache
from gpsde.kernels import KernelParams
from gpsde.objective import Trajectory
from gpsde.systems import (
    GenSpec,
    distribution_discrepancy,
    diffusion_error,
    double_well,
    drift_error,
    energy_distance,
    generate,
    oscillator_hotspot,
    van_der_pol,
)


class TestDoubleWell:
    def test_drift_roots(self):
        sys_ = double_well()
        f = sys_.drift_fn(np.array([[0.0], [1.0], [-1.0]]))
        np.testing.assert_allclose(f, 0.0, atol=1e-14)

    def test_drift_formula_value(self):
        sys_ = double_well()
        assert sys_.drift_fn(np.array([[0.5]]))[0, 0] == pytest.approx(1.5)

    def test_constant_diffusion(self):
        sys_ = double_well()
        xs = np.linspace(-3, 3, 7)[:, None]
        np.testing.assert_allclose(sys_.diffusion_fn(xs), 1.5)

    def test_matches_independent_transcription(self):
        rng = np.random.default_rng(0)
        sys_ = double_well()
        for _ in range(5):
            x = rng.uniform(-2, 2)
            assert sys_.drift_fn([[x]])[0, 0] == pytest.approx(4.0 * x - 4.0 * x**3)


class TestOscillator:
    def test_pure_rotation_on_unit_circle(self):
        sys_ = oscillator_hotspot()
        for ang in np.linspace(0, 2 * np.pi, 9):
            x = np.array([[np.cos(ang), np.sin(ang)]])
            f = sys_.drift_fn(x)
            np.testing.assert_allclose(f, [[-x[0, 1], x[0, 0]]], atol=1e-12)

    def test_hotspot_peak_value(self):
        sys_ = oscillator_hotspot()
        got = sys_.diffusion_fn(np.array([[-1.0, -1.0]]))[0]
        assert got == pytest.approx(2.0 / np.pi + 0.3, rel=1e-12)

    def test_baseline_far_from_hotspot(self):
        sys_ = oscillator_hotspot()
        got = sys_.diffusion_fn(np.array([[10.0, 10.0]]))[0]
        assert got == pytest.approx(0.3, rel=1e-9)

    def test_matches_independent_transcription(self):
        rng = np.random.default_rng(1)
        sys_ = oscillator_hotspot()
        for _ in range(5):
            x1, x2 = rng.uniform(-2, 2, 2)
            f = sys_.drift_fn([[x1, x2]])[0]
            r2 = x1 * x1 + x2 * x2
            assert f[0] == pytest.approx(x1 * (1 - r2) - x2, rel=1e-12)
            assert f[1] == pytest.approx(x2 * (1 - r2) + x1, rel=1e-12)
            s = sys_.diffusion_fn([[x1, x2]])[0]
            d2 = (x1 + 1) ** 2 + (x2 + 1) ** 2
            expected = 2 * np.exp(-0.5 * d2 / 0.5) / (2 * np.pi * 0.5) + 0.3
            assert s == pytest.approx(expected, rel=1e-12)


class TestVanDerPol:
    def test_origin_is_fixed_point(self):
        sys_ = van_der_pol(1.0)
        np.testing.assert_allclose(sys_.drift_fn([[0.0, 0.0]]), 0.0, atol=1e-14)

    def test_zero_mu_is_harmonic_oscillator(self):
        sys_ = van_der_pol(0.0)
        f = sys_.drift_fn([[0.3, -0.7]])[0]
        np.testing.assert_allclose(f, [-0.7, -0.3], atol=1e-14)

    def test_limit_cycle_returns_near_start(self):
        # drift-only integration from (2, 0) comes back within 0.5 of it
        sys_ = van_der_pol(1.0)
        x = np.array([[2.0, 0.0]])
        dt = 0.001
        best = np.inf
        for i in range(int(9.0 / dt)):
            x = x + dt * sys_.drift_fn(x)
            if i > int(2.0 / dt):  # past the initial departure
                best = min(best, float(np.hypot(x[0, 0] - 2.0, x[0, 1])))
        assert best < 0.5


class TestGenerate:
    def spec(self, **kw):
        base = dict(n_traj=3, n_obs_per_traj=20, gen_dt=0.01, subsample_every=5,
                    noise_std=0.05, x0_box=np.array([[-1.5, 1.5]]), seed=7)
        base.update(kw)
        return GenSpec(**base)

    def test_shapes_and_times(self):
        trajs = generate(double_well(), self.spec())
        assert len(trajs) == 3
        for tr in trajs:
            assert tr.n_obs == 20 and tr.dim == 1
            np.testing.assert_allclose(np.diff(tr.times), 0.05)

    def test_deterministic_per_seed(self):
        a = generate(double_well(), self.spec())
        b = generate(double_well(), self.spec())
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.obs, tb.obs)

    def test_trajectory_prefix_stability(self):
        few = generate(double_well(), self.spec(n_traj=2))
        many = generate(double_well(), self.spec(n_traj=5))
        for ta, tb in zip(few, many[:2]):
            assert np.array_equal(ta.obs, tb.obs)

    def test_noise_free_diffusion_free_matches_euler_oracle(self):
        sys_ = double_well()
        from dataclasses import replace

        quiet = replace(sys_, diffusion_fn=lambda X: np.zeros(np.atleast_2d(X).shape[0]))
        spec = self.spec(noise_std=0.0, subsample_every=1, n_traj=1)
        tr = generate(quiet, spec)[0]
        x = tr.obs[0].copy()
        for i in range(1, tr.n_obs):
            x = x + spec.gen_dt * quiet.drift_fn(x[None])[0]
            np.testing.assert_allclose(tr.obs[i], x, rtol=1e-12)

    def test_invalid_spec(self):
        with pytest.raises(InputError):
            self.spec(gen_dt=0.0)
        with pytest.raises(InputError):
            self.spec(n_obs_per_traj=1)
        with pytest.raises(InputError):
            self.spec(x0_box=np.array([[2.0, -2.0]]))


def dense_fit_of(sys_, lo, hi, n=25, ell=0.4, sigma_const=None):
    """Oracle injection: an inducing model whose values are the true fields."""
    Z = np.linspace(lo, hi, n)[:, None]
    p = KernelParams(1.0, [ell])
    sig = sys_.diffusion_fn(Z) if sigma_const is None else np.full(n, sigma_const)
    return InducingModel(Z=Z, U_f=sys_.drift_fn(Z), u_sigma=sig,
                         drift_params=p, diff_params=p,
                         noise_vars=[0.01])


class TestFieldErrors:
    def test_oracle_injection_scores_near_zero(self):
        sys_ = double_well()
        fitted = dense_fit_of(sys_, -2.4, 2.4, n=41, ell=0.35)
        err = drift_error(sys_, fitted, [[-2.0, 2.0]], 61)
        assert err < 0.05
        err_s = diffusion_error(sys_, fitted, [[-1.5, 1.5]], 41)
        assert err_s < 0.05

    def test_zero_model_against_closed_form_rms(self):
        sys_ = double_well()
        p = KernelParams(1.0, [1.0])
        zero = InducingModel(Z=np.array([[0.0], [1.0]]), U_f=np.zeros((2, 1)),
                             u_sigma=np.zeros(2), drift_params=p, diff_params=p,
                             noise_vars=[0.1])
        grid_pts = np.linspace(-2, 2, 41)
        expected = np.sqrt(np.mean((4 * (grid_pts - grid_pts**3)) ** 2))
        got = drift_error(sys_, zero, [[-2.0, 2.0]], 41)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_single_shared_zero_point(self):
        sys_ = double_well()
        p = KernelParams(1.0, [1.0])
        zero = InducingModel(Z=np.array([[0.0], [1.0]]), U_f=np.zeros((2, 1)),
                             u_sigma=np.zeros(2), drift_params=p, diff_params=p,
                             noise_vars=[0.1])
        assert drift_error(sys_, zero, [[0.0, 0.0]], 1) == pytest.approx(0.0, abs=1e-12)

    def test_visited_region_mask_drops_far_grid(self):
        sys_ = double_well()
        fitted = dense_fit_of(sys_, -2.4, 2.4, n=41, ell=0.35)
        rng = np.random.default_rng(3)
        data = [
            Trajectory(times=np.arange(50) * 0.1, obs=rng.uniform(-1.2, 1.2, (50, 1)))
        ]
        wide_masked = drift_error(sys_, fitted, [[-5.0, 5.0]], 101, data=data)
        wide_unmasked = drift_error(sys_, fitted, [[-5.0, 5.0]], 101)
        assert wide_masked < wide_unmasked  # extrapolation region excluded


class TestEnergyDistance:
    def test_zero_for_identical_clouds(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        assert energy_distance(X, X) == pytest.approx(0.0, abs=1e-12)

    def test_positive_and_symmetric_for_distinct(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 1))
        Y = rng.normal(size=(100, 1)) + 2.0
        d = energy_distance(X, Y)
        assert d > 0.5
        assert d == pytest.approx(energy_distance(Y, X), rel=1e-12)


class TestDistributionDiscrepancy:
    def test_same_system_same_seed_is_exactly_zero(self):
        sys_ = double_well()
        d = distribution_discrepancy(sys_, sys_, [0.5], 1.0, 50, 3, dt=0.02)
        assert d == 0.0

    def test_independent_seeds_stay_below_calibrated_floor(self):
        sys_ = double_well()
        self_d = distribution_discrepancy(sys_, sys_, [0.5], 1.0, 400, 3,
                                          dt=0.02, fitted_seed=4)
        zero_model = dense_fit_of(sys_, -2, 2, n=9, ell=0.8)
        from dataclasses import replace

        frozen = replace(zero_model, U_f=np.zeros_like(zero_model.U_f),
                         u_sigma=np.zeros_like(zero_model.u_sigma))
        off_d = distribution_discrepancy(sys_, frozen, [0.5], 1.0, 400, 3,
                                         dt=0.02, fitted_seed=4)
        assert off_d > 5 * self_d  # degenerate model far above the noise floor

    def test_fitted_model_variant_accepted(self):
        sys_ = double_well()
        fitted = dense_fit_of(sys_, -2.4, 2.4, n=41, ell=0.35)
        d = distribution_discrepancy(sys_, fitted, [0.5], 0.5, 200, 5, dt=0.02)
        self_d = distribution_discrepancy(sys_, sys_, [0.5], 0.5, 200, 5,
                                          dt=0.02, fitted_seed=6)
        assert d < max(5 * self_d, 0.5)


class TestKdeL2Metric:
    def test_zero_for_identical_and_positive_for_distinct(self):
        from gpsde.systems import kde_l2_distance

        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 2))
        assert kde_l2_distance(X, X) == pytest.approx(0.0, abs=1e-14)
        Y = rng.normal(size=(80, 2)) + 1.5
        assert kde_l2_distance(X, Y) > 0.01

    def test_discrepancy_metric_switch(self):
        sys_ = double_well()
        d0 = distribution_discrepancy(sys_, sys_, [0.5], 0.5, 60, 3, dt=0.02,
                                      metric="kde_l2")
        assert d0 == 0.0
        d1 = distribution_discrepancy(sys_, sys_, [0.5], 0.5, 60, 3, dt=0.02,
                                      fitted_seed=4, metric="kde_l2")
        assert d1 > 0.0
        with pytest.raises(InputError):
            distribution_discrepancy(sys_, sys_, [0.5], 0.5, 60, 3, metric="nope")
