import numpy as np
import pytest

from gpsde import fit as fit_module
from gpsde.errors import FitError, InputError, SimulationError
from gpsde.fit import (
    FitConfig,
    build_inducing_grid,
    default_lengthscale_grid,
    fit_map,
    gradient_match_init,
    init_noise_vars,
)
from gpsde.field import build_cache, drift_batch
from gpsde.kernels import KernelParams
from gpsde.objective import Trajectory
from gpsde.sim import SimConfig
from gpsde.systems import GenSpec, double_well, generate


@pytest.fixture(scope="module")
def small_dataset():
    spec = GenSpec(n_traj=3, n_obs_per_traj=40, gen_dt=0.005, subsample_every=2,
                   noise_std=0.05, x0_box=np.array([[-1.5, 1.5]]), seed=3)
    return generate(double_well(), spec)


def quick_config(max_iters=8, seed=0, resample_period=None):
    return FitConfig(
        lengthscale_grid=((0.8, 0.8),),
        inducing_grid_spec=((-2.5, 2.5, 7),),
        sim=SimConfig(resolution_factor=1, n_samples=8, seed=seed,
                      resample_period=resample_period),
        max_iters=max_iters,
    )


class TestInducingGrid:
    def test_explicit_1d_bounds(self):
        Z = build_inducing_grid(((-5.0, 5.0, 15),), [])
        assert Z.shape == (15, 1)
        np.testing.assert_allclose(Z[:, 0], np.linspace(-5, 5, 15))

    def test_3d_counts_multiply(self):
        Z = build_inducing_grid(((-1, 1, 5), (-1, 1, 5), (-1, 1, 5)), [])
        assert Z.shape == (125, 3)

    def test_2x2_corners(self):
        Z = build_inducing_grid(((0.0, 1.0, 2), (0.0, 1.0, 2)), [])
        corners = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        assert {tuple(z) for z in Z} == corners

    def test_auto_bounds_cover_data_with_margin(self):
        tr = Trajectory(times=[0.0, 1.0, 2.0], obs=[[0.0], [4.0], [10.0]])
        Z = build_inducing_grid(((None, None, 5),), [tr])
        assert Z[0, 0] == pytest.approx(-1.0)   # min - 10% span
        assert Z[-1, 0] == pytest.approx(11.0)  # max + 10% span

    def test_degenerate_range_rejected(self):
        tr = Trajectory(times=[0.0, 1.0], obs=[[2.0], [2.0]])
        with pytest.raises(InputError):
            build_inducing_grid(((None, None, 4),), [tr])


class TestGradientMatchInit:
    def test_noiseless_linear_path_recovers_velocity(self):
        v = 1.3
        times = np.linspace(0, 2, 30)
        tr = Trajectory(times=times, obs=(v * times)[:, None])
        Z = np.linspace(0.2, 2.2, 6)[:, None]
        U, us = gradient_match_init([tr], Z, KernelParams(1.0, [1.0]), ridge=1e-6)
        np.testing.assert_allclose(U[:, 0], v, atol=0.05)
        assert us[0] < 0.2  # near-zero increment residual

    def test_two_point_trajectory_well_posed(self):
        tr = Trajectory(times=[0.0, 0.5], obs=[[0.0], [1.0]])
        Z = np.array([[0.0], [1.0]])
        U, us = gradient_match_init([tr], Z, KernelParams(1.0, [1.0]))
        assert np.all(np.isfinite(U)) and np.all(np.isfinite(us))

    def test_short_trajectories_skipped_with_warning(self):
        good = Trajectory(times=[0.0, 0.5, 1.0], obs=[[0.0], [0.5], [1.0]])
        stub = Trajectory(times=[0.0], obs=[[2.0]])
        Z = np.array([[0.0], [1.0]])
        with pytest.warns(UserWarning):
            U, _ = gradient_match_init([good, stub], Z, KernelParams(1.0, [1.0]))
        assert np.all(np.isfinite(U))
        with pytest.raises(InputError):
            gradient_match_init([stub], Z, KernelParams(1.0, [1.0]))

    def test_order_independence(self, small_dataset):
        Z = np.linspace(-2, 2, 7)[:, None]
        p = KernelParams(1.0, [0.8])
        a = gradient_match_init(small_dataset, Z, p)
        b = gradient_match_init(small_dataset[::-1], Z, p)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_double_well_init_correlates_with_truth(self):
        spec = GenSpec(n_traj=6, n_obs_per_traj=250, gen_dt=0.005, subsample_every=2,
                       noise_std=0.1, x0_box=np.array([[-2.0, 2.0]]), seed=1)
        data = generate(double_well(), spec)
        Z = np.linspace(-5, 5, 15)[:, None]
        U, us = gradient_match_init(data, Z, KernelParams(1.0, [0.8]))
        xs = np.linspace(-2, 2, 41)[:, None]
        from gpsde.field import InducingModel

        m = InducingModel(Z=Z, U_f=U, u_sigma=us, drift_params=KernelParams(1.0, [0.8]),
                          diff_params=KernelParams(1.0, [0.8]),
                          noise_vars=[0.01])
        fhat = drift_batch(xs, build_cache(m)).ravel()
        ftrue = 4 * (xs.ravel() - xs.ravel() ** 3)
        corr = np.corrcoef(fhat, ftrue)[0, 1]
        assert corr > 0.5


class TestFitMap:
    def test_zero_iterations_returns_initialization(self, small_dataset):
        cfg = quick_config(max_iters=0)
        rep = fit_map(small_dataset, cfg)
        Z = build_inducing_grid(cfg.inducing_grid_spec, small_dataset)
        p = KernelParams(1.0, np.array([0.8]))
        U0, us0 = gradient_match_init(small_dataset, Z, p)
        np.testing.assert_array_equal(rep.final_model.U_f, U0)
        np.testing.assert_array_equal(rep.final_model.u_sigma, us0)
        np.testing.assert_array_equal(rep.final_model.noise_vars,
                                      init_noise_vars(small_dataset))
        assert rep.final_log_posterior == rep.init_log_posterior

    def test_seeded_rerun_is_identical(self, small_dataset):
        r1 = fit_map(small_dataset, quick_config())
        r2 = fit_map(small_dataset, quick_config())
        assert np.array_equal(r1.final_model.U_f, r2.final_model.U_f)
        assert np.array_equal(r1.final_model.u_sigma, r2.final_model.u_sigma)
        assert r1.trace == r2.trace
        assert r1.final_log_posterior == r2.final_log_posterior

    def test_trace_monotone_within_epoch(self, small_dataset):
        rep = fit_map(small_dataset, quick_config(max_iters=12))
        lps = [lp for _, lp, _ in rep.trace]
        assert all(b >= a - 1e-9 for a, b in zip(lps, lps[1:]))

    def test_fit_improves_on_init(self, small_dataset):
        rep = fit_map(small_dataset, quick_config(max_iters=12))
        assert rep.final_log_posterior > rep.init_log_posterior

    def test_selection_returns_grid_member(self, small_dataset):
        cfg = FitConfig(
            lengthscale_grid=((0.6, 0.6), (1.2, 1.2)),
            inducing_grid_spec=((-2.5, 2.5, 7),),
            sim=SimConfig(resolution_factor=1, n_samples=6, seed=0,
                          resample_period=None),
            max_iters=5,
        )
        rep = fit_map(small_dataset, cfg)
        sel = float(np.ravel(rep.selected_lengthscales[0])[0])
        assert sel in (0.6, 1.2)
        assert len(rep.candidates) == 2
        assert rep.final_log_posterior == max(c["final_log_posterior"]
                                              for c in rep.candidates)

    def test_resampling_epochs_recorded(self, small_dataset):
        rep = fit_map(small_dataset, quick_config(max_iters=9, resample_period=3))
        assert len(rep.epoch_starts) >= 2
        # within each epoch the trace stays non-decreasing
        bounds = list(rep.epoch_starts) + [len(rep.trace)]
        for a, b in zip(bounds, bounds[1:]):
            lps = [lp for _, lp, _ in rep.trace[a:b]]
            assert all(y >= x - 1e-9 for x, y in zip(lps, lps[1:]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            fit_map([], quick_config())


def blow_up_on_call(monkeypatch, call):
    """Make the fit's ``call``-th objective evaluation raise a blow-up."""
    calls = [0]
    evaluate = fit_module.evaluate_with_increments

    def flaky(*args, **kwargs):
        calls[0] += 1
        if calls[0] == call:
            raise SimulationError("state exceeded 1e+06 at step 1 (sample 0)",
                                  step=1, sample=0)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(fit_module, "evaluate_with_increments", flaky)


class TestRejectedTrials:
    def test_blown_up_trial_point_is_rejected(self, small_dataset, monkeypatch):
        # call 1 scores the initialisation, call 2 is L-BFGS-B's evaluation of
        # the same point, call 3 its first line-search trial point
        blow_up_on_call(monkeypatch, 3)
        rep = fit_map(small_dataset, quick_config(max_iters=6))
        assert rep.termination != "error"
        assert rep.rejected_trials == 1
        assert rep.candidates[0]["rejected_trials"] == 1
        lps = [lp for _, lp, _ in rep.trace]
        assert len(lps) > 1
        assert all(b >= a - 1e-9 for a, b in zip(lps, lps[1:]))

    @pytest.mark.parametrize("call", [1, 2])
    def test_blow_up_at_initial_point_fails_candidate(self, small_dataset,
                                                      monkeypatch, call):
        blow_up_on_call(monkeypatch, call)
        with pytest.raises(FitError) as err:
            fit_map(small_dataset, quick_config(max_iters=6))
        (diag,) = err.value.diagnostics
        assert diag["termination"] == "error"
        assert diag["rejected_trials"] == 0


def test_config_validation():
    with pytest.raises(InputError):
        FitConfig(lengthscale_grid=(), inducing_grid_spec=((-1, 1, 4),))
    with pytest.raises(InputError):
        FitConfig(lengthscale_grid=((1.0, 1.0),), inducing_grid_spec=((-1, 1, 1),))
    with pytest.raises(InputError):
        FitConfig(lengthscale_grid=((1.0, 1.0),), inducing_grid_spec=((-1, 1, 4),),
                  grad_tol=0.0)


def test_default_lengthscale_grid_scales_with_data():
    tr = Trajectory(times=[0.0, 1.0, 2.0], obs=[[0.0, 0.0], [2.0, 0.2], [4.0, 0.4]])
    grid = default_lengthscale_grid([tr])
    assert len(grid) == 4
    lf, ls = grid[2]  # the 1.0x entry
    np.testing.assert_allclose(lf, np.std([[0, 0], [2, 0.2], [4, 0.4]], axis=0))
    np.testing.assert_allclose(lf, ls)
