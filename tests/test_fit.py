from dataclasses import replace

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
from gpsde.field import InducingModel, build_cache, drift_batch, grid_points
from gpsde.kernels import JITTER_SCALE, KernelParams, gram, rbf_matrix
from gpsde.objective import Trajectory
from gpsde.systems import GenSpec, double_well, generate, oscillator_hotspot


@pytest.fixture(scope="module")
def small_dataset():
    spec = GenSpec(n_traj=3, n_obs_per_traj=40, gen_dt=0.005, subsample_every=2,
                   noise_std=0.05, x0_box=np.array([[-1.5, 1.5]]), seed=3)
    return generate(double_well(), spec)


def quick_config(max_iters=8, seed=0):
    return FitConfig(
        lengthscale_grid=(0.8,),
        inducing_grid_spec=((-2.5, 2.5, 7),),
        resolution_factor=1, n_samples=8, seed=seed,
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


def init_on(data, Z, p, **kw):
    """gradient_match_init on the grid Z with drift kernel p."""
    m = InducingModel(Z=Z, U_f=np.zeros(Z.shape), u_sigma=np.zeros(len(Z)), drift_params=p,
                      diff_params=p, noise_vars=np.ones(Z.shape[1]))
    return gradient_match_init(data, build_cache(m), **kw)


class TestGradientMatchInit:
    def test_noiseless_linear_path_recovers_velocity(self):
        v = 1.3
        times = np.linspace(0, 2, 30)
        tr = Trajectory(times=times, obs=(v * times)[:, None])
        Z = np.linspace(0.2, 2.2, 6)[:, None]
        U, us = init_on([tr], Z, KernelParams(1.0, [1.0]))
        np.testing.assert_allclose(U[:, 0], v, atol=0.05)
        assert us[0] < 0.2  # near-zero increment residual

    def test_two_point_trajectory_well_posed(self):
        tr = Trajectory(times=[0.0, 0.5], obs=[[0.0], [1.0]])
        Z = np.array([[0.0], [1.0]])
        U, us = init_on([tr], Z, KernelParams(1.0, [1.0]))
        assert np.all(np.isfinite(U)) and np.all(np.isfinite(us))

    def test_one_observation_trajectory_rejected(self):
        # a stub is rejected where it is built, so the init never sees one
        with pytest.raises(InputError, match="two observations"):
            Trajectory(times=[0.0], obs=[[2.0]])

    def test_order_independence(self, small_dataset):
        Z = np.linspace(-2, 2, 7)[:, None]
        p = KernelParams(1.0, [0.8])
        a = init_on(small_dataset, Z, p)
        b = init_on(small_dataset[::-1], Z, p)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("axes, ls, n_traj, n_obs", [
        ([np.linspace(-2, 2, 9)], [0.7], 1, 5),
        ([np.linspace(-2, 2, 9)], [0.7], 3, 40),
        ([np.linspace(-2, 2, 5), np.linspace(-1.5, 1.5, 4)], [0.6, 1.1], 2, 6),
        ([np.linspace(-2, 2, 5), np.linspace(-1.5, 1.5, 4)], [0.6, 1.1], 4, 30),
    ], ids=["1d-fewer-quotients", "1d-more-quotients", "2d-fewer-quotients",
            "2d-more-quotients"])
    def test_matches_dense_subset_of_regressors_oracle(self, axes, ls, n_traj, n_obs):
        # U_f = K (K_ZX K_XZ + r K)^{-1} K_ZX G with K the jittered Gram matrix,
        # and the diffusion from the fitted quotients K_XZ (...)^{-1} K_ZX G
        rng = np.random.default_rng(n_traj * n_obs)
        Z, p = grid_points(axes), KernelParams(1.3, ls)
        data = [Trajectory(times=np.cumsum(rng.uniform(0.05, 0.15, n_obs)),
                           obs=rng.uniform(-2, 2, size=(n_obs, len(axes))))
                for _ in range(n_traj)]
        assert (n_traj * (n_obs - 1) < len(Z)) == (n_obs < 10)
        X = np.concatenate([tr.obs[:-1] for tr in data])
        DT = np.concatenate([np.diff(tr.times) for tr in data])[:, None]
        G = np.concatenate([np.diff(tr.obs, axis=0) for tr in data]) / DT
        r = 0.5 * np.mean(G.var(axis=0))
        K = gram(Z, Z, p) + JITTER_SCALE * p.variance * np.eye(len(Z))
        Kxz = rbf_matrix(X, Z, p)
        alpha = np.linalg.solve(Kxz.T @ Kxz + r * K, Kxz.T @ G)
        resid2 = ((G - Kxz @ alpha) * DT) ** 2
        noise = 0.01
        sig = np.sqrt(np.mean(np.maximum(resid2 - 2 * noise, 0.1 * resid2) / DT))
        U, us = init_on(data, Z, p, noise_vars=[noise] * len(axes))
        np.testing.assert_allclose(U, K @ alpha, rtol=0, atol=1e-12 * np.abs(K @ alpha).max())
        np.testing.assert_allclose(us, sig, rtol=1e-12)

    def test_double_well_init_correlates_with_truth(self):
        spec = GenSpec(n_traj=6, n_obs_per_traj=250, gen_dt=0.005, subsample_every=2,
                       noise_std=0.1, x0_box=np.array([[-2.0, 2.0]]), seed=1)
        data = generate(double_well(), spec)
        Z = np.linspace(-5, 5, 15)[:, None]
        U, us = init_on(data, Z, KernelParams(1.0, [0.8]))
        xs = np.linspace(-2, 2, 41)[:, None]
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
        U0, us0 = init_on(small_dataset, Z, p)
        np.testing.assert_array_equal(rep.final_model.U_f, U0)
        np.testing.assert_array_equal(rep.final_model.u_sigma, us0)
        np.testing.assert_array_equal(rep.final_model.noise_vars,
                                      init_noise_vars(small_dataset))
        assert rep.final_log_posterior == rep.init_log_posterior
        assert rep.termination == "max_iters"

    def test_gradient_below_tolerance_at_start_converges(self, small_dataset):
        init_grad = fit_map(small_dataset, quick_config(max_iters=0)).trace[0][2]
        cfg = replace(quick_config(max_iters=6), grad_tol=2.0 * init_grad)
        rep = fit_map(small_dataset, cfg)
        assert rep.termination == "converged"
        assert len(rep.trace) == 1
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
            lengthscale_grid=(0.6, 1.2),
            inducing_grid_spec=((-2.5, 2.5, 7),),
            resolution_factor=1, n_samples=6, seed=0,
            max_iters=5,
        )
        rep = fit_map(small_dataset, cfg)
        (sel,) = rep.selected_lengthscales
        assert sel in (0.6, 1.2)
        assert len(rep.candidates) == 2
        assert rep.final_log_posterior == max(c["final_log_posterior"]
                                              for c in rep.candidates)

    @pytest.mark.parametrize("grid", [(0.8, (0.8, 0.8, 0.8)), (0.8, [[0.8]])],
                             ids=["3-vector", "matrix"])
    def test_lengthscale_of_wrong_shape_rejected_before_any_candidate(
            self, small_dataset, monkeypatch, grid):
        def no_candidate(*_):
            raise AssertionError("a candidate ran")

        monkeypatch.setattr(fit_module, "gradient_match_init", no_candidate)
        cfg = replace(quick_config(), lengthscale_grid=grid)
        with pytest.raises(InputError, match=r"lengthscale candidate .*0\.8.* \(1\)"):
            fit_map(small_dataset, cfg)

    def test_one_entry_settings_broadcast_and_mis_sized_ones_are_named(self):
        spec = GenSpec(n_traj=2, n_obs_per_traj=8, gen_dt=0.01, subsample_every=5,
                       noise_std=0.05, x0_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]), seed=4)
        data = generate(oscillator_hotspot(), spec)
        cfg = FitConfig(lengthscale_grid=(1.0,), inducing_grid_spec=((-2, 2, 4),),
                        resolution_factor=1, n_samples=4, max_iters=0, fix_noise_vars=(0.1,))
        one = fit_map(data, cfg).final_model
        each = fit_map(data, replace(cfg, inducing_grid_spec=((-2, 2, 4),) * 2,
                                     fix_noise_vars=(0.1, 0.1))).final_model
        for name in ("Z", "U_f", "u_sigma", "noise_vars"):
            assert np.array_equal(getattr(one, name), getattr(each, name)), name
        with pytest.raises(InputError, match="inducing_grid_spec needs one entry"):
            fit_map(data, replace(cfg, inducing_grid_spec=((-2, 2, 4),) * 3))
        with pytest.raises(InputError, match="fix_noise_vars needs one entry"):
            fit_map(data, replace(cfg, fix_noise_vars=(0.1,) * 3))

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            fit_map([], quick_config())


def blow_up_where(monkeypatch, blows_up):
    """Make each objective evaluation of the fit for which
    ``blows_up(call, model, draw)`` holds raise a blow-up, where
    ``call`` counts the evaluations from 1."""
    calls = [0]
    evaluate = fit_module.evaluate_with_increments

    def flaky(trajs, m, cache, grids, draw):
        calls[0] += 1
        if blows_up(calls[0], m, draw):
            raise SimulationError("state exceeded 1e+06 at step 1 (sample 0)",
                                  step=1, sample=0)
        return evaluate(trajs, m, cache, grids, draw)

    monkeypatch.setattr(fit_module, "evaluate_with_increments", flaky)


def blow_up_on_call(monkeypatch, call):
    """Make the fit's ``call``-th objective evaluation raise a blow-up."""
    blow_up_where(monkeypatch, lambda n, *_: n == call)


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

    def test_failed_candidate_keeps_its_rejected_trials(self, small_dataset, monkeypatch):
        # call 3 is the first line-search trial point; the fit then fails at
        # the re-score of the last accepted point, after L-BFGS-B returns
        returned = []
        minimize = fit_module.scipy.optimize.minimize

        def minimize_then_mark(*args, **kwargs):
            res = minimize(*args, **kwargs)
            returned.append(True)
            return res

        monkeypatch.setattr(fit_module.scipy.optimize, "minimize", minimize_then_mark)
        blow_up_where(monkeypatch, lambda call, *_: call == 3 or bool(returned))
        with pytest.raises(FitError) as err:
            fit_map(small_dataset, quick_config(max_iters=6))
        (diag,) = err.value.diagnostics
        assert diag["termination"] == "error"
        assert diag["rejected_trials"] == 1

    def test_stalled_epoch_ends_the_fit_on_one_draw(self, small_dataset, monkeypatch):
        # from the 5th evaluation on, every point but the last one that
        # scored fine blows up, so the line search fails short of the budget
        good = []

        def blows_up(call, m, _):
            point = (m.U_f.tobytes(), m.u_sigma.tobytes(), m.noise_vars.tobytes())
            if call >= 5 and point != good[-1]:
                return True
            good.append(point)
            return False

        seeds = []
        draw = fit_module.draw_increments
        monkeypatch.setattr(fit_module, "draw_increments",
                            lambda *args: seeds.append(args[-1]) or draw(*args))
        blow_up_where(monkeypatch, blows_up)
        cfg = quick_config(max_iters=20)
        rep = fit_map(small_dataset, cfg)
        assert len(seeds) == 1
        assert rep.termination == "stalled"
        assert rep.rejected_trials > 0
        assert len(rep.trace) - 1 < cfg.max_iters
        assert rep.trace[-1][2] >= cfg.grad_tol


def test_candidates_share_one_draw(small_dataset, monkeypatch):
    # one draw for the fit, and each candidate ends where it ends alone
    draws = []
    draw = fit_module.draw_increments
    monkeypatch.setattr(fit_module, "draw_increments",
                        lambda *args: draws.append(draw(*args)) or draws[-1])
    cfg = replace(quick_config(max_iters=4), lengthscale_grid=(0.8, 1.6))
    rep = fit_map(small_dataset, cfg)
    assert len(draws) == 1
    for ell, cand in zip(cfg.lengthscale_grid, rep.candidates):
        alone = fit_map(small_dataset, replace(cfg, lengthscale_grid=(ell,)))
        assert cand["final_log_posterior"] == alone.final_log_posterior
        assert cand["iterations"] == len(alone.trace) - 1
    assert len(draws) == 3


def test_config_validation():
    with pytest.raises(InputError):
        FitConfig(lengthscale_grid=(), inducing_grid_spec=((-1, 1, 4),))
    with pytest.raises(InputError):
        FitConfig(lengthscale_grid=(1.0,), inducing_grid_spec=((-1, 1, 1),))
    with pytest.raises(InputError):
        FitConfig(lengthscale_grid=(1.0,), inducing_grid_spec=((-1, 1, 4),),
                  grad_tol=0.0)


@pytest.mark.parametrize("count", [4.7, 2.5, float("nan")])
def test_fractional_inducing_count_rejected(count):
    # not truncated to a grid of int(count) points
    with pytest.raises(InputError, match=r"inducing_grid_spec entry \(-2, 2, "):
        FitConfig(lengthscale_grid=(1.0,), inducing_grid_spec=((-1, 1, 4), (-2, 2, count)))
    FitConfig(lengthscale_grid=(1.0,), inducing_grid_spec=((-2, 2, 4.0),))


@pytest.mark.parametrize("field,value", [
    ("n_samples", 2.5), ("max_iters", 2.5), ("seed", 1.5), ("resolution_factor", 1.5),
    ("n_samples", float("nan")), ("seed", "3"), ("fix_noise_vars", (float("nan"),)),
    ("fix_noise_vars", (0.1, float("inf"))), ("fix_noise_vars", ("a",)),
    ("fix_noise_vars", (0.1, None)),
])
def test_fit_config_rejects_non_integral_counts_and_bad_noise(field, value):
    # an InputError naming the field, not a TypeError deep in the fit
    with pytest.raises(InputError, match=field):
        FitConfig(lengthscale_grid=(1.0,), inducing_grid_spec=((-1, 1, 4),), **{field: value})
    # whole numbers of any numeric type are taken as ints
    cfg = FitConfig(lengthscale_grid=(1.0,), inducing_grid_spec=((-1, 1, 4),),
                    n_samples=np.int64(5), seed=2.0)
    assert (cfg.n_samples, cfg.seed) == (5, 2) and type(cfg.seed) is int


@pytest.mark.parametrize("variance", [-1.0, 0.0, float("nan"), float("inf"), "1.0", None])
def test_fit_config_rejects_bad_kernel_variance(variance):
    # named at construction, not by KernelParams' message inside the fit
    with pytest.raises(InputError, match="kernel_variance"):
        FitConfig(lengthscale_grid=(1.0,), inducing_grid_spec=((-1, 1, 4),),
                  kernel_variance=variance)
    FitConfig(lengthscale_grid=(1.0,), inducing_grid_spec=((-1, 1, 4),),
              kernel_variance=np.float64(2.5))


def test_fit_config_simulation_settings_validation():
    grids = dict(lengthscale_grid=(1.0,), inducing_grid_spec=((-1, 1, 4),))
    with pytest.raises(InputError):
        FitConfig(**grids, resolution_factor=0)
    with pytest.raises(InputError):
        FitConfig(**grids, n_samples=0)


def test_default_lengthscale_grid_scales_with_data():
    tr = Trajectory(times=[0.0, 1.0, 2.0], obs=[[0.0, 0.0], [2.0, 0.2], [4.0, 0.4]])
    grid = default_lengthscale_grid([tr])
    assert len(grid) == 4
    # the 1.0x entry, one lengthscale per dimension
    np.testing.assert_allclose(grid[2], np.std([[0, 0], [2, 0.2], [4, 0.4]], axis=0))
