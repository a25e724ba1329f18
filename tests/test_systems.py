import numpy as np
import pytest

from gpsde import systems
from gpsde.errors import InputError, SimulationError
from gpsde.field import InducingModel, build_cache, grid_points
from gpsde.kernels import KernelParams
from gpsde.objective import Trajectory
from gpsde.sim import child_seed, simulate_callable_batch
from gpsde.systems import (
    GenSpec,
    ParametricSystem,
    distribution_discrepancy,
    diffusion_error,
    double_well,
    drift_error,
    energy_distance,
    generate,
    kde_l2_distance,
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
            assert sys_.drift_fn(np.array([[x]]))[0, 0] == pytest.approx(4.0 * x - 4.0 * x**3)


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
            f = sys_.drift_fn(np.array([[x1, x2]]))[0]
            r2 = x1 * x1 + x2 * x2
            assert f[0] == pytest.approx(x1 * (1 - r2) - x2, rel=1e-12)
            assert f[1] == pytest.approx(x2 * (1 - r2) + x1, rel=1e-12)
            s = sys_.diffusion_fn(np.array([[x1, x2]]))[0]
            d2 = (x1 + 1) ** 2 + (x2 + 1) ** 2
            expected = 2 * np.exp(-0.5 * d2 / 0.5) / (2 * np.pi * 0.5) + 0.3
            assert s == pytest.approx(expected, rel=1e-12)


class TestVanDerPol:
    def test_origin_is_fixed_point(self):
        sys_ = van_der_pol(1.0)
        np.testing.assert_allclose(sys_.drift_fn(np.array([[0.0, 0.0]])), 0.0, atol=1e-14)

    def test_zero_mu_is_harmonic_oscillator(self):
        sys_ = van_der_pol(0.0)
        f = sys_.drift_fn(np.array([[0.3, -0.7]]))[0]
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


def per_trajectory_oracle(sys_, spec, first_attempt=None):
    """Generation one trajectory at a time: trajectory j simulates alone from
    child_seed(seed, j, attempt), starting at first_attempt.get(j, 0) and
    moving to the next attempt when it blows up.  It draws k increments per
    observation but steps only up to the last observed node."""
    first_attempt = first_attempt or {}
    k = spec.subsample_every
    n_steps = spec.n_obs_per_traj * k
    obs_at = np.arange(spec.n_obs_per_traj) * k
    times = np.arange(spec.n_obs_per_traj) * (spec.gen_dt * k)
    trajs = []
    for j in range(spec.n_traj):
        for attempt in range(first_attempt.get(j, 0), systems._GEN_MAX_RETRIES):
            rng = np.random.Generator(np.random.PCG64(child_seed(spec.seed, j, attempt)))
            x0 = rng.uniform(spec.x0_box[:, 0], spec.x0_box[:, 1])
            incs = rng.normal(0.0, np.sqrt(spec.gen_dt), size=(1, n_steps, sys_.dim))
            try:
                path = simulate_callable_batch(
                    lambda X: (sys_.drift_fn(X), sys_.diffusion_fn(X)), x0, spec.gen_dt,
                    incs[:, :n_steps - k]
                )[0]
            except SimulationError:
                continue
            y = path[obs_at] + rng.normal(0.0, spec.noise_std,
                                          size=(spec.n_obs_per_traj, sys_.dim))
            trajs.append(Trajectory(times=times, obs=y))
            break
        else:
            raise AssertionError(f"oracle trajectory {j} blew up in every attempt")
    return trajs


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for tg, tw in zip(got, want):
        assert np.array_equal(tg.times, tw.times)
        assert np.array_equal(tg.obs, tw.obs)


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

        quiet = replace(sys_, diffusion_fn=lambda X: np.zeros(len(X)))
        spec = self.spec(noise_std=0.0, subsample_every=1, n_traj=1)
        tr = generate(quiet, spec)[0]
        x = tr.obs[0].copy()
        for i in range(1, tr.n_obs):
            x = x + spec.gen_dt * quiet.drift_fn(x[None])[0]
            np.testing.assert_allclose(tr.obs[i], x, rtol=1e-12)

    def test_every_attempt_blowing_up_raises(self):
        # one step of this drift passes the blow-up limit from any start
        steps = []

        def drift(X):
            steps.append(X.shape[0])
            return np.full_like(X, 1e9)

        runaway = ParametricSystem(1, drift, lambda X: np.ones(X.shape[0]))
        with pytest.raises(SimulationError) as err:
            generate(runaway, self.spec(n_traj=2))
        assert err.value.sample == 0
        assert len(steps) == systems._GEN_MAX_RETRIES

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("system, box", [
        (double_well, [[-2.0, 2.0]]),
        (oscillator_hotspot, [[-2.0, 2.0], [-2.0, 2.0]]),
        (van_der_pol, [[-2.0, 2.0], [-2.0, 2.0]]),
    ])
    def test_batched_loop_equals_per_trajectory_oracle(self, system, box, seed):
        spec = self.spec(n_traj=4, n_obs_per_traj=12, subsample_every=7, noise_std=0.1,
                         x0_box=np.array(box), seed=seed)
        assert_same_trajectories(generate(system(), spec),
                                 per_trajectory_oracle(system(), spec))

    def test_blowup_redraws_only_that_trajectory(self):
        base = double_well()
        calls = []

        def drift(X):
            F = base.drift_fn(X)
            if not calls:   # one step of 1e9 passes the blow-up limit
                F[1] = 1e9
            calls.append(X.shape[0])
            return F

        spec = self.spec(n_traj=4)
        flaky = ParametricSystem(1, drift, base.diffusion_fn)
        got = generate(flaky, spec)
        want = per_trajectory_oracle(base, spec, first_attempt={1: 1})
        assert_same_trajectories(got, want)
        # the retry took effect: trajectory 1's attempt-0 draw differs
        assert not np.array_equal(got[1].obs, per_trajectory_oracle(base, spec)[1].obs)
        assert calls == [4] * (1 + (spec.n_obs_per_traj - 1) * spec.subsample_every)

    def test_blowup_past_the_last_observation_redraws_nothing(self):
        # generation stops at the last observed node, so a drift that blows
        # up only on the step after it is never called there
        base = double_well()
        spec = self.spec(n_traj=4)
        last_node = (spec.n_obs_per_traj - 1) * spec.subsample_every
        calls = []

        def drift(X):
            F = base.drift_fn(X)
            if len(calls) == last_node:
                F[:] = 1e9
            calls.append(X.shape[0])
            return F

        got = generate(ParametricSystem(1, drift, base.diffusion_fn), spec)
        assert_same_trajectories(got, per_trajectory_oracle(base, spec))
        assert calls == [4] * last_node

    def test_invalid_spec(self):
        with pytest.raises(InputError):
            self.spec(gen_dt=0.0)
        with pytest.raises(InputError):
            self.spec(n_obs_per_traj=1)
        with pytest.raises(InputError):
            self.spec(x0_box=np.array([[2.0, -2.0]]))
        with pytest.raises(InputError):
            self.spec(x0_box=np.array([-1.5, 1.5]))       # 1-d box: (D, 2) is required

    @pytest.mark.parametrize("field,value", [
        ("gen_dt", np.inf), ("gen_dt", np.nan), ("noise_std", np.nan),
        ("noise_std", np.inf), ("x0_box", np.array([[np.nan, 1.5]])),
        ("x0_box", np.array([[-np.inf, 1.5]])),
    ])
    def test_non_finite_spec_names_the_field(self, field, value):
        # rejected at the setting, not later as a blow-up or a bad trajectory
        with pytest.raises(InputError, match=field):
            self.spec(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("n_traj", 2.5), ("n_obs_per_traj", 3.5), ("subsample_every", 2.5), ("seed", 1.5),
        ("n_traj", float("nan")), ("seed", "7"),
    ])
    def test_non_integral_spec_names_the_field(self, field, value):
        # an InputError naming the field, not numpy's or SeedSequence's TypeError
        with pytest.raises(InputError, match=field):
            self.spec(**{field: value})
        assert self.spec(n_traj=np.int64(2), seed=7.0).seed == 7


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
        with pytest.raises(InputError):
            drift_error(sys_, zero, [-2.0, 2.0], 41)    # 1-d box: (D, 2) is required

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

    def test_visited_mask_memory_stays_within_a_block(self, traced_peak):
        # 41 x 41 grid, 400 observations, M=225: the parent's dense
        # (grid, observations) kernel and its temporaries took 16 MB; the
        # (grid, M) kernel rows of the fitted drift (3 MB) stay
        sys_ = van_der_pol()
        axis = np.linspace(-3, 3, 15)
        Z = grid_points([axis, axis])
        p = KernelParams(1.0, [0.6, 0.6])
        m = InducingModel(Z=Z, U_f=sys_.drift_fn(Z), u_sigma=sys_.diffusion_fn(Z),
                          drift_params=p, diff_params=p, noise_vars=[0.01, 0.01])
        rng = np.random.default_rng(7)
        data = [Trajectory(times=np.arange(50) * 0.5, obs=rng.normal(size=(50, 2)))
                for _ in range(8)]
        peak = traced_peak(lambda: drift_error(sys_, m, [[-3, 3], [-3, 3]], 41, data=data))
        assert peak < 6e6, f"peak {peak} B"


class TestFieldForms:
    def setup_method(self):
        self.sys_ = double_well()
        self.model = dense_fit_of(self.sys_, -2.4, 2.4, n=21, ell=0.4)
        rng = np.random.default_rng(5)
        self.data = [Trajectory(times=np.arange(40) * 0.1,
                                obs=rng.uniform(-1.2, 1.2, (40, 1)))]

    def metrics(self):
        box = [[-2.0, 2.0]]
        return (lambda f: drift_error(self.sys_, f, box, 41, data=self.data),
                lambda f: diffusion_error(self.sys_, f, box, 41, data=self.data),
                lambda f: distribution_discrepancy(self.sys_, f, [0.5], 0.5, 40, 3, dt=0.02))

    def test_model_and_its_cache_score_identically(self):
        cache = build_cache(self.model)
        for metric in self.metrics():
            assert metric(self.model) == metric(cache)

    def test_model_cache_pair_is_rejected(self):
        pair = (self.model, build_cache(self.model))
        for metric in self.metrics():
            with pytest.raises(InputError):
                metric(pair)


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

    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_blocked_sums_match_dense_formula(self, offset):
        # X row counts one below, at and one above a block, and one row
        from gpsde.sim import BLOCK_FLOATS

        S = 512
        n = 1 if offset is None else BLOCK_FLOATS // S + offset
        rng = np.random.default_rng(8)
        X, Y = rng.normal(size=(n, 2)), rng.normal(size=(S, 2)) + 0.5

        def mean_dist(A, B):
            return np.mean(np.sqrt(np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=-1)))

        dense = 2 * mean_dist(X, Y) - mean_dist(X, X) - mean_dist(Y, Y)
        assert abs(energy_distance(X, Y) - dense) <= 1e-12 * mean_dist(X, Y)
        assert energy_distance(Y, Y) == 0.0


@pytest.mark.parametrize("dist", [energy_distance, kde_l2_distance])
def test_distances_reject_one_d_clouds(dist):
    # a 1-d array of n values is not n points: it was once read as one
    # n-dimensional point (energy_distance(zeros(3), [1, 2, 3]) gave 7.48)
    cloud = np.array([[0.0], [1.0], [2.0]])
    for X, Y in ((np.zeros(3), np.array([1.0, 2.0, 3.0])), (np.zeros(2), cloud),
                 (cloud, np.zeros(2))):
        with pytest.raises(InputError, match="2-d array of states"):
            dist(X, Y)


@pytest.mark.parametrize("dist", [energy_distance, kde_l2_distance])
def test_distances_reject_clouds_of_different_dimension(dist):
    with pytest.raises(InputError, match="Y states have dimension 2, expected 1"):
        dist(np.zeros((4, 1)), np.zeros((3, 2)))


class TestDistributionDiscrepancy:
    def test_same_system_same_seed_is_exactly_zero(self):
        sys_ = double_well()
        d = distribution_discrepancy(sys_, sys_, [0.5], 1.0, 50, 3, dt=0.02)
        assert d == {"energy": 0.0, "kde_l2": 0.0}

    def test_independent_seeds_stay_below_calibrated_floor(self):
        sys_ = double_well()
        self_d = distribution_discrepancy(sys_, sys_, [0.5], 1.0, 400, 3,
                                          dt=0.02, fitted_seed=4)["energy"]
        zero_model = dense_fit_of(sys_, -2, 2, n=9, ell=0.8)
        from dataclasses import replace

        frozen = replace(zero_model, U_f=np.zeros_like(zero_model.U_f),
                         u_sigma=np.zeros_like(zero_model.u_sigma))
        off_d = distribution_discrepancy(sys_, frozen, [0.5], 1.0, 400, 3,
                                         dt=0.02, fitted_seed=4)["energy"]
        assert off_d > 5 * self_d  # degenerate model far above the noise floor

    def test_fitted_model_variant_accepted(self):
        sys_ = double_well()
        fitted = dense_fit_of(sys_, -2.4, 2.4, n=41, ell=0.35)
        d = distribution_discrepancy(sys_, fitted, [0.5], 0.5, 200, 5, dt=0.02)["energy"]
        self_d = distribution_discrepancy(sys_, sys_, [0.5], 0.5, 200, 5,
                                          dt=0.02, fitted_seed=6)["energy"]
        assert d < max(5 * self_d, 0.5)


class TestKdeL2Metric:
    def test_zero_for_identical_and_positive_for_distinct(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 2))
        assert kde_l2_distance(X, X) == pytest.approx(0.0, abs=1e-14)
        Y = rng.normal(size=(80, 2)) + 1.5
        assert kde_l2_distance(X, Y) > 0.01

    def test_memory_stays_within_a_block(self, traced_peak):
        # 300 paths per ensemble on the 41 x 41 grid: the parent's dense
        # (grid, paths) distances and temporaries took 13 MB
        rng = np.random.default_rng(9)
        X, Y = rng.normal(size=(300, 2)), rng.normal(size=(300, 2))
        peak = traced_peak(lambda: kde_l2_distance(X, Y))
        assert peak < 3e6, f"peak {peak} B"

    def test_discrepancy_metric_switch(self):
        # both metrics come from one simulation of each ensemble
        sys_ = double_well()
        d0 = distribution_discrepancy(sys_, sys_, [0.5], 0.5, 60, 3, dt=0.02)
        assert sorted(d0) == ["energy", "kde_l2"]
        assert d0["kde_l2"] == 0.0
        d1 = distribution_discrepancy(sys_, sys_, [0.5], 0.5, 60, 3, dt=0.02,
                                      fitted_seed=4)
        assert d1["kde_l2"] > 0.0
