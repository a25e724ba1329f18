import numpy as np
import pytest

from gpsde.errors import InputError, SimulationError
from gpsde.field import InducingModel, build_cache, drift_batch, grid_points, update_values
from gpsde.kernels import KernelParams
from gpsde.sim import (
    BLOCK_FLOATS,
    Buffers,
    SAMPLE_BLOCK_ROWS,
    TimeGrid,
    build_grid,
    gaussian_kde,
    raw_normals,
    sample_increments,
    sample_blocks,
    sample_paths,
    simulate_batch,
    simulate_callable_batch,
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

    def test_observations_on_nodes(self):
        # each interval is split into f equal steps, so irregular times land
        # exactly on nodes f * i
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 10, size=12))
        n = times.size
        for f in (1, 3, 25):
            g = build_grid(times, f)
            assert g.n_steps == f * (n - 1)
            assert np.array_equal(g.obs_indices, f * np.arange(n))
            steps = g.dt.reshape(n - 1, f)
            assert np.all(steps == steps[:, :1])
            np.testing.assert_allclose(steps.sum(axis=1), np.diff(times), rtol=1e-12)
            np.testing.assert_allclose(g.times[g.obs_indices], times, rtol=1e-12)

    def test_bad_times_rejected(self):
        with pytest.raises(InputError):
            build_grid([0.0, 0.0, 1.0], 2)
        with pytest.raises(InputError):
            build_grid([0.0, 2.0, 1.0], 2)
        with pytest.raises(InputError):
            build_grid([0.0], 2)
        for factor in (0, 1.5):
            with pytest.raises(InputError, match="resolution_factor"):
                build_grid([0.0, 1.0], factor)

    def test_close_observations_get_their_own_nodes(self):
        # a gap 1e5 times shorter than the next still has its own step
        g = build_grid([0.0, 1e-4, 10.0], 1)
        assert list(g.obs_indices) == [0, 1, 2]
        np.testing.assert_allclose(g.times, [0.0, 1e-4, 10.0], rtol=1e-12)


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
        assert np.array_equal(sample_increments(g, slice(2, 5), 1, 5), many[2:5])
        assert np.array_equal(sample_increments(g, slice(2, 5, 1), 1, 5), many[2:5])

    @pytest.mark.parametrize("samples", [slice(0, 6, 2), slice(5, 0, -1), slice(2, None),
                                         slice(-2, 3)])
    def test_slices_need_a_start_a_stop_and_a_unit_step(self, samples):
        g = build_grid([0.0, 1.0], 10)
        with pytest.raises(InputError, match="slice"):
            sample_increments(g, samples, 1, 5)
        m, c = ou_model()
        with pytest.raises(InputError, match="slice"):
            sample_paths(c, [0.5], g, samples, 5)

    def test_slices_equal_the_rows_of_a_full_draw(self):
        # slices across sample boundaries read the words of each sample in
        # the stream, bit for bit
        g = build_grid([0.0, 0.7, 1.0], 4)
        full = sample_increments(g, 12, 3, 41)
        for a, b in [(0, 1), (1, 4), (3, 12), (5, 6), (2, 9), (11, 12)]:
            part = sample_increments(g, slice(a, b), 3, 41)
            assert part.tobytes() == full[a:b].tobytes()

    def test_a_sample_does_not_depend_on_the_count(self):
        g = build_grid([0.0, 1.0], 10)
        one, seven, many = (sample_increments(g, S, 2, 7) for S in (1, 7, 300))
        assert one.tobytes() == seven[:1].tobytes() == many[:1].tobytes()
        assert seven.tobytes() == many[:7].tobytes()

    def test_extreme_raw_words_give_finite_opposite_normals(self):
        z = raw_normals(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert np.all(np.isfinite(z))
        assert z[0] < 0 < z[1] and z[0] == -z[1]

    def test_moments_within_four_standard_errors(self):
        g = build_grid([0.0, 10.0], 1000)  # dt = 0.01
        inc = sample_increments(g, 100, 1, 3).ravel()
        n, dt = inc.size, 0.01
        assert n == 10**5
        assert abs(inc.mean()) <= 4 * np.sqrt(dt / n)
        assert abs(inc.var() - dt) <= 4 * dt * np.sqrt(2 / (n - 1))

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
        path = simulate_batch(c0, [0.7], g, inc)[0]
        assert np.all(path == 0.7)

    def test_drift_only_matches_forward_euler_oracle(self):
        m, c = ou_model()
        m0, c0 = update_values(c, m, u_sigma=np.zeros_like(m.u_sigma))
        g = build_grid([0.0, 2.0], 80)
        inc = sample_increments(g, 1, 1, 1)
        path = simulate_batch(c0, [1.0], g, inc)[0]
        # independent forward-Euler stepping of the same drift field
        x = np.array([1.0])
        for i in range(g.n_steps):
            x = x + g.dt[i] * drift_batch(x[None], c0)[0]
            assert path[i + 1] == pytest.approx(x[0], rel=1e-12)

    def test_drift_only_error_at_irregular_observations_falls_as_one_over_f(self):
        # the observation nodes sit at the exact times, so forward Euler's
        # error against x0 exp(-theta t) halves with each doubling of f
        theta, x0 = 1.0, 1.0
        m, c = ou_model(theta)
        m0, c0 = update_values(c, m, u_sigma=np.zeros_like(m.u_sigma))
        gaps = np.random.default_rng(3).uniform(0.05, 0.5, size=10)
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        errs = []
        for f in (2, 4, 8):
            g = build_grid(times, f)
            path = simulate_batch(c0, [x0], g, np.zeros((1, g.n_steps, 1)))[0]
            errs.append(np.max(np.abs(path[g.obs_indices, 0] - x0 * np.exp(-theta * times))))
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        assert all(1.7 <= r <= 2.3 for r in ratios), (errs, ratios)

    def test_ou_terminal_moments(self):
        theta, sigma, x0, t = 1.0, 0.5, 1.0, 1.0
        m, c = ou_model(theta, sigma)
        g = build_grid([0.0, t], 100)  # dt = 0.01
        term = sample_paths(c, [x0], g, 4000, 7)[:, -1, 0]
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
            simulate_batch(c, [1.0], g, inc)
        assert err.value.step == 1 and err.value.sample == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_blowup_guard_names_the_non_finite_sample(self, value):
        calls = []

        def fields(X):
            calls.append(None)
            F = np.zeros_like(X)
            if len(calls) == 3:     # the third call makes the state at step 3
                F[2, 1] = value
            return F, np.zeros(X.shape[0])

        with pytest.raises(SimulationError) as err:
            simulate_callable_batch(fields, np.zeros(2), 0.1, np.zeros((4, 6, 2)))
        assert err.value.step == 3 and err.value.sample == 2

    @pytest.mark.parametrize("dt", [np.full(5, 0.1), np.full(7, 0.1), np.full(1, 0.1),
                                    np.full((3, 6), 0.1), np.full((2, 5), 0.1),
                                    np.full((2, 2, 6), 0.1)])
    def test_dt_of_another_length_or_block_count_is_refused(self, dt):
        # 4 rows of 6 steps: dt is one step size, (6,) or (B, 6) with B dividing 4
        def fields(X):
            return np.zeros_like(X), np.zeros(len(X))

        with pytest.raises(InputError, match="dt of shape"):
            simulate_callable_batch(fields, np.zeros(1), dt, np.zeros((4, 6, 1)))

    @pytest.mark.parametrize("dt", [0.1, np.full(6, 0.1), np.full((1, 6), 0.1),
                                    np.full((2, 6), 0.1), np.full((4, 6), 0.1)])
    def test_every_dt_layout_steps_alike(self, dt):
        # one step size, one per step, one row per block or per sample; the
        # drift comes back transposed in memory, as a 2-d model's does
        def fields(X):
            return np.ascontiguousarray(np.cos(X).T).T, np.ones(len(X))

        inc = sample_increments(build_grid([0.0, 0.6], 6), 4, 2, 8)
        expected = simulate_callable_batch(fields, np.zeros(2), 0.1, inc)
        assert simulate_callable_batch(fields, np.zeros(2), dt, inc).tobytes() == \
            expected.tobytes()


class TestRaggedGrid:
    # three blocks of two rows taking 6, 4 and 2 of 6 steps, each its own step sizes
    DT = np.array([[0.1] * 6, [0.05, 0.2, 0.1, 0.3, 0.0, 0.0], [0.4, 0.1, 0.0, 0.0, 0.0, 0.0]])
    STEPS = [6, 4, 2]

    def test_each_block_steps_as_if_alone(self):
        m, c = ou_model()
        grid = TimeGrid(t0=0.0, dt=self.DT, obs_indices=[0, 2, 4, 6], steps=self.STEPS)
        assert grid.active == (3, 3, 2, 2, 1, 1) and grid.n_blocks == 3
        x0 = np.array([[0.5], [-0.5], [1.0], [0.2], [-1.0], [0.0]])
        inc = sample_increments(build_grid([0.0, 0.6], 6), 6, 1, 3)
        paths = simulate_batch(c, x0, grid, inc)
        for k, n in enumerate(self.STEPS):
            rows = slice(2 * k, 2 * k + 2)
            alone = simulate_batch(c, x0[rows], TimeGrid(0.0, self.DT[k, :n], [0, n]),
                                   inc[rows, :n])
            # the field's matrix products may round by the number of rows
            np.testing.assert_allclose(paths[rows, :n + 1], alone, rtol=1e-12, atol=1e-14)

    def test_a_step_sees_only_the_rows_that_take_it(self):
        seen = []

        def fields(X):
            seen.append(len(X))
            return np.zeros_like(X), np.ones(len(X))

        grid = TimeGrid(t0=0.0, dt=self.DT, obs_indices=[0, 6], steps=self.STEPS)
        simulate_callable_batch(fields, np.zeros(1), grid.dt, np.ones((6, 6, 1)),
                                active=grid.active)
        assert seen == [6, 6, 4, 4, 2, 2]

    @pytest.mark.parametrize("steps", [[6, 4], [4, 4, 2], [6, 2, 4], [6, 4, -1], [7, 4, 2]])
    def test_step_counts_must_fall_from_the_grid_length(self, steps):
        with pytest.raises(InputError, match="steps"):
            TimeGrid(t0=0.0, dt=self.DT, obs_indices=[0, 6], steps=steps)


class TestSamplePaths:
    def test_single_sample_reduces_to_euler_maruyama(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 20)
        paths = sample_paths(c, [0.5], g, 1, 42)
        inc = sample_increments(g, 1, 1, 42)
        path = simulate_batch(c, [0.5], g, inc)[0]
        assert np.array_equal(paths[0], path)

    def test_deterministic_and_seed_sensitive(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 20)
        b1 = sample_paths(c, [0.5], g, 5, 1)
        b2 = sample_paths(c, [0.5], g, 5, 1)
        b3 = sample_paths(c, [0.5], g, 5, 2)
        assert np.array_equal(b1, b2)
        assert not np.array_equal(b1, b3)

    def test_blocks_equal_one_batch(self):
        # blocks of 1, 2 and 4 samples draw each sample's own stream words; the
        # kernel products may change in the last bit with the row count
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 20)
        whole = sample_paths(c, [0.5], g, 7, 3)
        for rows in (slice(0, 1), slice(1, 3), slice(3, 7)):
            np.testing.assert_allclose(sample_paths(c, [0.5], g, rows, 3), whole[rows],
                                       rtol=1e-12, atol=1e-14)

    def test_blowup_names_the_sample_in_the_run(self):
        # every sample leaves the limit on its first step, so a block of
        # samples 5..8 fails at its first row: sample 5 of the run
        m, c = ou_model(sigma=1e9)
        with pytest.raises(SimulationError, match=r"at step 1 \(sample 5\)") as err:
            sample_paths(c, [0.0], build_grid([0.0, 0.1], 1), slice(5, 9), 0)
        assert (err.value.step, err.value.sample) == (1, 5)

    def test_initial_state_recorded(self):
        m, c = ou_model()
        g = build_grid([0.0, 0.5], 10)
        paths = sample_paths(c, [0.3], g, 3, 0)
        assert np.all(paths[:, 0, 0] == 0.3)

    def test_bundle_matches_individual_runs(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 20)
        paths = sample_paths(c, [0.5], g, 3, 9)
        inc = sample_increments(g, 3, 1, 9)
        for s in range(3):
            single = simulate_batch(c, [0.5], g, inc[s:s + 1])[0]
            np.testing.assert_allclose(paths[s], single, rtol=1e-12, atol=1e-14)

    def test_per_sample_initial_states(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 20)
        inc = sample_increments(g, 3, 1, 0)
        x0s = np.array([[0.1], [0.2], [0.3]])
        paths = simulate_batch(c, x0s, g, inc)
        np.testing.assert_array_equal(paths[:, 0], x0s)
        for s in range(3):
            single = simulate_batch(c, x0s[s], g, inc[s:s + 1])[0]
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
            paths = simulate_batch(c, [x0], g, inc)
            errs.append(abs(paths[:, -1, 0].mean() - mean_true))
        assert errs[0] > errs[1] > errs[2]


class TestStateDensity:
    def test_single_path_peak_value(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 10)
        paths = sample_paths(c, [0.4], g, 1, 3)
        x_end = paths[0, -1]
        h = 0.3
        val = state_density(paths[:, -1], [[x_end[0]]], h)
        assert val[0] == pytest.approx((2 * np.pi * h**2) ** -0.5, rel=1e-12)

    def test_nonnegative_and_integrates_to_one(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 50)
        paths = sample_paths(c, [0.0], g, 40, 21)
        xs = np.linspace(-6, 6, 601)[:, None]
        dens = state_density(paths[:, -1], [xs[:, 0]], 0.25)
        assert np.all(dens >= 0)
        riemann = dens.sum() * (xs[1, 0] - xs[0, 0])
        assert 0.98 <= riemann <= 1.02

    def test_input_validation(self):
        m, c = ou_model()
        g = build_grid([0.0, 1.0], 10)
        paths = sample_paths(c, [0.0], g, 2, 0)
        with pytest.raises(InputError):
            state_density(paths[:, 0], [[0.0]], -1.0)
        with pytest.raises(InputError):
            state_density(paths[:, 0], [[0.0], [0.0]], 0.2)     # one axis per dimension
        with pytest.raises(InputError):
            gaussian_kde([[0.0]], np.zeros(3), 0.2)         # 1-d samples: (S, D) is required

    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_blocked_kde_matches_dense_formula(self, offset):
        # prefix-row counts one below, at and one above a block, and one row,
        # for D=1, 2 and 3 (the D=3 prefix rows span two axes)
        S, h = 512, 0.3
        n = 1 if offset is None else BLOCK_FLOATS // S + offset
        lead = {1: [1, 1], 127: [1, 127], 128: [8, 16], 129: [3, 43]}[n]
        rng = np.random.default_rng(5)
        for lengths in ([n], [n, 5], [*lead, 4]):
            D = len(lengths)
            samples = rng.normal(size=(S, D))
            axes = [np.sort(rng.normal(size=k)) for k in lengths]
            got = gaussian_kde(axes, samples, h)
            points = grid_points(axes)
            d2 = np.sum((points[:, None, :] - samples[None, :, :]) ** 2, axis=-1)
            dense = np.mean(np.exp(-0.5 * d2 / h**2), axis=1) * (2 * np.pi * h**2) ** (-0.5 * D)
            assert got.shape == dense.shape
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(dense)

    def test_memory_stays_within_a_block(self, traced_peak):
        # a 81 x 81 grid and 500 paths: the dense (points, samples) kernel
        # matrix alone would take 26 MB
        rng = np.random.default_rng(6)
        states = rng.normal(size=(500, 2))
        axes = [np.linspace(-5, 5, 81), np.linspace(-6, 6, 81)]
        peak = traced_peak(lambda: state_density(states, axes, 0.2))
        assert peak < 4e6, f"peak {peak} B"



class TestSampleBlocks:
    @pytest.mark.parametrize("n, n_steps, D", [(1, 5, 1), (768, 300, 1), (500, 100, 2),
                                               (2000, 1000, 2), (10_000, 10, 3)])
    def test_blocks_cover_the_samples_in_order(self, n, n_steps, D):
        # about BLOCK_FLOATS path floats per block, but never fewer than
        # SAMPLE_BLOCK_ROWS samples (short of the last block)
        size = max(SAMPLE_BLOCK_ROWS, BLOCK_FLOATS // ((n_steps + 1) * D))
        starts = list(range(0, n, size))
        assert list(sample_blocks(n, n_steps, D)) == [
            slice(a, min(a + size, n)) for a in starts]


def test_new_buffers_are_zeros_and_kept_ones_keep_their_contents():
    buffers = Buffers()
    a = buffers.take("x", (3, 4))
    assert a.shape == (3, 4) and np.all(a == 0.0)
    a[:] = 7.0
    # a request that fits takes the start of the kept buffer, as written
    b = buffers.take("x", (2, 5))
    assert np.shares_memory(a, b) and np.all(b == 7.0)
    # a larger one replaces it with new zeros; another name is its own buffer
    assert np.all(buffers.take("x", (4, 4)) == 0.0)
    assert np.all(buffers.take("y", (2,)) == 0.0)
    assert buffers.nbytes == 8 * (16 + 2)
