import math

import numpy as np
import pytest

from gpsde import objective, sensitivity
from gpsde.errors import InputError, InternalError, SimulationError
from gpsde.field import (InducingModel, build_cache, drift_diffusion_batch, grid_points,
                         log_prior, rows_buffer, step_terms_batch, update_values)
from gpsde.kernels import JITTER_SCALE, KernelParams, gram
from gpsde.objective import (
    SEGMENT_INTERVALS,
    ObjectiveValue,
    Trajectory,
    Workspace,
    draw_increments,
    evaluate_with_increments,
    make_grids,
    mc_loglik_grad,
    _obs_logliks,
)
from gpsde.sim import (Buffers, TimeGrid, child_seed, sample_increments, sample_paths,
                       simulate_batch)


# more than two segments, the last one shorter than the others
LONG_N_OBS = 2 * SEGMENT_INTERVALS + 10


def small_model(seed=0, D=1, M=4, u_scale=0.5):
    """A model with distinct kernels whose Z is the grid of M // D evenly
    spaced coordinates and, for D = 2, two jittered ones on the second axis."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(-1.5, 1.5, M // D)]
    if D == 2:
        axes.append(np.array([-0.75, 0.75]) + rng.uniform(-0.3, 0.3, 2))
    Z = grid_points(axes)
    m = InducingModel(
        Z=Z,
        U_f=u_scale * rng.normal(size=(M, D)),
        u_sigma=u_scale * rng.normal(size=M),
        drift_params=KernelParams(1.0, [1.0] * D),
        diff_params=KernelParams(1.0, [1.2] * D),
        noise_vars=np.full(D, 0.04),
    )
    return m, build_cache(m)


def grid_model(seed=0, u_scale=0.5):
    """A 2-d model on a 2 x 3 Cartesian inducing grid with equal kernels,
    whose one set of per-axis factors serves both fields."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(-1.5, 1.5, 2), np.linspace(-1.5, 1.5, 3)]
    Z = grid_points(axes)
    p = KernelParams(1.0, [1.0, 0.8])
    m = InducingModel(Z=Z, U_f=u_scale * rng.normal(size=(6, 2)),
                      u_sigma=u_scale * rng.normal(size=6),
                      drift_params=p, diff_params=p, noise_vars=np.full(2, 0.04))
    return m, build_cache(m)


def make_problem(seed=0, D=1, n_obs=5, n_samples=3, factor=6):
    m, c, trs, grids, incs = make_batch_problem(
        seed, D, [np.linspace(0.0, 1.0, n_obs)], n_samples, factor)
    return m, c, trs[0], grids, incs


def make_batch_problem(seed, D, times, n_samples=3, factor=6, grid=False):
    """A model, one trajectory per entry of ``times``, their grids and the
    increment arrays of draw_increments' seed + 7; with grid, the 2-d grid
    model."""
    m, c = grid_model(seed=seed) if grid else small_model(seed=seed, D=D)
    rng = np.random.default_rng(seed + 100)
    trs = [Trajectory(times=t, obs=0.4 * rng.normal(size=(len(t), D))) for t in times]
    grids = make_grids(trs, factor)
    incs = [sample_increments(g, n_samples, D, child_seed(seed + 7, j))
            for j, g in enumerate(grids)]
    return m, c, trs, grids, incs


# two trajectories of three intervals, with gaps 100x and more apart
IRREGULAR_TIMES = [[0.0, 0.002, 0.5, 0.503], [0.0, 0.4, 0.401, 1.0]]


def node_states(m, c, tr, grid, inc):
    """Simulated (S, n_obs, D) states at a trajectory's observation nodes."""
    return simulate_batch(c, tr.obs[0], grid, inc)[:, grid.obs_indices]


def mc_loglik(tr, m, states):
    """Monte Carlo log-likelihood of one trajectory's (S, n_obs, D) states."""
    per_obs = _obs_logliks(tr.obs, states, m.noise_vars)[0]
    return float(per_obs.sum())


class TestMcLoglik:
    def test_zero_residual_closed_form(self):
        # one sample whose path nodes coincide with the observations
        m, c = small_model()
        y = np.array([[0.1], [0.2], [0.3]])
        tr = Trajectory(times=np.array([0.0, 0.5, 1.0]), obs=y)
        got = mc_loglik(tr, m, y[None])
        N, D = 3, 1
        expected = -(N * D / 2) * np.log(2 * np.pi) - (N / 2) * np.sum(np.log(m.noise_vars))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_duplicating_samples_leaves_value_unchanged(self):
        m, c, tr, grids, incs = make_problem()
        states = node_states(m, c, tr, grids[0], incs[0])
        doubled = np.concatenate([states, states])
        assert mc_loglik(tr, m, doubled) == pytest.approx(mc_loglik(tr, m, states), rel=1e-12)

    def test_matches_naive_mixture_oracle(self):
        # K = 2 segments of N = 4 observations against S = 5 samples, with
        # unequal noise variances, scored in observation-major arrays as an
        # evaluation lays them out; D = 3 adds a quadratic term to a sum of two
        K, S, N = 2, 5, 4
        for D in (1, 2, 3):
            rng = np.random.default_rng(3 + D)
            nv = np.array([0.04, 0.09, 0.02])[:D]
            y = 0.4 * rng.normal(size=(K, N, D))
            states = y[:, None] + 0.3 * rng.normal(size=(K, S, N, D))
            out = (np.empty((K, N, S, D)).transpose(0, 2, 1, 3),
                   np.empty((K, N, S)).transpose(0, 2, 1))
            per_obs, seeds, grad_log_noise = mc_loglik_grad(y, states, nv, out)
            assert seeds is out[0]
            for k in range(K):
                for i in range(N):
                    r = y[k, i] - states[k, :, i]       # (S, D)
                    dens = np.array([np.prod(np.exp(-0.5 * r[s] ** 2 / nv)
                                             / np.sqrt(2 * np.pi * nv)) for s in range(S)])
                    w = dens / dens.sum()
                    assert per_obs[k, i] == pytest.approx(np.log(dens.mean()), abs=1e-12)
                    np.testing.assert_allclose(seeds[k, :, i], w[:, None] * r / nv,
                                               rtol=1e-12, atol=1e-12)
                    np.testing.assert_allclose(
                        grad_log_noise[k, i],
                        0.5 * ((w[:, None] * r ** 2 / nv).sum(axis=0) - 1.0),
                        rtol=1e-12, atol=1e-12)
            # the three-argument call allocates its own arrays, and scores alike
            assert _obs_logliks(y, states, nv)[0].tobytes() == per_obs.tobytes()

    def test_additivity_over_observations(self):
        m, c, tr, grids, incs = make_problem(seed=4)
        val = evaluate_with_increments([tr], m, c, grids, Workspace([tr], grids, incs))
        assert val.per_obs_loglik.shape == (tr.n_obs,)
        lp_sum = val.per_obs_loglik.sum() + log_prior(c)
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
        val = evaluate_with_increments([tr], m, c, grids, Workspace([tr], grids, incs))
        assert val.per_obs_loglik.shape == (tr.n_obs,)
        lp_sum = val.per_obs_loglik.sum() + log_prior(c)
        assert val.log_posterior == pytest.approx(lp_sum, rel=1e-12)
        for a in range(0, tr.n_obs - 1, SEGMENT_INTERVALS):
            b = min(a + SEGMENT_INTERVALS, tr.n_obs - 1)
            part = Trajectory(times=tr.times[a:b + 1], obs=tr.obs[a:b + 1])
            g = make_grids([part], 6)[0]
            node = grids[0].obs_indices[a]
            part_val = evaluate_with_increments(
                [part], m, c, [g], Workspace([part], [g], [incs[0][:, node:node + g.n_steps]]))
            first = 0 if a == 0 else 1
            np.testing.assert_allclose(val.per_obs_loglik[a + first:b + 1],
                                       part_val.per_obs_loglik[first:], rtol=1e-9)
        # the trajectory's first observation is scored against its start state
        assert val.per_obs_loglik[0] == pytest.approx(
            -0.5 * np.sum(np.log(2 * np.pi * m.noise_vars)), rel=1e-12)

    def test_segments_with_equal_interval_counts_share_one_batch(self):
        # different gaps, same number of intervals: one batch, no padding
        trs = [Trajectory(times=t, obs=np.zeros((4, 1))) for t in IRREGULAR_TIMES]
        grids = make_grids(trs, 3)
        batch_grid, _, _, y, slots = Workspace(trs, grids, [np.zeros((2, 9, 1))] * 2).batch
        # trajectory 0's segment of observations 0..3, then trajectory 1's,
        # every term scored
        assert y.shape == (2, 4, 1) and (batch_grid.steps // 3).tolist() == [3, 3]
        assert slots.ravel().tolist() == list(range(8))
        np.testing.assert_array_equal(batch_grid.dt, [g.dt for g in grids])

    def test_shape_mismatch_rejected(self):
        m, c, tr, grids, incs = make_problem()
        with pytest.raises(InputError):
            Workspace([tr, tr], grids, incs)
        # a draw of 2-d trajectories against a 1-d model
        tr2 = Trajectory(times=tr.times, obs=np.zeros((tr.n_obs, 2)))
        with pytest.raises(InputError):
            evaluate_with_increments([tr2], m, c, grids,
                                     Workspace([tr2], grids, [np.concatenate([incs[0]] * 2, 2)]))
        # a grid whose last observation node lies past its last step
        short = TimeGrid(t0=0.0, dt=grids[0].dt[:-1], obs_indices=grids[0].obs_indices)
        with pytest.raises(InputError, match="grid does not cover"):
            Workspace([tr], [short], [incs[0][:, :-1]])

    def test_draw_without_trajectories_is_refused(self):
        with pytest.raises(InputError, match="at least one trajectory"):
            Workspace([], [], [])

    def test_trajectories_of_other_dimensions_are_refused(self):
        # a 1-d trajectory beside a 2-d one: the 2-d one is named
        m, c, trs, grids, incs = make_batch_problem(
            32, 1, [np.linspace(0.0, 1.0, 6)] * 2, n_samples=4, factor=2)
        tr2 = Trajectory(times=trs[1].times, obs=np.zeros((trs[1].n_obs, 2)))
        with pytest.raises(InputError, match="trajectory 1 has dimension 2"):
            Workspace([trs[0], tr2], grids, [incs[0], np.concatenate([incs[1]] * 2, 2)])

    @pytest.mark.parametrize("change", ["more steps", "fewer steps", "other sample count",
                                        "other dimension", "2-d", "no samples"])
    def test_increments_of_another_shape_rejected(self, change):
        # two trajectories of 6 observations, factor 2 (10 steps), S=4; the
        # named trajectory's increments take another shape
        m, c, trs, grids, (a, b) = make_batch_problem(
            31, 1, [np.linspace(0.0, 1.0, 6)] * 2, n_samples=4, factor=2)
        j, incs = {"more steps": (1, [a, np.concatenate([b, b[:, :7]], axis=1)]),
                   "fewer steps": (1, [a, b[:, :-1]]),
                   "other sample count": (1, [a, b[:3]]),
                   "other dimension": (1, [a, np.concatenate([b, b], axis=2)]),
                   "2-d": (1, [a, b[0]]),
                   "no samples": (0, [a[:0], b[:0]])}[change]
        with pytest.raises(InputError, match=rf"trajectory {j}: increments must be \(S, 10, 1\)"):
            Workspace(trs, grids, incs)


class TestSoftmaxWeights:
    def test_weights_sum_to_one(self):
        m, c, tr, grids, incs = make_problem(seed=5, n_samples=4)
        states = node_states(m, c, tr, grids[0], incs[0])
        w = _obs_logliks(tr.obs, states, m.noise_vars)[1]
        np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=1e-12)

    def test_degenerate_weights_for_identical_samples(self):
        # zero diffusion and identical increments make every sample the same
        m, c = small_model(seed=6)
        m0, c0 = update_values(c, m, u_sigma=np.zeros(m.M))
        times = np.linspace(0.0, 1.0, 4)
        tr = Trajectory(times=times, obs=0.3 * np.ones((4, 1)))
        grid = make_grids([tr], 5)[0]
        inc = np.zeros((3, grid.n_steps, 1))
        states = node_states(m0, c0, tr, grid, inc)
        w = _obs_logliks(tr.obs, states, m0.noise_vars)[1]
        np.testing.assert_allclose(w, 1.0 / 3.0, rtol=1e-12)
        # the mixture gradient reduces to the plain single-path chain rule
        val = evaluate_with_increments([tr], m0, c0, [grid], Workspace([tr], [grid], [inc]))
        val1 = evaluate_with_increments([tr], m0, c0, [grid], Workspace([tr], [grid], [inc[:1]]))
        np.testing.assert_allclose(val.grad_u_f, val1.grad_u_f, rtol=1e-10)


class TestGradients:
    def frozen_fd(self, trajs, m, cache, grids, draw, h=1e-5):
        M, D = m.M, m.D
        MD = M * D

        def value(x):
            m2, c2 = update_values(
                cache, m, U_f=x[:MD].reshape(M, D), u_sigma=x[MD:MD + M],
                noise_vars=np.exp(x[MD + M:]))
            return evaluate_with_increments(trajs, m2, c2, grids, draw).log_posterior

        x0 = np.concatenate([m.u_f, m.u_sigma, np.log(m.noise_vars)])
        g = np.zeros_like(x0)
        for q in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[q] += h
            xm[q] -= h
            g[q] = (value(xp) - value(xm)) / (2 * h)
        return g

    @pytest.mark.parametrize("seed,D,times,grid", [
        pytest.param(0, 1, [np.linspace(0.0, 1.0, 5)], False, id="0-1"),
        pytest.param(1, 2, [np.linspace(0.0, 1.0, 5)], False, id="1-2"),
        pytest.param(2, 2, [np.linspace(0.0, 1.0, 5)], False, id="2-2"),
        # longer than one segment: samples restart at segment boundaries
        pytest.param(3, 1, [np.linspace(0.0, 1.0, LONG_N_OBS)], False, id="3-1-long"),
        # irregular sampling: both trajectories simulate in one batch
        pytest.param(4, 2, IRREGULAR_TIMES, False, id="4-2-irregular"),
        # equal kernels: the field and the adjoint sweep share one set of factors
        pytest.param(5, 2, [np.linspace(0.0, 1.0, 5)], True, id="5-2-grid"),
    ])
    def test_full_gradient_matches_frozen_noise_fd(self, seed, D, times, grid):
        m, c, trs, grids, incs = make_batch_problem(seed, D, times, grid=grid)
        draw = Workspace(trs, grids, incs)
        val = evaluate_with_increments(trs, m, c, grids, draw)
        fd = self.frozen_fd(trs, m, c, grids, draw)
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
            states = node_states(m2, c2, tr, grids[0], incs[0])
            w = _obs_logliks(tr.obs, states, nv)[1]
            res2 = (tr.obs[None] - states) ** 2
            nv = np.einsum("sn,snd->d", w, res2) / tr.n_obs
        m2, c2 = update_values(c, m, noise_vars=nv)
        val = evaluate_with_increments([tr], m2, c2, grids, Workspace([tr], grids, incs))
        assert np.max(np.abs(val.grad_log_noise)) < 1e-6


def value_arrays(val):
    return (np.array([val.log_posterior]), val.grad_u_f, val.grad_u_s,
            val.grad_log_noise, val.per_obs_loglik)


def assert_same_bits(a, b):
    for x, y in zip(value_arrays(a), value_arrays(b)):
        assert x.tobytes() == y.tobytes()


class TestWorkspace:
    # a long trajectory and a short one: segments of 25 and of 9 intervals
    # (the long one's last), and of 3 (the short one), in one ragged batch
    TIMES = [np.linspace(0.0, 2.0, LONG_N_OBS), np.linspace(0.0, 0.3, 4)]

    def problem(self, D, grid=False):
        """Trajectories, grids, four (model, cache) points and a function
        that draws the increments of one seed afresh."""
        m, c, trs, grids, _ = make_batch_problem(20 + D, D, self.TIMES, n_samples=4,
                                                 factor=2, grid=grid)
        points = [update_values(c, m, U_f=(1.0 + 0.3 * k) * m.U_f,
                                u_sigma=(1.0 - 0.1 * k) * m.u_sigma)
                  for k in range(4)]
        return trs, grids, points, lambda: draw_increments(trs, grids, m, 4, 27 + D)

    @pytest.mark.parametrize("D,grid", [(1, False), (2, False), (2, True)])
    def test_kept_workspace_matches_a_fresh_one_bit_for_bit(self, D, grid):
        # repeated evaluations on one draw equal those on a fresh draw of its seed
        trs, grids, points, fresh = self.problem(D, grid)
        draw = fresh()
        assert (draw.batch[0].steps // 2).tolist() == [25, 25, 9, 3]
        # points in turn, and revisited
        for m, c in points + points[::-1]:
            assert_same_bits(evaluate_with_increments(trs, m, c, grids, draw),
                             evaluate_with_increments(trs, m, c, grids, fresh()))

    @pytest.mark.parametrize("D", [1, 2])
    def test_workspace_survives_a_blown_up_trial_point(self, D):
        trs, grids, points, fresh = self.problem(D)
        draw = fresh()
        m, c = points[0]
        evaluate_with_increments(trs, m, c, grids, draw)
        m_bad, c_bad = update_values(c, m, U_f=1e9 * m.U_f)
        with pytest.raises(SimulationError):
            evaluate_with_increments(trs, m_bad, c_bad, grids, draw)
        for m, c in points:
            assert_same_bits(evaluate_with_increments(trs, m, c, grids, draw),
                             evaluate_with_increments(trs, m, c, grids, fresh()))

    def test_returned_values_survive_the_next_evaluation(self):
        trs, grids, points, fresh = self.problem(2, grid=True)
        draw = fresh()
        (m0, c0), (m1, c1) = points[:2]
        val = evaluate_with_increments(trs, m0, c0, grids, draw)
        before = [a.copy() for a in value_arrays(val)]
        evaluate_with_increments(trs, m1, c1, grids, draw)
        for a, b in zip(value_arrays(val), before):
            assert a.tobytes() == b.tobytes()

    def test_workspace_of_other_inputs_is_refused(self):
        trs, grids, points, fresh = self.problem(1)
        m, c = points[0]
        with pytest.raises(InternalError):
            evaluate_with_increments([Trajectory(tr.times, tr.obs) for tr in trs], m, c,
                                     grids, fresh())
        with pytest.raises(InternalError):
            evaluate_with_increments(trs, m, c, make_grids(trs, 2), fresh())
        with pytest.raises(InternalError):
            evaluate_with_increments(trs[:1], m, c, grids[:1], fresh())
        # the same trajectories and grids in new lists are the same inputs
        evaluate_with_increments(list(trs), m, c, list(grids), fresh())

    def test_unevenly_spaced_observation_nodes_are_refused(self):
        # an evaluation reads every f-th node of the paths, as build_grid spaces them
        tr = Trajectory(times=[0.0, 0.1, 0.3], obs=np.zeros((3, 1)))
        grid = TimeGrid(t0=0.0, dt=[0.1, 0.1, 0.1], obs_indices=[0, 1, 3])
        with pytest.raises(InputError, match="evenly spaced"):
            Workspace([tr], [grid], [np.zeros((2, 3, 1))])

    @pytest.mark.parametrize("D,grid", [(1, False), (2, True)])
    def test_kept_workspace_allocates_less_than_one_batch(self, traced_peak, D, grid):
        # after the first evaluation every batch-sized array is kept: the
        # second one peaks below one (K, S, N, D) array of the batch, its
        # K*S rows of x0 at each of its grid's N nodes
        m, c, trs, grids, incs = make_batch_problem(30, D, [np.linspace(0.0, 2.0, 51)] * 4,
                                                    n_samples=100, factor=2, grid=grid)
        draw = Workspace(trs, grids, incs)
        batch_grid, x0, *_ = draw.batch
        largest = x0.size * batch_grid.n_obs * 8
        peak = traced_peak(lambda: evaluate_with_increments(trs, m, c, grids, draw))
        assert peak < largest, f"peak {peak} B, the batch's states {largest} B"

    @pytest.mark.parametrize("D,grid", [(1, False), (2, True)])
    def test_first_evaluation_allocates_only_what_the_draw_keeps(self, traced_peak, D, grid):
        # a fresh draw's first evaluation makes the buffers the draw keeps (the
        # paths, J_f, grad sigma, kept rows, seeds and (K, N, S) weights of
        # the batch), sized here by their shapes; beyond them it peaks below
        # one (K, S, N, D) array of node states, so it copies no node states
        # or residuals
        m, c, trs, grids, incs = make_batch_problem(30, D, [np.linspace(0.0, 2.0, 51)] * 4,
                                                    n_samples=100, factor=2, grid=grid)
        draws = iter([Workspace(trs, grids, incs), Workspace(trs, grids, incs)])
        batch_grid, _, inc, y, _ = Workspace(trs, grids, incs).batch
        R, n_steps, _ = inc.shape
        (K, N, _), S = y.shape, R // batch_grid.n_blocks
        rows = rows_buffer(c, n_steps, R, lambda shape: 8 * math.prod(shape)) or 0
        node_states = K * S * N * D
        kept = rows + 8 * (R * (n_steps + 1) * D + n_steps * D * D * R + n_steps * D * R
                           + R * batch_grid.n_obs * D + node_states // D)
        # the warm-up call evaluates on the first draw, the traced one on the second
        peak = traced_peak(lambda: evaluate_with_increments(trs, m, c, grids, next(draws)))
        assert peak - kept < 8 * node_states, \
            f"peak {peak} B less kept {kept} B, the node states {8 * node_states} B"


# last segments of 1, 3, 9 and 25 intervals, and a trajectory shorter than one
# segment: five segment shapes in one ragged batch
RAGGED_TIMES = [np.linspace(0.0, 1.0, SEGMENT_INTERVALS + 2),
                np.linspace(0.0, 1.2, SEGMENT_INTERVALS + 4),
                np.linspace(0.0, 1.5, SEGMENT_INTERVALS + 10),
                np.linspace(0.0, 2.0, 2 * SEGMENT_INTERVALS + 1),
                np.linspace(0.0, 0.2, 5)]
RAGGED_CASES = [pytest.param(f, D, grid, id=f"factor{f}-{'grid' if grid else D}")
                for f in (1, 2) for D, grid in ((1, False), (2, True))]


class TestRaggedBatch:
    def problem(self, factor, D, grid):
        return make_batch_problem(40 + factor, D, RAGGED_TIMES, n_samples=3, factor=factor,
                                  grid=grid)

    @pytest.mark.parametrize("factor,D,grid", RAGGED_CASES)
    def test_every_segment_scores_as_if_alone(self, factor, D, grid):
        # each segment scores like a trajectory of its own observations and
        # slice of the increments; a segment's first observation is scored
        # by the segment before it
        m, c, trs, grids, incs = self.problem(factor, D, grid)
        draw = Workspace(trs, grids, incs)
        counts = (draw.batch[0].steps // factor).tolist()
        assert counts == sorted(counts, reverse=True)
        assert sorted(set(counts), reverse=True) == [25, 9, 4, 3, 1]
        val = evaluate_with_increments(trs, m, c, grids, draw)
        start = 0
        for tr, g, inc in zip(trs, grids, incs):
            got = val.per_obs_loglik[start:start + tr.n_obs]
            start += tr.n_obs
            for a in range(0, tr.n_obs - 1, SEGMENT_INTERVALS):
                b = min(a + SEGMENT_INTERVALS, tr.n_obs - 1)
                part = Trajectory(times=tr.times[a:b + 1], obs=tr.obs[a:b + 1])
                pg = make_grids([part], factor)[0]
                node = g.obs_indices[a]
                alone = evaluate_with_increments(
                    [part], m, c, [pg],
                    Workspace([part], [pg], [inc[:, node:node + pg.n_steps]]))
                first = 0 if a == 0 else 1
                np.testing.assert_allclose(got[a + first:b + 1], alone.per_obs_loglik[first:],
                                           rtol=1e-9)

    @pytest.mark.parametrize("factor,D,grid", RAGGED_CASES)
    def test_slot_map_scores_each_observation_once(self, factor, D, grid):
        # the scored terms are every observation once; -1 marks a later
        # segment's node 0 and the padding past each segment's last node,
        # where the observations are zero
        m, c, trs, grids, incs = self.problem(factor, D, grid)
        batch_grid, x0, _, y, slots = Workspace(trs, grids, incs).batch
        (K, N), n = slots.shape, batch_grid.steps // factor
        scored = slots >= 0
        obs = np.concatenate([tr.obs for tr in trs])
        assert sorted(slots[scored].tolist()) == list(range(len(obs)))
        np.testing.assert_array_equal(scored[:, 1:], np.arange(1, N) <= n[:, None])
        starts = np.cumsum([0] + [tr.n_obs for tr in trs])[:-1]
        assert sorted(slots[scored[:, 0], 0].tolist()) == starts.tolist()
        # a later segment starts at the last node of the one before it
        later = ~scored[:, 0]
        assert set((slots[later, 1] - 1).tolist()) <= set(slots[np.arange(K), n].tolist())
        assert np.all(y[scored] == obs[slots[scored]])
        assert np.all(y[:, 1:][~scored[:, 1:]] == 0.0)
        np.testing.assert_array_equal(x0, np.repeat(y[:, 0], 3, axis=0))

    def test_first_evaluation_raises_no_floating_point_error(self):
        # the padded terms read path rows that no step writes, which a new
        # draw's buffers hold at zero
        m, c, trs, grids, incs = self.problem(2, 2, True)
        with np.errstate(all="raise"):
            val = evaluate_with_increments(trs, m, c, grids, Workspace(trs, grids, incs))
        assert np.all(np.isfinite(val.packed_grad()))

    def test_one_score_call_per_evaluation(self, monkeypatch):
        # every segment, of whatever length, is scored by one reduction
        m, c, trs, grids, incs = self.problem(2, 2, True)
        draw = Workspace(trs, grids, incs)
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return mc_loglik_grad(*args)

        monkeypatch.setattr(objective, "mc_loglik_grad", counted)
        for _ in range(2):
            evaluate_with_increments(trs, m, c, grids, draw)
        assert calls == [draw.batch[3].shape] * 2

    @pytest.mark.parametrize("factor,D,grid", RAGGED_CASES)
    def test_gradient_matches_frozen_noise_fd(self, factor, D, grid):
        m, c, trs, grids, incs = self.problem(factor, D, grid)
        draw = Workspace(trs, grids, incs)
        an = evaluate_with_increments(trs, m, c, grids, draw).packed_grad()
        fd = TestGradients().frozen_fd(trs, m, c, grids, draw)
        rel = np.abs(an - fd) / np.maximum(1e-8, np.abs(fd))
        assert rel.max() <= 1e-4

    @pytest.mark.parametrize("D,grid", [(1, False), (2, True)], ids=["1", "grid"])
    def test_kept_step_jacobian_matches_euler_step_fd(self, D, grid):
        # each step's kept A_i is the Jacobian of the Euler step
        # x + f(x) dt + sigma(x) dW at the rows that take it, against
        # central differences of that step
        m, c, trs, grids, incs = self.problem(2, D, grid)
        g, x0, inc, _, _ = Workspace(trs, grids, incs).batch
        buffers = Buffers()
        paths, _ = sensitivity.simulate_bundle_with_sensitivities(m, c, x0, g, inc,
                                                                   buffers=buffers)
        R, n, _ = inc.shape
        jac = buffers.take("jac", (n, D, D, R))
        r = R // g.n_blocks
        dt = np.repeat(np.broadcast_to(g.dt, (g.n_blocks, n)), r, axis=0)
        h = 1e-6
        for i, b in enumerate(g.active):
            a = b * r

            def step(X):
                F, sig = drift_diffusion_batch(X, c)
                return X + F * dt[:a, i, None] + sig[:, None] * inc[:a, i]

            fd = np.empty((D, D, a))
            for e in range(D):
                dx = np.zeros(D)
                dx[e] = h
                fd[:, e] = ((step(paths[:a, i] + dx) - step(paths[:a, i] - dx)) / (2 * h)).T
            np.testing.assert_allclose(jac[i, ..., :a], fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("factor,D,grid", RAGGED_CASES)
    def test_one_step_call_per_step_of_the_longest_segment(self, monkeypatch, factor, D, grid):
        # every segment steps in one batch: one evaluation makes as many
        # step_terms_batch calls as its longest segment has steps, and
        # forms the field at each row's steps alone
        m, c, trs, grids, incs = self.problem(factor, D, grid)
        draw = Workspace(trs, grids, incs)
        calls = []

        def counted(X, *args):
            calls.append(len(X))
            return step_terms_batch(X, *args)

        monkeypatch.setattr(sensitivity, "step_terms_batch", counted)
        evaluate_with_increments(trs, m, c, grids, draw)
        assert len(calls) == SEGMENT_INTERVALS * factor
        assert sum(calls) == 3 * sum(g.n_steps for g in grids)


    def test_grids_of_other_factors_are_refused(self):
        # a draw steps every grid at one resolution factor; factors 1 and 2
        # put observation 1 at nodes 1 and 2
        trs = self.problem(1, 1, False)[2]
        grids = [make_grids([tr], 1 + j % 2)[0] for j, tr in enumerate(trs)]
        incs = [sample_increments(g, 3, 1, child_seed(5, j)) for j, g in enumerate(grids)]
        with pytest.raises(InputError, match="evenly spaced"):
            Workspace(trs, grids, incs)


def log_posterior(trajs, m, resolution_factor, n_samples, seed):
    grids = make_grids(trajs, resolution_factor)
    incs = draw_increments(trajs, grids, m, n_samples, seed)
    return evaluate_with_increments(trajs, m, build_cache(m), grids, incs)


class TestLogPosterior:
    def test_deterministic_per_seed(self):
        m, _ = small_model(seed=11)
        rng = np.random.default_rng(0)
        tr = Trajectory(times=np.linspace(0, 1, 5), obs=0.3 * rng.normal(size=(5, 1)))
        v1 = log_posterior([tr], m, 4, 4, 5)
        v2 = log_posterior([tr], m, 4, 4, 5)
        assert v1.log_posterior == v2.log_posterior
        assert np.array_equal(v1.grad_u_f, v2.grad_u_f)
        v3 = log_posterior([tr], m, 4, 4, 6)
        assert v1.log_posterior != v3.log_posterior

    def test_zero_values_reduce_to_prior_constant(self):
        m, c = small_model(seed=12)
        m0, _ = update_values(c, m, U_f=np.zeros_like(m.U_f),
                              u_sigma=np.zeros_like(m.u_sigma))
        rng = np.random.default_rng(1)
        tr = Trajectory(times=np.linspace(0, 1, 4), obs=rng.normal(size=(4, 1)))
        val = log_posterior([tr], m0, resolution_factor=3, n_samples=3, seed=2)
        c0 = build_cache(m0)
        prior = log_prior(c0)
        assert val.log_posterior == pytest.approx(val.per_obs_loglik.sum() + prior, rel=1e-12)
        n_f, n_s = m.M * m.D, m.M
        logdet_f, logdet_s = (np.linalg.slogdet(gram(m.Z, m.Z, p) + JITTER_SCALE * p.variance
                                                * np.eye(m.M))[1]
                              for p in (m.drift_params, m.diff_params))
        expected_prior = (-0.5 * (m.D * logdet_f + logdet_s)
                          - 0.5 * (n_f + n_s) * np.log(2 * np.pi))
        assert prior == pytest.approx(expected_prior, rel=1e-12)

    def test_close_observations_evaluate(self):
        # a gap 1e5 times shorter than the next, at one step per interval
        m, _ = small_model(seed=15)
        tr = Trajectory(times=[0.0, 1e-4, 10.0], obs=[[0.1], [0.1], [-0.2]])
        val = log_posterior([tr], m, resolution_factor=1, n_samples=4, seed=1)
        assert np.isfinite(val.log_posterior)
        assert np.all(np.isfinite(val.packed_grad()))

    def test_permutation_invariance(self):
        m, c = small_model(seed=13)
        rng = np.random.default_rng(3)
        trs = [Trajectory(times=np.linspace(0, 1, 4), obs=0.3 * rng.normal(size=(4, 1)))
               for _ in range(3)]
        grids = make_grids(trs, 4)
        incs = [sample_increments(g, 3, 1, child_seed(9, j)) for j, g in enumerate(grids)]
        val = evaluate_with_increments(trs, m, c, grids, draw_increments(trs, grids, m, 3, 9))
        perm = [2, 0, 1]
        p_trs, p_grids = [trs[j] for j in perm], [grids[j] for j in perm]
        val_p = evaluate_with_increments(p_trs, m, c, p_grids,
                                         Workspace(p_trs, p_grids, [incs[j] for j in perm]))
        assert val_p.log_posterior == pytest.approx(val.log_posterior, abs=1e-12)
        np.testing.assert_allclose(val_p.grad_u_f, val.grad_u_f, atol=1e-12)
        # reordering samples within a trajectory's increments
        v1 = evaluate_with_increments(trs[:1], m, c, grids[:1],
                                      Workspace(trs[:1], grids[:1], incs[:1]))
        v2 = evaluate_with_increments(trs[:1], m, c, grids[:1],
                                      Workspace(trs[:1], grids[:1], [incs[0][[2, 1, 0]]]))
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
            paths = sample_paths(c, tr.obs[0], grid, n_samples, seed)
            states = paths[:, grid.obs_indices, :]
            per_obs = _obs_logliks(tr.obs, states, m.noise_vars)[0]
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
    with pytest.raises(InputError):
        Trajectory(times=[0.0, 1.0], obs=[0.0, 1.0])     # obs must be (N, D)
    tr = Trajectory(times=[0.0, 1.0], obs=[[0.0], [1.0]])
    assert tr.n_obs == 2 and tr.dim == 1
