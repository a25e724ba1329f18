"""Monte Carlo log-posterior and its analytic gradient.

The likelihood of an observation y_i is a mixture over simulated samples,
(1/S) sum_s N(y_i | x_i^(s), Omega), evaluated in log space with
log-sum-exp.  Samples are simulated from the first observation of each
trajectory segment of ``SEGMENT_INTERVALS`` observation intervals, not
from the trajectory's first observation alone.  Every segment simulates
in one ragged batch and is scored in one padded reduction: observations
(K, N, D) against samples (K, S, N, D), one (segment, node) pair per term,
N the longest segment's node count.  A slot map keeps the terms that are
scored and where they go.  The gradient w.r.t. the simulated
states is the likelihood-weighted (softmax) residual, which one adjoint
sweep of the batch pulls back to the inducing values.  The noise
variances are optimised on a log scale; their gradient is the standard
Gaussian derivative.  Adding the Gaussian log-prior of the inducing
values gives the MAP objective.  A fit's frozen draw is one
:class:`Workspace`: the ragged batch of its increments, built once, and
the arrays every evaluation works in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError
from .field import FieldCache, InducingModel, _checked, log_prior, log_prior_grad
# not used here: bench/tracer.py wraps gpsde.objective.build_cache by name
from .field import build_cache  # noqa: F401
from .sensitivity import simulate_bundle_with_sensitivities
from .sim import Buffers, TimeGrid, build_grid, child_seed, sample_increments


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One observed time series: N >= 2 strictly increasing times and
    (N, D) values, all finite."""

    times: np.ndarray
    obs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).ravel()
        y = np.asarray(self.obs, dtype=float)
        if y.ndim != 2 or y.shape[0] != t.size:
            raise InputError(f"obs must be (len(times), D), got {y.shape}")
        if t.size < 2:
            raise InputError("trajectory needs at least two observations")
        if np.any(np.diff(t) <= 0):
            raise InputError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise InputError("times and observations must be finite")
        t.setflags(write=False)
        y = np.ascontiguousarray(y)
        y.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "obs", y)

    @property
    def n_obs(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        return self.obs.shape[1]


@dataclass(frozen=True, eq=False)
class ObjectiveValue:
    """Log-posterior with gradients w.r.t. u_f, u_sigma and log noise vars."""

    log_posterior: float
    grad_u_f: np.ndarray
    grad_u_s: np.ndarray
    grad_log_noise: np.ndarray
    per_obs_loglik: np.ndarray

    def packed_grad(self) -> np.ndarray:
        return np.concatenate([self.grad_u_f, self.grad_u_s, self.grad_log_noise])


def _obs_logliks(y: np.ndarray, states: np.ndarray, noise_vars: np.ndarray,
                 out=(None, None)):
    """Mixture log-likelihoods and softmax weights of observations.

    y (..., N, D); states (..., S, N, D), with any leading (segment) axes
    shared.  Returns (per_obs (..., N), weights (..., S, N), residuals
    y - x (..., S, N, D)) with weights the softmax over samples.  out holds
    up to two arrays that receive the residuals and the weights; any left
    None is allocated.  The density's D quadratic terms add into the
    weights one dimension at a time, in the order a sum over the last axis
    adds them; the dimensions after the first share one scratch array of
    the weights' shape.
    """
    res = np.empty(states.shape) if out[0] is None else out[0]
    # the states are copied in first: a ufunc from the paths' strided view
    # into the observation-major residuals takes iterator buffers for each
    # operand, and the copy takes none
    np.copyto(res, states)
    np.subtract(y[..., None, :, :], res, out=res)
    log_norm = np.log(2.0 * np.pi * noise_vars)
    logp = np.square(res[..., 0], out=out[1])
    logp /= noise_vars[0]
    logp += log_norm[0]
    q = None
    for d in range(1, res.shape[-1]):
        q = np.square(res[..., d], out=q)
        q /= noise_vars[d]
        q += log_norm[d]
        logp += q
    logp *= -0.5
    top = logp.max(axis=-2)
    logp -= top[..., None, :]
    e = np.exp(logp, out=logp)
    total = e.sum(axis=-2)
    per_obs = top + np.log(total) - np.log(states.shape[-3])
    e /= total[..., None, :]
    return per_obs, e, res


def mc_loglik_grad(y: np.ndarray, states: np.ndarray, noise_vars: np.ndarray, out):
    """Monte Carlo likelihood of a batch of K segments, per observation.

    y (K, N, D) are the segments' observations and states (K, S, N, D) the
    simulated samples at their nodes; every (segment, node) pair is scored,
    and the caller keeps the terms it needs.  Returns the mixture
    log-likelihoods (K, N); the state seeds w (y - x) / Omega (K, S, N, D),
    the likelihood's gradient w.r.t. the simulated states, which an adjoint
    sweep pulls back to the inducing values; and the log-noise gradients
    0.5 (sum_s w (y - x)^2 / Omega - 1) (K, N, D).  out, as for
    :func:`_obs_logliks`, is the (K, S, N, D) and (K, S, N) arrays the
    reduction works in: the residuals turn into the seeds in the first, in
    place, after the log-noise gradients have read them.  Those gradients
    divide by Omega after the sum over samples, not before, so they agree
    with the seeds' own products to rounding, not bit for bit.
    """
    per_obs, w, res = _obs_logliks(y, states, noise_vars, out)
    grad_log_noise = np.einsum("ksn,ksnd,ksnd->knd", w, res, res)
    grad_log_noise /= noise_vars
    grad_log_noise -= 1.0
    grad_log_noise *= 0.5
    seeds = np.divide(res, noise_vars, out=res)
    seeds *= w[..., None]
    return per_obs, seeds, grad_log_noise


def make_grids(trajs, resolution_factor: int) -> list[TimeGrid]:
    return [build_grid(tr.times, resolution_factor) for tr in trajs]


def draw_increments(trajs, grids, m: InducingModel, n_samples: int, seed) -> Workspace:
    """A fit's frozen draw; trajectory j's increments from ``child_seed(seed, j)``."""
    return Workspace(trajs, grids, [
        sample_increments(g, n_samples, m.D, child_seed(seed, j))
        for j, g in enumerate(grids)
    ])


# Observation intervals per simulated segment.  Samples restart from the
# observed state at each segment's first observation: a mixture over samples
# simulated across a whole long trajectory favours too broad a path
# distribution (on the criterion-4 double well, sigma=2.0 outscored the
# true 1.5), while 25-interval segments rank the true diffusion first.
SEGMENT_INTERVALS = 25


class Workspace:
    """A frozen draw: the ragged batch of some trajectories' segments, their
    grids and their Brownian increments, one (S, n_steps, D) array per
    trajectory (one S >= 1 and one D for all), and the buffers of the
    evaluations on it.

    Every grid puts observation i at node f i, with one f for all grids,
    as :func:`~gpsde.sim.build_grid` places them for resolution factor f
    (``InputError`` otherwise), so a segment of n intervals takes n f
    steps and an evaluation reads its node states as a strided view of the
    paths.  The batch is built once, in place.  It simulates the S samples
    of all K segments together, rows segment-major and sorted by interval
    count, longest first and in trajectory order among equal counts, so
    that a step advances the leading rows whose segments take it.  It is
    the tuple (grid with one row of steps per segment and their step counts
    (see :class:`~gpsde.sim.TimeGrid`), x0 (K*S, D) start states, (K*S,
    n_steps, D) increments, y, slots), padded to the longest segment's N
    nodes: y (K, N, D) the observations, zero past a segment's last node,
    and slots (K, N) each term's position in ``per_obs_loglik``, or -1 for
    a term that is not scored (a later segment's node 0, which the segment
    before it scores, and the nodes past a segment's last).  An
    evaluation's batch-sized arrays are views of one
    :class:`~gpsde.sim.Buffers` and hold only what the adjoint sweep reads
    (the paths, each step's state Jacobian, kept kernel rows and the seeds,
    which the residuals turn into in place) and the likelihood weights;
    after the first evaluation, one allocates nothing of batch size, so two
    evaluations on one draw must not overlap (none in gpsde do).  A draw
    serves only the trajectories and grids it was built from, checked by
    identity.
    """

    def __init__(self, trajs, grids, increments):
        if not len(trajs) == len(grids) == len(increments):
            raise InputError(
                f"need one grid and one increment array per trajectory, got {len(trajs)} "
                f"trajectories, {len(grids)} grids and {len(increments)} increment arrays")
        if not trajs:
            raise InputError("a draw needs at least one trajectory")
        S, D = np.shape(increments[0])[:1], trajs[0].dim     # (S,) of the first array
        for j, (tr, g, inc) in enumerate(zip(trajs, grids, increments)):
            if tr.dim != D:
                raise InputError(f"trajectory {j} has dimension {tr.dim}, trajectory 0 has {D}")
            if g.n_obs != tr.n_obs or g.obs_indices[-1] > g.n_steps:
                raise InputError(f"trajectory {j}: grid does not cover its observations")
            if np.shape(inc) != (*S, g.n_steps, D) or S[0] < 1:
                raise InputError(f"trajectory {j}: increments must be (S, {g.n_steps}, "
                                 f"{D}), one S >= 1 for all; got {np.shape(inc)}")
        # an evaluation reads observation p of a segment at its node f p
        f = int(grids[0].obs_indices[1])
        if f < 1 or any(not np.array_equal(g.obs_indices, f * np.arange(g.n_obs))
                        for g in grids):
            raise InputError("every grid's observation nodes must be evenly spaced, "
                             "observation i at node f i with one f >= 1 for all grids, "
                             "as build_grid places them")
        self._inputs = (tuple(trajs), tuple(grids))
        starts = np.cumsum([0] + [tr.n_obs for tr in trajs])
        self.n_obs = int(starts[-1])
        self.batch = self._batch(trajs, grids, increments, f, starts)
        self.buffers = Buffers()

    @staticmethod
    def _batch(trajs, grids, increments, f, starts):
        """The ragged batch of every (trajectory, first, last) segment."""
        S, D = increments[0].shape[0], trajs[0].dim
        segments = [(j, a, min(a + SEGMENT_INTERVALS, tr.n_obs - 1))
                    for j, tr in enumerate(trajs)
                    for a in range(0, tr.n_obs - 1, SEGMENT_INTERVALS)]
        segments.sort(key=lambda s: s[2] - s[1], reverse=True)   # stable: trajectory order kept
        K, N = len(segments), segments[0][2] - segments[0][1] + 1
        n_steps = (N - 1) * f
        dt = np.zeros((K, n_steps))
        steps = np.empty(K, dtype=int)
        y = np.zeros((K, N, D))
        slots = np.full((K, N), -1)
        inc = np.zeros((K, S, n_steps, D))
        for k, (j, a, b) in enumerate(segments):
            node, L = a * f, (b - a) * f
            y[k, :b - a + 1] = trajs[j].obs[a:b + 1]
            # a later segment's start is scored by the segment before it
            first = int(a > 0)
            slots[k, first:b - a + 1] = starts[j] + np.arange(a + first, b + 1)
            steps[k] = L
            dt[k, :L] = grids[j].dt[node:node + L]
            inc[k, :, :L] = increments[j][:, node:node + L]
        grid = TimeGrid(t0=0.0, dt=dt, obs_indices=np.arange(0, n_steps + 1, f), steps=steps)
        return (grid, np.repeat(y[:, 0], S, axis=0), inc.reshape(-1, n_steps, D), y, slots)

    def check(self, trajs, grids):
        """InternalError unless these are the inputs the draw was built from."""
        for kept, given in zip(self._inputs, (trajs, grids)):
            if len(kept) != len(given) or any(a is not b for a, b in zip(kept, given)):
                raise InternalError("the draw was built for other trajectories or grids; "
                                    "draw one for these")


def evaluate_with_increments(trajs, m: InducingModel, cache: FieldCache, grids,
                             draw: Workspace) -> ObjectiveValue:
    """Frozen-noise objective: simulate with the draw's increments and score.

    Each trajectory is cut into segments of ``SEGMENT_INTERVALS``
    observation intervals.  A segment's samples start from the raw
    observation at its first node and use that trajectory's steps and
    increments between its first and last node.  All segments simulate in
    one ragged batch, one step call per step of the longest; one
    :func:`mc_loglik_grad` call scores every segment, padded to the
    longest, and one adjoint sweep of the batch, seeded at each segment's
    nodes, gives the gradient.  Padded terms read path rows past their
    segment's last step, which the stepping loop never writes and the
    draw's buffers hold at zero, so they stay finite; they are dropped
    from the sums, and the adjoint sweep does not read their seeds.
    Every observation is scored once: a segment's first observation belongs
    to the segment before it, except for the trajectory's first
    observation, which is scored against the start state.
    ``per_obs_loglik`` keeps trajectory and observation order.

    draw, the :class:`Workspace` of these trajectories and grids (from
    :func:`draw_increments`), holds the batch, and the evaluation works
    in its buffers.  The returned arrays are new, never the draw's.

    This deterministic map of the model parameters is what the optimizer
    sees for a whole fit, and what finite-difference checks differentiate.
    """
    _checked(m, cache)
    if any(tr.dim != m.D for tr in trajs):
        raise InputError("trajectory dimension does not match the model")
    draw.check(trajs, grids)
    take, D = draw.buffers.take, m.D
    grid, x0, inc, y, slots = draw.batch
    K, N = slots.shape
    S = len(x0) // K
    paths, pullback = simulate_bundle_with_sensitivities(
        m, cache, x0, grid, inc, buffers=draw.buffers)
    f = grid.obs_indices[1]       # observation p of a segment is its node f p
    # the residuals (then the seeds, where the adjoint reads them) and the
    # weights lie observation-major within a segment, as numpy lays out
    # y[:, None] - paths[:, obs_indices], so the sums over samples add in
    # the same order and the values keep every bit
    seeds = take("seeds", (K, N, S, D))
    work = (seeds.transpose(0, 2, 1, 3), take("weights", (K, N, S)).transpose(0, 2, 1))
    loglik, _, g_noise = mc_loglik_grad(
        y, paths[:, ::f].reshape(K, S, N, D), m.noise_vars, work)
    scored = slots >= 0
    per_obs = np.empty(draw.n_obs)
    per_obs[slots[scored]] = loglik[scored]
    grad_f, grad_s = pullback(seeds.transpose(0, 2, 1, 3))

    pg_f, pg_s = log_prior_grad(cache)
    return ObjectiveValue(
        log_posterior=float(per_obs.sum()) + log_prior(cache),
        grad_u_f=grad_f + pg_f,
        grad_u_s=grad_s + pg_s,
        grad_log_noise=g_noise[scored].sum(axis=0),
        per_obs_loglik=per_obs,
    )
