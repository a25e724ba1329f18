"""Monte Carlo log-posterior and its analytic gradient.

The likelihood of an observation y_i is a mixture over simulated samples,
(1/S) sum_s N(y_i | x_i^(s), Omega), evaluated in log space with
log-sum-exp.  Samples are simulated from the first observation of each
trajectory segment of ``SEGMENT_INTERVALS`` observation intervals, not
from the trajectory's first observation alone.  Its gradient w.r.t. the
simulated states is the likelihood-weighted (softmax) residual, which one
adjoint sweep of the simulated paths pulls back to the inducing values.
The noise variances are optimised on a log scale; their gradient is the
standard Gaussian derivative.  Adding the Gaussian log-prior of the
inducing values gives the MAP objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .field import (
    FieldCache,
    InducingModel,
    _checked,
    build_cache,
    log_prior,
    log_prior_grad,
)
from .sensitivity import simulate_bundle_with_sensitivities
from .sim import PathBundle, SimConfig, TimeGrid, build_grid, child_seed, sample_increments


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One observed time series: strictly increasing times, (N, D) values."""

    times: np.ndarray
    obs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).ravel()
        y = np.asarray(self.obs, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.ndim != 2 or y.shape[0] != t.size:
            raise InputError(f"obs must be (len(times), D), got {y.shape}")
        if t.size < 1:
            raise InputError("trajectory needs at least one observation")
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


def _as_list(x):
    return list(x) if isinstance(x, (list, tuple)) else [x]


def _check_alignment(trajs, m, bundles):
    if len(trajs) != len(bundles):
        raise InputError("need one path bundle per trajectory")
    for tr, b in zip(trajs, bundles):
        if tr.dim != m.D:
            raise InputError("trajectory dimension does not match the model")
        if b.grid.n_obs != tr.n_obs:
            raise InputError("bundle grid does not cover the trajectory's observations")
        if b.paths.shape[2] != m.D:
            raise InputError("bundle dimension does not match the model")


def _obs_logliks(y: np.ndarray, states: np.ndarray, noise_vars: np.ndarray):
    """Per-sample and mixture log-likelihoods of one trajectory.

    y (N, D); states (S, N, D).  Returns (per_obs (N,), logp (S, N),
    weights (S, N)) with weights the softmax over samples.
    """
    res = y[None, :, :] - states
    logp = -0.5 * np.sum(
        np.log(2.0 * np.pi * noise_vars) + res**2 / noise_vars, axis=-1
    )
    top = logp.max(axis=0)
    e = np.exp(logp - top)
    total = e.sum(axis=0)
    per_obs = top + np.log(total) - np.log(states.shape[0])
    return per_obs, logp, e / total


def mc_loglik_grad(trajs, m: InducingModel, bundles, pullback,
                   cache: FieldCache | None = None) -> ObjectiveValue:
    """Log-posterior (likelihood + prior) and its analytic gradients.

    The likelihood's gradient w.r.t. the simulated states at a trajectory's
    observation nodes is the softmax-weighted residual w (y - x) / Omega, one
    (S, n_obs, D) array per trajectory.  ``pullback`` maps the list of these
    seeds to the likelihood's gradients w.r.t. u_f and u_sigma, for example
    through the pullback of :func:`simulate_bundle_with_sensitivities`.
    """
    trajs = _as_list(trajs)
    bundles = _as_list(bundles)
    _check_alignment(trajs, m, bundles)
    if cache is None:
        cache = build_cache(m)
    _checked(m, cache)

    nv = m.noise_vars
    gth = np.zeros(m.D)
    seeds = []
    per_obs_all = []
    total = 0.0
    for tr, b in zip(trajs, bundles):
        states = b.paths[:, b.grid.obs_indices, :]
        per_obs, _, w = _obs_logliks(tr.obs, states, nv)
        total += float(per_obs.sum())
        per_obs_all.append(per_obs)
        res = tr.obs[None, :, :] - states          # (S, N, D)
        wres = w[:, :, None] * (res / nv)
        seeds.append(wres)
        gth += 0.5 * (np.einsum("snd,snd->d", wres, res) - tr.n_obs)

    gf, gs = pullback(seeds)
    pg_f, pg_s = log_prior_grad(m, cache)
    return ObjectiveValue(
        log_posterior=total + log_prior(m, cache),
        grad_u_f=gf + pg_f,
        grad_u_s=gs + pg_s,
        grad_log_noise=gth,
        per_obs_loglik=np.concatenate(per_obs_all),
    )


def make_grids(trajs, resolution_factor: int) -> list[TimeGrid]:
    return [build_grid(tr.times, resolution_factor) for tr in _as_list(trajs)]


def draw_increments(trajs, grids, m: InducingModel, n_samples: int, seed) -> list[np.ndarray]:
    """Per-trajectory Brownian increments from trajectory-keyed substreams."""
    return [
        sample_increments(g, n_samples, m.D, child_seed(seed, j))
        for j, g in enumerate(grids)
    ]


# Observation intervals per simulated segment.  Samples restart from the
# observed state at each segment's first observation: a mixture over samples
# simulated across a whole long trajectory favours too broad a path
# distribution (on the criterion-4 double well, sigma=2.0 outscored the
# true 1.5), while 25-interval segments rank the true diffusion first.
SEGMENT_INTERVALS = 25


def _segments(grid: TimeGrid):
    """(first, last) observation positions of each segment of a grid."""
    n = grid.n_obs - 1
    return [(a, min(a + SEGMENT_INTERVALS, n)) for a in range(0, n, SEGMENT_INTERVALS)]


def _segment_groups(grids):
    """Segments of one shape (step, and observation offsets from the
    segment's start), keyed so that their samples propagate through the
    field in one batch wherever they start."""
    groups = {}
    for j, g in enumerate(grids):
        idx = g.obs_indices
        for a, b in _segments(g):
            offsets = tuple((idx[a:b + 1] - idx[a]).tolist())
            groups.setdefault((g.dt, offsets), []).append((j, a, b))
    return groups


def evaluate_with_increments(trajs, m: InducingModel, cache: FieldCache, grids,
                             increments) -> ObjectiveValue:
    """Frozen-noise objective: simulate with the given increments and score.

    Each trajectory is cut into segments of ``SEGMENT_INTERVALS``
    observation intervals.  A segment's samples start from the raw
    observation at its first node and use that trajectory's increments
    between its first and last node.  Segments of one shape simulate in one
    batch, and one adjoint sweep per batch, seeded at each segment's nodes,
    gives the gradient.  Every observation is scored once: a segment's first
    observation belongs to the segment before it, except for the
    trajectory's first observation, which is scored against the start
    state.  ``per_obs_loglik`` keeps trajectory and observation order.

    This deterministic map of the model parameters is what the optimizer
    sees within one epoch, and what finite-difference checks differentiate.
    """
    trajs = _as_list(trajs)
    scored = {}
    batches = []
    for (dt, offsets), members in _segment_groups(grids).items():
        g = TimeGrid(t0=0.0, dt=dt, n_steps=offsets[-1],
                     obs_index={i * dt: i for i in offsets})
        S = increments[members[0][0]].shape[0]
        x0 = np.repeat(np.stack([trajs[j].obs[a] for j, a, _ in members]), S, axis=0)
        nodes = [grids[j].obs_indices[a] for j, a, _ in members]
        inc = np.concatenate([increments[j][:, n:n + g.n_steps]
                              for (j, _, _), n in zip(members, nodes)], axis=0)
        paths, pullback = simulate_bundle_with_sensitivities(m, cache, x0, g, inc)
        seeds = np.zeros((inc.shape[0], len(offsets), m.D))
        batches.append((pullback, seeds))
        for pos, ((j, a, b), n) in enumerate(zip(members, nodes)):
            rows = slice(pos * S, (pos + 1) * S)
            first = 0 if a == 0 else 1     # a later segment's start is scored before it
            seg_tr = Trajectory(times=trajs[j].times[a + first:b + 1],
                                obs=trajs[j].obs[a + first:b + 1])
            seg_grid = TimeGrid(t0=grids[j].t0 + n * dt, dt=dt, n_steps=g.n_steps,
                                obs_index=dict(zip(seg_tr.times.tolist(), offsets[first:])))
            bundle = PathBundle(paths=paths[rows], increments=inc[rows],
                                seed=None, grid=seg_grid)
            # the segment's seeds from mc_loglik_grad fill this view
            scored[(j, a)] = (seg_tr, bundle, seeds[rows, first:])
    seg_trajs, bundles, seed_views = zip(*(scored[k] for k in sorted(scored)))

    def pullback_all(seg_seeds):
        for view, seed in zip(seed_views, seg_seeds):
            view[...] = seed
        grads = [pb(buf) for pb, buf in batches]
        return sum(g for g, _ in grads), sum(g for _, g in grads)

    return mc_loglik_grad(list(seg_trajs), m, list(bundles), pullback_all, cache=cache)


def log_posterior(trajs, m: InducingModel, sim: SimConfig) -> ObjectiveValue:
    """Simulate from the first observation of each trajectory segment and
    evaluate the stochastic MAP objective; deterministic given sim.seed."""
    trajs = _as_list(trajs)
    cache = build_cache(m)
    grids = make_grids(trajs, sim.resolution_factor)
    incs = draw_increments(trajs, grids, m, sim.n_samples, sim.seed)
    return evaluate_with_increments(trajs, m, cache, grids, incs)
