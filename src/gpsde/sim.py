"""Euler-Maruyama forward simulation of the inducing GP-SDE.

A :class:`TimeGrid` discretises the observation window into uniform steps
and remembers which grid node each observation time snaps to.  Brownian
increments come from per-sample counter-keyed substreams so that sample s
is reproducible regardless of how many samples are drawn.  Multi-sample
runs are bundled into a :class:`PathBundle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SimulationError
from .field import FieldCache, InducingModel, _checked, drift_diffusion_batch
from .kernels import as_points

# Any state component beyond this magnitude aborts the sample: the zero-mean
# field reverts far from data, so a genuine excursion this large means a
# misconfigured model rather than meaningful dynamics.
BLOWUP_LIMIT = 1e6


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings used by likelihood evaluation and fitting.

    resolution_factor -- grid steps per observation interval
    n_samples         -- Monte Carlo path count
    seed              -- master RNG seed
    resample_period   -- accepted optimizer iterations between redraws of the
                         frozen Brownian increments; None keeps one draw for
                         the whole fit
    """

    resolution_factor: int = 2
    n_samples: int = 50
    seed: int = 0
    resample_period: int | None = 20

    def __post_init__(self):
        if self.resolution_factor < 1:
            raise InputError("resolution_factor must be >= 1")
        if self.n_samples < 1:
            raise InputError("n_samples must be >= 1")
        if self.resample_period is not None and self.resample_period < 1:
            raise InputError("resample_period must be >= 1 or None")


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform time grid with observation-to-node snapping."""

    t0: float
    dt: float
    n_steps: int
    obs_index: dict = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    @property
    def obs_indices(self) -> np.ndarray:
        """Grid indices of the observations, in observation-time order."""
        return np.fromiter(self.obs_index.values(), dtype=int, count=len(self.obs_index))

    @property
    def n_obs(self) -> int:
        return len(self.obs_index)


def child_seed(seed, *key) -> np.random.SeedSequence:
    """Counter-keyed child of a seed; stable under how many siblings exist."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=tuple(seed.spawn_key) + key)
    return np.random.SeedSequence(seed, spawn_key=key)


def build_grid(obs_times, resolution_factor: int) -> TimeGrid:
    """Uniform grid spanning the observation window.

    The step is (t_N - t_1) / (resolution_factor * (N - 1)) and every
    observation time snaps to its nearest node; snapping two observations
    onto one node is an error (raise the resolution factor).
    """
    t = np.asarray(obs_times, dtype=float).ravel()
    if t.size < 2:
        raise InputError("need at least two observation times")
    gaps = np.diff(t)
    if np.any(gaps == 0.0):
        raise InputError("duplicate observation times")
    if np.any(gaps < 0.0):
        raise InputError("observation times must be sorted ascending")
    factor = int(resolution_factor)
    if factor != resolution_factor or factor < 1:
        raise InputError("resolution_factor must be a positive integer")

    n_steps = factor * (t.size - 1)
    dt = (t[-1] - t[0]) / n_steps
    idx = np.clip(np.rint((t - t[0]) / dt).astype(int), 0, n_steps)
    if len(set(idx.tolist())) != t.size:
        raise InputError(
            "observations collide on the simulation grid; increase resolution_factor"
        )
    snapped = t[0] + idx * dt
    if np.any(np.abs(snapped - t) > 0.5 * dt * (1.0 + 1e-9)):
        raise InputError("observation snapping exceeded half a grid step")
    obs_index = {float(ti): int(i) for ti, i in zip(t, idx)}
    return TimeGrid(t0=float(t[0]), dt=float(dt), n_steps=int(n_steps), obs_index=obs_index)


def sample_increments(grid: TimeGrid, n_samples: int, D: int, seed) -> np.ndarray:
    """Brownian increments, shape (n_samples, n_steps, D), i.i.d. N(0, dt).

    Deterministic given the seed; sample s draws from its own substream
    keyed by s, so results do not depend on n_samples.
    """
    if n_samples < 1 or D < 1:
        raise InputError("n_samples and D must be positive")
    sd = math.sqrt(grid.dt)
    out = np.empty((n_samples, grid.n_steps, D))
    for s in range(n_samples):
        rng = np.random.Generator(np.random.PCG64(child_seed(seed, s)))
        out[s] = rng.normal(0.0, sd, size=(grid.n_steps, D))
    return out


def _blowup_check(X: np.ndarray, step: int):
    bad = ~np.isfinite(X) | (np.abs(X) > BLOWUP_LIMIT)
    if bad.any():
        sample = int(np.nonzero(bad.any(axis=tuple(range(1, X.ndim))))[0][0])
        raise SimulationError(
            f"state exceeded {BLOWUP_LIMIT:g} at step {step} (sample {sample})",
            step=step,
            sample=sample,
        )


def _initial_states(x0, n: int, D: int) -> np.ndarray:
    """Broadcast a shared (D,) start or validate per-sample (S, D) starts."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim <= 1:
        x0 = x0.ravel()
        if x0.size != D:
            raise InputError(f"x0 has dimension {x0.size}, expected {D}")
        return np.tile(x0, (n, 1))
    if x0.shape != (n, D):
        raise InputError(f"per-sample x0 must be ({n}, {D}), got {x0.shape}")
    return x0.copy()


def simulate_batch(m: InducingModel, c: FieldCache, x0, grid: TimeGrid,
                   increments: np.ndarray) -> np.ndarray:
    """Forward-simulate all samples at once; paths shape (S, n_steps+1, D).

    x0 may be one shared state or one state per sample.
    """
    _checked(m, c)
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3 or increments.shape[1:] != (grid.n_steps, m.D):
        raise InputError(
            f"increments must be (S, {grid.n_steps}, {m.D}), got {increments.shape}"
        )
    return simulate_callable_batch(lambda X: drift_diffusion_batch(X, c),
                                   x0, grid.dt, grid.n_steps, increments)


def simulate_callable_batch(fields, x0, dt: float, n_steps: int,
                            increments: np.ndarray) -> np.ndarray:
    """The Euler-Maruyama stepping loop; paths shape (S, n_steps+1, D).

    fields maps stacked states (N, D) to the drift (N, D) and the signed
    diffusion (N,); increments has shape (S, n_steps, D).
    """
    increments = np.asarray(increments, dtype=float)
    n, _, D = increments.shape
    paths = np.empty((n, n_steps + 1, D))
    X = _initial_states(x0, n, D)
    paths[:, 0] = X
    for i in range(n_steps):
        F, sig = fields(X)
        sig = np.asarray(sig, dtype=float)
        X = X + np.asarray(F, dtype=float) * dt + sig[:, None] * increments[:, i]
        _blowup_check(X, i + 1)
        paths[:, i + 1] = X
    return paths


@dataclass(frozen=True, eq=False)
class PathBundle:
    """A set of simulated sample paths with the noise that generated them."""

    paths: np.ndarray       # (S, n_steps+1, D)
    increments: np.ndarray  # (S, n_steps, D)
    seed: object
    grid: TimeGrid

    @property
    def n_samples(self) -> int:
        return self.paths.shape[0]

    def states_at(self, grid_index: int) -> np.ndarray:
        return self.paths[:, grid_index, :]


def sample_paths(m: InducingModel, c: FieldCache, x0, grid: TimeGrid,
                 n_samples: int, seed) -> PathBundle:
    """Draw increments and simulate a bundle of paths; deterministic per seed."""
    incs = sample_increments(grid, n_samples, m.D, seed)
    paths = simulate_batch(m, c, x0, grid, incs)
    return PathBundle(paths=paths, increments=incs, seed=seed, grid=grid)


def state_density(bundle: PathBundle, grid_index: int, eval_points,
                  bandwidth: float) -> np.ndarray:
    """Isotropic Gaussian KDE of the sample states at one grid node."""
    if bundle.n_samples == 0:
        raise InputError("empty path bundle")
    if not bandwidth > 0:
        raise InputError("bandwidth must be positive")
    states = bundle.states_at(grid_index)            # (S, D)
    P = as_points(eval_points, states.shape[1], "eval_points")
    d2 = np.sum((P[:, None, :] - states[None, :, :]) ** 2, axis=-1)
    D = states.shape[1]
    norm = (2.0 * math.pi * bandwidth**2) ** (-0.5 * D)
    return norm * np.mean(np.exp(-0.5 * d2 / bandwidth**2), axis=1)
