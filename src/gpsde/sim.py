"""Euler-Maruyama forward simulation of the inducing GP-SDE.

A :class:`TimeGrid` splits every observation interval into
``resolution_factor`` equal steps, so each observation time is a grid node
however irregular the sampling.  Brownian increments come from per-sample
counter-keyed substreams so that sample s is reproducible regardless of
how many samples are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SimulationError
from .field import FieldCache, drift_diffusion_batch
from .kernels import as_points

# Any state component beyond this magnitude aborts the sample: the zero-mean
# field reverts far from data, so a genuine excursion this large means a
# misconfigured model rather than meaningful dynamics.
BLOWUP_LIMIT = 1e6

# Floats in one block of a (points x samples) sum: 2**16 floats (512 KB)
# stay cache-resident, and the memory of a sum no longer grows with the
# number of points.
BLOCK_FLOATS = 2**16

# Fewest samples a simulation steps at once (see sample_blocks): each step
# call has a fixed cost.  At 2000 paths x 1000 steps of a 2-d model with
# 225 inducing points, blocks of 128 samples took about 11% longer than one
# batch, 256 about 4% longer, and 512 no longer but peaked at 17 MB, not 8.6.
SAMPLE_BLOCK_ROWS = 256


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Euler-Maruyama steps from t0 and the nodes that carry observations.

    dt holds the step sizes, shape (n_steps,) for one trajectory or
    (B, n_steps) for a batch of B blocks of equally many consecutive rows
    that step differently (a block may be one row); obs_indices are the
    observation nodes in time order.  A ragged batch also gives steps, the
    number of leading steps each block takes, longest first, so the first
    block takes all n_steps; a block stops at its last step, its dt past
    it is never read, and its observation nodes are those up to its last
    step.  ``active`` (derived) holds per step the number of leading
    blocks that take it, None when every block takes every step.
    """

    t0: float
    dt: np.ndarray
    obs_indices: np.ndarray
    steps: np.ndarray | None = None

    def __post_init__(self):
        dt = np.array(self.dt, dtype=float)
        dt.setflags(write=False)
        object.__setattr__(self, "dt", dt)
        idx = np.array(self.obs_indices, dtype=int).ravel()
        idx.setflags(write=False)
        object.__setattr__(self, "obs_indices", idx)
        active = None
        if self.steps is not None:
            steps = np.array(self.steps, dtype=int).ravel()
            if (dt.ndim != 2 or steps.size != dt.shape[0] or steps.size == 0
                    or steps[0] != self.n_steps or np.any(np.diff(steps) > 0) or steps[-1] < 0):
                raise InputError("steps must hold one count per row of a 2-d dt, "
                                 "non-increasing from n_steps")
            active = tuple(np.count_nonzero(steps > i) for i in range(self.n_steps))
            steps.setflags(write=False)
            object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "active", active)

    @property
    def n_steps(self) -> int:
        return self.dt.shape[-1]

    @property
    def n_blocks(self) -> int:
        """Rows of dt: 1 for a 1-d dt."""
        return self.dt.shape[0] if self.dt.ndim == 2 else 1

    @property
    def times(self) -> np.ndarray:
        """Node times of a one-trajectory (1-d dt) grid."""
        return self.t0 + np.append(0.0, np.cumsum(self.dt))

    @property
    def n_obs(self) -> int:
        return self.obs_indices.size


class Buffers:
    """Float arrays kept by name across calls, so that repeated calls of
    one size allocate them once.  :meth:`take` gives a C-ordered view over
    the start of the named buffer, which grows to the largest request; a
    view's contents hold until the next take of its name.  A new buffer is
    zeros, not whatever the heap held: a ragged batch never writes the
    path rows past a block's last step, and a padded score reads them, so
    they must be finite."""

    def __init__(self):
        self._kept = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        n = math.prod(shape)
        buf = self._kept.get(name)
        if buf is None or buf.size < n:
            buf = self._kept[name] = np.zeros(n)
        return buf[:n].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes held by all the kept buffers."""
        return sum(buf.nbytes for buf in self._kept.values())


def child_seed(seed, *key) -> np.random.SeedSequence:
    """Counter-keyed child of a seed; stable under how many siblings exist."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=tuple(seed.spawn_key) + key)
    return np.random.SeedSequence(seed, spawn_key=key)


def build_grid(obs_times, resolution_factor: int) -> TimeGrid:
    """Grid whose nodes include every observation time.

    Each observation interval is split into resolution_factor equal steps,
    so observation i sits at node resolution_factor * i however unevenly
    the observations are spaced.
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
    return TimeGrid(t0=float(t[0]), dt=np.repeat(gaps / factor, factor),
                    obs_indices=factor * np.arange(t.size))


def _sample_range(samples) -> range:
    """Sample indices 0..samples-1 of an int, or those of a slice with a
    start of at least 0, an explicit stop and a step of 1."""
    if isinstance(samples, slice):
        start = samples.start or 0
        if start < 0 or samples.stop is None or samples.step not in (None, 1):
            raise InputError("a slice of samples needs a start >= 0, a stop and a step of 1, "
                             f"got {samples}")
        return range(start, samples.stop)
    return range(samples)


def sample_increments(grid: TimeGrid, samples, D: int, seed) -> np.ndarray:
    """Brownian increments, shape (n_samples, n_steps, D), step i N(0, dt_i),
    of samples 0..n_samples-1 (samples an int) or of a slice of them.

    Deterministic given the seed; sample s draws from its own substream
    keyed by s, so results do not depend on which other samples are drawn.
    """
    rows = _sample_range(samples)
    if len(rows) < 1 or D < 1:
        raise InputError("n_samples and D must be positive")
    out = np.empty((len(rows), grid.n_steps, D))
    for k, s in enumerate(rows):
        rng = np.random.Generator(np.random.PCG64(child_seed(seed, s)))
        out[k] = rng.standard_normal((grid.n_steps, D))
    out *= np.sqrt(grid.dt)[:, None]
    return out


def _blowup_check(X: np.ndarray, step: int):
    """Raise naming the first sample (row of X) past BLOWUP_LIMIT or not
    finite.  NaN fails every comparison, so it skips the fast return."""
    if np.abs(X).max() <= BLOWUP_LIMIT:
        return
    bad = ~(np.abs(X) <= BLOWUP_LIMIT)
    raise blowup_error(step, int(np.nonzero(bad.any(axis=1))[0][0]))


def blowup_error(step: int, sample: int) -> SimulationError:
    """The error of a sample past BLOWUP_LIMIT or not finite at a step."""
    return SimulationError(f"state exceeded {BLOWUP_LIMIT:g} at step {step} (sample {sample})",
                           step=step, sample=sample)


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


def simulate_batch(c: FieldCache, x0, grid: TimeGrid, increments: np.ndarray) -> np.ndarray:
    """Forward-simulate all samples at once; paths shape (S, n_steps+1, D).

    x0 may be one shared state or one state per sample.
    """
    increments = checked_increments(increments, grid, c.model.D)
    return simulate_callable_batch(lambda X: drift_diffusion_batch(X, c),
                                   x0, grid.dt, increments, active=grid.active)


def checked_increments(increments, grid: TimeGrid, D: int) -> np.ndarray:
    """increments as a float array, which must be (S, grid.n_steps, D)."""
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3 or increments.shape[1:] != (grid.n_steps, D):
        raise InputError(
            f"increments must be (S, {grid.n_steps}, {D}), got {increments.shape}"
        )
    return increments


def simulate_callable_batch(fields, x0, dt, increments: np.ndarray, *, out=None,
                            active=None) -> np.ndarray:
    """The Euler-Maruyama stepping loop; paths shape (S, n_steps+1, D).

    fields maps stacked states (N, D) to the drift (N, D) and the signed
    diffusion (N,); increments has shape (S, n_steps, D).  dt holds one
    row of steps per block of S / B consecutive rows, shape (B, n_steps)
    (B = S: one per sample); one step size or one per step, (n_steps,),
    is one block of all S rows.  active, a
    :class:`TimeGrid`'s, gives per step the number of leading blocks that
    take it, so a step advances only those rows and ``fields`` sees only
    their states; a row's path past its last step is left unwritten.  out,
    an (S, n_steps+1, D) array, receives the paths.
    """
    increments = np.asarray(increments, dtype=float)
    n, n_steps, D = increments.shape
    given = np.asarray(dt, dtype=float)
    # one block of rows unless dt is 2-d
    dt = np.broadcast_to(given, (1, n_steps)) if given.ndim == 0 else np.atleast_2d(given)
    if dt.ndim != 2 or dt.shape[1] != n_steps or len(dt) < 1 or n % len(dt):
        raise InputError(f"dt of shape {given.shape} does not divide {n} rows of "
                         f"{n_steps} steps into blocks")
    B = len(dt)
    r = n // B
    # a step of a few rows is mostly per-call overhead, so the loop indexes
    # step-major views by one int and scales the drifts, seen as (B, r, D),
    # by step i's (B, 1, 1) sizes into one kept array
    dt, dW = dt.T[:, :, None, None], increments.transpose(1, 0, 2)
    limit = BLOWUP_LIMIT**2
    paths = np.empty((n, n_steps + 1, D)) if out is None else out
    X = _initial_states(x0, n, D)
    paths[:, 0] = X
    kept, Fdt = paths, np.empty((n, D))
    Fdt3 = Fdt.reshape(B, r, D)
    for i in range(n_steps):
        if active is not None and active[i] * r < len(X):
            # the rows that take no more steps drop out of the views
            a = active[i] * r
            X, dt, dW, kept = X[:a], dt[:, :active[i]], dW[:, :a], kept[:a]
            Fdt, Fdt3 = Fdt[:a], Fdt3[:active[i]]
        F, sig = fields(X)
        np.multiply(F.reshape(Fdt3.shape), dt[i], out=Fdt3)
        X = X + Fdt      # a new array, so fields never sees its input change
        X += sig[:, None] * dW[i]
        x = X.ravel()
        # the sum of squares bounds every |x|; NaN, inf and overflow fail it
        if not x.dot(x) <= limit:
            _blowup_check(X, i + 1)
        kept[:, i + 1] = X
    return paths


def sample_paths(c: FieldCache, x0, grid: TimeGrid, samples, seed) -> np.ndarray:
    """Draw increments and simulate paths (n_samples, n_steps+1, D) of
    samples 0..n_samples-1 (samples an int) or of a slice of them, as
    :func:`sample_blocks` gives; deterministic per seed.  A blow-up names
    the sample by its index in the whole run."""
    incs = sample_increments(grid, samples, c.model.D, seed)
    try:
        return simulate_batch(c, x0, grid, incs)
    except SimulationError as err:
        raise blowup_error(err.step, _sample_range(samples)[err.sample]) from None


def row_blocks(n_rows: int, row_floats: int):
    """Consecutive slices of range(n_rows), each about BLOCK_FLOATS floats
    when a row holds row_floats; at least one row per slice."""
    step = max(1, BLOCK_FLOATS // max(1, row_floats))
    return (slice(a, min(a + step, n_rows)) for a in range(0, n_rows, step))


def sample_blocks(n_samples: int, n_steps: int, D: int):
    """Consecutive slices of range(n_samples) that a simulation of n_steps
    steps in D dimensions steps one at a time: about BLOCK_FLOATS path
    floats each, but at least SAMPLE_BLOCK_ROWS samples."""
    return row_blocks(n_samples, min((n_steps + 1) * D, BLOCK_FLOATS // SAMPLE_BLOCK_ROWS))


def gaussian_kde(axes, samples, bandwidth: float) -> np.ndarray:
    """Isotropic Gaussian KDE of samples (S, D) on the Cartesian grid of D 1-d
    axes, in :func:`gpsde.field.grid_points` order.  The kernel factorises
    over dimensions into E_d = exp(-((a_d - x_d) / h)^2 / 2), shape (n_d, S):
    products of the leading axes' factors are formed one row block of their
    grid at a time, and each block meets the last axis's factor in one
    matrix product."""
    samples = as_points(samples, name="samples")
    S, D = samples.shape
    if S == 0:
        raise InputError("no samples to estimate a density from")
    if not bandwidth > 0:
        raise InputError("bandwidth must be positive")
    axes = [np.asarray(a, dtype=float).ravel() for a in axes]
    if len(axes) != D or not all(a.size for a in axes):
        raise InputError(f"need one non-empty axis per sample dimension ({D})")
    *lead, last = [np.exp(-0.5 * ((a[:, None] - samples[:, d]) / bandwidth) ** 2)
                   for d, a in enumerate(axes)]
    n_lead = math.prod(f.shape[0] for f in lead)
    dens = np.empty((n_lead, last.shape[0]))
    for rows in row_blocks(n_lead, S):
        idx = np.arange(rows.start, rows.stop)
        block = np.ones((idx.size, S))
        for f in reversed(lead):     # the last leading axis varies fastest
            block *= f[idx % f.shape[0]]
            idx //= f.shape[0]
        dens[rows] = block @ last.T
    dens *= (2.0 * math.pi * bandwidth**2) ** (-0.5 * D) / S
    return dens.ravel()


def state_density(states: np.ndarray, axes, bandwidth: float) -> np.ndarray:
    """Isotropic Gaussian KDE of the states (S, D) of S paths at one grid
    node, on the Cartesian grid of the 1-d axes."""
    return gaussian_kde(axes, states, bandwidth)
