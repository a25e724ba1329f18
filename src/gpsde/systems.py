"""Ground-truth benchmark systems, synthetic data generation and recovery
metrics.

Drift and diffusion callables are vectorized over stacked states: drift
maps (N, D) -> (N, D) and diffusion maps (N, D) -> (N,).  Generation steps
all trajectories together in one Euler-Maruyama loop.  It is deterministic
per seed and trajectory-prefix stable: the first k trajectories of a larger
batch equal the k-trajectory batch with the same seed.  A trajectory that
blows up is redrawn from its next attempt key without changing the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InputError, SimulationError, integer
from .field import (
    FieldCache,
    InducingModel,
    build_cache,
    diffusion_batch,
    drift_batch,
    drift_diffusion_batch,
    grid_points,
)
from .kernels import as_points
from .objective import Trajectory
from .sim import (
    blowup_error,
    child_seed,
    gaussian_kde,
    row_blocks,
    sample_blocks,
    simulate_callable_batch,
)

_GEN_MAX_RETRIES = 5


@dataclass(frozen=True, eq=False)
class ParametricSystem:
    """Closed-form drift and diffusion of a benchmark system."""

    dim: int
    drift_fn: object
    diffusion_fn: object


@dataclass(frozen=True, eq=False)
class GenSpec:
    """Synthetic data generation protocol.

    The simulator runs at gen_dt and every subsample_every'th state is
    observed, corrupted by isotropic Gaussian noise of std noise_std.
    Initial states are drawn uniformly from x0_box ((D, 2) bounds).
    """

    n_traj: int
    n_obs_per_traj: int
    gen_dt: float
    subsample_every: int
    noise_std: float
    x0_box: np.ndarray
    seed: int = 0

    def __post_init__(self):
        box = np.asarray(self.x0_box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or np.any(box[:, 0] > box[:, 1]):
            raise InputError("x0_box must be (D, 2) with low <= high")
        if not np.all(np.isfinite(box)):
            raise InputError("x0_box must be finite")
        for name, least in (("n_traj", 1), ("n_obs_per_traj", 2), ("subsample_every", 1),
                            ("seed", 0)):
            object.__setattr__(self, name, integer(getattr(self, name), name, least))
        if not 0 < self.gen_dt < math.inf:
            raise InputError("gen_dt must be positive and finite")
        if not 0 <= self.noise_std < math.inf:
            raise InputError("noise_std must be non-negative and finite")
        box = np.ascontiguousarray(box)
        box.setflags(write=False)
        object.__setattr__(self, "x0_box", box)


def double_well() -> ParametricSystem:
    """1-d bistable system: drift 4(x - x^3), constant diffusion 1.5."""

    def drift(X):
        return 4.0 * (X - X**3)

    def diffusion(X):
        return np.full(X.shape[0], 1.5)

    return ParametricSystem(1, drift, diffusion)


def _iso_gauss_pdf(X, center, var):
    d2 = np.sum((X - center) ** 2, axis=-1)
    dim = X.shape[-1]
    return np.exp(-0.5 * d2 / var) / (2.0 * math.pi * var) ** (0.5 * dim)


def oscillator_hotspot() -> ParametricSystem:
    """2-d rotation toward the unit circle with a diffusion hotspot at
    (-1, -1): sigma(x) = 2 N(x | (-1,-1), 0.5 I) + 0.3."""

    def drift(X):
        shrink = 1.0 - (X[:, 0] ** 2 + X[:, 1] ** 2)
        F = np.empty((len(X), 2))
        F[:, 0] = X[:, 0] * shrink - X[:, 1]
        F[:, 1] = X[:, 1] * shrink + X[:, 0]
        return F

    center = np.array([-1.0, -1.0])

    def diffusion(X):
        return 2.0 * _iso_gauss_pdf(X, center, 0.5) + 0.3

    return ParametricSystem(2, drift, diffusion)


def van_der_pol(mu: float = 1.0) -> ParametricSystem:
    """Van der Pol oscillator with a localized diffusion bump on the cycle:
    sigma(x) = 1.5 N(x | (2, 0), 0.25 I) + 0.3."""
    if not (math.isfinite(mu) and mu >= 0):
        raise InputError("mu must be non-negative and finite")
    center = np.array([2.0, 0.0])

    def drift(X):
        F = np.empty((len(X), 2))
        F[:, 0] = X[:, 1]
        F[:, 1] = mu * (1.0 - X[:, 0] ** 2) * X[:, 1] - X[:, 0]
        return F

    def diffusion(X):
        return 1.5 * _iso_gauss_pdf(X, center, 0.25) + 0.3

    return ParametricSystem(2, drift, diffusion)


SYSTEMS = {
    "double-well": double_well,
    "oscillator": oscillator_hotspot,
    "van-der-pol": van_der_pol,
}


def _fields(fitted):
    """Drift, diffusion and stepping-loop field of a ParametricSystem,
    InducingModel or FieldCache, each a callable of stacked states.

    The stepping field returns the drift and the signed diffusion together;
    for a model they share one kernel row per step when their kernels are
    equal.
    """
    if isinstance(fitted, ParametricSystem):
        drift, diffusion = fitted.drift_fn, fitted.diffusion_fn
        return drift, diffusion, lambda X: (drift(X), diffusion(X))
    cache = build_cache(fitted) if isinstance(fitted, InducingModel) else fitted
    if not isinstance(cache, FieldCache):
        raise InputError("fitted must be a ParametricSystem, InducingModel or FieldCache")
    return (lambda X: drift_batch(X, cache),
            lambda X: diffusion_batch(X, cache),
            lambda X: drift_diffusion_batch(X, cache))


def generate(sys: ParametricSystem, spec: GenSpec) -> list[Trajectory]:
    """Simulate noisy observation batches from a closed-form system.

    Trajectory j draws its start, increments and observation noise, in that
    order, from the stream child_seed(seed, j, attempt).  All trajectories
    step together up to the last observation (the last subsample_every
    increments go unused); when one blows up, only it moves to its next
    attempt and the batch runs again.
    """
    if spec.x0_box.shape[0] != sys.dim:
        raise InputError("x0_box dimension does not match the system")
    n, D, k = spec.n_traj, sys.dim, spec.subsample_every
    n_steps = spec.n_obs_per_traj * k
    x0 = np.empty((n, D))
    incs = np.empty((n, n_steps, D))
    noise = np.empty((n, spec.n_obs_per_traj, D))
    attempts = [0] * n
    fields = _fields(sys)[2]

    def draw(j):
        rng = np.random.Generator(np.random.PCG64(child_seed(spec.seed, j, attempts[j])))
        x0[j] = rng.uniform(spec.x0_box[:, 0], spec.x0_box[:, 1])
        incs[j] = rng.normal(0.0, math.sqrt(spec.gen_dt), size=(n_steps, D))
        noise[j] = rng.normal(0.0, spec.noise_std, size=(spec.n_obs_per_traj, D))

    for j in range(n):
        draw(j)
    while True:
        try:
            paths = simulate_callable_batch(fields, x0, spec.gen_dt, incs[:, :n_steps - k])
            break
        except SimulationError as err:
            j = err.sample
            attempts[j] += 1
            if attempts[j] == _GEN_MAX_RETRIES:
                raise SimulationError(
                    f"trajectory {j} blew up in {_GEN_MAX_RETRIES} attempts", sample=j
                ) from err
            draw(j)
    obs = paths[:, ::k] + noise
    times = np.arange(spec.n_obs_per_traj) * (spec.gen_dt * k)
    return [Trajectory(times=times, obs=y) for y in obs]


# -- recovery metrics ---------------------------------------------------------

def _eval_points(eval_box, n_grid: int, data) -> np.ndarray:
    """Regular grid over a (D, 2) box, n_grid nodes per dimension; with
    training data, only the nodes in the visited region (kernel density of
    the pooled observations above 1% of its maximum)."""
    box = np.asarray(eval_box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise InputError(f"eval_box must be (D, 2), got shape {box.shape}")
    axes = [np.linspace(lo, hi, int(n_grid)) for lo, hi in box]
    P = grid_points(axes)
    if data is None:
        return P
    pooled = np.concatenate([tr.obs for tr in data], axis=0)
    if pooled.shape[0] > 4000:
        keep = np.linspace(0, pooled.shape[0] - 1, 4000).round().astype(int)
        pooled = pooled[keep]
    n, d = pooled.shape
    bw = float(np.mean(pooled.std(axis=0))) * n ** (-1.0 / (d + 4))
    dens = gaussian_kde(axes, pooled, max(bw, 1e-8))
    return P[dens >= 0.01 * dens.max()]


def drift_error(true_sys: ParametricSystem, fitted, eval_box, n_grid: int,
                data=None) -> float:
    """RMS Euclidean drift mismatch over the evaluation grid.

    When training data is given, the grid is restricted to the visited
    region (kernel density above 1% of its maximum) so the zero-reverting
    far field does not dominate.
    """
    P = _eval_points(eval_box, n_grid, data)
    drift_fit = _fields(fitted)[0]
    diff = true_sys.drift_fn(P) - drift_fit(P)
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=-1))))


def diffusion_error(true_sys: ParametricSystem, fitted, eval_box, n_grid: int,
                    data=None) -> float:
    """RMS mismatch between the true diffusion and |fitted diffusion|."""
    P = _eval_points(eval_box, n_grid, data)
    diff_fit = _fields(fitted)[1]
    delta = true_sys.diffusion_fn(P) - np.abs(diff_fit(P))
    return float(np.sqrt(np.mean(delta**2)))


def _mean_distance(X: np.ndarray, Y: np.ndarray) -> float:
    """Mean Euclidean distance over all pairs (x, y), summed in row blocks
    of X so no len(X) x len(Y) matrix is formed."""
    total = sum(cdist(X[rows], Y).sum() for rows in row_blocks(X.shape[0], Y.shape[0]))
    return total / (X.shape[0] * Y.shape[0])


def energy_distance(X: np.ndarray, Y: np.ndarray) -> float:
    """V-statistic energy distance between two point clouds; 0 iff X == Y.

    The three mean distances run the same code, so identical clouds score
    exactly 2a - a - a = 0.
    """
    X = as_points(X, name="X")
    Y = as_points(Y, X.shape[1], name="Y")
    return float(2.0 * _mean_distance(X, Y) - _mean_distance(X, X) - _mean_distance(Y, Y))


def kde_l2_distance(X: np.ndarray, Y: np.ndarray) -> float:
    """L2 distance between Gaussian KDE grids of two point clouds.

    Both clouds share the evaluation grid (41 nodes per axis over their
    joint bounding box padded by 0.5) and the bandwidth, so identical
    clouds score exactly zero.
    """
    X = as_points(X, name="X")
    Y = as_points(Y, X.shape[1], name="Y")
    both = np.concatenate([X, Y], axis=0)
    d = both.shape[1]
    bw = max(float(np.mean(both.std(axis=0))) * both.shape[0] ** (-1.0 / (d + 4)), 1e-8)
    axes = [np.linspace(both[:, k].min() - 0.5, both[:, k].max() + 0.5, 41)
            for k in range(d)]
    cell = float(np.prod([a[1] - a[0] for a in axes]))
    diff = gaussian_kde(axes, X, bw) - gaussian_kde(axes, Y, bw)
    return float(np.sqrt(np.sum(diff**2) * cell))


def distribution_discrepancy(true_sys: ParametricSystem, fitted, x0,
                             horizon: float, n_paths: int, seed, *,
                             dt: float = 0.01, fitted_seed=None) -> dict[str, float]:
    """Discrepancies between true and fitted path ensembles, each summed over
    10 equispaced checkpoints (every step of a shorter simulation).

    Both systems are simulated once, from the same x0 with matched settings,
    in the sample blocks of :func:`gpsde.sim.sample_blocks`, keeping only
    the checkpoint states;
    by default they share the Brownian increments (fitted_seed=None), so a
    fitted system identical to the truth scores exactly zero.  Both
    per-checkpoint distances are scored on the same paths: "energy" (energy
    distance) and "kde_l2" (L2 between kernel density estimates on a shared
    grid).
    """
    if not horizon > 0 or n_paths < 2:
        raise InputError("need horizon > 0 and n_paths >= 2")
    x0 = np.asarray(x0, dtype=float).ravel()
    n_steps = max(1, int(round(horizon / dt)))
    D = true_sys.dim
    checks = np.unique(np.linspace(1, n_steps, min(10, n_steps)).round().astype(int))

    def stream(s):
        return np.random.Generator(np.random.PCG64(child_seed(s, 0)))

    # each system's one generator fills its draw sample-major, so drawing
    # it block by block gives the numbers of drawing it at once
    rng_true = stream(seed)
    rng_fit = None if fitted_seed is None else stream(fitted_seed)
    fields = (_fields(true_sys)[2], _fields(fitted)[2])
    kept = np.empty((2, n_paths, checks.size, D))    # each ensemble's checkpoint states
    for rows in sample_blocks(n_paths, n_steps, D):
        shape = (rows.stop - rows.start, n_steps, D)
        inc_true = rng_true.normal(0.0, math.sqrt(dt), size=shape)
        inc_fit = inc_true if rng_fit is None else rng_fit.normal(0.0, math.sqrt(dt), size=shape)
        for k, inc in enumerate((inc_true, inc_fit)):
            try:
                kept[k, rows] = simulate_callable_batch(fields[k], x0, dt, inc)[:, checks]
            except SimulationError as err:
                raise blowup_error(err.step, rows.start + err.sample) from None
    return {name: float(sum(dist(kept[0, :, j], kept[1, :, j]) for j in range(checks.size)))
            for name, dist in (("energy", energy_distance), ("kde_l2", kde_l2_distance))}
