"""Ground-truth benchmark systems, synthetic data generation and recovery
metrics.

Drift and diffusion callables are vectorized over stacked states: drift
maps (N, D) -> (N, D) and diffusion maps (N, D) -> (N,).  Generation is
deterministic per seed and trajectory-prefix stable: the first k
trajectories of a larger batch equal the k-trajectory batch with the same
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InputError, SimulationError
from .field import FieldCache, InducingModel, build_cache, diffusion_batch, drift_batch
from .objective import Trajectory, _as_list
from .sim import child_seed, simulate_callable_batch

_GEN_MAX_RETRIES = 5


@dataclass(frozen=True, eq=False)
class ParametricSystem:
    """Closed-form drift and diffusion of a benchmark system."""

    name: str
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
        if box.ndim == 1:
            box = box[None, :]
        if box.ndim != 2 or box.shape[1] != 2 or np.any(box[:, 0] > box[:, 1]):
            raise InputError("x0_box must be (D, 2) with low <= high")
        if self.n_traj < 1 or self.n_obs_per_traj < 2:
            raise InputError("need n_traj >= 1 and n_obs_per_traj >= 2")
        if self.subsample_every < 1:
            raise InputError("subsample_every must be >= 1")
        if not self.gen_dt > 0:
            raise InputError("gen_dt must be positive")
        if self.noise_std < 0:
            raise InputError("noise_std must be non-negative")
        box = np.ascontiguousarray(box)
        box.setflags(write=False)
        object.__setattr__(self, "x0_box", box)


def double_well() -> ParametricSystem:
    """1-d bistable system: drift 4(x - x^3), constant diffusion 1.5."""

    def drift(X):
        X = np.atleast_2d(X)
        return 4.0 * (X - X**3)

    def diffusion(X):
        X = np.atleast_2d(X)
        return np.full(X.shape[0], 1.5)

    return ParametricSystem("double-well", 1, drift, diffusion)


def _iso_gauss_pdf(X, center, var):
    d2 = np.sum((X - center) ** 2, axis=-1)
    dim = X.shape[-1]
    return np.exp(-0.5 * d2 / var) / (2.0 * math.pi * var) ** (0.5 * dim)


def oscillator_hotspot() -> ParametricSystem:
    """2-d rotation toward the unit circle with a diffusion hotspot at
    (-1, -1): sigma(x) = 2 N(x | (-1,-1), 0.5 I) + 0.3."""

    def drift(X):
        X = np.atleast_2d(X)
        r2 = X[:, 0] ** 2 + X[:, 1] ** 2
        return np.stack(
            [X[:, 0] * (1.0 - r2) - X[:, 1], X[:, 1] * (1.0 - r2) + X[:, 0]], axis=-1
        )

    center = np.array([-1.0, -1.0])

    def diffusion(X):
        X = np.atleast_2d(X)
        return 2.0 * _iso_gauss_pdf(X, center, 0.5) + 0.3

    return ParametricSystem("oscillator", 2, drift, diffusion)


def van_der_pol(mu: float = 1.0, diff_base: float = 0.3, diff_amp: float = 1.5,
                diff_center=(2.0, 0.0), diff_var: float = 0.25) -> ParametricSystem:
    """Van der Pol oscillator with a localized diffusion bump on the cycle."""
    if mu < 0:
        raise InputError("mu must be non-negative")
    center = np.asarray(diff_center, dtype=float)

    def drift(X):
        X = np.atleast_2d(X)
        return np.stack(
            [X[:, 1], mu * (1.0 - X[:, 0] ** 2) * X[:, 1] - X[:, 0]], axis=-1
        )

    def diffusion(X):
        X = np.atleast_2d(X)
        return diff_base + diff_amp * _iso_gauss_pdf(X, center, diff_var)

    return ParametricSystem("van-der-pol", 2, drift, diffusion)


SYSTEMS = {
    "double-well": double_well,
    "oscillator": oscillator_hotspot,
    "van-der-pol": van_der_pol,
}


def _fields(drift_fn, diffusion_fn):
    """Pair drift and diffusion callables into one stepping-loop field."""
    return lambda X: (drift_fn(X), diffusion_fn(X))


def generate(sys: ParametricSystem, spec: GenSpec) -> list[Trajectory]:
    """Simulate noisy observation batches from a closed-form system."""
    if spec.x0_box.shape[0] != sys.dim:
        raise InputError("x0_box dimension does not match the system")
    k = spec.subsample_every
    n_steps = spec.n_obs_per_traj * k
    obs_at = np.arange(spec.n_obs_per_traj) * k
    times = np.arange(spec.n_obs_per_traj) * (spec.gen_dt * k)
    trajs = []
    for j in range(spec.n_traj):
        for attempt in range(_GEN_MAX_RETRIES):
            rng = np.random.Generator(np.random.PCG64(child_seed(spec.seed, j, attempt)))
            x0 = rng.uniform(spec.x0_box[:, 0], spec.x0_box[:, 1])
            incs = rng.normal(0.0, math.sqrt(spec.gen_dt), size=(1, n_steps, sys.dim))
            try:
                path = simulate_callable_batch(
                    _fields(sys.drift_fn, sys.diffusion_fn), x0, spec.gen_dt, n_steps, incs
                )[0]
            except SimulationError:
                continue
            y = path[obs_at] + rng.normal(0.0, spec.noise_std, size=(spec.n_obs_per_traj, sys.dim))
            trajs.append(Trajectory(times=times, obs=y))
            break
        else:
            raise SimulationError(
                f"trajectory {j} blew up in {_GEN_MAX_RETRIES} attempts", sample=j
            )
    return trajs


# -- recovery metrics ---------------------------------------------------------

def _as_field_fns(fitted):
    """Normalize a fitted object to vectorized (drift, |diffusion|) callables."""
    if isinstance(fitted, ParametricSystem):
        return fitted.drift_fn, fitted.diffusion_fn
    if isinstance(fitted, tuple) and len(fitted) == 2:
        model, cache = fitted
    elif isinstance(fitted, InducingModel):
        model, cache = fitted, build_cache(fitted)
    else:
        raise InputError("fitted must be a ParametricSystem, InducingModel, or (model, cache)")
    if not isinstance(cache, FieldCache):
        raise InputError("second element of (model, cache) must be a FieldCache")
    return (lambda X: drift_batch(np.atleast_2d(X), cache),
            lambda X: diffusion_batch(np.atleast_2d(X), cache))


def eval_grid(eval_box, n_grid: int) -> np.ndarray:
    """Regular grid over a (D, 2) box, n_grid nodes per dimension."""
    box = np.asarray(eval_box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    axes = [np.linspace(lo, hi, int(n_grid)) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _visited_mask(P, data, density_frac):
    pooled = np.concatenate([tr.obs for tr in _as_list(data)], axis=0)
    if pooled.shape[0] > 4000:
        keep = np.linspace(0, pooled.shape[0] - 1, 4000).round().astype(int)
        pooled = pooled[keep]
    n, d = pooled.shape
    bw = float(np.mean(pooled.std(axis=0))) * n ** (-1.0 / (d + 4))
    bw = max(bw, 1e-8)
    d2 = cdist(P, pooled, "sqeuclidean")
    dens = np.mean(np.exp(-0.5 * d2 / bw**2), axis=1)
    return dens >= density_frac * dens.max()


def drift_error(true_sys: ParametricSystem, fitted, eval_box, n_grid: int,
                data=None, density_frac: float = 0.01) -> float:
    """RMS Euclidean drift mismatch over the evaluation grid.

    When training data is given, the grid is restricted to the visited
    region (kernel density above density_frac of its maximum) so the
    zero-reverting far field does not dominate.
    """
    P = eval_grid(eval_box, n_grid)
    if data is not None:
        P = P[_visited_mask(P, data, density_frac)]
    drift_fit, _ = _as_field_fns(fitted)
    diff = np.atleast_2d(true_sys.drift_fn(P)) - np.atleast_2d(drift_fit(P))
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=-1))))


def diffusion_error(true_sys: ParametricSystem, fitted, eval_box, n_grid: int,
                    data=None, density_frac: float = 0.01) -> float:
    """RMS mismatch between the true diffusion and |fitted diffusion|."""
    P = eval_grid(eval_box, n_grid)
    if data is not None:
        P = P[_visited_mask(P, data, density_frac)]
    _, diff_fit = _as_field_fns(fitted)
    delta = np.asarray(true_sys.diffusion_fn(P)) - np.abs(np.asarray(diff_fit(P)))
    return float(np.sqrt(np.mean(delta**2)))


def energy_distance(X: np.ndarray, Y: np.ndarray) -> float:
    """V-statistic energy distance between two point clouds; 0 iff X == Y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    dxy = cdist(X, Y).mean()
    dxx = cdist(X, X).mean()
    dyy = cdist(Y, Y).mean()
    return float(2.0 * dxy - dxx - dyy)


def kde_l2_distance(X: np.ndarray, Y: np.ndarray, n_grid: int = 41,
                    pad: float = 0.5) -> float:
    """L2 distance between Gaussian KDE grids of two point clouds.

    Both clouds share the evaluation box (their joint bounding box plus
    padding) and the bandwidth, so identical clouds score exactly zero.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    both = np.concatenate([X, Y], axis=0)
    d = both.shape[1]
    bw = max(float(np.mean(both.std(axis=0))) * both.shape[0] ** (-1.0 / (d + 4)), 1e-8)
    axes = [np.linspace(both[:, k].min() - pad, both[:, k].max() + pad, n_grid)
            for k in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    P = np.stack([g.ravel() for g in mesh], axis=-1)
    cell = float(np.prod([a[1] - a[0] for a in axes]))
    norm = (2.0 * math.pi * bw**2) ** (-0.5 * d)

    def dens(S):
        d2 = cdist(P, S, "sqeuclidean")
        return norm * np.mean(np.exp(-0.5 * d2 / bw**2), axis=1)

    return float(np.sqrt(np.sum((dens(X) - dens(Y)) ** 2) * cell))


def distribution_discrepancy(true_sys: ParametricSystem, fitted, x0,
                             horizon: float, n_paths: int, seed, *,
                             dt: float = 0.01, n_checkpoints: int = 10,
                             fitted_seed=None, metric: str = "energy") -> float:
    """Discrepancy between true and fitted path ensembles, summed over
    equispaced checkpoints.

    Both systems are simulated from the same x0 with matched settings; by
    default they share the Brownian increments (fitted_seed=None), so a
    fitted system identical to the truth scores exactly zero.  ``metric``
    selects the per-checkpoint distance: "energy" (default) or "kde_l2"
    (L2 between kernel density estimates on a shared grid).
    """
    if not horizon > 0 or n_paths < 2:
        raise InputError("need horizon > 0 and n_paths >= 2")
    if metric not in ("energy", "kde_l2"):
        raise InputError(f"unknown metric {metric!r}; use 'energy' or 'kde_l2'")
    x0 = np.asarray(x0, dtype=float).ravel()
    n_steps = max(1, int(round(horizon / dt)))
    D = true_sys.dim

    def draw(s):
        rng = np.random.Generator(np.random.PCG64(child_seed(s, 0)))
        return rng.normal(0.0, math.sqrt(dt), size=(n_paths, n_steps, D))

    incs_true = draw(seed)
    incs_fit = incs_true if fitted_seed is None else draw(fitted_seed)
    paths_true = simulate_callable_batch(
        _fields(true_sys.drift_fn, true_sys.diffusion_fn), x0, dt, n_steps, incs_true
    )
    paths_fit = simulate_callable_batch(
        _fields(*_as_field_fns(fitted)), x0, dt, n_steps, incs_fit
    )

    dist = energy_distance if metric == "energy" else kde_l2_distance
    checks = np.unique(np.linspace(1, n_steps, min(n_checkpoints, n_steps)).round().astype(int))
    return float(sum(
        dist(paths_true[:, i], paths_fit[:, i]) for i in checks
    ))
