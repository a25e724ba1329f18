"""MAP fitting of the inducing SDE model.

The protocol: place inducing locations on a fixed dense grid, initialise
the inducing vectors by gradient matching (GP regression of empirical
difference quotients), then run limited-memory BFGS on the frozen-noise
log-posterior over (u_f, u_sigma, log noise_vars).  Kernel lengthscales
are not part of the gradient ascent; candidates come from a small grid
and the pair with the best final log-posterior wins.

Brownian increments are frozen while the quasi-Newton line search runs
and redrawn every ``resample_period`` accepted iterations, so within one
epoch the objective is a deterministic function and accepted steps never
decrease it.  A line-search trial point whose simulated paths blow up is
rejected (the line search backtracks) and counted; a blow-up at the point
an epoch starts from still fails the candidate.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import FitError, InputError, NumericalError, SimulationError
from .field import InducingModel, build_cache, update_values
from .kernels import KernelParams, rbf_matrix
from .objective import (
    _as_list,
    draw_increments,
    evaluate_with_increments,
    make_grids,
)
from .sim import SimConfig, child_seed

# box bounds for the log noise variances keep exp() finite during line search
_NOISE_LOG_BOUNDS = (-23.0, 14.0)


@dataclass(frozen=True)
class FitConfig:
    """Fit protocol settings.

    lengthscale_grid   -- candidate (drift, diffusion) lengthscale pairs;
                          entries may be scalars (isotropic) or D-vectors
    inducing_grid_spec -- per-dimension (min, max, count); min/max of None
                          derive the range from the data box +-10%
    sim                -- simulation settings (resolution, samples, seed,
                          resample period)
    """

    lengthscale_grid: tuple
    inducing_grid_spec: tuple
    sim: SimConfig = field(default_factory=SimConfig)
    max_iters: int = 500
    grad_tol: float = 1e-4
    kernel_variance: float = 1.0
    fix_noise_vars: tuple | None = None

    def __post_init__(self):
        if len(self.lengthscale_grid) == 0:
            raise InputError("lengthscale_grid must not be empty")
        for spec in self.inducing_grid_spec:
            if len(spec) != 3:
                raise InputError("inducing_grid_spec entries must be (min, max, count)")
            if int(spec[2]) < 2:
                raise InputError("inducing grid needs at least 2 points per dimension")
        if self.max_iters < 0:
            raise InputError("max_iters must be >= 0")
        if not self.grad_tol > 0:
            raise InputError("grad_tol must be positive")
        if self.fix_noise_vars is not None:
            nv = tuple(float(v) for v in np.atleast_1d(self.fix_noise_vars))
            if any(v <= 0 for v in nv):
                raise InputError("fix_noise_vars entries must be positive")
            object.__setattr__(self, "fix_noise_vars", nv)


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of a fit: the selected model plus its optimisation trace."""

    final_model: InducingModel
    trace: tuple                      # (iteration, log_posterior, grad_inf_norm)
    selected_lengthscales: tuple
    wall_time: float
    termination: str                  # converged | max_iters | error
    rejected_trials: int              # blown-up line-search trial points
    init_log_posterior: float
    final_log_posterior: float
    epoch_starts: tuple
    candidates: tuple                 # per-candidate summaries


def default_lengthscale_grid(data, factors=(0.2, 0.5, 1.0, 2.0)):
    """Candidate pairs scaled by the per-dimension spread of the data."""
    pooled = np.concatenate([tr.obs for tr in _as_list(data)], axis=0)
    scale = pooled.std(axis=0)
    scale[scale == 0] = 1.0
    return tuple((f * scale, f * scale) for f in factors)


def build_inducing_grid(spec, data) -> np.ndarray:
    """Regular Cartesian grid of inducing locations.

    Explicit (min, max) bounds are honoured; omitted bounds cover the data's
    bounding box expanded by 10% per side.
    """
    trajs = _as_list(data)
    axes = []
    for d, (lo, hi, count) in enumerate(spec):
        count = int(count)
        if count < 1:
            raise InputError("grid count must be >= 1")
        if lo is None or hi is None:
            vals = np.concatenate([tr.obs[:, d] for tr in trajs])
            vmin, vmax = float(vals.min()), float(vals.max())
            span = vmax - vmin
            if span == 0.0:
                raise InputError(f"degenerate data range in dimension {d}")
            lo = vmin - 0.1 * span if lo is None else lo
            hi = vmax + 0.1 * span if hi is None else hi
        if not lo < hi:
            raise InputError(f"grid bounds must satisfy min < max in dimension {d}")
        axes.append(np.linspace(float(lo), float(hi), count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _pooled_difference_quotients(data):
    """Stack (state, difference quotient, dt) triples from all trajectories,
    sorted lexicographically so the result is order-independent."""
    xs, gs, dts = [], [], []
    for j, tr in enumerate(_as_list(data)):
        if tr.n_obs < 2:
            warnings.warn(f"trajectory {j} has fewer than 2 points; skipped in init")
            continue
        dt = np.diff(tr.times)
        xs.append(tr.obs[:-1])
        gs.append(np.diff(tr.obs, axis=0) / dt[:, None])
        dts.append(dt)
    if not xs:
        raise InputError("no trajectory with at least 2 points; cannot initialise")
    X = np.concatenate(xs, axis=0)
    G = np.concatenate(gs, axis=0)
    DT = np.concatenate(dts)
    order = np.lexsort(np.concatenate([X, G], axis=1).T[::-1])
    return X[order], G[order], DT[order]


def gradient_match_init(data, Z, drift_params: KernelParams, *, ridge=None,
                        max_points: int = 600, noise_vars=None):
    """Initial inducing values from empirical difference quotients.

    Drift: GP regression of (y_{i+1} - y_i)/dt_i onto the inducing grid.
    Diffusion: one scalar, the per-component standard deviation of the
    increment residuals after removing the fitted drift, replicated at
    every inducing location.  When the observation noise variances are
    known they are subtracted from the residual variance, since densely
    sampled increments are dominated by the differenced noise.
    """
    Z = np.asarray(Z, dtype=float)
    X, G, DT = _pooled_difference_quotients(data)
    if X.shape[0] > max_points:
        keep = np.linspace(0, X.shape[0] - 1, max_points).round().astype(int)
        X, G, DT = X[keep], G[keep], DT[keep]
    if ridge is None:
        ridge = max(1e-8, 0.5 * float(np.mean(G.var(axis=0))))
    Kxx = rbf_matrix(X, X, drift_params)
    Kxx[np.diag_indices(X.shape[0])] += ridge
    try:
        cho = scipy.linalg.cho_factor(Kxx, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError("gradient-matching regression system is singular") from exc
    W = scipy.linalg.cho_solve(cho, G)
    U_f = rbf_matrix(Z, X, drift_params) @ W

    fitted = rbf_matrix(X, X, drift_params) @ W
    resid = (G - fitted) * DT[:, None]            # increment-scale residuals
    resid2 = resid**2
    if noise_vars is not None:
        resid2 = np.maximum(resid2 - 2.0 * np.asarray(noise_vars, float), 0.1 * resid2)
    sig2 = float(np.mean(resid2 / DT[:, None]))
    u_sigma = np.full(Z.shape[0], np.sqrt(max(sig2, 1e-12)))
    return U_f, u_sigma


def init_noise_vars(data) -> np.ndarray:
    """Crude per-dimension observation noise scale from increment spread."""
    trajs = _as_list(data)
    deltas = np.concatenate(
        [np.diff(tr.obs, axis=0) for tr in trajs if tr.n_obs >= 2], axis=0
    )
    return np.maximum(1e-6, 0.1 * deltas.var(axis=0))


def _fit_candidate(data, grids, Z, ell_f, ell_s, cfg: FitConfig, rejected: list):
    """Fit one lengthscale pair; ``rejected[0]`` counts the blown-up trial
    points, so the count survives a candidate that fails."""
    D = data[0].dim
    drift_params = KernelParams(cfg.kernel_variance, np.broadcast_to(np.asarray(ell_f, float), (D,)))
    diff_params = KernelParams(cfg.kernel_variance, np.broadcast_to(np.asarray(ell_s, float), (D,)))
    U0, us0 = gradient_match_init(data, Z, drift_params, noise_vars=cfg.fix_noise_vars)
    noise0 = (np.asarray(cfg.fix_noise_vars, float) if cfg.fix_noise_vars is not None
              else init_noise_vars(data))
    if noise0.size == 1 and D > 1:
        noise0 = np.full(D, float(noise0[0]))
    model = InducingModel(
        Z=Z, U_f=U0, u_sigma=us0, drift_params=drift_params,
        diff_params=diff_params, noise_vars=noise0,
    )
    cache = build_cache(model)
    M, MD = model.M, model.M * model.D

    # optimize whitened coordinates v = L^{-1} u (L the prior Cholesky
    # factors, applied to each drift column): the prior Hessian becomes the
    # identity, which conditions the quasi-Newton iteration far better than
    # raw inducing values.  x[:MD] holds V = L_f^{-1} U_f in its (m, d) order.
    Lf = np.tril(cache.chol_f[0])
    Ls = np.tril(cache.chol_s[0])

    def unpack(x):
        return update_values(
            cache, model,
            U_f=Lf @ x[:MD].reshape(M, D),
            u_sigma=Ls @ x[MD:MD + M],
            noise_vars=np.exp(x[MD + M:]),
        )

    def whiten_grad(val):
        return np.concatenate([(Lf.T @ val.grad_u_f.reshape(M, D)).ravel(),
                               Ls.T @ val.grad_u_s,
                               val.grad_log_noise])

    incs0 = draw_increments(data, grids, model, cfg.sim.n_samples,
                            child_seed(cfg.sim.seed, 0))
    init_val = evaluate_with_increments(data, model, cache, grids, incs0)
    x = np.concatenate([
        scipy.linalg.solve_triangular(Lf, model.U_f, lower=True).ravel(),
        scipy.linalg.solve_triangular(Ls, model.u_sigma, lower=True),
        np.log(model.noise_vars),
    ])
    free = np.ones(x.size, dtype=bool)
    if cfg.fix_noise_vars is not None:
        # pin the noise coordinates through equality bounds
        free[MD + M:] = False
        bounds = [(None, None)] * (MD + M) + [(v, v) for v in np.log(model.noise_vars)]
    else:
        bounds = [(None, None)] * (MD + M) + [_NOISE_LOG_BOUNDS] * D

    def free_grad_inf(val) -> float:
        g = whiten_grad(val)[free]
        return float(np.max(np.abs(g))) if g.size else 0.0
    trace = [(0, init_val.log_posterior, free_grad_inf(init_val))]
    epoch_starts = [0]
    termination = "max_iters" if cfg.max_iters > 0 else "converged"
    total_iters = 0
    period = cfg.sim.resample_period or max(cfg.max_iters, 1)
    epoch = 0
    moved = False

    while total_iters < cfg.max_iters:
        incs = incs0 if epoch == 0 else draw_increments(
            data, grids, model, cfg.sim.n_samples, child_seed(cfg.sim.seed, epoch)
        )
        memo = {}
        start = x.tobytes()
        base = []    # negated objective and gradient at the line search's base point

        def score(xv):
            m2, c2 = unpack(xv)
            val = evaluate_with_increments(data, m2, c2, grids, incs)
            entry = (val.log_posterior, free_grad_inf(val),
                     -val.log_posterior, -whiten_grad(val))
            memo[xv.tobytes()] = entry
            if len(memo) > 8:
                memo.pop(next(iter(memo)))
            return entry

        def neg(xv):
            try:
                entry = score(xv)
            except SimulationError:
                if xv.tobytes() == start:
                    raise
                rejected[0] += 1
                # a rejected trial looks no better than the base point and
                # its slope is reversed, so the line search's cubic step
                # lands halfway back; an infinite value collapses the step
                # to the base point and derails L-BFGS-B's update instead
                return base[0], -base[1]
            if not base:                   # L-BFGS-B's first call is at the start
                base[:] = entry[2:]
            return entry[2:]

        iters_seen = [total_iters]

        def on_step(xk):
            iters_seen[0] += 1
            entry = memo.get(xk.tobytes()) or score(xk)
            base[:] = entry[2:]
            trace.append((iters_seen[0], entry[0], entry[1]))

        budget = min(period, cfg.max_iters - total_iters)
        res = scipy.optimize.minimize(
            neg, x, jac=True, method="L-BFGS-B", callback=on_step, bounds=bounds,
            options={"maxiter": budget, "maxcor": 10, "gtol": cfg.grad_tol,
                     "ftol": 1e-14},
        )
        x = res.x
        total_iters += res.nit
        moved = moved or res.nit > 0
        last_g = (float(np.max(np.abs(np.asarray(res.jac)[free])))
                  if res.jac is not None else np.inf)
        if last_g < cfg.grad_tol or res.nit == 0:
            termination = "converged"
            break
        epoch += 1
        if total_iters < cfg.max_iters:
            epoch_starts.append(len(trace))

    if moved:
        final_model, final_cache = unpack(x)
        final_val = evaluate_with_increments(data, final_model, final_cache, grids, incs0)
    else:
        final_model, final_val = model, init_val
    return {
        "lengthscales": (np.asarray(ell_f, float), np.asarray(ell_s, float)),
        "model": final_model,
        "trace": tuple(trace),
        "epoch_starts": tuple(epoch_starts),
        "termination": termination,
        "init_log_posterior": init_val.log_posterior,
        "final_log_posterior": final_val.log_posterior,
        "iterations": total_iters,
        "rejected_trials": rejected[0],
    }


def fit_map(data, cfg: FitConfig) -> FitReport:
    """Fit each lengthscale candidate and keep the best final log-posterior.

    All candidates share the inducing grid, the initialisation procedure
    and the noise seed schedule, so their final values are comparable.
    """
    data = _as_list(data)
    if not data:
        raise InputError("no trajectories to fit")
    t_start = time.perf_counter()
    grids = make_grids(data, cfg.sim.resolution_factor)
    Z = build_inducing_grid(cfg.inducing_grid_spec, data)

    candidates = []
    for ell_f, ell_s in cfg.lengthscale_grid:
        rejected = [0]
        try:
            candidates.append(_fit_candidate(data, grids, Z, ell_f, ell_s, cfg, rejected))
        except (NumericalError, SimulationError) as exc:
            candidates.append({
                "lengthscales": (np.asarray(ell_f, float), np.asarray(ell_s, float)),
                "termination": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "rejected_trials": rejected[0],
            })
    ok = [c for c in candidates if c["termination"] != "error"]
    if not ok:
        raise FitError("all lengthscale candidates failed", diagnostics=candidates)
    best = max(ok, key=lambda c: c["final_log_posterior"])

    summaries = tuple(
        {k: v for k, v in c.items() if k not in ("model", "trace", "epoch_starts")}
        for c in candidates
    )
    return FitReport(
        final_model=best["model"],
        trace=best["trace"],
        selected_lengthscales=best["lengthscales"],
        wall_time=time.perf_counter() - t_start,
        termination=best["termination"],
        rejected_trials=best["rejected_trials"],
        init_log_posterior=best["init_log_posterior"],
        final_log_posterior=best["final_log_posterior"],
        epoch_starts=best["epoch_starts"],
        candidates=summaries,
    )
