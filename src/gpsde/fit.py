"""MAP fitting of the inducing SDE model.

The protocol: place inducing locations on a fixed dense grid, initialise
the inducing vectors by gradient matching (regression of all N empirical
difference quotients onto the M-point inducing basis, O(N M^2 + M^3)),
then run one limited-memory BFGS minimisation on the frozen-noise
log-posterior over (u_f, u_sigma, log noise_vars).
Kernel lengthscales are not part of the gradient ascent; candidates come
from a small grid, each one lengthscale shared by the drift and diffusion
kernels, and the candidate with the best final log-posterior wins.

A fit draws its Brownian increments once and every candidate uses that
one frozen draw, so the objective is a deterministic function for the
whole fit and accepted steps never decrease it.  A line-search trial
point whose simulated paths blow up is rejected (the line search
backtracks) and counted; a blow-up at the starting point fails the
candidate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .errors import FitError, InputError, InternalError, SimulationError, integer
from .field import FieldCache, InducingModel, build_cache, gram_root, grid_points, update_values
from .kernels import KernelParams, rbf_matrix
from .objective import Workspace, draw_increments, evaluate_with_increments, make_grids
from .sim import child_seed

# box bounds for the log noise variances keep exp() finite during line search
_NOISE_LOG_BOUNDS = (-23.0, 14.0)


@dataclass(frozen=True)
class FitConfig:
    """Fit protocol settings; the defaults are those of ``gpsde fit``.

    lengthscale_grid   -- candidate lengthscales, each shared by the drift
                          and diffusion kernels; an entry is a scalar
                          (isotropic) or a D-vector
    inducing_grid_spec -- (min, max, count) per dimension, or one for all;
                          min/max of None derive the range from the data
                          box +-10%
    resolution_factor  -- equal grid steps per observation interval, so the
                          step follows the local sampling gap
    n_samples          -- Monte Carlo path count
    seed               -- master RNG seed, >= 0
    fix_noise_vars     -- noise variances held fixed, per dimension or one
                          for all; None fits them
    """

    lengthscale_grid: tuple
    inducing_grid_spec: tuple
    resolution_factor: int = 2
    n_samples: int = 50
    seed: int = 0
    max_iters: int = 200
    grad_tol: float = 1e-4
    kernel_variance: float = 1.0
    fix_noise_vars: tuple | None = None

    def __post_init__(self):
        if len(self.lengthscale_grid) == 0:
            raise InputError("lengthscale_grid must not be empty")
        for spec in self.inducing_grid_spec:
            if len(spec) != 3:
                raise InputError("inducing_grid_spec entries must be (min, max, count)")
            integer(spec[2], f"inducing_grid_spec entry {tuple(spec)!r}: the point count", 2)
        for name, least in (("resolution_factor", 1), ("n_samples", 1), ("max_iters", 0),
                            ("seed", 0)):
            object.__setattr__(self, name, integer(getattr(self, name), name, least))
        if not self.grad_tol > 0:
            raise InputError("grad_tol must be positive")
        try:
            positive = 0 < self.kernel_variance < np.inf
        except TypeError:
            positive = False
        if not positive:
            raise InputError(f"kernel_variance must be positive and finite, "
                             f"got {self.kernel_variance!r}")
        if self.fix_noise_vars is not None:
            try:
                nv = tuple(float(v) for v in np.atleast_1d(self.fix_noise_vars))
                positive = all(0 < v < np.inf for v in nv)
            except (TypeError, ValueError):
                positive = False
            if not positive:
                raise InputError(f"fix_noise_vars entries must be positive and finite, "
                                 f"got {self.fix_noise_vars!r}")
            object.__setattr__(self, "fix_noise_vars", nv)


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of a fit: the selected model plus its optimisation trace."""

    final_model: InducingModel
    trace: tuple                      # (iteration, log_posterior, grad_inf_norm)
    selected_lengthscales: np.ndarray  # (D,), shared by both kernels
    wall_time: float
    termination: str                  # converged (gradient < grad_tol) | max_iters | stalled
    rejected_trials: int              # blown-up line-search trial points
    init_log_posterior: float
    final_log_posterior: float
    candidates: tuple                 # per-candidate summaries


def default_lengthscale_grid(data):
    """Candidate lengthscales scaled by the per-dimension spread of the data."""
    pooled = np.concatenate([tr.obs for tr in data], axis=0)
    scale = pooled.std(axis=0)
    scale[scale == 0] = 1.0
    return tuple(f * scale for f in (0.2, 0.5, 1.0, 2.0))


def build_inducing_grid(spec, data) -> np.ndarray:
    """Regular Cartesian grid of inducing locations.

    Explicit (min, max) bounds are honoured; omitted bounds cover the data's
    bounding box expanded by 10% per side.
    """
    axes = []
    for d, (lo, hi, count) in enumerate(spec):
        if lo is None or hi is None:
            vals = np.concatenate([tr.obs[:, d] for tr in data])
            vmin, vmax = float(vals.min()), float(vals.max())
            span = vmax - vmin
            if span == 0.0:
                raise InputError(f"degenerate data range in dimension {d}")
            lo = vmin - 0.1 * span if lo is None else lo
            hi = vmax + 0.1 * span if hi is None else hi
        if not lo < hi:
            raise InputError(f"grid bounds must satisfy min < max in dimension {d}")
        axes.append(np.linspace(float(lo), float(hi), int(count)))
    return grid_points(axes)


def _pooled_difference_quotients(data):
    """Stack (state, difference quotient, dt) triples from all trajectories,
    sorted lexicographically so the result is order-independent."""
    xs, gs, dts = [], [], []
    for tr in data:
        dt = np.diff(tr.times)
        xs.append(tr.obs[:-1])
        gs.append(np.diff(tr.obs, axis=0) / dt[:, None])
        dts.append(dt)
    X = np.concatenate(xs, axis=0)
    G = np.concatenate(gs, axis=0)
    DT = np.concatenate(dts)
    order = np.lexsort(np.concatenate([X, G], axis=1).T[::-1])
    return X[order], G[order], DT[order]


def gradient_match_init(data, cache: FieldCache, *, noise_vars=None):
    """Initial inducing values on the Z and drift kernel of the cache's
    model (not its values) from empirical difference quotients.

    Drift: regression of all N quotients G = (y_{i+1} - y_i)/dt_i onto the
    inducing basis (subset of regressors), with a ridge r of half their
    mean variance: with B = K_XZ K^{-1/2}, K the jittered Gram matrix,
    U_f = K^{1/2} (B^T B + r I)^{-1} B^T G = K (K_ZX K_XZ + r K)^{-1} K_ZX G,
    at O(N M^2 + M^3) cost; every trajectory has at least one quotient.
    Diffusion: one scalar, the per-component standard deviation of the
    increment residuals after removing the fitted drift, replicated at
    every inducing location.  When the observation noise variances are
    known they are subtracted from the residual variance, since densely
    sampled increments are dominated by the differenced noise.
    """
    m = cache.model
    X, G, DT = _pooled_difference_quotients(data)
    ridge = max(1e-8, 0.5 * float(np.mean(G.var(axis=0))))
    Bt = gram_root(cache, rbf_matrix(m.Z, X, m.drift_params), inverse=True)     # B^T, (M, N)
    system = Bt @ Bt.T
    system[np.diag_indices(m.M)] += ridge
    beta = np.linalg.solve(system, Bt @ G)
    U_f = gram_root(cache, beta)

    fitted = Bt.T @ beta
    resid = (G - fitted) * DT[:, None]            # increment-scale residuals
    resid2 = resid**2
    if noise_vars is not None:
        resid2 = np.maximum(resid2 - 2.0 * np.asarray(noise_vars, float), 0.1 * resid2)
    sig2 = float(np.mean(resid2 / DT[:, None]))
    u_sigma = np.full(m.M, np.sqrt(max(sig2, 1e-12)))
    return U_f, u_sigma


def init_noise_vars(data) -> np.ndarray:
    """Crude per-dimension observation noise scale from increment spread."""
    deltas = np.concatenate([np.diff(tr.obs, axis=0) for tr in data], axis=0)
    return np.maximum(1e-6, 0.1 * deltas.var(axis=0))


def _fit_candidate(data, grids, draw: Workspace, model: InducingModel, cfg: FitConfig) -> dict:
    """Fit one candidate from its zero-valued model, whose kernel serves the
    drift and the diffusion, on the fit's draw; a numerical failure L-BFGS-B
    cannot back away from returns an "error" summary with its rejected trials."""
    rejected = 0
    try:
        (M, D), MD = model.Z.shape, model.Z.size
        cache = build_cache(model)
        U0, us0 = gradient_match_init(data, cache, noise_vars=cfg.fix_noise_vars)
        model, cache = update_values(cache, model, U_f=U0, u_sigma=us0)

        # optimize whitened coordinates v = K^{-1/2} u (K the jittered prior
        # Gram matrix both kernels share, applied to each drift column, and
        # K^{1/2} its symmetric root): the prior Hessian becomes the
        # identity, which conditions the quasi-Newton iteration far better
        # than raw inducing values.  x[:MD] holds V = K^{-1/2} U_f in its
        # (m, d) order, x[MD:MD + M] the whitened u_sigma.
        V = gram_root(cache, np.column_stack([model.U_f, model.u_sigma]), inverse=True)
        x = np.concatenate([V[:, :D].ravel(), V[:, D], np.log(model.noise_vars)])
        free = np.ones(x.size, dtype=bool)
        if cfg.fix_noise_vars is not None:
            # pin the noise coordinates through equality bounds
            free[MD + M:] = False
            bounds = [(None, None)] * (MD + M) + [(v, v) for v in np.log(model.noise_vars)]
        else:
            bounds = [(None, None)] * (MD + M) + [_NOISE_LOG_BOUNDS] * D

        def unpack(xv):
            U = gram_root(cache, np.column_stack([xv[:MD].reshape(M, D), xv[MD:MD + M]]))
            return update_values(cache, model, U_f=U[:, :D], u_sigma=U[:, D],
                                 noise_vars=np.exp(xv[MD + M:]))

        def score(m, c):
            """Log-posterior, free gradient's inf-norm and whitened gradient."""
            val = evaluate_with_increments(data, m, c, grids, draw)
            G = gram_root(cache, np.column_stack([val.grad_u_f.reshape(M, D), val.grad_u_s]))
            g = np.concatenate([G[:, :D].ravel(), G[:, D], val.grad_log_noise])
            return val.log_posterior, float(np.max(np.abs(g[free]))), g

        init = score(model, cache)
        trace = [(0, *init[:2])]
        last = current = None    # (x, *score) of the last scored point; score of the iterate

        def neg(xv):
            nonlocal last, current, rejected
            try:
                last = (xv, *score(*unpack(xv)))
            except SimulationError:
                if current is None:            # the starting point
                    raise
                rejected += 1
                # a rejected trial looks no better than the base point and
                # its slope is reversed, so the line search's cubic step
                # lands halfway back; an infinite value collapses the step
                # to the base point and derails L-BFGS-B's update instead
                return -current[0], current[2]
            if current is None:                # L-BFGS-B's first call is at the start
                current = last[1:]
            return -last[1], -last[3]

        def on_step(xk):
            nonlocal current
            if not np.array_equal(xk, last[0]):
                raise InternalError("L-BFGS-B accepted a point it did not score last")
            current = last[1:]
            trace.append((len(trace), *current[:2]))

        termination, final_log_posterior = "max_iters", init[0]
        if cfg.max_iters > 0:
            res = scipy.optimize.minimize(
                neg, x, jac=True, method="L-BFGS-B", callback=on_step, bounds=bounds,
                options={"maxiter": cfg.max_iters, "maxcor": 10, "gtol": cfg.grad_tol,
                         "ftol": 1e-14},
            )
            if current[1] < cfg.grad_tol:
                termination = "converged"
            elif res.nit < cfg.max_iters:
                termination = "stalled"
            if len(trace) > 1:
                model, cache = unpack(res.x)
                final_log_posterior = score(model, cache)[0]
    except SimulationError as exc:
        return {"lengthscales": model.drift_params.lengthscales, "termination": "error",
                "error": f"{type(exc).__name__}: {exc}", "rejected_trials": rejected}
    return {
        "lengthscales": model.drift_params.lengthscales,
        "model": model,
        "trace": tuple(trace),
        "termination": termination,
        "init_log_posterior": init[0],
        "final_log_posterior": final_log_posterior,
        "iterations": len(trace) - 1,
        "rejected_trials": rejected,
    }


def _per_dimension(entries, D: int, name: str) -> tuple:
    """D entries, one entry repeated; an InputError naming the setting
    unless there are one or D entries."""
    if len(entries) not in (1, D):
        raise InputError(f"{name} needs one entry, or one per data dimension ({D})")
    return tuple(entries) * (D // len(entries))


def fit_map(data, cfg: FitConfig) -> FitReport:
    """Fit each lengthscale candidate and keep the best final log-posterior.

    All candidates share the inducing grid, the initialisation procedure
    and one frozen draw of the Brownian increments, so their final values
    are comparable.
    """
    if not data:
        raise InputError("no trajectories to fit")
    t_start = time.perf_counter()
    D = data[0].dim
    kernels = []
    for ell in cfg.lengthscale_grid:
        ls = np.asarray(ell, dtype=float)
        if ls.ndim > 1 or ls.size not in (1, D):
            raise InputError(f"lengthscale candidate {ell!r} needs one value, or one "
                             f"per data dimension ({D})")
        kernels.append(KernelParams(cfg.kernel_variance, np.broadcast_to(ls, (D,))))
    cfg = replace(
        cfg, inducing_grid_spec=_per_dimension(cfg.inducing_grid_spec, D, "inducing_grid_spec"),
        fix_noise_vars=None if cfg.fix_noise_vars is None
        else _per_dimension(cfg.fix_noise_vars, D, "fix_noise_vars"))
    grids = make_grids(data, cfg.resolution_factor)
    Z = build_inducing_grid(cfg.inducing_grid_spec, data)
    noise0 = (np.asarray(cfg.fix_noise_vars, float) if cfg.fix_noise_vars is not None
              else init_noise_vars(data))
    starts = [InducingModel(Z=Z, U_f=np.zeros(Z.shape), u_sigma=np.zeros(len(Z)),
                            drift_params=p, diff_params=p, noise_vars=noise0)
              for p in kernels]
    draw = draw_increments(data, grids, starts[0], cfg.n_samples, child_seed(cfg.seed, 0))

    candidates = [_fit_candidate(data, grids, draw, m, cfg) for m in starts]
    ok = [c for c in candidates if c["termination"] != "error"]
    if not ok:
        raise FitError("all lengthscale candidates failed", diagnostics=candidates)
    best = max(ok, key=lambda c: c["final_log_posterior"])

    summaries = tuple(
        {k: v for k, v in c.items() if k not in ("model", "trace")}
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
        candidates=summaries,
    )
