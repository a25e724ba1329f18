"""Reverse (adjoint) gradients of simulated paths.

With the Brownian increments frozen, the stepping rule

    x_{i+1} = x_i + f(x_i) dt + sigma(x_i) dW_i

is a deterministic map from the inducing values u = (u_f, u_sigma) to the
path.  For seeds g_i = dL/dx_i at the observation nodes (zero elsewhere),
its discrete adjoint runs backwards from the last node,

    lambda_i = g_i + lambda_{i+1} + dt J_f(x_i)^T lambda_{i+1}
                   + grad sigma(x_i) (dW_i . lambda_{i+1}),

and collects the vector-Jacobian product g^T dx/du from the kernel rows at
each stored state, with k(x) = k(x, Z) a row:
dL/dU_f = K_f^{-1} sum_i dt k_f(x_i)^T lambda_{i+1}^T (an M x D matrix) and
dL/du_sigma = K_s^{-1} sum_i k_s(x_i)^T (dW_i . lambda_{i+1}).  The
initial state is fixed data, so the seed at the first node does not enter.
Because the sweep differentiates the simulator itself, the result matches
finite differences of the frozen-noise path map to solver precision, and
one sweep costs about one forward simulation whatever the number of
inducing values.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InputError, SensitivityError
from .field import FieldCache, InducingModel, step_terms_batch
from .sim import TimeGrid, simulate_batch


def _adjoint_sweep(c: FieldCache, paths: np.ndarray, grid: TimeGrid,
                   increments: np.ndarray, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Gradients w.r.t. u_f and u_sigma of sum(seeds * x) at the
    observation nodes of frozen-noise paths.

    paths (S, n_steps+1, D) and increments (S, n_steps, D) come from one
    simulation with the model of ``c``; seeds has shape (S, n_obs, D), in
    the grid's observation order.
    """
    S, _, D = paths.shape
    seeds = np.asarray(seeds, dtype=float)
    if seeds.shape != (S, grid.n_obs, D):
        raise InputError(f"seeds must be {(S, grid.n_obs, D)}, got {seeds.shape}")
    slot = {int(g): p for p, g in enumerate(grid.obs_indices)}
    lam = np.zeros((S, D))
    gf = np.zeros((c.Z.shape[0], D))
    gs = np.zeros(c.Z.shape[0])
    dt = grid.dt
    for i in range(grid.n_steps - 1, -1, -1):
        p = slot.get(i + 1)
        if p is not None:
            lam = lam + seeds[:, p]
        if not np.isfinite(lam).all():
            raise SensitivityError(f"non-finite adjoint state at step {i + 1}", step=i + 1)
        terms = step_terms_batch(paths[:, i], c)
        dWl = np.einsum("sd,sd->s", increments[:, i], lam)
        gf += dt * (terms.kf.T @ lam)
        gs += terms.ks.T @ dWl
        lam = lam + dt * (lam[:, None, :] @ terms.jac_x)[:, 0] + terms.diff_gx * dWl[:, None]
    grad_f = scipy.linalg.cho_solve(c.chol_f, gf).ravel()
    grad_s = scipy.linalg.cho_solve(c.chol_s, gs)
    return grad_f, grad_s


def simulate_bundle_with_sensitivities(m: InducingModel, c: FieldCache, x0,
                                       grid: TimeGrid, increments: np.ndarray):
    """Simulate a bundle and return it with its pullback.

    increments has shape (S, n_steps, D) and x0 is one shared state or one
    state per sample.  Returns the (S, n_steps+1, D) paths and a function
    that maps seeds of shape (S, n_obs, D) to the gradients (u_f, u_sigma)
    of sum(seeds * x) at the observation nodes; see :func:`_adjoint_sweep`.
    """
    paths = simulate_batch(m, c, x0, grid, increments)
    increments = np.asarray(increments, dtype=float)

    def pullback(seeds):
        return _adjoint_sweep(c, paths, grid, increments, seeds)

    return paths, pullback
