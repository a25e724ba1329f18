"""Reverse (adjoint) gradients of simulated paths.

With the Brownian increments frozen, the stepping rule

    x_{i+1} = x_i + f(x_i) dt_i + sigma(x_i) dW_i

is a deterministic map from the inducing values u = (u_f, u_sigma) to the
path.  For seeds g_i = dL/dx_i at the observation nodes (zero elsewhere),
its discrete adjoint runs backwards from the last node,

    lambda_i = g_i + A_i^T lambda_{i+1},
    A_i = dx_{i+1}/dx_i = I + dt_i J_f(x_i) + dW_i grad sigma(x_i)^T,

and the vector-Jacobian product g^T dx/du collects, at each step's state,
the kernel rows k(x) = k(x, Z) against V_i = [dt_i lambda_{i+1} |
dW_i . lambda_{i+1}]: dL/dU_f = K_f^{-1} sum_i dt_i k_f(x_i)^T lambda_{i+1}^T
(an M x D matrix) and dL/du_sigma = K_s^{-1} sum_i k_s(x_i)^T
(dW_i . lambda_{i+1}).  The initial state is fixed data, so the seed at the
first node does not enter.  Because the sweep differentiates the simulator
itself, the result matches finite differences of the frozen-noise path map
to solver precision, and one sweep costs about one forward simulation
whatever the number of inducing values.

The forward sweep forms every step's field terms once, with one
:func:`step_terms_batch` call, and keeps the step Jacobian A_i, which it
forms in place from J_f and grad sigma, and whatever rows
:func:`rows_buffer` makes room for.  On a ragged batch, whose rows stop at
different steps, a step's terms cover the rows that take it, and a row's
lambda starts at its last step.  This module is the lambda recursion:
the field forms the products with the rows (:func:`rows_t_products`) and
applies K^{-1} to their sum (:func:`gram_solve`).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, SimulationError
from .field import (FieldCache, InducingModel, _checked, gram_solve, rows_buffer,
                    rows_t_products, step_terms_batch)
from .sim import Buffers, TimeGrid, checked_increments, simulate_callable_batch


def _adjoint_sweep(c: FieldCache, paths: np.ndarray, grid: TimeGrid, increments: np.ndarray,
                   rows, jac: np.ndarray, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Gradients w.r.t. u_f and u_sigma of sum(seeds * x) at the
    observation nodes of frozen-noise paths.

    paths (S, n_steps+1, D) and increments (S, n_steps, D) come from one
    simulation with ``c.model`` on ``grid``, whose dt has B rows, each for
    S / B consecutive rows of paths; rows (what :func:`rows_buffer` gave)
    and jac (n_steps, D, D, S), the step Jacobians A_i[d, e] =
    d x_{i+1, d} / d x_{i, e}, are its steps' terms.  seeds has shape
    (S, n_obs, D), or (B, S / B, n_obs, D) in any memory layout, in the
    grid's observation order.  On a ragged grid a block joins the sweep at
    its last step, and its seeds past it are not read.
    """
    S, _, D = paths.shape
    B = grid.n_blocks
    r = S // B
    seeds = np.asarray(seeds, dtype=float)
    if seeds.shape == (S, grid.n_obs, D):
        seeds = seeds.reshape(B, r, grid.n_obs, D)
    if seeds.shape != (B, r, grid.n_obs, D):
        raise InputError(f"seeds must be {(S, grid.n_obs, D)} or {(B, r, grid.n_obs, D)}, "
                         f"got {seeds.shape}")
    slot = {int(g): p for p, g in enumerate(grid.obs_indices)}
    lam = np.zeros((D, S))          # rows that have not joined stay zero
    nxt = np.empty((D, S))          # A_i^T lambda before it is copied into lam
    G = np.zeros((c.model.M, D + 1))
    dt = np.broadcast_to(grid.dt, (B, grid.n_steps))
    V = np.empty((D + 1, S))        # dt_i lambda and dW_i . lambda, one column per sample
    active, b = grid.active or (B,) * grid.n_steps, 0
    for i in range(grid.n_steps - 1, -1, -1):
        if active[i] != b:
            # rows join at their last step: views of the rows that take step i,
            # flat and (.., b, r) by block
            b = active[i]
            a = b * r
            lam_a, V_a, nxt_a = lam[:, :a], V[:, :a], nxt[:, :a]
            lam_b, V_b = lam_a.reshape(D, b, r), V_a.reshape(D + 1, b, r)
            inc_a, paths_a, jac_a = increments[:a], paths[:a], jac[..., :a]
            rows_a = None if rows is None else rows[..., :a]
        p = slot.get(i + 1)
        if p is not None:
            lam_b += seeds[:b, :, p].transpose(2, 0, 1)
        if not np.isfinite(lam_a).all():
            raise SimulationError(f"non-finite adjoint state at step {i + 1}", step=i + 1)
        np.multiply(dt[:b, i, None], lam_b, out=V_b[:D])
        np.einsum("sd,ds->s", inc_a[:, i], lam_a, out=V_a[D])
        G += rows_t_products(paths_a[:, i], c, V_a, None if rows_a is None else rows_a[i])
        np.einsum("ds,des->es", lam_a, jac_a[i], out=nxt_a)
        lam_a[...] = nxt_a
    return gram_solve(c, G)


def simulate_bundle_with_sensitivities(m: InducingModel, c: FieldCache, x0,
                                       grid: TimeGrid, increments: np.ndarray, *,
                                       buffers: Buffers | None = None):
    """Simulate paths and return them with their pullback.

    increments has shape (S, n_steps, D) and x0 is one shared state or one
    state per sample.  Returns the (S, n_steps+1, D) paths and a function
    that maps seeds at the observation nodes to the gradients (u_f,
    u_sigma) of sum(seeds * x); see :func:`_adjoint_sweep`.  On a ragged
    grid (see :class:`~gpsde.sim.TimeGrid`) every step advances only the
    blocks that take it.  With buffers, the paths, the step Jacobians and
    any kept rows are views of their "paths", "jac" and "rows" arrays,
    valid until the next call with them; without, they are new arrays.
    """
    _checked(m, c)
    increments = checked_increments(increments, grid, m.D)
    S, n_steps, D = increments.shape
    take = (Buffers() if buffers is None else buffers).take
    rows = rows_buffer(c, n_steps, S, lambda shape: take("rows", shape))
    jac = take("jac", (n_steps, D, D, S))
    # A_i = I + dt_i J_f + dW_i grad sigma^T, formed in step i's slice of jac:
    # dt J_f by block of rows, plus the outer product formed in J_f's memory,
    # plus 1 on the diagonal
    r, diag = S // grid.n_blocks, jac.reshape(n_steps, D * D, S)[:, ::D + 1]
    dt = np.broadcast_to(grid.dt, (grid.n_blocks, n_steps)).T[:, :, None]
    dW = increments.transpose(1, 2, 0)[:, :, None]
    steps = iter(range(n_steps))

    def fields(X):
        i, a = next(steps), len(X)
        F, sig, _, _, J, dg = step_terms_batch(X, c, None if rows is None else rows[i, ..., :a])
        np.multiply(J.reshape(D, D, -1, r), dt[i, :a // r],
                    out=jac[i].reshape(D, D, -1, r)[..., :a // r, :])
        jac[i, ..., :a] += np.multiply(dW[i, ..., :a], dg, out=J)
        diag[i, :, :a] += 1.0
        return F, sig

    paths = simulate_callable_batch(fields, x0, grid.dt, increments, active=grid.active,
                                    out=take("paths", (S, n_steps + 1, D)))

    def pullback(seeds):
        return _adjoint_sweep(c, paths, grid, increments, rows, jac, seeds)

    return paths, pullback
