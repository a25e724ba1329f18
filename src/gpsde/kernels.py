"""Gaussian (RBF) kernel with per-dimension lengthscales.

Scalar kernel values, the gradient in the first argument and Gram
matrices.  The blocked Gram matrix of a matrix-valued kernel
(:func:`gram_blocked`) is the dense reference that the field's per-column
solves are tested against.  All functions are pure; batched variants
operate on ``(N, D)`` arrays of stacked states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Relative jitter added to Gram diagonals before factorization.
JITTER_SCALE = 1e-6


@dataclass(frozen=True, eq=False)
class KernelParams:
    """Kernel variance and one positive lengthscale per state dimension."""

    variance: float
    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float)).copy()
        try:
            var = float(self.variance)
        except (TypeError, ValueError) as exc:
            raise InputError("variance must be a real scalar") from exc
        if ls.ndim != 1 or ls.size == 0:
            raise InputError("lengthscales must be a non-empty vector")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise InputError("lengthscales must be positive and finite")
        if not np.isfinite(var) or var <= 0:
            raise InputError("variance must be positive and finite")
        ls.setflags(write=False)
        object.__setattr__(self, "variance", var)
        object.__setattr__(self, "lengthscales", ls)

    @property
    def dim(self) -> int:
        return self.lengthscales.size


def same_params(a: KernelParams, b: KernelParams) -> bool:
    return a.variance == b.variance and np.array_equal(a.lengthscales, b.lengthscales)


def _as_state(x, dim=None, name="x") -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise InputError(f"{name} must be a flat state vector, got shape {x.shape}")
    if dim is not None and x.size != dim:
        raise InputError(f"{name} has dimension {x.size}, expected {dim}")
    return x


def as_points(X, dim=None, name="X") -> np.ndarray:
    """Coerce to an (N, D) array of stacked state vectors."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InputError(f"{name} must be a 2-d array of states, got shape {X.shape}")
    if dim is not None and X.shape[1] != dim:
        raise InputError(f"{name} states have dimension {X.shape[1]}, expected {dim}")
    return X


def rbf_matrix(X: np.ndarray, Z: np.ndarray, p: KernelParams) -> np.ndarray:
    """Pairwise kernel values for stacked states, shape (len(X), len(Z))."""
    d = (X[:, None, :] - Z[None, :, :]) / p.lengthscales
    return p.variance * np.exp(-0.5 * np.sum(d * d, axis=-1))


def rbf_grad_matrix(X: np.ndarray, Z: np.ndarray, p: KernelParams) -> np.ndarray:
    """Pairwise gradients d k(x_i, z_j) / d x_i, shape (N, M, D)."""
    diff = X[:, None, :] - Z[None, :, :]
    d = diff / p.lengthscales
    k = p.variance * np.exp(-0.5 * np.sum(d * d, axis=-1))
    return -k[:, :, None] * (diff / np.square(p.lengthscales))


def rbf(x, x2, p: KernelParams) -> float:
    """Kernel value variance * exp(-0.5 sum_d (x_d - x2_d)^2 / l_d^2)."""
    x = _as_state(x, p.dim, "x")
    x2 = _as_state(x2, p.dim, "x2")
    return float(rbf_matrix(x[None, :], x2[None, :], p)[0, 0])


def gram(X, Z, p: KernelParams) -> np.ndarray:
    """Gram matrix with entry (i, j) = rbf(X_i, Z_j, p)."""
    X = as_points(X, p.dim, "X")
    Z = as_points(Z, p.dim, "Z")
    if X.shape[0] == 0 or Z.shape[0] == 0:
        raise InputError("gram requires non-empty point sets")
    return rbf_matrix(X, Z, p)


def gram_blocked(X, Z, p: KernelParams, A) -> np.ndarray:
    """Blocked Gram matrix of the decomposable kernel k(x, x') * A.

    Block (i, j) is the contiguous D x D tile rbf(X_i, Z_j, p) * A, so the
    result has shape (N*D, M*D) with dimension-minor ordering inside each
    state block.  With A = I this equals kron(gram(X, Z, p), I_D).
    """
    X = as_points(X, p.dim, "X")
    Z = as_points(Z, p.dim, "Z")
    A = np.asarray(A, dtype=float)
    D = p.dim
    if A.shape != (D, D):
        raise InputError(f"A must be {D}x{D}, got {A.shape}")
    K = gram(X, Z, p)
    n, m = K.shape
    return np.einsum("nm,de->ndme", K, A).reshape(n * D, m * D)
