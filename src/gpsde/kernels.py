"""Gaussian (RBF) kernel with per-dimension lengthscales.

Kernel values between stacked ``(N, D)`` states and Gram matrices.  The
blocked Gram matrix of a matrix-valued kernel (:func:`gram_blocked`) is the
dense reference that the field's per-column solves are tested against.
All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Relative jitter added to the diagonals of the inducing Gram matrices.
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


def as_points(X, dim=None, name="X") -> np.ndarray:
    """X as a float array of N stacked D-dimensional states, shape (N, D);
    any other shape, a 1-d array included, is an InputError."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InputError(f"{name} must be a 2-d array of states, got shape {X.shape}")
    if dim is not None and X.shape[1] != dim:
        raise InputError(f"{name} states have dimension {X.shape[1]}, expected {dim}")
    return X


def rbf_matrix(X: np.ndarray, Z: np.ndarray, p: KernelParams) -> np.ndarray:
    """Pairwise kernel values variance * exp(-0.5 sum_d (x_d - z_d)^2 / l_d^2)
    for stacked states, shape (len(X), len(Z)): the dense rows that the
    gradient-matching initialisation uses and the tests compare with (the
    field keeps its rows as per-axis factors instead).

    The exponent -|x/l - z/l|^2 / 2 comes from one matrix product,
    (x/l).(z/l) - |x/l|^2 / 2 - |z/l|^2 / 2, clamped at zero because rounding
    can make it slightly positive near coincident points; the exp then works
    in place on that one (N, M) array, so no (N, M, D) difference is formed.
    Halving is exact, so this rounds as the squared distance would.
    """
    Xs = X / p.lengthscales
    Zs = Z / p.lengthscales
    K = Xs @ Zs.T
    K -= 0.5 * np.einsum("nd,nd->n", Xs, Xs)[:, None]
    K -= 0.5 * np.einsum("md,md->m", Zs, Zs)
    np.minimum(K, 0.0, out=K)
    np.exp(K, out=K)
    K *= p.variance
    return K


def gram(X, Z, p: KernelParams) -> np.ndarray:
    """Checked Gram matrix with entry (i, j) = k(X_i, Z_j), for matrices the
    prior is solved with.

    Unlike :func:`rbf_matrix` it squares the exact pairwise differences:
    the matrix-product form errs by about eps |x/l|^2 in each squared
    distance, and a solve with the jittered matrix amplifies entry errors
    by up to its condition number, which the jitter bounds only by about
    M / JITTER_SCALE.  It forms an (N, M, D) array, so it is meant for
    small matrices: the field's per-axis inducing Gram matrices and the
    tests' dense references.
    """
    X = as_points(X, p.dim, "X")
    Z = as_points(Z, p.dim, "Z")
    if X.shape[0] == 0 or Z.shape[0] == 0:
        raise InputError("gram requires non-empty point sets")
    d = (X[:, None, :] - Z[None, :, :]) / p.lengthscales
    return p.variance * np.exp(-0.5 * np.sum(d * d, axis=-1))


def gram_blocked(X, Z, p: KernelParams, A) -> np.ndarray:
    """Blocked Gram matrix of the decomposable kernel k(x, x') * A.

    Block (i, j) is the contiguous D x D tile k(X_i, Z_j) * A, so the
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
