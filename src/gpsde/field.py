"""Inducing-point drift and diffusion fields.

The drift vector field interpolates M inducing vectors U_f attached to
locations Z, each of its D outputs an independent GP with the same kernel,

    f(x) = k_f(x, Z) K_f(Z, Z)^{-1} U_f,

and the scalar diffusion does the same with its own kernel and values
u_sigma.  Both revert to zero away from the inducing locations (zero-mean
prior).  A :class:`FieldCache` holds the two M x M Cholesky factorizations
and the derived solve products shared by every evaluation; build one with
:func:`build_cache` and rebuild whenever Z or the kernel parameters
change.  Updating only the inducing values reuses the factorizations via
:func:`update_values`.

Evaluation functions are pure and safe to call concurrently; models and
caches are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace

import numpy as np
import scipy.linalg

from .errors import InputError, InternalError, NumericalError
from .kernels import (
    JITTER_SCALE,
    KernelParams,
    as_points,
    rbf_matrix,
    same_params,
    _as_state,
)
# not used here: bench/tracer.py wraps gpsde.field.gram_blocked by name
from .kernels import gram_blocked  # noqa: F401


def _frozen_array(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class InducingModel:
    """State of the learnable SDE field model.

    Z          -- (M, D) inducing locations, pairwise distinct
    U_f        -- (M, D) drift inducing vectors (row m belongs to Z_m)
    u_sigma    -- (M,) diffusion inducing values
    drift_params, diff_params -- kernel hyperparameters
    noise_vars -- (D,) diagonal observation noise variances
    A          -- optional, construction only: the drift outputs are
                  independent, so a dependency matrix must be the identity
    """

    Z: np.ndarray
    U_f: np.ndarray
    u_sigma: np.ndarray
    drift_params: KernelParams
    diff_params: KernelParams
    noise_vars: np.ndarray
    A: InitVar[np.ndarray | None] = None

    def __post_init__(self, A):
        Z = as_points(self.Z, name="Z")
        M, D = Z.shape
        if M < 1:
            raise InputError("need at least one inducing location")
        U_f = np.asarray(self.U_f, dtype=float)
        if U_f.shape != (M, D):
            raise InputError(f"U_f must be {(M, D)}, got {U_f.shape}")
        u_sigma = np.asarray(self.u_sigma, dtype=float).ravel()
        if u_sigma.shape != (M,):
            raise InputError(f"u_sigma must have length {M}")
        if self.drift_params.dim != D or self.diff_params.dim != D:
            raise InputError("kernel lengthscales must match state dimension")
        if A is not None and not np.array_equal(np.asarray(A, dtype=float), np.eye(D)):
            raise InputError(f"dependency matrix A must be the {D}x{D} identity: "
                             "the drift outputs are independent")
        noise_vars = np.asarray(self.noise_vars, dtype=float).ravel()
        if noise_vars.shape != (D,) or np.any(noise_vars <= 0) or not np.all(np.isfinite(noise_vars)):
            raise InputError("noise_vars must be D positive finite reals")
        if M > 1:
            d2 = np.sum((Z[:, None, :] - Z[None, :, :]) ** 2, axis=-1)
            d2[np.diag_indices(M)] = np.inf
            if d2.min() == 0.0:
                raise InputError("inducing locations must be pairwise distinct")
        for name, val in (("Z", Z), ("U_f", U_f), ("u_sigma", u_sigma),
                          ("noise_vars", noise_vars)):
            object.__setattr__(self, name, _frozen_array(val))

    @property
    def D(self) -> int:
        return self.Z.shape[1]

    @property
    def M(self) -> int:
        return self.Z.shape[0]

    @property
    def u_f(self) -> np.ndarray:
        """Stacked inducing vectors: one contiguous D-block per location."""
        return self.U_f.reshape(-1)

    def with_values(self, U_f=None, u_sigma=None, noise_vars=None) -> "InducingModel":
        """Copy of the model with replaced inducing values / noise."""
        return replace(
            self,
            U_f=self.U_f if U_f is None else U_f,
            u_sigma=self.u_sigma if u_sigma is None else u_sigma,
            noise_vars=self.noise_vars if noise_vars is None else noise_vars,
        )


@dataclass(frozen=True, eq=False)
class FieldCache:
    """Factorizations and solve products for one model configuration.

    alpha_f = K_f(Z,Z)^{-1} U_f, shape (M, D), and alpha_s = K_s(Z,Z)^{-1}
    u_sigma are the interpolation weights, so batched evaluation is a
    single matmul.
    """

    Z: np.ndarray
    drift_params: KernelParams
    diff_params: KernelParams
    U_f: np.ndarray
    u_sigma: np.ndarray
    jitter_scale: float
    chol_f: tuple
    chol_s: tuple
    logdet_f: float
    logdet_s: float
    alpha_f: np.ndarray
    alpha_s: np.ndarray
    same_kernels: bool = False

    def matches(self, m: InducingModel) -> bool:
        return (
            np.array_equal(self.Z, m.Z)
            and same_params(self.drift_params, m.drift_params)
            and same_params(self.diff_params, m.diff_params)
            and np.array_equal(self.U_f, m.U_f)
            and np.array_equal(self.u_sigma, m.u_sigma)
        )


def _checked(m: InducingModel, c: FieldCache):
    if not c.matches(m):
        raise InternalError("field cache does not correspond to the supplied model; rebuild it")


def _factor(K: np.ndarray, what: str) -> tuple:
    try:
        return scipy.linalg.cho_factor(K, lower=True)
    except scipy.linalg.LinAlgError as exc:
        cond = np.linalg.cond(K)
        raise NumericalError(
            f"{what} Gram matrix is not positive definite after jitter "
            f"(condition number {cond:.3e})"
        ) from exc


def build_cache(m: InducingModel, jitter_scale: float = JITTER_SCALE) -> FieldCache:
    """Factorize the (jittered) Gram matrices of a model and precompute the
    products used by field evaluation and its derivatives."""
    M = m.M
    Kf = rbf_matrix(m.Z, m.Z, m.drift_params)
    Kf[np.diag_indices(M)] += jitter_scale * m.drift_params.variance
    chol_f = _factor(Kf, "drift")
    Ks = rbf_matrix(m.Z, m.Z, m.diff_params)
    Ks[np.diag_indices(M)] += jitter_scale * m.diff_params.variance
    chol_s = _factor(Ks, "diffusion")

    return FieldCache(
        Z=m.Z,
        drift_params=m.drift_params,
        diff_params=m.diff_params,
        U_f=m.U_f,
        u_sigma=m.u_sigma,
        jitter_scale=float(jitter_scale),
        chol_f=chol_f,
        chol_s=chol_s,
        # the D drift columns share K_f, so their joint covariance has D x its logdet
        logdet_f=float(2.0 * m.D * np.sum(np.log(np.diag(chol_f[0])))),
        logdet_s=float(2.0 * np.sum(np.log(np.diag(chol_s[0])))),
        alpha_f=scipy.linalg.cho_solve(chol_f, m.U_f),
        alpha_s=scipy.linalg.cho_solve(chol_s, m.u_sigma),
        same_kernels=same_params(m.drift_params, m.diff_params),
    )


def update_values(c: FieldCache, m: InducingModel, U_f=None, u_sigma=None,
                  noise_vars=None) -> tuple[InducingModel, FieldCache]:
    """New (model, cache) pair with replaced inducing values, reusing the
    existing factorizations. Z and the kernel parameters stay fixed."""
    _checked(m, c)
    m2 = m.with_values(U_f=U_f, u_sigma=u_sigma, noise_vars=noise_vars)
    alpha_f = scipy.linalg.cho_solve(c.chol_f, m2.U_f) if U_f is not None else c.alpha_f
    alpha_s = scipy.linalg.cho_solve(c.chol_s, m2.u_sigma) if u_sigma is not None else c.alpha_s
    c2 = replace(c, U_f=m2.U_f, u_sigma=m2.u_sigma, alpha_f=alpha_f, alpha_s=alpha_s)
    return m2, c2


# -- field evaluation ---------------------------------------------------------

def drift_batch(X: np.ndarray, c: FieldCache) -> np.ndarray:
    """Drift vectors at stacked states, shape (N, D)."""
    return rbf_matrix(X, c.Z, c.drift_params) @ c.alpha_f


def diffusion_batch(X: np.ndarray, c: FieldCache) -> np.ndarray:
    """Signed diffusion values at stacked states, shape (N,)."""
    return rbf_matrix(X, c.Z, c.diff_params) @ c.alpha_s


def drift_diffusion_batch(X: np.ndarray, c: FieldCache) -> tuple[np.ndarray, np.ndarray]:
    """Both fields at once, sharing work between the two kernels."""
    diff = X[:, None, :] - c.Z
    df = diff / c.drift_params.lengthscales
    kf = c.drift_params.variance * np.exp(-0.5 * np.sum(df * df, axis=-1))
    if c.same_kernels:
        ks = kf
    else:
        ds = diff / c.diff_params.lengthscales
        ks = c.diff_params.variance * np.exp(-0.5 * np.sum(ds * ds, axis=-1))
    return kf @ c.alpha_f, ks @ c.alpha_s


def drift_at(x, m: InducingModel, c: FieldCache) -> np.ndarray:
    _checked(m, c)
    x = _as_state(x, m.D)
    return drift_batch(x[None, :], c)[0]


def diffusion_at(x, m: InducingModel, c: FieldCache) -> float:
    _checked(m, c)
    x = _as_state(x, m.D)
    return float(diffusion_batch(x[None, :], c)[0])


@dataclass(frozen=True, eq=False)
class StepTerms:
    """Per-state quantities one adjoint step needs, batched over N."""

    kf: np.ndarray       # (N, M) drift kernel rows k_f(x, Z)
    ks: np.ndarray       # (N, M) diffusion kernel rows k_s(x, Z)
    jac_x: np.ndarray    # (N, D, D) drift state Jacobian
    diff_gx: np.ndarray  # (N, D) diffusion state gradient


def step_terms_batch(X: np.ndarray, c: FieldCache) -> StepTerms:
    """Evaluate both kernel rows and the fields' state derivatives at once.

    Shares the pairwise differences between the two kernels and keeps all
    contractions as BLAS matmuls; this runs once per step of the adjoint
    sweep.
    """
    diff = X[:, None, :] - c.Z                          # (N, M, D)
    df = diff / c.drift_params.lengthscales
    kf = c.drift_params.variance * np.exp(-0.5 * np.sum(df * df, axis=-1))
    Gf = -kf[:, :, None] * (diff / np.square(c.drift_params.lengthscales))
    if c.same_kernels:
        ks, Gs = kf, Gf
    else:
        ds = diff / c.diff_params.lengthscales
        ks = c.diff_params.variance * np.exp(-0.5 * np.sum(ds * ds, axis=-1))
        Gs = -ks[:, :, None] * (diff / np.square(c.diff_params.lengthscales))
    return StepTerms(
        kf=kf,
        ks=ks,
        jac_x=c.alpha_f.T @ Gf,                         # (N, D, D)
        diff_gx=Gs.transpose(0, 2, 1) @ c.alpha_s,      # (N, D)
    )


# -- log prior ----------------------------------------------------------------

def log_prior(m: InducingModel, c: FieldCache) -> float:
    """Log density of u_f and u_sigma under their zero-mean Gaussian priors
    with (jittered) Gram covariances; the D drift columns are i.i.d."""
    _checked(m, c)
    quad_f = float(m.u_f @ c.alpha_f.ravel())
    quad_s = float(m.u_sigma @ c.alpha_s)
    n_f = m.M * m.D
    n_s = m.M
    return (
        -0.5 * (quad_f + c.logdet_f + n_f * math.log(2.0 * math.pi))
        - 0.5 * (quad_s + c.logdet_s + n_s * math.log(2.0 * math.pi))
    )


def log_prior_grad(m: InducingModel, c: FieldCache) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`log_prior` w.r.t. u_f and u_sigma."""
    _checked(m, c)
    return -c.alpha_f.ravel(), -c.alpha_s
