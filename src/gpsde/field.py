"""Inducing-point drift and diffusion fields.

The drift vector field interpolates M inducing vectors U_f attached to
locations Z, each of its D outputs an independent GP with the same kernel,

    f(x) = k_f(x, Z) K_f(Z, Z)^{-1} U_f,

and the scalar diffusion does the same with its own kernel and values
u_sigma.  Both revert to zero away from the inducing locations (zero-mean
prior).  A :class:`FieldCache` holds the model it was built from together
with each kernel's prior factors and the interpolation weights shared by
every evaluation, so the model's values have one owner.  Build one with
:func:`build_cache`; :func:`update_values` is the one way to replace the
inducing values or noise; its new model and cache keep Z and the prior.

Z is always a Cartesian grid of per-axis coordinates a_d (every 1-d Z is
the one-axis grid of its own points), as ``gpsde fit`` places it, so a
kernel row is a product of one factor per axis,

    k(x, z_m) = variance * prod_d exp(-(x_d - a_d[i_d(m)])^2 / (2 l_d^2)),

and the rows at N states cost N * sum_d n_d exponentials instead of N * M.
They are kept as those per-axis factors, never as (N, M) arrays;
:func:`rows_matmul` and :func:`rows_t_matmul` contract them with weights
one axis at a time.  The Gram matrix K(Z, Z) factorises the same way, into
the Kronecker product of the per-axis Gram matrices, so one
eigendecomposition per axis gives its jittered form as Q diag(lam) Q^T
with Q the Kronecker product of the per-axis eigenvector matrices.  No
M x M matrix is formed: every product with a power of K (the
interpolation weights, :func:`gram_solve`, the fit's whitening
:func:`gram_root` and the log-determinant in :func:`log_prior`) applies Q
one axis at a time.  The adjoint sweep's products with the rows live here
too (:func:`rows_t_products`), so which rows are kept, when the kernels
share them and how K is factored are decided in this module alone.

Evaluation functions are pure, apart from writing the rows into a buffer
the caller passes, and safe to call concurrently; models and caches are
immutable after construction.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import InitVar, dataclass, replace

import numpy as np

from .errors import InputError, InternalError
from .kernels import JITTER_SCALE, KernelParams, as_points, gram, same_params
# not used here: bench/tracer.py wraps gpsde.field.gram_blocked and
# gpsde.field.rbf_matrix by name
from .kernels import gram_blocked, rbf_matrix  # noqa: F401


def _frozen_array(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class InducingModel:
    """State of the learnable SDE field model.

    Z          -- (M, D) inducing locations: the distinct points of a
                  Cartesian grid of finite per-axis coordinates, in
                  grid_points order (the last axis varies fastest)
    U_f        -- (M, D) finite drift inducing vectors (row m belongs to Z_m)
    u_sigma    -- (M,) finite diffusion inducing values
    drift_params, diff_params -- kernel hyperparameters
    noise_vars -- (D,) positive finite diagonal observation noise variances
    A          -- optional, construction only: the drift outputs are
                  independent, so a dependency matrix must be the identity
    axes       -- derived, not an init field: the per-axis coordinates
                  of Z's grid, one (n_d,) array per axis

    Construction and :func:`update_values` check every value.
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
        if not np.all(np.isfinite(Z)):
            raise InputError("inducing locations Z must be finite")
        if self.drift_params.dim != D or self.diff_params.dim != D:
            raise InputError("kernel lengthscales must match state dimension")
        if A is not None and not np.array_equal(np.asarray(A, dtype=float), np.eye(D)):
            raise InputError(f"dependency matrix A must be the {D}x{D} identity: "
                             "the drift outputs are independent")
        Z = _frozen_array(Z)
        axes = _grid_axes(Z)
        if axes is None:
            raise InputError("inducing locations Z must be the distinct points of a "
                             "Cartesian grid in grid_points order (last axis fastest)")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "axes", axes)
        self._set_values(self.U_f, self.u_sigma, self.noise_vars)

    def _set_values(self, U_f, u_sigma, noise_vars):
        """Check and store the values; update_values calls it on a copy."""
        M, D = self.Z.shape
        U_f = np.asarray(U_f, dtype=float)
        if U_f.shape != (M, D):
            raise InputError(f"U_f must be {(M, D)}, got {U_f.shape}")
        u_sigma = np.asarray(u_sigma, dtype=float).ravel()
        if u_sigma.shape != (M,):
            raise InputError(f"u_sigma must have length {M}")
        if not (np.all(np.isfinite(U_f)) and np.all(np.isfinite(u_sigma))):
            raise InputError("U_f and u_sigma must be finite")
        noise_vars = np.asarray(noise_vars, dtype=float).ravel()
        if noise_vars.shape != (D,) or np.any(noise_vars <= 0) or not np.all(np.isfinite(noise_vars)):
            raise InputError("noise_vars must be D positive finite reals")
        for name, val in (("U_f", U_f), ("u_sigma", u_sigma), ("noise_vars", noise_vars)):
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


@dataclass(frozen=True, eq=False)
class FieldCache:
    """Prior factors and interpolation weights (derived, not init fields)
    of the model they were built from.

    model is that InducingModel, the one owner of Z, the kernel parameters
    and the inducing values; a cache pairs only with it.  prior_f and
    prior_s are the :func:`_grid_prior` factors (Q_1, ..., Q_D, lam) of
    the jittered Gram matrices K_f(Z,Z) and K_s(Z,Z) (prior_s is prior_f
    when the two kernels are equal), and alpha_f = K_f^{-1} U_f, shape
    (M, D), and alpha_s = K_s^{-1} u_sigma are the interpolation weights:
    the fields at N states are the kernel rows k(X, Z) times them.

    weights holds every weight the fields and their state derivatives
    contract the rows with, as rows of one (D*D + 2D + 1, M) array:
    alpha_f[m, d] z_me (D*D rows), alpha_f^T (D), alpha_s (1) and
    alpha_s[m] z_m^T (D).  In that order each set one contraction needs is
    a contiguous block.

    row_maps holds what :func:`_rows` needs of each kernel beyond the
    states, one entry for equal kernels, else the drift's and the
    diffusion's.
    """

    model: InducingModel
    prior_f: tuple
    prior_s: tuple
    row_maps: tuple

    def __post_init__(self):
        (M, D), Z = self.model.Z.shape, self.model.Z
        af = _prior_matmul(self.prior_f, self.model.U_f, -1.0)
        a_s = _prior_matmul(self.prior_s, self.model.u_sigma, -1.0)
        weights = np.concatenate([(af[:, :, None] * Z[:, None, :]).reshape(M, D * D).T,
                                  af.T, a_s[None], (a_s[:, None] * Z).T])
        for name, val in (("alpha_f", af), ("alpha_s", a_s), ("weights", weights)):
            object.__setattr__(self, name, val)


def _checked(m: InducingModel, c: FieldCache):
    if c.model is not m:
        raise InternalError("field cache was built from a different model; rebuild it")


def build_cache(m: InducingModel) -> FieldCache:
    """Factor the (jittered) Gram matrices of a model and precompute the
    products used by field evaluation and its derivatives."""
    prior_f = _grid_prior(m.axes, m.drift_params)
    same = same_params(m.drift_params, m.diff_params)
    # equal kernels share one factorization
    prior_s = prior_f if same else _grid_prior(m.axes, m.diff_params)
    kernels = (m.drift_params,) if same else (m.drift_params, m.diff_params)
    return FieldCache(model=m, prior_f=prior_f, prior_s=prior_s,
                      row_maps=tuple(_row_map(m.axes, p) for p in kernels))


def _grid_prior(axes: tuple, p: KernelParams) -> tuple:
    """The factors (Q_1, ..., Q_D, lam) of kernel p's jittered Gram matrix
    on the grid of axes, in grid_points order:

        K(Z, Z) + variance * JITTER_SCALE * I = Q diag(lam) Q^T,

    with Q the Kronecker product of the Q_d, from the eigendecomposition
    Q_d diag(lam_d) Q_d^T of axis d's unit-variance Gram matrix (which
    squares exact differences), and lam = variance * (kron_d lam_d +
    JITTER_SCALE).  Rounding-negative lam_d are clipped at 0, so every lam
    is at least variance * JITTER_SCALE."""
    Qs, lams = [], []
    for a, l in zip(axes, p.lengthscales):
        lam_d, Q_d = np.linalg.eigh(gram(a[:, None], a[:, None], KernelParams(1.0, [l])))
        Qs.append(Q_d)
        lams.append(np.maximum(lam_d, 0.0))
    return (*Qs, p.variance * (functools.reduce(np.multiply.outer, lams).ravel() + JITTER_SCALE))


def _kron_matmul(Qs, B: np.ndarray) -> np.ndarray:
    """Q B for Q the Kronecker product of the per-axis square matrices Qs
    and B of shape (M, C) or (M,) in grid_points order: one stacked product
    per axis d over B viewed as (n_<d, n_d, rest), no transposed copy; a
    rest of 1 takes (n_<d, n_d) @ Q_d^T, a matrix product as the others."""
    X, lead = B, 1
    for Q in Qs:
        X = X.reshape(lead, Q.shape[0], -1)
        X = X[:, :, 0] @ Q.T if X.shape[2] == 1 else np.matmul(Q, X)
        lead *= Q.shape[0]
    return X.reshape(B.shape)


def _prior_matmul(prior: tuple, B: np.ndarray, power: float) -> np.ndarray:
    """K^power B for the :func:`_grid_prior` factors of a jittered Gram
    matrix K = Q diag(lam) Q^T and B of shape (M, C) or (M,)."""
    *Qs, lam = prior
    W = _kron_matmul([Q.T for Q in Qs], B)
    return _kron_matmul(Qs, (lam ** power * W.T).T)


def gram_root(c: FieldCache, B: np.ndarray, inverse=False) -> np.ndarray:
    """K_f^{1/2} B, or K_f^{-1/2} B when inverse, with the symmetric root
    of the jittered drift Gram matrix, for B of shape (M, C) or (M,): the
    whitening of the fit's inducing values."""
    return _prior_matmul(c.prior_f, B, -0.5 if inverse else 0.5)


def _grid_axes(Z: np.ndarray):
    """The per-axis coordinates of a non-empty Z when Z is the Cartesian
    grid of distinct coordinates with the last axis varying fastest, else
    None; a 1-d Z of distinct points gives (Z[:, 0],).  A grid that equals
    Z has n_d distinct coordinates on axis d, so its points are distinct."""
    M, D = Z.shape
    sizes = [np.unique(Z[:, d]).size for d in range(D)]
    if math.prod(sizes) != M:
        return None
    # axis d repeats every prod(sizes[d+1:]) points; its first run holds its coordinates
    strides = M // np.cumprod(sizes)
    axes = tuple(Z[::s, d][:n] for d, (s, n) in enumerate(zip(strides, sizes)))
    return axes if np.array_equal(grid_points(axes), Z) else None


def grid_points(axes) -> np.ndarray:
    """Points (P, D) of the Cartesian grid on D 1-d axes, the last axis
    varying fastest: the order of an inducing grid Z."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def update_values(c: FieldCache, m: InducingModel, U_f=None, u_sigma=None,
                  noise_vars=None) -> tuple[InducingModel, FieldCache]:
    """New (model, cache) pair with replaced inducing values or noise: a copy
    of m with the given values checked, and c with its prior and new weights."""
    _checked(m, c)
    m2 = copy.copy(m)
    m2._set_values(m.U_f if U_f is None else U_f, m.u_sigma if u_sigma is None else u_sigma,
                   m.noise_vars if noise_vars is None else noise_vars)
    return m2, replace(c, model=m2)


# -- field evaluation ---------------------------------------------------------

def _factors(E: np.ndarray, axes: tuple) -> tuple:
    """The per-axis factors held in the consecutive row blocks of E."""
    factors, start = [], 0
    for a in axes:
        factors.append(E[start:start + a.size])
        start += a.size
    return tuple(factors)


def _row_map(axes: tuple, p: KernelParams) -> tuple:
    """The matrix A = [e_d, -a_d s_d] (sum n_d, D+1), the scales s (D, 1)
    and the log variance with which :func:`_rows` forms kernel p's rows."""
    s = math.sqrt(0.5) / p.lengthscales
    D = len(axes)
    A = np.zeros((sum(a.size for a in axes), D + 1))
    start = 0
    for d, a in enumerate(axes):
        A[start:start + a.size, d] = 1.0
        A[start:start + a.size, D] = a * -s[d]
        start += a.size
    return A, s[:, None], math.log(p.variance)


def _rows(X: np.ndarray, row_map: tuple, axes: tuple, out=None):
    """Kernel rows k(X, Z) of a kernel on the grid of the 1-d coordinate
    arrays axes, as a tuple of per-axis factors E_d, each (n_d, N) so that
    their elementwise work runs along the states, with
    k(x_n, z_m) = prod_d E_d[i_d(m), n], all from one exp.  The factors
    are consecutive row blocks of one (sum n_d, N) array, out if given.

    Factor d is exp(-(x_d s_d - a_d s_d)^2) with s_d = sqrt(1/2) / l_d, the
    halving folded into the scale, and the first factor carries the
    variance as log variance in its exponent.  The differences come from
    one (sum n_d, D+1) @ (D+1, N) product of the kernel's
    :func:`_row_map` A with [x s; 1]: each entry sums two exact products
    and zeros, so it rounds as the subtraction would, and the product is
    faster than numpy's broadcast subtraction."""
    A, s, log_var = row_map
    B = np.ones((len(s) + 1, len(X)))
    np.multiply(X.T, s, out=B[:-1])
    E = np.matmul(A, B, out=out)
    E *= E
    first, rest = E[:axes[0].size], E[axes[0].size:]
    np.subtract(log_var, first, out=first)
    np.negative(rest, out=rest)
    return _factors(np.exp(E, out=E), axes)


def rows_matmul(k, W: np.ndarray) -> np.ndarray:
    """k(X, Z) @ W for the per-axis factors k of one kernel's rows
    and W of shape (M, C) or (M,).

    It contracts W's last grid axis with one matrix product, then each
    earlier axis with a dot product per state, so no (N, M) array is
    formed.  The result is the transpose of a C-ordered (C, N) array."""
    N = k[0].shape[1]
    T = W.T.reshape(-1, k[-1].shape[0]) @ k[-1]      # (C * M / n_D, N)
    for e in k[-2::-1]:
        T = np.einsum("kin,in->kn", T.reshape(-1, e.shape[0], N), e)
    return T.T.reshape(N, *W.shape[1:])


def rows_t_matmul(k, V: np.ndarray) -> np.ndarray:
    """k(X, Z)^T @ V for the per-axis factors k of one kernel's rows
    and V of shape (N, C) or (N,).

    It folds V into the first axis's factor and meets the state-wise
    products of the other axes' factors in one matrix product; a single
    factor is one matrix product."""
    if len(k) == 1:
        return k[0] @ V
    N = k[0].shape[1]
    VT = np.ascontiguousarray(V.T).reshape(-1, N)
    A = (VT[:, None, :] * k[0]).reshape(-1, N)          # (C * n_1, N)
    R = k[1]
    for e in k[2:]:
        R = (R[:, None, :] * e).reshape(-1, N)
    return (A @ R.T).reshape(len(VT), -1).T.reshape(-1, *V.shape[1:])


def rows_buffer(c: FieldCache, n: int, N: int, empty=np.empty):
    """Room for the kernel rows at n sets of N states, shape
    (n, kernels, sum n_d, N): one slice per set for :func:`step_terms_batch`
    to fill and :func:`rows_t_products` to read, with one kernel's factors
    when the kernels are equal, else the drift's then the diffusion's.
    empty makes the array from its shape, so a caller may hand out a kept
    one.  None for a 1-d Z, whose rows are M dense floats per state: they
    are formed again rather than kept."""
    axes = c.model.axes
    if len(axes) < 2:
        return None
    return empty((n, len(c.row_maps), sum(a.size for a in axes), N))


def _kernel_rows(X: np.ndarray, c: FieldCache, out=None) -> list:
    """The rows of each kernel at X, one entry when the kernels are equal,
    else the drift's then the diffusion's; out, one slice of a
    :func:`rows_buffer`, receives them."""
    return [_rows(X, rm, c.model.axes, None if out is None else out[k])
            for k, rm in enumerate(c.row_maps)]


def rows_t_products(X: np.ndarray, c: FieldCache, V: np.ndarray, kept=None) -> np.ndarray:
    """The (M, D+1) products [k_f(X)^T V[:D]^T | k_s(X)^T V[D]] for V of
    shape (D+1, N), one product when the kernels are equal.  kept, one
    slice of a :func:`rows_buffer`, holds the rows :func:`step_terms_batch`
    formed at X; without it the rows are formed again."""
    rows = _kernel_rows(X, c) if kept is None else [_factors(E, c.model.axes) for E in kept]
    if len(rows) == 1:
        return rows_t_matmul(rows[0], V.T)
    return np.column_stack([rows_t_matmul(rows[0], V[:-1].T),
                            rows_t_matmul(rows[1], V[-1])])


def gram_solve(c: FieldCache, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_f^{-1} G[:, :D], raveled to the order of u_f, and K_s^{-1} G[:, D]
    for G of shape (M, D+1), with the jittered Gram matrices."""
    D = c.model.D
    return (_prior_matmul(c.prior_f, G[:, :D], -1.0).ravel(),
            _prior_matmul(c.prior_s, G[:, D], -1.0))


def _products(rows: list, c: FieldCache, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of c.weights times the :func:`_kernel_rows` rows, shape
    (hi - lo, N): the drift rows (before alpha_s) with the drift kernel's,
    the others with the diffusion kernel's.

    Each kernel's weights are one block of c.weights, so each kernel's
    factors take one contraction, and shared factors one for both kernels;
    the transpose of :func:`rows_matmul`'s result is C-ordered."""
    if len(rows) == 1:
        return rows_matmul(rows[0], c.weights[lo:hi].T).T
    s = c.model.D * (c.model.D + 1)                 # row of alpha_s in c.weights
    return np.concatenate([rows_matmul(rows[0], c.weights[lo:s].T).T,
                           rows_matmul(rows[1], c.weights[s:hi].T).T])


def drift_diffusion_batch(X: np.ndarray, c: FieldCache) -> tuple[np.ndarray, np.ndarray]:
    """Both fields at once, sharing the kernel rows when the kernels are equal."""
    D = c.model.D
    T = _products(_kernel_rows(X, c), c, D * D, D * D + D + 1)
    return T[:D].T, T[D]


def drift_batch(X: np.ndarray, c: FieldCache) -> np.ndarray:
    """Drift vectors at stacked states, shape (N, D): the drift of
    :func:`drift_diffusion_batch`, from the same contraction, so the two
    agree to the last bit."""
    return drift_diffusion_batch(X, c)[0]


def diffusion_batch(X: np.ndarray, c: FieldCache) -> np.ndarray:
    """Signed diffusion values at stacked states, shape (N,): the diffusion
    of :func:`drift_diffusion_batch`, from the same contraction."""
    return drift_diffusion_batch(X, c)[1]


def step_terms_batch(X: np.ndarray, c: FieldCache, out=None):
    """Everything one Euler-Maruyama step and its adjoint need at N states,
    as the tuple (F, sig, kf, ks, jac, dg): the drift F (N, D) and signed
    diffusion sig (N,) of :func:`drift_diffusion_batch`, the kernel rows
    kf and ks, the drift state Jacobian jac (D, D, N) with
    jac[d, e, n] = d f_d / d x_e at state n, and the diffusion state
    gradient dg (D, N).  out, one slice of a :func:`rows_buffer`, receives
    the rows.

    The rows are per-axis factors; :func:`rows_matmul` and
    :func:`rows_t_matmul` take products with them.  With
    d k(x, z_m) / dx = k(x, z_m) (z_m - x) / l^2, the derivatives are
    products of the rows with the (M, D*D) and (M, D) weights
    alpha_f[m, d] z_me and alpha_s[m] z_m, minus the field value times x:

        J_f(x)[d, e] = (sum_m k_f alpha_f[m, d] z_me - f_d(x) x_e) / l_f,e^2
        grad sigma(x)[e] = (sum_m k_s alpha_s[m] z_me - sigma(x) x_e) / l_s,e^2

    All of them come from one contraction of c.weights, and the states lie
    on the contiguous axis of every (.., N) result.
    """
    N, D = X.shape
    m = c.model
    rows = _kernel_rows(X, c, out)
    T = _products(rows, c, 0, len(c.weights))
    f, s = D * D, D * D + D          # rows of alpha_f^T and alpha_s in c.weights
    F, sig, jac, dg = T[f:s], T[s], T[:f].reshape(D, D, N), T[s + 1:]
    XT = np.ascontiguousarray(X.T)
    jac -= F[:, None, :] * XT
    jac /= np.square(m.drift_params.lengthscales)[:, None]
    dg -= sig * XT
    dg /= np.square(m.diff_params.lengthscales)[:, None]
    return F.T, sig, rows[0], rows[-1], jac, dg


# -- log prior ----------------------------------------------------------------

def log_prior(c: FieldCache) -> float:
    """Log density of the cache model's u_f and u_sigma under their
    zero-mean Gaussian priors with (jittered) Gram covariances; the D drift
    columns are i.i.d., so their joint covariance has D times K_f's
    log-determinant, the sum of log lam."""
    m = c.model
    quad = float(m.u_f @ c.alpha_f.ravel()) + float(m.u_sigma @ c.alpha_s)
    logdet = m.D * np.sum(np.log(c.prior_f[-1])) + np.sum(np.log(c.prior_s[-1]))
    return float(-0.5 * (quad + logdet + (m.D + 1) * m.M * math.log(2.0 * math.pi)))


def log_prior_grad(c: FieldCache) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`log_prior` w.r.t. u_f and u_sigma."""
    return -c.alpha_f.ravel(), -c.alpha_s
