"""Nonparametric SDE drift and diffusion learning with inducing-point
Gaussian process fields.

The model simulates path distributions from interpolated drift and
diffusion fields, scores them with a Monte Carlo likelihood, and fits the
inducing values by MAP gradient ascent, with gradients from an exact
adjoint sweep of the simulated paths.

Set GPSDE_NUM_THREADS to pin the BLAS thread count; it takes effect when
this package is imported before numpy.
"""

import os


def _apply_thread_env():
    n = os.environ.get("GPSDE_NUM_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, n)


_apply_thread_env()

# the imports below load numpy, so they follow the thread settings

from .errors import (  # noqa: E402
    DataError,
    FitError,
    GpsdeError,
    InputError,
    InternalError,
    NumericalError,
    SensitivityError,
    SimulationError,
)
from .kernels import KernelParams, gram, gram_blocked, rbf  # noqa: E402
from .field import (  # noqa: E402
    FieldCache,
    InducingModel,
    build_cache,
    diffusion_at,
    drift_at,
    log_prior,
    log_prior_grad,
    update_values,
)
from .sim import (  # noqa: E402
    PathBundle,
    SimConfig,
    TimeGrid,
    build_grid,
    sample_increments,
    sample_paths,
    state_density,
)
from .objective import (  # noqa: E402
    ObjectiveValue,
    Trajectory,
    log_posterior,
    mc_loglik_grad,
)
from .fit import (  # noqa: E402
    FitConfig,
    FitReport,
    build_inducing_grid,
    default_lengthscale_grid,
    fit_map,
    gradient_match_init,
)
from .systems import (  # noqa: E402
    GenSpec,
    ParametricSystem,
    distribution_discrepancy,
    diffusion_error,
    double_well,
    drift_error,
    energy_distance,
    generate,
    kde_l2_distance,
    oscillator_hotspot,
    van_der_pol,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "FitError",
    "GpsdeError",
    "InputError",
    "InternalError",
    "NumericalError",
    "SensitivityError",
    "SimulationError",
    "KernelParams",
    "gram",
    "gram_blocked",
    "rbf",
    "FieldCache",
    "InducingModel",
    "build_cache",
    "diffusion_at",
    "drift_at",
    "log_prior",
    "log_prior_grad",
    "update_values",
    "PathBundle",
    "SimConfig",
    "TimeGrid",
    "build_grid",
    "sample_increments",
    "sample_paths",
    "state_density",
    "ObjectiveValue",
    "Trajectory",
    "log_posterior",
    "mc_loglik_grad",
    "FitConfig",
    "FitReport",
    "build_inducing_grid",
    "default_lengthscale_grid",
    "fit_map",
    "gradient_match_init",
    "GenSpec",
    "ParametricSystem",
    "distribution_discrepancy",
    "diffusion_error",
    "double_well",
    "drift_error",
    "energy_distance",
    "generate",
    "kde_l2_distance",
    "oscillator_hotspot",
    "van_der_pol",
    "__version__",
]
