"""Nonparametric SDE drift and diffusion learning with inducing-point
Gaussian process fields.

The model simulates path distributions from interpolated drift and
diffusion fields, scores them with a Monte Carlo likelihood, and fits the
inducing values by MAP gradient ascent, with gradients from an exact
adjoint sweep of the simulated paths.  The package re-exports nothing:
import the submodules (``gpsde.field``, ``gpsde.fit``, ``gpsde.cli``, ...).

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

__version__ = "0.1.0"
