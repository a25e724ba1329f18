"""Suite-wide settings.

The suite's arrays are small (hundreds to a few thousand rows), so extra
BLAS threads only contend for the cores: on a 2-vCPU machine the
criterion-4 fit took 201 s with OpenBLAS's default thread count and 109 s
with one thread.  The suite therefore runs on one BLAS thread unless
GPSDE_NUM_THREADS says otherwise.  Importing gpsde applies the setting, and
it has to happen here, before any test module imports numpy.
"""

import os

os.environ.setdefault("GPSDE_NUM_THREADS", "1")

import gpsde  # noqa: E402, F401
