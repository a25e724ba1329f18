"""Suite-wide settings.

The suite's arrays are small (hundreds to a few thousand rows), so extra
BLAS threads only contend for the cores: on a 2-vCPU machine the
criterion-4 fit took 201 s with OpenBLAS's default thread count and 109 s
with one thread.  The suite therefore runs on one BLAS thread unless
GPSDE_NUM_THREADS says otherwise.  Importing gpsde applies the setting, and
it has to happen here, before any test module imports numpy.
"""

import os
import tracemalloc

import pytest

os.environ.setdefault("GPSDE_NUM_THREADS", "1")

import gpsde  # noqa: E402, F401


@pytest.fixture
def traced_peak():
    """Peak bytes allocated during a call of fn, after an untraced warm-up
    call, as tracemalloc sees them."""
    def peak(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
