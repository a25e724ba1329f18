"""The benchmark's smoke check at tiny sizes.

It fails when a function the benchmark traces (``bench/tracer.py``) is
renamed or no longer called, so such a change shows in the unit suite and
not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_check_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
