#!/usr/bin/env python3
"""Memory and wall time of ``gpsde simulate`` and ``gpsde evaluate``.

    PYTHONPATH=src python3 studies/simulate_memory.py [--repeats 3] [--sizes vdp,2000x1000]

On the fixed Van der Pol model of the benchmark's ``vdp_simulate_evaluate``
workload (inducing values the true fields on a 15 x 15 grid over [-3, 3]^2,
lengthscale 0.6) it writes that workload's data set, then runs each command
through ``gpsde.cli.main`` in this process and on one BLAS thread, at two
sizes: ``vdp`` (the workload's: simulate 500 paths x 100 steps with an
81 x 81 density grid, evaluate 300 paths x 50 steps on a 41 x 41 grid) and
``2000x1000`` (simulate 2000 paths x 1000 steps on the same density grid,
evaluate 2000 paths x 1000 steps).  Per command it reports

- ``peak_mb``: the tracemalloc peak of one call, after an untraced warm-up
  call;
- ``maxrss_mb``: the peak resident memory of a child forked to run the
  command once, as ``wait4`` reports it (the way ``bench/worker.py``
  measures the benchmark's ``peak_rss_mb``), forked before any command
  runs in this process;
- ``wall_s``: the median untraced wall time over ``--repeats`` calls.

It prints one JSON line per size.  The outputs of every call go to a
temporary directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

os.environ.setdefault("GPSDE_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from gpsde import cli, dataio, systems  # noqa: E402
from gpsde.field import InducingModel  # noqa: E402
from gpsde.kernels import KernelParams  # noqa: E402

DENSITY = "--density-grid=-5:5:81,-6:6:81"
SIZES = {
    "vdp": dict(simulate=["--horizon=1", "--dt=0.01", "--n-paths=500", DENSITY],
                evaluate=["--box=-3:3,-3:3", "--n-grid=41", "--horizon=0.5",
                          "--n-paths=300"]),
    "2000x1000": dict(simulate=["--horizon=10", "--dt=0.01", "--n-paths=2000", DENSITY],
                      evaluate=["--box=-3:3,-3:3", "--n-grid=41", "--horizon=10",
                                "--n-paths=2000"]),
}
X0 = "0.5,-0.5"


def inputs(work: Path, seed: int) -> dict:
    """The workload's fixed model and data set."""
    true = systems.van_der_pol()
    axes = [np.linspace(-3.0, 3.0, 15)] * 2
    Z = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    params = KernelParams(1.0, np.full(2, 0.6))
    model = InducingModel(Z=Z, U_f=true.drift_fn(Z), u_sigma=true.diffusion_fn(Z),
                          drift_params=params, diff_params=params,
                          noise_vars=np.full(2, 0.01))
    dataio.save_model(work / "model.json", model)
    spec = systems.GenSpec(n_traj=8, n_obs_per_traj=50, gen_dt=0.01, subsample_every=50,
                           noise_std=0.1, x0_box=np.array([[-2.0, 2.0]] * 2), seed=seed)
    dataio.write_dataset(work / "data", systems.generate(true, spec))
    return {"simulate": ["simulate", "--model", str(work / "model.json"), f"--x0={X0}",
                         "--seed", str(seed)],
            "evaluate": ["evaluate", "--model", str(work / "model.json"),
                         "--system", "van-der-pol", "--data-dir", str(work / "data"),
                         f"--x0={X0}", "--seed", str(seed)]}


def run(argv: list) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv[0]} exited {rc}")


def forked_maxrss_mb(argv: list) -> float:
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            run(argv)
            code = 0
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"forked {argv[0]} failed")
    return usage.ru_maxrss / 1024.0


def probe(argv: list, repeats: int) -> dict:
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run(argv)
        walls.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"peak_mb": round(peak / 1e6, 3), "wall_s": round(statistics.median(walls), 4)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=3, help="untraced calls timed per command")
    ap.add_argument("--seed", type=int, default=0, help="data and increment seed")
    ap.add_argument("--sizes", default=",".join(SIZES),
                    help=f"comma list of sizes to run, from {', '.join(SIZES)}")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="simulate_memory.") as tmp:
        work = Path(tmp)
        base = inputs(work, args.seed)
        argvs = {size: {cmd: [*base[cmd], *flags, "--out-dir", str(work / cmd)]
                        for cmd, flags in SIZES[size].items()}
                 for size in args.sizes.split(",")}
        # every child forks before any in-process run grows this process
        maxrss = {size: {cmd: forked_maxrss_mb(argv) for cmd, argv in cmds.items()}
                  for size, cmds in argvs.items()}
        for size, cmds in argvs.items():
            out = {"size": size, "repeats": args.repeats}
            for cmd, argv in cmds.items():
                out[cmd] = {**probe(argv, args.repeats), "maxrss_mb": round(maxrss[size][cmd], 2)}
            print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
