#!/usr/bin/env python3
"""Minor page faults and wall time of one objective evaluation.

    PYTHONPATH=src python3 studies/eval_faults.py [--repeats 20] [--fresh-draw] [--fork]

At the sizes of the benchmark's two fit workloads (``dw1d_fit``: double
well, 6 x 250 observations, M=15, S=50, one step per interval;
``osc2d_m225_fit``: oscillator, 10 x 25 observations, a 15 x 15 grid, S=20,
two steps per interval) and at ``mixed_lengths`` (``dw1d_fit``'s settings
on 12 double-well trajectories cut to 117, 129, ..., 250 observations,
evenly spaced lengths whose segments take 10 shapes) it generates one
dataset, builds the fit's starting model and evaluates the frozen-noise
objective there, in this process and on one BLAS thread, the way a fit
does: each evaluation on a new (model, cache) pair from ``update_values``,
all on one frozen draw from ``objective.draw_increments``, or with
``--fresh-draw`` each on a new draw of the same seed, made outside the
timed call.  After three warm-up evaluations it prints one JSON line per
size with the median, minimum and maximum of the minor page faults
(``getrusage``) and of the wall time per evaluation.  The line also gives
the footprint of a first evaluation: after the timed ones, a new draw of
the same seed is evaluated once under ``tracemalloc``, and ``first_eval``
holds that call's traced peak and the bytes of the buffers the draw then
keeps (``traced_peak_b``, ``kept_b``), so that the peak less the kept
bytes is what the evaluation allocated besides them.  With ``--fork`` each
size runs in a child forked from this process after gpsde is imported, as
``bench/worker.py`` runs each benchmark command, so that its evaluations
start from the heap of a fresh command rather than from the sizes before it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback

os.environ.setdefault("GPSDE_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from gpsde import objective, systems  # noqa: E402
from gpsde.field import InducingModel, build_cache, update_values  # noqa: E402
from gpsde.fit import build_inducing_grid, gradient_match_init  # noqa: E402
from gpsde.kernels import KernelParams  # noqa: E402
from gpsde.sim import child_seed  # noqa: E402

SIZES = {
    "dw1d_fit": dict(
        system="double-well", n_traj=6, n_obs=250, subsample=10, box=[[-2.0, 2.0]],
        inducing=[(-5.0, 5.0, 15)], lengthscale=1.0, variance=100.0, S=50, factor=1),
    "osc2d_m225_fit": dict(
        system="oscillator", n_traj=10, n_obs=25, subsample=50, box=[[-2.0, 2.0]] * 2,
        inducing=[(-1.8, 1.8, 15)] * 2, lengthscale=0.5, variance=1.0, S=20, factor=2),
    "mixed_lengths": dict(
        system="double-well", n_traj=12, n_obs=250, subsample=10, box=[[-2.0, 2.0]],
        inducing=[(-5.0, 5.0, 15)], lengthscale=1.0, variance=100.0, S=50, factor=1,
        lengths=np.linspace(117, 250, 12).round().astype(int).tolist()),
}
WARMUP = 3


def problem(size: dict, seed: int):
    """Data, grids, the draw's arguments and the fit's starting (model, cache)."""
    spec = systems.GenSpec(n_traj=size["n_traj"], n_obs_per_traj=size["n_obs"],
                           gen_dt=0.01, subsample_every=size["subsample"], noise_std=0.1,
                           x0_box=np.array(size["box"]), seed=seed)
    data = systems.generate(systems.SYSTEMS[size["system"]](), spec)
    if "lengths" in size:
        data = [objective.Trajectory(tr.times[:n], tr.obs[:n])
                for tr, n in zip(data, size["lengths"])]
    D = data[0].dim
    Z = build_inducing_grid(size["inducing"], data)
    p = KernelParams(size["variance"], np.full(D, size["lengthscale"]))
    noise = np.full(D, 0.01)
    m = InducingModel(Z=Z, U_f=np.zeros((len(Z), D)), u_sigma=np.zeros(len(Z)),
                      drift_params=p, diff_params=p, noise_vars=noise)
    c = build_cache(m)
    U_f, u_sigma = gradient_match_init(data, c, noise_vars=noise)
    m, c = update_values(c, m, U_f=U_f, u_sigma=u_sigma)
    grids = objective.make_grids(data, size["factor"])
    return data, grids, (data, grids, m, size["S"], child_seed(seed, 0)), m, c


def probe(size: dict, repeats: int, seed: int, fresh_draw: bool) -> dict:
    data, grids, draw_args, m, c = problem(size, seed)
    draw = objective.draw_increments(*draw_args)
    faults, walls = [], []
    for k in range(WARMUP + repeats):
        m, c = update_values(c, m, U_f=m.U_f)
        if fresh_draw:
            draw = objective.draw_increments(*draw_args)
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        objective.evaluate_with_increments(data, m, c, grids, draw)
        wall = time.perf_counter() - t0
        f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if k >= WARMUP:
            faults.append(f1 - f0)
            walls.append(wall)
    draw = objective.draw_increments(*draw_args)
    tracemalloc.start()
    try:
        objective.evaluate_with_increments(data, m, c, grids, draw)
        first_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "minor_faults": {"median": statistics.median(faults), "min": min(faults),
                         "max": max(faults)},
        "wall_ms": {"median": round(1e3 * statistics.median(walls), 3),
                    "min": round(1e3 * min(walls), 3), "max": round(1e3 * max(walls), 3)},
        "first_eval": {"traced_peak_b": first_peak, "kept_b": draw.buffers.nbytes},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=20, help="evaluations measured per size")
    ap.add_argument("--seed", type=int, default=1, help="data and increment seed")
    ap.add_argument("--fresh-draw", action="store_true",
                    help="evaluate each time on a new draw of the same seed")
    ap.add_argument("--fork", action="store_true",
                    help="run each size in a child forked from this process")
    args = ap.parse_args()

    def report(name, size):
        out = probe(size, args.repeats, args.seed, args.fresh_draw)
        print(json.dumps({"size": name, "workspace": not args.fresh_draw,
                          "forked": args.fork, "repeats": args.repeats, **out}), flush=True)

    for name, size in SIZES.items():
        if not args.fork:
            report(name, size)
            continue
        pid = os.fork()
        if pid == 0:
            # the child must never return into this loop, whatever happens
            code = 0
            try:
                report(name, size)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                sys.stderr.flush()
                os._exit(code)
        if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
