#!/usr/bin/env python3
"""The gpsde benchmark.

One workload, one run:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in its own process, as a table:

    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

A run makes the workload's set-ups from the seed (each timed; their median
is ``setup_s``), then runs the gpsde commands of its inputs one at a time,
in a fixed number of passes over the inputs that ``--seconds`` sets (at
least two passes untraced, one traced).  Every command's outputs are
checked, and after the passes the fit's gradient is checked against
central differences; each command, candidate and check is one operation of
``attempted``, and a failed one counts in ``failed``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a traced run, in which each input runs once untraced
and once traced so the difference gives the tracing overhead.  The lines
before it name every metric with its unit, the failed checks and the
environment (git SHA, source digest, core count, BLAS threads, versions).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# one BLAS thread: the workloads are closed loops of one command, and a
# single thread keeps timings steady on a shared machine
BLAS_THREADS = 1
THREAD_ENV = {var: str(BLAS_THREADS) for var in (
    "GPSDE_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
COMMAND_TIMEOUT_S = 150
# counts derived from array shapes at the call, not measured
FROM_SHAPES = {"sensitivity.stored_mb", "sim.path_steps"}


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _digest(files) -> str:
    h = hashlib.sha256()
    for p in sorted(files):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas_threads_in_effect():
    """Thread count numpy's OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment(seed) -> dict:
    import numpy as np
    import scipy

    def blas_version(mod):
        try:
            return mod.__config__.CONFIG["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError):
            return None

    return {
        "git_sha": _git_sha(),
        "source_sha256": _digest((ROOT / "src" / "gpsde").glob("*.py")),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "seed": seed,
    }


class Operations:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Runner:
    """Sends a workload's commands to a worker fork server, one at a time,
    and checks their outputs."""

    def __init__(self, wl, work: Path, ops: Operations):
        self.wl = wl
        self.work = work
        self.ops = ops
        self.log = work / "worker.log"
        self.server = None
        self.digests = {}

    def _request(self, req: dict):
        """Response of the server to one request, or None after a failure."""
        if self.server is None:
            with open(self.log, "ab") as log:
                self.server = subprocess.Popen(
                    [sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                    env=dict(os.environ, **THREAD_ENV), stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=log, text=True, start_new_session=True)
        try:
            self.server.stdin.write(json.dumps(req) + "\n")
            self.server.stdin.flush()
            ready, _, _ = select.select([self.server.stdout], [], [], COMMAND_TIMEOUT_S)
            line = self.server.stdout.readline() if ready else ""
        except BrokenPipeError:
            line = ""
        if not line:
            self.close(kill=True)
            return None
        return json.loads(line)

    def close(self, kill=False):
        """Stop the server (and, with ``kill``, the command it runs) and wait."""
        if self.server is None:
            return
        if not kill:
            self.server.stdin.close()
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                kill = True
        if kill:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.server.pid, signal.SIGKILL)
            self.server.wait()
        with contextlib.suppress(OSError):
            self.server.stdin.close()
        self.server.stdout.close()
        self.server = None

    def _log_tail(self):
        with contextlib.suppress(OSError):
            sys.stderr.write(self.log.read_text()[-4000:])

    def command(self, cmd, ctx: dict, traced: bool):
        """Run one command; its result, or None if it failed."""
        result = self.work / "result.json"
        resp = self._request({"argv": list(cmd.argv), "traced": traced,
                              "result": str(result)})
        if resp is None or resp["status"] != 0 or not result.exists():
            self._log_tail()
            self.ops.record(f"{cmd.label}: worker answered {resp} within "
                            f"{COMMAND_TIMEOUT_S} s", False)
            return None
        res = json.loads(result.read_text())
        result.unlink()
        res["maxrss_mb"] = resp["maxrss_mb"]
        self.ops.record(f"{cmd.label}: exit code {res['rc']}", res["rc"] == 0)
        if res["rc"] != 0:
            self._log_tail()
            return None
        for what, ok in self.wl.check(cmd, ctx, res):
            self.ops.record(f"{cmd.label}: {what}", ok)
        # reruns of one input must reproduce every output file byte for byte
        digest = _digest(cmd.out_dir.iterdir())
        if cmd.out_dir in self.digests:
            self.ops.record(f"{cmd.label}: rerun output identical",
                            self.digests[cmd.out_dir] == digest)
        else:
            self.digests[cmd.out_dir] = digest
        return res

    def cycle(self, k: int, ctx: dict, traced: bool):
        """All commands of one input; None if any of them failed."""
        results = {}
        for cmd in self.wl.commands(self.work, k, ctx):
            res = self.command(cmd, ctx, traced)
            if res is None:
                return None
            if traced and cmd.label == "fit":
                res["trace"].update(_fit_counts(cmd.out_dir))
            results[cmd.label] = res
        return results


def _fit_counts(out_dir: Path) -> dict:
    report = json.loads((out_dir / "report.json").read_text())
    cands = report["candidates"]
    return {
        "fit.iters": float(sum(c.get("iterations", 0) for c in cands)),
        "fit.candidates_failed": float(sum(c["termination"] == "error" for c in cands)),
    }


def _sum_dicts(dicts) -> dict:
    out = defaultdict(float)
    for d in dicts:
        for key, val in d.items():
            if key.endswith("_max"):
                out[key] = max(out[key], val)
            else:
                out[key] += val
    return out


def _mean_dict(dicts) -> dict:
    total = _sum_dicts(dicts)
    n = max(len(dicts), 1)
    return {k: (v if k.endswith("_max") else v / n) for k, v in total.items()}


_WRITES = ("dataio.write_dataset", "dataio.save_model", "dataio.save_report",
           "dataio.save_metrics", "dataio.write_trace_csv", "dataio.write_paths_csv",
           "dataio.write_density_csv", "dataio.write_manifest")


def layer_metrics(setup: dict, cmd: dict, pairs) -> dict:
    """Per-layer metrics of one cycle: the set-up of one input and its
    commands, averaged over the traced cycles.  Layer self times cover the
    commands only; the worker's root span ``cli.main`` holds every other
    span, so they add up to the traced command time by construction, and
    the self time of ``cli.main`` is the time no module span covers.
    ``pairs`` holds (traced, untraced) command seconds of each input's
    cycles."""
    layer_self = {f"{layer}.self_s" for layer in LAYERS}
    raw = defaultdict(float, cmd)
    for key, val in setup.items():
        if key in layer_self:
            continue
        raw[key] = max(raw[key], val) if key.endswith("_max") else raw[key] + val
    out = dict(raw)
    traced_s = statistics.fmean([t for t, _ in pairs]) if pairs else 0.0
    untraced_s = statistics.fmean([u for _, u in pairs]) if pairs else 0.0
    iters = cmd.get("fit.iters", 0.0)
    out.update({
        "fit.evals_per_iter": cmd.get("objective.evaluate.calls", 0.0) / iters if iters else 0.0,
        "fit.driver_self_s": cmd.get("fit.fit_map.self_s", 0.0),
        "sensitivity.stored_mb": cmd.get("sensitivity.simulate_bundle.stored_mb_max", 0.0),
        "sim.path_steps": raw["sim.simulate_batch.path_steps"]
        + raw["sim.simulate_callable_batch.path_steps"],
        "dataio.write.s": sum(cmd.get(f"{name}.s", 0.0) for name in _WRITES),
        "dataio.bytes_written": cmd.get("dataio.atomic_write_text.bytes_written", 0.0),
        "trace.command_s": traced_s,
        "trace.untraced_command_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.self_sum_s": sum(cmd.get(key, 0.0) for key in layer_self),
        "trace.uncovered_s": cmd.get("cli.main.self_s", 0.0),
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    import workloads
    from gpsde.errors import GpsdeError

    table = workloads.tiny_workloads() if size == "tiny" else workloads.full_workloads()
    if name not in table:
        return _fail(f"unknown workload {name!r}; choose from {', '.join(table)}")
    wl = table[name]
    declared = _declared()
    print("env " + json.dumps(environment(seed), sort_keys=True))

    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Operations()
    runner = Runner(wl, work, ops)
    try:
        setup_tracer = Tracer()
        setup_times = []

        def timed_setup(k):
            if trace:
                setup_tracer.install()
            try:
                t0 = time.perf_counter()
                made = wl.setup(work, seed, k)
                setup_times.append(time.perf_counter() - t0)
            finally:
                setup_tracer.uninstall()
            return made

        # the first n_setups set-ups are the inputs; the others are only
        # timed, between the passes, so the median setup_s samples the
        # machine at several moments of the run
        ctxs = wl.inputs([timed_setup(k) for k in range(wl.n_setups)])
        extra = range(wl.n_setups, max(wl.n_setups, wl.setup_repeats))

        plain = defaultdict(list)    # input -> its cycles: {label: worker result}
        traced, pairs = [], []
        # the pass count depends on --seconds only, not on how fast the code
        # runs, so the fastest cycle of an input is taken over as many cycles
        # for any version of gpsde; untraced runs make at least two, so every
        # input has a rerun, which must reproduce its outputs
        n_passes = wl.passes(seconds, trace)
        for pass_no in range(n_passes):
            for k in extra[pass_no::n_passes]:
                timed_setup(k)
            for k, ctx in enumerate(ctxs):
                p = runner.cycle(k, ctx, traced=False)
                if p is not None:
                    plain[k].append(p)
                if trace:
                    t = runner.cycle(k, ctx, traced=True)
                    if t is not None:
                        traced.append(t)
                        if p is not None:
                            pairs.append((_cycle_s(t), _cycle_s(p)))

        if plain:
            k = min(plain)
            try:
                grad_checks = wl.gradient_check(work, k, ctxs[k])
            except (OSError, ValueError, KeyError, GpsdeError) as exc:
                grad_checks = [(f"gradient check of input {k} ran ({exc})", False)]
            for what, ok in grad_checks:
                ops.record(f"input {k}: {what}", ok)

        rms = []
        for k, ctx in enumerate(ctxs):
            try:
                val = wl.drift_rms(work, k, ctx)
            except (OSError, ValueError, KeyError, GpsdeError) as exc:
                val = math.nan
                print(f"drift_rms of input {k}: {exc}", file=sys.stderr)
            ops.record(f"drift_rms of input {k} finite", math.isfinite(val))
            if math.isfinite(val):
                rms.append(val)

        # per input the fastest (largest) of its cycles, which damps the
        # machine's speed swings; then the mean, or the median, over inputs
        def over_inputs(fn, best=min, across=statistics.fmean):
            if not plain:
                return 0.0
            return across([best(fn(c) for c in cycles) for cycles in plain.values()])

        labels = {label for cycles in plain.values() for c in cycles for label in c}
        e2e = {
            "setup_s": _median(setup_times),
            # a fit's time is its objective evaluations, whose number the
            # data and the line search set, times their cost: per unit of
            # work the seed's share drops out
            "work_s": over_inputs(lambda c: _cycle_s(c) / wl.work_units(c),
                                  across=statistics.median),
            "peak_rss_mb": over_inputs(lambda c: max(r["maxrss_mb"] for r in c.values()), max),
            "drift_rms": statistics.fmean(rms) if rms else 0.0,
        }
        summary = dict(e2e, **{f"{label}_s": over_inputs(lambda c: c[label]["wall_s"])
                               for label in labels})
        summary["command_s"] = over_inputs(_cycle_s)
        summary["work_units"] = over_inputs(wl.work_units, best=max)
        summary["fail_ratio"] = len(ops.failures) / max(ops.attempted, 1)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
        units.update({"fit_s": "s", "simulate_s": "s", "evaluate_s": "s", "command_s": "s",
                      "work_units": "count", "fail_ratio": "1"})

        if trace:
            # one cycle's share of the work of the input set-ups
            share = wl.n_setups / len(setup_times) / len(ctxs)
            setup_mean = {k: v * share for k, v in setup_tracer.summary().items()}
            cmd_mean = _mean_dict([_sum_dicts([r["trace"] for r in c.values()])
                                   for c in traced])
            values = layer_metrics(setup_mean, cmd_mean, pairs)
            names = [m["name"] for m in declared["per_layer"]]
        else:
            values = e2e
            names = [m["name"] for m in declared["end_to_end"]]

        shown = dict(summary, **{n: values.get(n, 0.0) for n in names})
        for key in sorted(shown):
            note = " (computed from shapes)" if key in FROM_SHAPES else ""
            print(f"metric {name} {key} {shown[key]!r} {units[key]}{note}")
        for what in ops.failures:
            print(f"failed {name} {what}")
        metrics = {n: {"value": float(values.get(n, 0.0)), "unit": units[n]} for n in names}
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"correct": not ops.failures, "attempted": ops.attempted,
                      "failed": len(ops.failures), "metrics": metrics}))
    return 0


def _cycle_s(cyc: dict) -> float:
    return sum(r["wall_s"] for r in cyc.values())


def run_all(seed: int, seconds: float, trace: bool, size: str) -> int:
    import workloads

    names = list((workloads.tiny_workloads() if size == "tiny"
                  else workloads.full_workloads()))
    ok = True
    env = None
    for name in names:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "1" if trace else "0", "--size", size]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return _fail(f"workload {name} exited {proc.returncode}")
        for line in lines[:-1]:
            if line.startswith("env ") and env is None:
                env = json.loads(line[4:])
            elif not line.startswith("env "):
                print(line)
        ok = json.loads(lines[-1])["correct"] and ok
    print("env " + json.dumps(env, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload in seconds (smoke check)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gpsde" / "cli.py").is_file():
        return _fail(f"no gpsde sources under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail("BENCHMARK.json not found")
    if args.all == bool(args.workload):
        return _fail("give exactly one of --workload NAME and --all")
    if not args.seconds > 0:
        return _fail("--seconds must be positive")

    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(THREAD_ENV)       # before numpy loads in this process
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace), args.size)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
