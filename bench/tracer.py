"""Span tracing of gpsde from outside the package.

Calls into each module's public functions are wrapped in the namespace of
the module that makes the call, so a span sits on every layer boundary
without any change to the package.  For example ``step_terms_batch`` is a
``field`` function but ``sensitivity`` calls it, so the wrapper replaces
``gpsde.sensitivity.step_terms_batch``.  Calls a module makes through a
module object (``dataio.read_dataset`` in ``cli``) are wrapped on that
module.

Spans (name, start, end, parent) and counters stay in memory until the
run ends; :meth:`Tracer.summary` reduces them to per-name and per-layer
totals.  Self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

LAYERS = ("kernels", "field", "sim", "sensitivity", "objective", "fit",
          "systems", "dataio", "cli")


def _rows(args, kwargs):
    return {"rows": args[0].shape[0]}


def _path_steps(args, kwargs):
    # simulate_batch(m, c, x0, grid, increments)
    # simulate_callable_batch(drift_fn, diff_fn, x0, dt, n_steps, increments)
    inc = kwargs.get("increments", args[-1])
    return {"path_steps": inc.shape[0] * inc.shape[1]}


def _stored_mb(args, kwargs):
    # simulate_bundle_with_sensitivities(m, c, x0, grid, increments): the
    # (S, n_obs, D, M*D) and (S, n_obs, D, M) arrays it keeps, as float64
    m, grid, inc = args[0], args[3], args[4]
    floats = inc.shape[0] * grid.n_obs * m.D * (m.M * m.D + m.M)
    return {"stored_mb_max": floats * 8 / 1e6}


def _bytes_written(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


# (calling module, attribute, span name, counter before the call,
#  counter after the call)
WRAPS = (
    ("field", "rbf_matrix", "kernels.rbf_matrix", None, None),
    ("field", "gram_blocked", "kernels.gram_blocked", None, None),
    ("fit", "rbf_matrix", "kernels.rbf_matrix", None, None),
    ("cli", "build_cache", "field.build_cache", None, None),
    ("fit", "build_cache", "field.build_cache", None, None),
    ("objective", "build_cache", "field.build_cache", None, None),
    ("systems", "build_cache", "field.build_cache", None, None),
    ("fit", "update_values", "field.update_values", None, None),
    ("sensitivity", "step_terms_batch", "field.step_terms_batch", _rows, None),
    ("sim", "drift_diffusion_batch", "field.drift_diffusion_batch", _rows, None),
    ("systems", "drift_batch", "field.drift_batch", _rows, None),
    ("systems", "diffusion_batch", "field.diffusion_batch", _rows, None),
    ("objective", "log_prior", "field.log_prior", None, None),
    ("objective", "log_prior_grad", "field.log_prior_grad", None, None),
    ("sim", "simulate_batch", "sim.simulate_batch", _path_steps, None),
    ("cli", "sample_paths", "sim.sample_paths", None, None),
    ("sim", "sample_increments", "sim.sample_increments", None, None),
    ("objective", "sample_increments", "sim.sample_increments", None, None),
    ("cli", "state_density", "sim.state_density", None, None),
    ("systems", "simulate_callable_batch", "sim.simulate_callable_batch",
     _path_steps, None),
    ("cli", "build_grid", "sim.build_grid", None, None),
    ("objective", "build_grid", "sim.build_grid", None, None),
    ("objective", "simulate_bundle_with_sensitivities", "sensitivity.simulate_bundle",
     _stored_mb, None),
    ("fit", "evaluate_with_increments", "objective.evaluate", None, None),
    ("objective", "mc_loglik_grad", "objective.mc_loglik_grad", None, None),
    ("fit", "draw_increments", "objective.draw_increments", None, None),
    ("fit", "make_grids", "objective.make_grids", None, None),
    ("cli", "fit_map", "fit.fit_map", None, None),
    ("fit", "build_inducing_grid", "fit.build_inducing_grid", None, None),
    ("fit", "gradient_match_init", "fit.gradient_match_init", None, None),
    # the benchmark's own set-up calls generate through the module
    ("systems", "generate", "systems.generate", None, None),
    ("cli", "drift_error", "systems.drift_error", None, None),
    ("cli", "diffusion_error", "systems.diffusion_error", None, None),
    ("cli", "distribution_discrepancy", "systems.distribution_discrepancy", None, None),
    ("dataio", "read_dataset", "dataio.read_dataset", None, None),
    ("dataio", "load_model", "dataio.load_model", None, None),
    ("dataio", "write_dataset", "dataio.write_dataset", None, None),
    ("dataio", "save_model", "dataio.save_model", None, None),
    ("dataio", "save_report", "dataio.save_report", None, None),
    ("dataio", "save_metrics", "dataio.save_metrics", None, None),
    ("dataio", "write_trace_csv", "dataio.write_trace_csv", None, None),
    ("dataio", "write_paths_csv", "dataio.write_paths_csv", None, None),
    ("dataio", "write_density_csv", "dataio.write_density_csv", None, None),
    ("dataio", "write_manifest", "dataio.write_manifest", None, None),
    ("dataio", "atomic_write_text", "dataio.atomic_write_text", None, _bytes_written),
    ("cli", "cmd_fit", "cli.fit", None, None),
    ("cli", "cmd_simulate", "cli.simulate", None, None),
    ("cli", "cmd_evaluate", "cli.evaluate", None, None),
)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counters = defaultdict(float)
        self._stack = []
        self._undo = []

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                for key, val in before(args, kwargs).items():
                    tracer._count(name, key, val)
            result = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                for key, val in after(args, kwargs, result).items():
                    tracer._count(name, key, val)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, key, val):
        full = f"{name}.{key}"
        if key.endswith("_max"):
            self.counters[full] = max(self.counters[full], val)
        else:
            self.counters[full] += val

    def install(self):
        """Replace every attribute in ``WRAPS`` with a tracing wrapper."""
        import importlib

        for module, attr, name, before, after in WRAPS:
            mod = importlib.import_module(f"gpsde.{module}")
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrap(name, orig, before, after))
            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: ``calls``, inclusive seconds ``s`` and ``self_s``;
        per layer: ``self_s``; plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            self_t = dur - child_time[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += self_t
            out[f"{name.split('.')[0]}.self_s"] += self_t
        out.update(self.counters)
        return dict(out)
