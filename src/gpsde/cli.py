"""Command-line interface.

Subcommands: generate | fit | simulate | evaluate.  Every run resolves its
configuration from defaults, an optional INI config file, and command-line
flags (highest precedence), then writes the fully-resolved values to a
manifest next to its outputs so the run can be reproduced exactly.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Set GPSDE_NUM_THREADS to pin the BLAS thread count (see ``gpsde``).
"""

from __future__ import annotations

import argparse
import math
import sys
from configparser import ConfigParser, Error as ConfigError
from pathlib import Path

import numpy as np

from . import dataio
from .errors import (
    DataError,
    FitError,
    InputError,
    NumericalError,
    SensitivityError,
    SimulationError,
)
from .field import build_cache
from .fit import FitConfig, default_lengthscale_grid, fit_map
from .sim import SimConfig, build_grid, sample_paths, state_density
from .systems import (
    SYSTEMS,
    GenSpec,
    distribution_discrepancy,
    diffusion_error,
    drift_error,
    generate,
)

_GEN_DEFAULTS = {
    "double-well": {"gen_dt": 0.01, "subsample_every": 10, "noise_std": 0.1,
                    "x0_box": "-2:2"},
    "oscillator": {"gen_dt": 0.005, "subsample_every": 100, "noise_std": 0.1,
                   "x0_box": "-2:2,-2:2"},
    "van-der-pol": {"gen_dt": 0.005, "subsample_every": 100, "noise_std": 0.1,
                    "x0_box": "-2:2,-2:2"},
}


def _parse_box(text: str, flag: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in part.split(":")] for part in text.split(",")]
        box = np.array(rows, dtype=float)
        if box.shape[1] != 2:
            raise ValueError
    except ValueError:
        raise InputError(f"{flag} expects 'lo:hi[,lo:hi...]', got {text!r}") from None
    return box


def _parse_grid_spec(text: str, flag: str, auto: bool = False):
    """Axes 'lo:hi:count[,...]' of a grid flag; with auto, 'auto:count'
    leaves an axis's bounds to the data."""
    syntax = "'lo:hi:count' or 'auto:count'" if auto else "'lo:hi:count'"
    spec = []
    for part in text.split(","):
        bits = part.split(":")
        try:
            if auto and len(bits) == 2 and bits[0] == "auto":
                lo = hi = None
            elif len(bits) == 3:
                lo, hi = float(bits[0]), float(bits[1])
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise ValueError
            else:
                raise ValueError
            count = int(bits[-1])
        except ValueError:
            raise InputError(f"{flag} expects {syntax} per axis, got {part!r}") from None
        if count < 1:
            raise InputError(f"{flag} needs a count of at least 1 per axis, got {part!r}")
        spec.append((lo, hi, count))
    return tuple(spec)


def _positive(flag: str, value):
    """value, if it is a positive finite number; otherwise an InputError
    that names the flag."""
    if not (math.isfinite(value) and value > 0):
        raise InputError(f"{flag} must be positive and finite, got {value!r}")
    return value


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"expected comma-separated reals, got {text!r}") from None


def _resolve(args, command: str, defaults: dict) -> tuple[dict, set]:
    """defaults < config-file section < CLI flags.

    Returns the resolved settings and the set of keys that no file entry or
    flag touched.
    """
    resolved = dict(defaults)
    touched = set()
    if getattr(args, "config", None):
        cp = ConfigParser()
        try:
            with open(args.config) as fh:
                cp.read_file(fh)
        except OSError as exc:
            raise DataError(f"cannot open config file: {exc}", path=args.config) from exc
        except ConfigError as exc:
            raise DataError(f"invalid config file: {exc}", path=args.config) from exc
        if cp.has_section(command):
            for k, v in cp[command].items():
                key = k.replace("-", "_")
                if key not in resolved:
                    raise InputError(f"unknown config key {k!r} in [{command}]")
                resolved[key] = type(defaults[key])(v) if defaults[key] is not None else v
                touched.add(key)
    for key in resolved:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
            touched.add(key)
    return resolved, set(resolved) - touched


def _out_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise UsageError(f"output directory not writable: {exc}") from exc
    return out


class UsageError(Exception):
    pass


def cmd_generate(args) -> int:
    cfg, defaulted = _resolve(args, "generate", {
        "system": "double-well", "n_traj": 6, "n_obs": 250, "seed": 0,
        **_GEN_DEFAULTS["double-well"], "mu": 1.0,
    })
    # untouched generation knobs follow the selected system's defaults
    for key, val in _GEN_DEFAULTS[cfg["system"]].items():
        if key in defaulted:
            cfg[key] = val
    out = _out_dir(args.out_dir)
    factory = SYSTEMS[cfg["system"]]
    system = factory(mu=cfg["mu"]) if cfg["system"] == "van-der-pol" else factory()
    spec = GenSpec(
        n_traj=int(cfg["n_traj"]), n_obs_per_traj=int(cfg["n_obs"]),
        gen_dt=float(cfg["gen_dt"]), subsample_every=int(cfg["subsample_every"]),
        noise_std=float(cfg["noise_std"]), x0_box=_parse_box(str(cfg["x0_box"]), "--x0-box"),
        seed=int(cfg["seed"]),
    )
    trajs = generate(system, spec)
    files = dataio.write_dataset(out, trajs)
    dataio.write_manifest(out / "manifest.ini", {"generate": cfg})
    print(f"wrote {len(files)} trajectories to {out}")
    return 0


def cmd_fit(args) -> int:
    cfg, _ = _resolve(args, "fit", {
        "data_dir": None, "seed": 0, "max_iters": 200, "grad_tol": 1e-4,
        "n_samples": 50, "resolution_factor": 2, "resample_period": 0,
        "inducing": "auto:15", "lengthscales": "", "kernel_variance": 1.0,
        "noise_vars": "",
    })
    if not cfg["data_dir"]:
        raise UsageError("fit requires --data-dir")
    spec = _parse_grid_spec(str(cfg["inducing"]), "--inducing", auto=True)
    out = _out_dir(args.out_dir)
    data = dataio.read_dataset(cfg["data_dir"])
    if len(spec) == 1 and data[0].dim > 1:
        spec = spec * data[0].dim
    if str(cfg["lengthscales"]):
        grid = tuple((v, v) for v in _parse_floats(str(cfg["lengthscales"])))
    else:
        grid = default_lengthscale_grid(data)
    period = int(cfg["resample_period"]) or None
    fixed_nv = tuple(_parse_floats(str(cfg["noise_vars"]))) if str(cfg["noise_vars"]) else None
    fit_cfg = FitConfig(
        lengthscale_grid=grid,
        inducing_grid_spec=spec,
        sim=SimConfig(resolution_factor=int(cfg["resolution_factor"]),
                      n_samples=int(cfg["n_samples"]), seed=int(cfg["seed"]),
                      resample_period=period),
        max_iters=int(cfg["max_iters"]),
        grad_tol=float(cfg["grad_tol"]),
        kernel_variance=float(cfg["kernel_variance"]),
        fix_noise_vars=fixed_nv,
    )
    report = fit_map(data, fit_cfg)
    dataio.save_model(out / "model.json", report.final_model)
    dataio.save_report(out / "report.json", report)
    dataio.write_trace_csv(out / "trace.csv", report.trace)
    dataio.write_manifest(out / "manifest.ini", {"fit": cfg})
    print(f"fit finished: {report.termination}, "
          f"log-posterior {report.init_log_posterior:.4f} -> "
          f"{report.final_log_posterior:.4f}, "
          f"{report.rejected_trials} rejected trial points in {report.wall_time:.1f}s")
    return 0


def cmd_simulate(args) -> int:
    cfg, _ = _resolve(args, "simulate", {
        "model": None, "x0": None, "horizon": 10.0, "dt": 0.01, "n_paths": 50,
        "seed": 0, "density_grid": "", "density_time": -1.0, "bandwidth": 0.2,
    })
    if not cfg["model"] or cfg["x0"] is None:
        raise UsageError("simulate requires --model and --x0")
    # every flag is checked before any output is written
    horizon = _positive("--horizon", float(cfg["horizon"]))
    dt = _positive("--dt", float(cfg["dt"]))
    n_paths = _positive("--n-paths", int(cfg["n_paths"]))
    bandwidth = _positive("--bandwidth", float(cfg["bandwidth"]))
    points = None
    if str(cfg["density_grid"]):
        box_axes = _parse_grid_spec(str(cfg["density_grid"]), "--density-grid")
        axes = [np.linspace(lo, hi, n) for lo, hi, n in box_axes]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([g.ravel() for g in mesh], axis=-1)
    out = _out_dir(args.out_dir)
    model = dataio.load_model(cfg["model"])
    if points is not None and points.shape[1] != model.D:
        raise InputError(f"--density-grid has {points.shape[1]} axes, but the model "
                         f"has dimension {model.D}")
    cache = build_cache(model)
    x0 = np.array(_parse_floats(str(cfg["x0"])))
    n_steps = max(1, int(round(horizon / dt)))
    grid = build_grid([0.0, horizon], n_steps)
    bundle = sample_paths(model, cache, x0, grid, n_paths, int(cfg["seed"]))
    dataio.write_paths_csv(out / "paths.csv", bundle)
    outputs = ["paths.csv"]
    if points is not None:
        t_at = float(cfg["density_time"])
        idx = grid.n_steps if t_at < 0 else int(np.argmin(np.abs(grid.times - t_at)))
        dens = state_density(bundle, idx, points, bandwidth)
        dataio.write_density_csv(out / "density.csv", points, dens)
        outputs.append("density.csv")
    dataio.write_manifest(out / "manifest.ini", {"simulate": cfg})
    print(f"wrote {', '.join(outputs)} to {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg, _ = _resolve(args, "evaluate", {
        "model": None, "system": "double-well", "box": "-2:2", "n_grid": 41,
        "data_dir": "", "x0": "", "horizon": 5.0, "n_paths": 500, "seed": 0,
        "mu": 1.0,
    })
    if not cfg["model"]:
        raise UsageError("evaluate requires --model")
    factory = SYSTEMS[cfg["system"]]
    system = factory(mu=cfg["mu"]) if cfg["system"] == "van-der-pol" else factory()
    box = _parse_box(str(cfg["box"]), "--box")
    if box.shape[0] != system.dim:
        raise InputError(f"--box has {box.shape[0]} axes, but the {cfg['system']} "
                         f"system has dimension {system.dim}")
    n_grid = _positive("--n-grid", int(cfg["n_grid"]))
    horizon = _positive("--horizon", float(cfg["horizon"]))
    out = _out_dir(args.out_dir)
    model = dataio.load_model(cfg["model"])
    cache = build_cache(model)
    data = dataio.read_dataset(cfg["data_dir"]) if str(cfg["data_dir"]) else None
    fitted = (model, cache)
    if str(cfg["x0"]):
        x0 = np.array(_parse_floats(str(cfg["x0"])))
    else:
        x0 = box.mean(axis=1)
    disc = distribution_discrepancy(
        system, fitted, x0, horizon, int(cfg["n_paths"]),
        int(cfg["seed"]), fitted_seed=int(cfg["seed"]) + 1,
    )
    metrics = {
        "system": cfg["system"],
        "drift_rms_error": drift_error(system, fitted, box, n_grid, data=data),
        "diffusion_rms_error": diffusion_error(system, fitted, box, n_grid, data=data),
        "distribution_discrepancy": disc["energy"],
        "distribution_discrepancy_kde_l2": disc["kde_l2"],
    }
    dataio.save_metrics(out / "metrics.json", metrics)
    dataio.write_manifest(out / "manifest.ini", {"evaluate": cfg})
    print(f"wrote metrics.json to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gpsde",
        description="Learn nonparametric SDE drift and diffusion fields from "
                    "trajectory data by simulating and optimising path distributions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="simulate a benchmark system into trajectory CSVs")
    g.add_argument("--system", choices=sorted(SYSTEMS), default=None)
    g.add_argument("--n-traj", dest="n_traj", type=int)
    g.add_argument("--n-obs", dest="n_obs", type=int)
    g.add_argument("--gen-dt", dest="gen_dt", type=float)
    g.add_argument("--subsample-every", dest="subsample_every", type=int)
    g.add_argument("--noise-std", dest="noise_std", type=float)
    g.add_argument("--x0-box", dest="x0_box")
    g.add_argument("--mu", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--config")
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit an inducing model to trajectory CSVs")
    f.add_argument("--data-dir", dest="data_dir")
    f.add_argument("--inducing", help="'lo:hi:count[,...]' or 'auto:count'")
    f.add_argument("--lengthscales", help="comma list of isotropic candidates")
    f.add_argument("--max-iters", dest="max_iters", type=int)
    f.add_argument("--grad-tol", dest="grad_tol", type=float)
    f.add_argument("--n-samples", dest="n_samples", type=int)
    f.add_argument("--resolution-factor", dest="resolution_factor", type=int)
    f.add_argument("--resample-period", dest="resample_period", type=int,
                   help="0 keeps one frozen noise draw for the whole fit")
    f.add_argument("--kernel-variance", dest="kernel_variance", type=float)
    f.add_argument("--noise-vars", dest="noise_vars",
                   help="fix the observation noise variances (comma list) "
                        "instead of estimating them")
    f.add_argument("--seed", type=int)
    f.add_argument("--config")
    f.add_argument("--out-dir", required=True)
    f.set_defaults(func=cmd_fit)

    s = sub.add_parser("simulate", help="sample paths from a fitted model")
    s.add_argument("--model")
    s.add_argument("--x0")
    s.add_argument("--horizon", type=float)
    s.add_argument("--dt", type=float)
    s.add_argument("--n-paths", dest="n_paths", type=int)
    s.add_argument("--density-grid", dest="density_grid",
                   help="'lo:hi:n[,lo:hi:n]' evaluation grid for a state KDE")
    s.add_argument("--density-time", dest="density_time", type=float)
    s.add_argument("--bandwidth", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--config")
    s.add_argument("--out-dir", required=True)
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("evaluate", help="score a fitted model against a benchmark system")
    e.add_argument("--model")
    e.add_argument("--system", choices=sorted(SYSTEMS), default=None)
    e.add_argument("--box")
    e.add_argument("--n-grid", dest="n_grid", type=int)
    e.add_argument("--data-dir", dest="data_dir",
                   help="restrict field errors to the data-visited region")
    e.add_argument("--x0")
    e.add_argument("--horizon", type=float)
    e.add_argument("--n-paths", dest="n_paths", type=int)
    e.add_argument("--mu", type=float)
    e.add_argument("--seed", type=int)
    e.add_argument("--config")
    e.add_argument("--out-dir", required=True)
    e.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, InputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, SimulationError, SensitivityError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
