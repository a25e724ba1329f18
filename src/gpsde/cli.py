"""Command-line interface.

Subcommands: generate | fit | simulate | evaluate.  Each setting is one flag,
declared once with its type, default and choices.  Each entry ``key = value``
in the command's section of a ``--config`` INI file is parsed as the flag
``--key=value``, with the same type, choices and errors (a bad entry exits
2), ahead of the given flags, which therefore win.  Every run writes its
settings to a ``manifest.ini``; passing it back as ``--config`` reproduces
the run.

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
    SimulationError,
)
from .field import build_cache, grid_points
from .fit import FitConfig, default_lengthscale_grid, fit_map
from .sim import build_grid, sample_paths, state_density
from .systems import (
    SYSTEMS,
    GenSpec,
    distribution_discrepancy,
    diffusion_error,
    drift_error,
    generate,
)

# generate's knobs that default per --system; their flags default to None
_GEN_DEFAULTS = {
    "double-well": {"gen_dt": 0.01, "subsample_every": 10, "noise_std": 0.1,
                    "x0_box": "-2:2"},
    "oscillator": {"gen_dt": 0.005, "subsample_every": 100, "noise_std": 0.1,
                   "x0_box": "-2:2,-2:2"},
    "van-der-pol": {"gen_dt": 0.005, "subsample_every": 100, "noise_std": 0.1,
                    "x0_box": "-2:2,-2:2"},
}

# parsed values that are not settings of the run
_NOT_SETTINGS = ("command", "func", "config", "out_dir")


def _parse_box(text: str, flag: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in part.split(":")] for part in text.split(",")]
        box = np.array(rows, dtype=float)
        if box.shape[1] != 2 or not np.all(np.isfinite(box)):
            raise ValueError
    except ValueError:
        raise InputError(f"{flag} expects 'lo:hi[,lo:hi...]', got {text!r}") from None
    return box


def _parse_grid_spec(text: str, flag: str, least: int, auto: bool = False):
    """Axes 'lo:hi:count[,...]' of a grid flag, each with a count of at least
    least; with auto, 'auto:count' leaves an axis's bounds to the data."""
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
        if count < least:
            raise InputError(f"{flag} needs a count of at least {least} per axis, got {part!r}")
        spec.append((lo, hi, count))
    return tuple(spec)


def _require(ok: bool, flag: str, what: str, value):
    """An InputError that names the flag, unless ok."""
    if not ok:
        raise InputError(f"{flag} {what}, got {value!r}")


def _positive(flag: str, value):
    _require(math.isfinite(value) and value > 0, flag, "must be positive and finite", value)


def _at_least(least: int, *flag_values):
    """An InputError that names the first (flag, count) pair below least."""
    for flag, value in flag_values:
        _require(value >= least, flag, f"must be at least {least}", value)


def _nonnegative_int(text: str) -> int:
    """--seed's type: a negative seed is a usage error, raised before any output."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
        if not all(math.isfinite(v) for v in values):
            raise ValueError
    except ValueError:
        raise InputError(f"{flag} expects comma-separated finite reals, got {text!r}") from None
    return values


def _positive_floats(text: str, flag: str) -> list[float]:
    """Comma-separated positive finite reals; an empty text gives none."""
    values = _parse_floats(text, flag) if text else []
    for v in values:
        _positive(flag, v)
    return values


def _settings(args) -> dict:
    """The run's settings, in the order their flags were declared."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS}


def _config_flags(args) -> list[str]:
    """The entries of the command's section of the --config file, each as
    the '--key=value' flag it names."""
    cp = ConfigParser()
    try:
        with open(args.config) as fh:
            cp.read_file(fh)
        entries = cp[args.command].items() if cp.has_section(args.command) else []
        settings, flags = _settings(args), []
        for k, v in entries:
            key = k.replace("-", "_")
            if key not in settings:
                raise InputError(f"unknown config key {k!r} in [{args.command}]")
            flags.append(f"--{key.replace('_', '-')}={v}")
    except OSError as exc:
        raise DataError(f"cannot open config file: {exc}", path=args.config) from exc
    except ConfigError as exc:
        raise DataError(f"invalid config file: {exc}", path=args.config) from exc
    return flags


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


def _system(args):
    _require(math.isfinite(args.mu) and args.mu >= 0, "--mu",
             "must be non-negative and finite", args.mu)
    factory = SYSTEMS[args.system]
    return factory(mu=args.mu) if args.system == "van-der-pol" else factory()


def cmd_generate(args) -> int:
    for key, val in _GEN_DEFAULTS[args.system].items():
        if getattr(args, key) is None:
            setattr(args, key, val)
    system = _system(args)
    box = _parse_box(args.x0_box, "--x0-box")
    _require(box.shape[0] == system.dim and np.all(box[:, 0] <= box[:, 1]), "--x0-box",
             f"needs one 'lo:hi' axis with lo <= hi per dimension of the {args.system} "
             f"system ({system.dim})", args.x0_box)
    _at_least(1, ("--n-traj", args.n_traj), ("--subsample-every", args.subsample_every))
    _at_least(2, ("--n-obs", args.n_obs))
    _positive("--gen-dt", args.gen_dt)
    _require(math.isfinite(args.noise_std) and args.noise_std >= 0, "--noise-std",
             "must be non-negative and finite", args.noise_std)
    spec = GenSpec(
        n_traj=args.n_traj, n_obs_per_traj=args.n_obs, gen_dt=args.gen_dt,
        subsample_every=args.subsample_every, noise_std=args.noise_std, x0_box=box,
        seed=args.seed,
    )
    out = _out_dir(args.out_dir)
    trajs = generate(system, spec)
    files = dataio.write_dataset(out, trajs)
    dataio.write_manifest(out / "manifest.ini", {args.command: _settings(args)})
    print(f"wrote {len(files)} trajectories to {out}")
    return 0


def cmd_fit(args) -> int:
    if not args.data_dir:
        raise UsageError("fit requires --data-dir")
    # every flag is checked before any output is written
    _at_least(1, ("--n-samples", args.n_samples),
              ("--resolution-factor", args.resolution_factor))
    _at_least(0, ("--max-iters", args.max_iters))
    _positive("--grad-tol", args.grad_tol)
    _positive("--kernel-variance", args.kernel_variance)
    noise_vars = _positive_floats(args.noise_vars, "--noise-vars")
    lengthscales = _positive_floats(args.lengthscales, "--lengthscales")
    spec = _parse_grid_spec(args.inducing, "--inducing", 2, auto=True)
    _require(all(lo is None or lo < hi for lo, hi, _ in spec), "--inducing",
             "needs lo < hi on every axis", args.inducing)
    data = dataio.read_dataset(args.data_dir)
    D = data[0].dim
    _require(len(noise_vars) in (0, 1, D), "--noise-vars",
             f"needs one value, or one per data dimension ({D})", args.noise_vars)
    _require(len(spec) in (1, D), "--inducing",
             f"needs one axis, or one per data dimension ({D})", args.inducing)
    if len(spec) == 1 and D > 1:
        spec = spec * D
    grid = tuple(lengthscales) or default_lengthscale_grid(data)
    fit_cfg = FitConfig(
        lengthscale_grid=grid, inducing_grid_spec=spec,
        resolution_factor=args.resolution_factor, n_samples=args.n_samples,
        seed=args.seed, max_iters=args.max_iters, grad_tol=args.grad_tol,
        kernel_variance=args.kernel_variance,
        fix_noise_vars=tuple(noise_vars) or None,
    )
    out = _out_dir(args.out_dir)
    report = fit_map(data, fit_cfg)
    dataio.save_model(out / "model.json", report.final_model)
    dataio.save_report(out / "report.json", report)
    dataio.write_trace_csv(out / "trace.csv", report.trace)
    dataio.write_manifest(out / "manifest.ini", {args.command: _settings(args)})
    print(f"fit finished: {report.termination}, "
          f"log-posterior {report.init_log_posterior:.4f} -> "
          f"{report.final_log_posterior:.4f}, "
          f"{report.rejected_trials} rejected trial points in {report.wall_time:.1f}s")
    return 0


def cmd_simulate(args) -> int:
    if not args.model or args.x0 is None:
        raise UsageError("simulate requires --model and --x0")
    # every flag is checked before any output is written
    for flag, value in (("--horizon", args.horizon), ("--dt", args.dt),
                        ("--n-paths", args.n_paths), ("--bandwidth", args.bandwidth)):
        _positive(flag, value)
    _require(math.isfinite(args.density_time), "--density-time",
             "must be finite (negative for the last step)", args.density_time)
    axes = None
    if args.density_grid:
        axes = [np.linspace(lo, hi, n)
                for lo, hi, n in _parse_grid_spec(args.density_grid, "--density-grid", 1)]
    x0 = np.array(_parse_floats(args.x0, "--x0"))
    model = dataio.load_model(args.model)
    _require(axes is None or len(axes) == model.D, "--density-grid",
             f"needs one axis per model dimension ({model.D})", args.density_grid)
    _require(x0.size == model.D, "--x0", f"needs one value per model dimension ({model.D})",
             args.x0)
    out = _out_dir(args.out_dir)
    cache = build_cache(model)
    n_steps = max(1, int(round(args.horizon / args.dt)))
    grid = build_grid([0.0, args.horizon], n_steps)
    paths = sample_paths(cache, x0, grid, args.n_paths, args.seed)
    dataio.write_paths_csv(out / "paths.csv", paths, grid.times)
    outputs = ["paths.csv"]
    if axes is not None:
        t_at = args.density_time
        idx = grid.n_steps if t_at < 0 else int(np.argmin(np.abs(grid.times - t_at)))
        dens = state_density(paths, idx, axes, args.bandwidth)
        dataio.write_density_csv(out / "density.csv", grid_points(axes), dens)
        outputs.append("density.csv")
    dataio.write_manifest(out / "manifest.ini", {args.command: _settings(args)})
    print(f"wrote {', '.join(outputs)} to {out}")
    return 0


def cmd_evaluate(args) -> int:
    if not args.model:
        raise UsageError("evaluate requires --model")
    system = _system(args)
    box = _parse_box(args.box, "--box")
    dims = f"dimension of the {args.system} system ({system.dim})"
    _require(box.shape[0] == system.dim, "--box", f"needs one axis per {dims}", args.box)
    _positive("--n-grid", args.n_grid)
    _positive("--horizon", args.horizon)
    _at_least(2, ("--n-paths", args.n_paths))
    x0 = np.array(_parse_floats(args.x0, "--x0")) if args.x0 else box.mean(axis=1)
    _require(x0.size == system.dim, "--x0", f"needs one value per {dims}", args.x0)
    model = dataio.load_model(args.model)
    _require(model.D == system.dim, "--model", f"needs the {dims}", args.model)
    data = dataio.read_dataset(args.data_dir) if args.data_dir else None
    _require(data is None or data[0].dim == system.dim, "--data-dir",
             f"needs trajectories of the {dims}", args.data_dir)
    out = _out_dir(args.out_dir)
    cache = build_cache(model)
    disc = distribution_discrepancy(
        system, cache, x0, args.horizon, args.n_paths, args.seed,
        fitted_seed=args.seed + 1,
    )
    metrics = {
        "system": args.system,
        "drift_rms_error": drift_error(system, cache, box, args.n_grid, data=data),
        "diffusion_rms_error": diffusion_error(system, cache, box, args.n_grid, data=data),
        "distribution_discrepancy": disc["energy"],
        "distribution_discrepancy_kde_l2": disc["kde_l2"],
    }
    dataio.save_metrics(out / "metrics.json", metrics)
    dataio.write_manifest(out / "manifest.ini", {args.command: _settings(args)})
    print(f"wrote metrics.json to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  Within a command, flags are declared in the order
    its manifest lists them."""
    p = argparse.ArgumentParser(
        prog="gpsde",
        description="Learn nonparametric SDE drift and diffusion fields from "
                    "trajectory data by simulating and optimising path distributions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        c = sub.add_parser(name, help=help)
        c.add_argument("--config", help=f"INI file whose [{name}] entries 'key = value' "
                                        "are read as the flags --key=value; the flags "
                                        "given here win")
        c.add_argument("--out-dir", required=True)
        c.set_defaults(func=func)
        return c

    g = command("generate", cmd_generate, "simulate a benchmark system into trajectory CSVs")
    g.add_argument("--system", choices=sorted(SYSTEMS), default="double-well")
    g.add_argument("--n-traj", type=int, default=6)
    g.add_argument("--n-obs", type=int, default=250)
    g.add_argument("--seed", type=_nonnegative_int, default=0)
    g.add_argument("--gen-dt", type=float, help="default depends on --system")
    g.add_argument("--subsample-every", type=int, help="default depends on --system")
    g.add_argument("--noise-std", type=float, help="default depends on --system")
    g.add_argument("--x0-box", help="'lo:hi[,lo:hi]'; default depends on --system")
    g.add_argument("--mu", type=float, default=1.0)

    f = command("fit", cmd_fit, "fit an inducing model to trajectory CSVs")
    f.add_argument("--data-dir")
    f.add_argument("--seed", type=_nonnegative_int, default=0)
    f.add_argument("--max-iters", type=int, default=200)
    f.add_argument("--grad-tol", type=float, default=1e-4)
    f.add_argument("--n-samples", type=int, default=50)
    f.add_argument("--resolution-factor", type=int, default=2)
    f.add_argument("--inducing", default="auto:15",
                   help="'lo:hi:count[,...]' or 'auto:count'")
    f.add_argument("--lengthscales", default="",
                   help="comma list of isotropic candidates, each one lengthscale "
                        "for both the drift and the diffusion kernel")
    f.add_argument("--kernel-variance", type=float, default=1.0)
    f.add_argument("--noise-vars", default="",
                   help="fix the observation noise variances (comma list) "
                        "instead of estimating them")

    s = command("simulate", cmd_simulate, "sample paths from a fitted model")
    s.add_argument("--model")
    s.add_argument("--x0")
    s.add_argument("--horizon", type=float, default=10.0)
    s.add_argument("--dt", type=float, default=0.01)
    s.add_argument("--n-paths", type=int, default=50)
    s.add_argument("--seed", type=_nonnegative_int, default=0)
    s.add_argument("--density-grid", default="",
                   help="'lo:hi:n[,lo:hi:n]' evaluation grid for a state KDE")
    s.add_argument("--density-time", type=float, default=-1.0)
    s.add_argument("--bandwidth", type=float, default=0.2)

    e = command("evaluate", cmd_evaluate, "score a fitted model against a benchmark system")
    e.add_argument("--model")
    e.add_argument("--system", choices=sorted(SYSTEMS), default="double-well")
    e.add_argument("--box", default="-2:2")
    e.add_argument("--n-grid", type=int, default=41)
    e.add_argument("--data-dir", default="",
                   help="restrict field errors to the data-visited region")
    e.add_argument("--x0", default="")
    e.add_argument("--horizon", type=float, default=5.0)
    e.add_argument("--n-paths", type=int, default=500)
    e.add_argument("--seed", type=_nonnegative_int, default=0)
    e.add_argument("--mu", type=float, default=1.0)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's entries go ahead of the given flags, so those win
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(args), *argv[at:]])
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, InputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, SimulationError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
