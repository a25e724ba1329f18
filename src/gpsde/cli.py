"""Command-line interface.

Subcommands: generate | fit | simulate | evaluate.  Each setting is one flag,
declared once with its type, default, choices and value rule.  A value its
rule rejects is an argparse usage error (exit 2), a flag that disagrees with
the system, the model or the data a data error (exit 3); both name the flag
and come before any output.  Each entry ``key = value`` in the command's
section of a ``--config`` INI file is parsed as the flag ``--key=value``,
with the same type, choices and errors, ahead of the given flags, which
therefore win.  Every run writes its settings to a ``manifest.ini``;
passing it back as ``--config`` reproduces the run.

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
from .errors import DataError, FitError, InputError, SimulationError
from .field import build_cache
from .fit import FitConfig, default_lengthscale_grid, fit_map
from .sim import build_grid, sample_blocks, sample_paths, state_density
from .systems import (
    SYSTEMS,
    GenSpec,
    distribution_discrepancy,
    diffusion_error,
    drift_error,
    generate,
)

# generate's (gen_dt, subsample_every) per --system; their flags default to None
_GEN_DEFAULTS = {"double-well": (0.01, 10), "oscillator": (0.005, 100),
                 "van-der-pol": (0.005, 100)}

# parsed values that are not settings of the run
_NOT_SETTINGS = ("command", "func", "config", "out_dir")


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _parse_box(text: str) -> np.ndarray:
    """Axes 'lo:hi[,...]' as a (D, 2) array."""
    box = np.array([[float(v) for v in part.split(":")] for part in text.split(",")])
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError(text)
    return box


def _parse_grid_spec(text: str) -> tuple:
    """Axes 'lo:hi:count[,...]' as (lo, hi, count) triples; 'auto:count'
    gives an axis whose bounds (None) the data decide."""
    spec = []
    for part in text.split(","):
        *bounds, count = part.split(":")
        if bounds == ["auto"]:
            lo = hi = None
        elif len(bounds) == 2:
            lo, hi = float(bounds[0]), float(bounds[1])
        else:
            raise ValueError(part)
        spec.append((lo, hi, int(count)))
    return tuple(spec)


def _rule(parse, ok, what):
    """An argparse type: parse(text), if it parses and ok accepts it;
    otherwise argparse's usage error, which names the flag."""
    def check(text):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return check


def _int(least: int):
    return _rule(int, lambda v: v >= least,
                 "a non-negative integer" if least == 0 else f"an integer of at least {least}")


def _real(ok, what: str):
    return _rule(float, lambda v: math.isfinite(v) and ok(v), what)


def _text(parse, ok, what: str, optional: bool = False):
    """The type of a list, box or grid flag: the text itself, so the
    manifest records it as given; with optional, an empty text (the flag's
    unset default) passes."""
    return _rule(str, lambda text: (optional and not text) or ok(parse(text)), what)


_POSITIVE = _real(lambda v: v > 0, "a positive finite real")
_NON_NEGATIVE = _real(lambda v: v >= 0, "a non-negative finite real")
_FINITE = _real(lambda v: True, "a finite real")
_POSITIVE_LIST = _text(_parse_floats, lambda vs: all(math.isfinite(v) and v > 0 for v in vs),
                       "comma-separated positive finite reals", optional=True)
_FINITE_LIST = _text(_parse_floats, lambda vs: all(map(math.isfinite, vs)),
                     "comma-separated finite reals", optional=True)
_BOX = _text(_parse_box, lambda b: np.isfinite(b).all(),
             "'lo:hi[,lo:hi...]' with finite bounds")
_X0_BOX = _text(_parse_box, lambda b: np.isfinite(b).all() and (b[:, 0] <= b[:, 1]).all(),
                "'lo:hi[,lo:hi...]' with finite lo <= hi")
_INDUCING = _text(_parse_grid_spec, lambda spec: all(
    n >= 2 and (lo is None or -math.inf < lo < hi < math.inf) for lo, hi, n in spec),
    "'lo:hi:count' with finite lo < hi, or 'auto:count', per axis, each count at least 2")
_DENSITY_GRID = _text(_parse_grid_spec, lambda spec: all(
    n >= 1 and lo is not None and math.isfinite(lo) and math.isfinite(hi)
    for lo, hi, n in spec),
    "'lo:hi:count' with finite lo and hi per axis, each count at least 1", optional=True)


def _require(ok: bool, flag: str, what: str, value):
    """An InputError that names the flag, unless ok."""
    if not ok:
        raise InputError(f"{flag} {what}, got {value!r}")


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
    factory = SYSTEMS[args.system]
    return factory(mu=args.mu) if args.system == "van-der-pol" else factory()


def cmd_generate(args) -> int:
    system = _system(args)
    dt, every = _GEN_DEFAULTS[args.system]
    args.gen_dt = dt if args.gen_dt is None else args.gen_dt
    args.subsample_every = every if args.subsample_every is None else args.subsample_every
    args.x0_box = args.x0_box or ",".join(["-2:2"] * system.dim)
    box = _parse_box(args.x0_box)
    _require(box.shape[0] == system.dim, "--x0-box",
             f"needs one 'lo:hi' axis per dimension of the {args.system} system "
             f"({system.dim})", args.x0_box)
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
    noise_vars = _parse_floats(args.noise_vars) if args.noise_vars else []
    spec = _parse_grid_spec(args.inducing)
    data = dataio.read_dataset(args.data_dir)
    D = data[0].dim
    _require(len(noise_vars) in (0, 1, D), "--noise-vars",
             f"needs one value, or one per data dimension ({D})", args.noise_vars)
    _require(len(spec) in (1, D), "--inducing",
             f"needs one axis, or one per data dimension ({D})", args.inducing)
    grid = (tuple(_parse_floats(args.lengthscales)) if args.lengthscales
            else default_lengthscale_grid(data))
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
    if not args.model or not args.x0:
        raise UsageError("simulate requires --model and --x0")
    spec = _parse_grid_spec(args.density_grid) if args.density_grid else None
    x0 = np.array(_parse_floats(args.x0))
    model = dataio.load_model(args.model)
    _require(spec is None or len(spec) == model.D, "--density-grid",
             f"needs one axis per model dimension ({model.D})", args.density_grid)
    _require(x0.size == model.D, "--x0", f"needs one value per model dimension ({model.D})",
             args.x0)
    out = _out_dir(args.out_dir)
    cache = build_cache(model)
    n_steps = max(1, int(round(args.horizon / args.dt)))
    grid = build_grid([0.0, args.horizon], n_steps)
    t_at = args.density_time
    idx = grid.n_steps if t_at < 0 else int(np.argmin(np.abs(grid.times - t_at)))
    states = np.empty((args.n_paths, model.D))      # each path's state at node idx

    def blocks():
        for rows in sample_blocks(args.n_paths, n_steps, model.D):
            paths = sample_paths(cache, x0, grid, rows, args.seed)
            states[rows] = paths[:, idx]
            yield paths
            del paths       # drop the written block before the next is drawn

    dataio.write_paths_csv(out / "paths.csv", blocks(), grid.times)
    outputs = ["paths.csv"]
    if spec is not None:
        axes = [np.linspace(lo, hi, n) for lo, hi, n in spec]
        dens = state_density(states, axes, args.bandwidth)
        dataio.write_density_csv(out / "density.csv", axes, dens)
        outputs.append("density.csv")
    dataio.write_manifest(out / "manifest.ini", {args.command: _settings(args)})
    print(f"wrote {', '.join(outputs)} to {out}")
    return 0


def cmd_evaluate(args) -> int:
    if not args.model:
        raise UsageError("evaluate requires --model")
    system = _system(args)
    box = _parse_box(args.box)
    dims = f"dimension of the {args.system} system ({system.dim})"
    _require(box.shape[0] == system.dim, "--box", f"needs one axis per {dims}", args.box)
    x0 = np.array(_parse_floats(args.x0)) if args.x0 else box.mean(axis=1)
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
    g.add_argument("--n-traj", type=_int(1), default=6)
    g.add_argument("--n-obs", type=_int(2), default=250)
    g.add_argument("--seed", type=_int(0), default=0)
    g.add_argument("--gen-dt", type=_POSITIVE, help="default depends on --system")
    g.add_argument("--subsample-every", type=_int(1), help="default depends on --system")
    g.add_argument("--noise-std", type=_NON_NEGATIVE, default=0.1)
    g.add_argument("--x0-box", type=_X0_BOX,
                   help="'lo:hi[,lo:hi]'; default -2:2 on every axis of --system")
    g.add_argument("--mu", type=_NON_NEGATIVE, default=1.0)

    f = command("fit", cmd_fit, "fit an inducing model to trajectory CSVs")
    f.add_argument("--data-dir")
    f.add_argument("--seed", type=_int(0), default=FitConfig.seed)
    f.add_argument("--max-iters", type=_int(0), default=FitConfig.max_iters)
    f.add_argument("--grad-tol", type=_POSITIVE, default=FitConfig.grad_tol)
    f.add_argument("--n-samples", type=_int(1), default=FitConfig.n_samples)
    f.add_argument("--resolution-factor", type=_int(1), default=FitConfig.resolution_factor)
    f.add_argument("--inducing", type=_INDUCING, default="auto:15",
                   help="'lo:hi:count[,...]' or 'auto:count'")
    f.add_argument("--lengthscales", type=_POSITIVE_LIST, default="",
                   help="comma list of isotropic candidates, each one lengthscale "
                        "for both the drift and the diffusion kernel")
    f.add_argument("--kernel-variance", type=_POSITIVE, default=FitConfig.kernel_variance)
    f.add_argument("--noise-vars", type=_POSITIVE_LIST, default="",
                   help="fix the observation noise variances (comma list) "
                        "instead of estimating them")

    s = command("simulate", cmd_simulate, "sample paths from a fitted model")
    s.add_argument("--model")
    s.add_argument("--x0", type=_FINITE_LIST)
    s.add_argument("--horizon", type=_POSITIVE, default=10.0)
    s.add_argument("--dt", type=_POSITIVE, default=0.01)
    s.add_argument("--n-paths", type=_int(1), default=50)
    s.add_argument("--seed", type=_int(0), default=0)
    s.add_argument("--density-grid", type=_DENSITY_GRID, default="",
                   help="'lo:hi:n[,lo:hi:n]' evaluation grid for a state KDE")
    s.add_argument("--density-time", type=_FINITE, default=-1.0,
                   help="negative for the last step")
    s.add_argument("--bandwidth", type=_POSITIVE, default=0.2)

    e = command("evaluate", cmd_evaluate, "score a fitted model against a benchmark system")
    e.add_argument("--model")
    e.add_argument("--system", choices=sorted(SYSTEMS), default="double-well")
    e.add_argument("--box", type=_BOX, default="-2:2")
    e.add_argument("--n-grid", type=_int(1), default=41)
    e.add_argument("--data-dir", default="",
                   help="restrict field errors to the data-visited region")
    e.add_argument("--x0", type=_FINITE_LIST, default="")
    e.add_argument("--horizon", type=_POSITIVE, default=5.0)
    e.add_argument("--n-paths", type=_int(2), default=500)
    e.add_argument("--seed", type=_int(0), default=0)
    e.add_argument("--mu", type=_NON_NEGATIVE, default=1.0)
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
    except (SimulationError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
