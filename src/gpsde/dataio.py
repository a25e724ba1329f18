"""File formats: trajectory CSV, model JSON, reports, manifests.

All writes are atomic (temp file + rename) and deterministic: rerunning a
command with the same inputs produces byte-identical files.  Reals are
written with 17 significant digits in CSVs and via repr in JSON, both of
which round-trip 64-bit floats exactly.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from configparser import ConfigParser
from pathlib import Path

import numpy as np

from .errors import DataError, InputError
from .field import InducingModel
from .kernels import KernelParams
from .objective import Trajectory

MODEL_SCHEMA = "gpsde/model-v2"
# v1 files also carry a dependency matrix A; they load only when A is the
# identity, which every v1 file written by gpsde has
MODEL_SCHEMA_V1 = "gpsde/model-v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path, text: str):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- trajectories -------------------------------------------------------------

def write_trajectory_csv(path, traj: Trajectory):
    header = ["t"] + [f"x_{d + 1}" for d in range(traj.dim)]
    lines = [",".join(header)]
    for t, row in zip(traj.times, traj.obs):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in row]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path) -> Trajectory:
    path = Path(path)
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open trajectory file: {exc}", path=path) from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty trajectory file", path=path, line=1) from None
        if not header or header[0] != "t" or len(header) < 2:
            raise DataError("expected header 't,x_1,...,x_D'", path=path, line=1)
        dim = len(header) - 1
        times, rows = [], []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise DataError(f"expected {dim + 1} columns, got {len(row)}",
                                path=path, line=i)
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise DataError(f"non-numeric value: {exc}", path=path, line=i) from exc
            times.append(vals[0])
            rows.append(vals[1:])
    if len(times) < 1:
        raise DataError("trajectory file has no data rows", path=path, line=2)
    try:
        return Trajectory(times=np.array(times), obs=np.array(rows))
    except InputError as exc:
        raise DataError(str(exc), path=path) from exc


def trajectory_filename(index: int) -> str:
    return f"traj_{index:03d}.csv"


def write_dataset(out_dir, trajs):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for j, tr in enumerate(trajs):
        p = out_dir / trajectory_filename(j)
        write_trajectory_csv(p, tr)
        paths.append(p)
    return paths


def read_dataset(data_dir) -> list[Trajectory]:
    data_dir = Path(data_dir)
    files = sorted(data_dir.glob("traj_*.csv"))
    if not files:
        raise DataError("no traj_*.csv files found", path=data_dir)
    return [read_trajectory_csv(p) for p in files]


# -- models -------------------------------------------------------------------

def model_to_dict(m: InducingModel) -> dict:
    return {
        "schema": MODEL_SCHEMA,
        "dim": m.D,
        "n_inducing": m.M,
        "Z": m.Z.tolist(),
        "U_f": m.U_f.tolist(),
        "u_sigma": m.u_sigma.tolist(),
        "drift_kernel": {
            "variance": m.drift_params.variance,
            "lengthscales": m.drift_params.lengthscales.tolist(),
        },
        "diff_kernel": {
            "variance": m.diff_params.variance,
            "lengthscales": m.diff_params.lengthscales.tolist(),
        },
        "noise_vars": m.noise_vars.tolist(),
    }


def model_from_dict(d: dict) -> InducingModel:
    schema = d.get("schema")
    if schema not in (MODEL_SCHEMA, MODEL_SCHEMA_V1):
        raise DataError(f"unknown model schema {schema!r}")
    return InducingModel(
        Z=np.array(d["Z"], dtype=float),
        U_f=np.array(d["U_f"], dtype=float),
        u_sigma=np.array(d["u_sigma"], dtype=float),
        drift_params=KernelParams(d["drift_kernel"]["variance"],
                                  np.array(d["drift_kernel"]["lengthscales"])),
        diff_params=KernelParams(d["diff_kernel"]["variance"],
                                 np.array(d["diff_kernel"]["lengthscales"])),
        noise_vars=np.array(d["noise_vars"], dtype=float),
        A=np.array(d["A"], dtype=float) if schema == MODEL_SCHEMA_V1 else None,
    )


def save_model(path, m: InducingModel):
    if not all(np.isfinite(a).all() for a in (m.Z, m.U_f, m.u_sigma, m.noise_vars)):
        raise InputError("refusing to serialise a model with non-finite entries")
    atomic_write_text(path, json.dumps(model_to_dict(m), indent=2) + "\n")


def load_model(path) -> InducingModel:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot open model file: {exc}", path=path) from exc
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}", path=path, line=exc.lineno) from exc
    try:
        return model_from_dict(d)
    except (KeyError, TypeError, InputError) as exc:
        raise DataError(f"malformed model file: {exc}", path=path) from exc


# -- simulation outputs -------------------------------------------------------

def write_paths_csv(path, bundle):
    times = bundle.grid.times
    lines = [",".join(["sample", "step", "time"] +
                      [f"x_{d + 1}" for d in range(bundle.paths.shape[2])])]
    for s in range(bundle.paths.shape[0]):
        for i in range(bundle.paths.shape[1]):
            lines.append(",".join(
                [str(s), str(i), _fmt(times[i])] + [_fmt(v) for v in bundle.paths[s, i]]
            ))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_density_csv(path, points: np.ndarray, values: np.ndarray):
    points = np.atleast_2d(points)
    lines = [",".join([f"x_{d + 1}" for d in range(points.shape[1])] + ["density"])]
    for p, v in zip(points, values):
        lines.append(",".join([_fmt(c) for c in p] + [_fmt(v)]))
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- fit outputs --------------------------------------------------------------

def write_trace_csv(path, trace):
    lines = ["iteration,objective,gradnorm"]
    for it, obj, gn in trace:
        lines.append(f"{it},{_fmt(obj)},{_fmt(gn)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def report_to_dict(report) -> dict:
    # wall_time is deliberately not serialised: output files must be
    # byte-identical across reruns of the same seeded config.
    return {
        "selected_lengthscales": {
            "drift": np.asarray(report.selected_lengthscales[0]).tolist(),
            "diffusion": np.asarray(report.selected_lengthscales[1]).tolist(),
        },
        "termination": report.termination,
        "init_log_posterior": report.init_log_posterior,
        "final_log_posterior": report.final_log_posterior,
        "iterations": report.trace[-1][0],
        "epoch_starts": list(report.epoch_starts),
        "candidates": [
            {k: (np.asarray(v).tolist() if isinstance(v, (np.ndarray, tuple)) else v)
             for k, v in c.items()}
            for c in report.candidates
        ],
    }


def save_report(path, report):
    atomic_write_text(path, json.dumps(report_to_dict(report), indent=2) + "\n")


def save_metrics(path, metrics: dict):
    atomic_write_text(path, json.dumps(metrics, indent=2) + "\n")


def load_metrics(path) -> dict:
    return json.loads(Path(path).read_text())


# -- manifests ----------------------------------------------------------------

def write_manifest(path, sections: dict):
    """Write the fully-resolved run configuration as an INI manifest."""
    cp = ConfigParser()
    for name, mapping in sections.items():
        cp[name] = {k: str(v) for k, v in mapping.items()}
    from io import StringIO

    buf = StringIO()
    cp.write(buf)
    atomic_write_text(path, buf.getvalue())


def read_manifest(path) -> dict:
    cp = ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    return {s: dict(cp[s]) for s in cp.sections()}
