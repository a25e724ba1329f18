"""File formats: trajectory CSV, model JSON, reports, manifests.

All writes are atomic (temp file + rename) and deterministic: rerunning a
command with the same inputs produces byte-identical files.  Reals are
written with 17 significant digits in CSVs and via repr in JSON, both of
which round-trip 64-bit floats exactly.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import tempfile
from configparser import ConfigParser
from pathlib import Path

import numpy as np

from .errors import DataError, InputError
from .field import InducingModel
from .kernels import KernelParams
from .objective import Trajectory
from .sim import row_blocks

MODEL_SCHEMA = "gpsde/model-v2"
# v1 files also carry a dependency matrix A; they load only when A is the
# identity, which every v1 file written by gpsde has
MODEL_SCHEMA_V1 = "gpsde/model-v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _reals_format(k: int) -> str:
    """%-format of k comma-separated reals; '%.17g' % x equals _fmt(x) for
    every float, so a block of CSV rows costs one % operation."""
    return ",".join(["%.17g"] * k)


def atomic_write_text(path, text):
    """Write text, a string or an iterable of string chunks, to a temp file
    beside path and rename it over path, so readers never see a partial
    file; chunks are written as they are produced."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, rows, row_fmt=None):
    """Write a header line and the rows of a 2-d array, streamed in blocks
    of about BLOCK_FLOATS values, each block one % operation on the row
    template row_fmt (default: 17-digit reals)."""
    rows = np.asarray(rows, dtype=float)
    row_fmt = (row_fmt or _reals_format(rows.shape[1])) + "\n"

    def chunks():
        yield ",".join(header) + "\n"
        for block in row_blocks(*rows.shape):
            yield (row_fmt * (block.stop - block.start)) % tuple(rows[block].ravel().tolist())

    atomic_write_text(path, chunks())


# -- trajectories -------------------------------------------------------------

def write_trajectory_csv(path, traj: Trajectory):
    _write_csv(path, ["t"] + [f"x_{d + 1}" for d in range(traj.dim)],
               np.column_stack([traj.times, traj.obs]))


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
    # index order: traj_999.csv precedes traj_1000.csv
    files = sorted(data_dir.glob("traj_*.csv"), key=lambda p: (len(p.name), p.name))
    if not files:
        raise DataError("no traj_*.csv files found", path=data_dir)
    trajs = [read_trajectory_csv(p) for p in files]
    for p, tr in zip(files, trajs):
        if tr.dim != trajs[0].dim:
            raise DataError(f"dimension {tr.dim} differs from {files[0].name}'s "
                            f"({trajs[0].dim})", path=p)
    return trajs


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
    if not isinstance(d, dict):
        raise DataError("model file must hold a JSON object", path=path)
    try:
        return model_from_dict(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file: {exc}", path=path) from exc


# -- simulation outputs -------------------------------------------------------

def write_paths_csv(path, blocks, times):
    """Write paths at node times (n_steps+1,) from blocks, (S_b, n_steps+1, D)
    arrays of consecutive samples numbered from 0.  Each block is written
    as it comes and dropped before the next is drawn, so only one block and
    one sample's text are held; a sample's rows are one % operation on a
    template built once from the per-step pieces."""

    def chunks():
        s = 0
        for block in blocks:
            if s == 0:
                D = block.shape[2]
                reals = _reals_format(D)
                pieces = [f",{i},{_fmt(t)},{reals}\n" for i, t in enumerate(times)]
                yield ",".join(["sample", "step", "time"] + [f"x_{d + 1}" for d in range(D)]) + "\n"
            for path_s in block:
                tag = str(s)
                yield (tag + tag.join(pieces)) % tuple(path_s.ravel().tolist())
                s += 1
            block = path_s = None       # path_s is a view that keeps the block

    atomic_write_text(path, chunks())


def write_density_csv(path, axes, values: np.ndarray):
    """Write density values on the Cartesian grid of the 1-d axes, in
    :func:`gpsde.field.grid_points` order.  Each axis value is formatted
    once: the rows of one value of the leading axes, in blocks of about
    BLOCK_FLOATS values, are one % operation on a template of the last
    axis's pieces, which formats only the density."""
    *lead, last = [[_fmt(v) for v in np.ravel(a)] for a in axes]
    pieces = [f"{x},%.17g\n" for x in last]
    values = np.reshape(values, (math.prod(map(len, lead)), len(last)))

    def chunks():
        yield ",".join([f"x_{d + 1}" for d in range(len(lead) + 1)] + ["density"]) + "\n"
        for row, prefix in zip(values, itertools.product(*lead)):
            tag = "".join(x + "," for x in prefix)
            for cols in row_blocks(len(last), len(lead) + 2):
                yield (tag + tag.join(pieces[cols])) % tuple(row[cols].tolist())

    atomic_write_text(path, chunks())


# -- fit outputs --------------------------------------------------------------

def write_trace_csv(path, trace):
    _write_csv(path, ["iteration", "objective", "gradnorm"], trace, "%d,%.17g,%.17g")


def report_to_dict(report) -> dict:
    # wall_time is deliberately not serialised: output files must be
    # byte-identical across reruns of the same seeded config.
    return {
        "selected_lengthscales": report.selected_lengthscales.tolist(),
        "termination": report.termination,
        "init_log_posterior": report.init_log_posterior,
        "final_log_posterior": report.final_log_posterior,
        "iterations": report.trace[-1][0],
        "candidates": [
            {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in c.items()}
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
