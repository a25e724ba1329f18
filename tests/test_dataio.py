import json

import numpy as np
import pytest

from gpsde import dataio
from gpsde.errors import DataError
from gpsde.field import InducingModel
from gpsde.kernels import KernelParams
from gpsde.objective import Trajectory
from gpsde.sim import PathBundle, build_grid


@pytest.fixture
def awkward_trajectory():
    rng = np.random.default_rng(0)
    # values chosen to stress float round-tripping
    times = np.cumsum(rng.uniform(1e-3, 0.3, size=12))
    obs = rng.normal(scale=1e3, size=(12, 2)) * np.exp(rng.uniform(-20, 10, (12, 2)))
    return Trajectory(times=times, obs=obs)


def test_trajectory_roundtrip_bitfaithful(tmp_path, awkward_trajectory):
    p = tmp_path / "traj_000.csv"
    dataio.write_trajectory_csv(p, awkward_trajectory)
    back = dataio.read_trajectory_csv(p)
    assert np.array_equal(back.times, awkward_trajectory.times)
    assert np.array_equal(back.obs, awkward_trajectory.obs)
    # second write produces identical bytes
    p2 = tmp_path / "again.csv"
    dataio.write_trajectory_csv(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_trajectory_parse_errors_name_location(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,x_1\n0.0,1.0\n0.5,oops\n")
    with pytest.raises(DataError) as err:
        dataio.read_trajectory_csv(p)
    assert "bad.csv:3" in str(err.value)
    p.write_text("wrong,header\n")
    with pytest.raises(DataError):
        dataio.read_trajectory_csv(p)
    with pytest.raises(DataError):
        dataio.read_trajectory_csv(tmp_path / "missing.csv")


def test_dataset_roundtrip(tmp_path, awkward_trajectory):
    trajs = [awkward_trajectory,
             Trajectory(times=[0.0, 1.0], obs=[[1.0, -1.0], [2.0, 0.5]])]
    dataio.write_dataset(tmp_path, trajs)
    back = dataio.read_dataset(tmp_path)
    assert len(back) == 2
    for a, b in zip(trajs, back):
        assert np.array_equal(a.obs, b.obs)


def make_model():
    rng = np.random.default_rng(5)
    return InducingModel(
        Z=rng.uniform(-2, 2, (4, 2)),
        U_f=rng.normal(scale=12.3, size=(4, 2)),
        u_sigma=rng.normal(size=4) * 1e-7,
        drift_params=KernelParams(1.0, [0.31459, 1.77]),
        diff_params=KernelParams(2.5, [0.9, 0.9]),
        noise_vars=[0.01, 1e-8],
    )


def test_model_roundtrip_bitfaithful(tmp_path):
    m = make_model()
    p = tmp_path / "model.json"
    dataio.save_model(p, m)
    back = dataio.load_model(p)
    assert np.array_equal(back.Z, m.Z)
    assert np.array_equal(back.U_f, m.U_f)
    assert np.array_equal(back.u_sigma, m.u_sigma)
    assert np.array_equal(back.noise_vars, m.noise_vars)
    assert back.drift_params.variance == m.drift_params.variance
    assert np.array_equal(back.drift_params.lengthscales, m.drift_params.lengthscales)
    p2 = tmp_path / "model2.json"
    dataio.save_model(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def write_v1_model(path, m, A):
    d = dataio.model_to_dict(m)
    d["schema"] = "gpsde/model-v1"
    d["A"] = np.asarray(A, dtype=float).tolist()
    path.write_text(json.dumps(d, indent=2) + "\n")


def test_v1_model_with_identity_A_loads_and_resaves_as_v2(tmp_path):
    m = make_model()
    v1 = tmp_path / "v1.json"
    write_v1_model(v1, m, np.eye(2))
    back = dataio.load_model(v1)
    assert np.array_equal(back.U_f, m.U_f)
    v2 = tmp_path / "v2.json"
    dataio.save_model(v2, back)
    d = json.loads(v2.read_text())
    assert d["schema"] == "gpsde/model-v2" and "A" not in d
    direct = tmp_path / "direct.json"
    dataio.save_model(direct, m)
    assert v2.read_bytes() == direct.read_bytes()
    again = tmp_path / "again.json"
    dataio.save_model(again, dataio.load_model(v2))
    assert again.read_bytes() == v2.read_bytes()


def test_v1_model_with_general_A_rejected(tmp_path):
    p = tmp_path / "v1.json"
    write_v1_model(p, make_model(), [[1.5, 0.4], [0.4, 0.8]])
    with pytest.raises(DataError, match="identity"):
        dataio.load_model(p)


def test_model_schema_guard(tmp_path):
    p = tmp_path / "model.json"
    d = dataio.model_to_dict(make_model())
    d["schema"] = "something-else"
    p.write_text(json.dumps(d))
    with pytest.raises(DataError):
        dataio.load_model(p)
    p.write_text("{not json")
    with pytest.raises(DataError):
        dataio.load_model(p)


def test_paths_csv_shape(tmp_path):
    grid = build_grid([0.0, 1.0], 4)
    paths = np.arange(2 * 5 * 1, dtype=float).reshape(2, 5, 1)
    bundle = PathBundle(paths=paths, increments=np.zeros((2, 4, 1)), seed=0, grid=grid)
    p = tmp_path / "paths.csv"
    dataio.write_paths_csv(p, bundle)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "sample,step,time,x_1"
    assert len(lines) == 1 + 2 * 5


def test_trace_csv(tmp_path):
    p = tmp_path / "trace.csv"
    dataio.write_trace_csv(p, [(0, -10.0, 1.5), (1, -9.0, 0.5)])
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,gradnorm"
    assert len(lines) == 3


def test_manifest_roundtrip(tmp_path):
    p = tmp_path / "manifest.ini"
    sections = {"fit": {"seed": 3, "lengthscales": "0.5,1.0"},
                "sim": {"n_samples": 50}}
    dataio.write_manifest(p, sections)
    back = dataio.read_manifest(p)
    assert back["fit"]["seed"] == "3"
    assert back["sim"]["n_samples"] == "50"


def test_metrics_roundtrip(tmp_path):
    p = tmp_path / "metrics.json"
    metrics = {"drift_rms_error": 0.123456789012345678, "n": 5}
    dataio.save_metrics(p, metrics)
    back = dataio.load_metrics(p)
    assert back["drift_rms_error"] == metrics["drift_rms_error"]
