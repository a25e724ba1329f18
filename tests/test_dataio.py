import json

import numpy as np
import pytest

from gpsde import dataio
from gpsde.errors import DataError
from gpsde.field import InducingModel, grid_points
from gpsde.kernels import KernelParams
from gpsde.objective import Trajectory
from gpsde.sim import build_grid


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
    p.write_text("t,x_1\n0.0,1.0\n")                         # one observation
    with pytest.raises(DataError, match="bad.csv.*two observations"):
        dataio.read_trajectory_csv(p)
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


def test_dataset_reads_back_in_index_order_past_a_thousand_files(tmp_path):
    # name order would put traj_1000.csv between traj_100.csv and traj_101.csv
    trajs = [Trajectory(times=[0.0, 1.0], obs=[[float(j)], [0.0]]) for j in range(1002)]
    dataio.write_dataset(tmp_path, trajs)
    back = dataio.read_dataset(tmp_path)
    assert [tr.obs[0, 0] for tr in back] == list(range(1002))


def test_dataset_of_mixed_dimensions_names_the_odd_file(tmp_path, awkward_trajectory):
    one_d = Trajectory(times=[0.0, 1.0], obs=[[1.0], [2.0]])
    dataio.write_dataset(tmp_path, [awkward_trajectory, awkward_trajectory, one_d])
    with pytest.raises(DataError, match="traj_002.csv"):
        dataio.read_dataset(tmp_path)


def make_model():
    rng = np.random.default_rng(5)
    return InducingModel(
        Z=grid_points(rng.uniform(-2, 2, (2, 2))),
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


def with_entry(d, key, value, row=None):
    """Copy of the model dict d with d[key] (or d[key][row][0]) set to value."""
    d = json.loads(json.dumps(d))
    if row is None:
        d[key] = value
    else:
        d[key][row][0] = value
    return d


def test_model_schema_guard(tmp_path):
    p = tmp_path / "model.json"
    d = dataio.model_to_dict(make_model())
    payloads = [
        json.dumps(with_entry(d, "schema", "something-else")),
        "{not json",
        "[]",                                                   # not an object
        json.dumps(with_entry(d, "Z", "abc")),
        json.dumps(with_entry(d, "U_f", [[0.0, 1.0], [2.0]])),  # ragged
        json.dumps(with_entry(d, "U_f", float("nan"), row=1)),
        json.dumps(with_entry(d, "Z", float("inf"), row=2)),
    ]
    for text in payloads:
        p.write_text(text)
        with pytest.raises(DataError, match="model.json"):
            dataio.load_model(p)


def test_model_whose_z_is_no_grid_rejected(tmp_path):
    # a 2-d Z must be the distinct points of a Cartesian grid in grid_points
    # order: scattered points, or the grid's points permuted, are no grid
    p = tmp_path / "model.json"
    d = dataio.model_to_dict(make_model())
    Z = np.array(d["Z"])
    scattered = Z + np.random.default_rng(6).uniform(-0.1, 0.1, Z.shape)
    for bad in (scattered, Z[[1, 0, 2, 3]]):
        p.write_text(json.dumps(with_entry(d, "Z", bad.tolist())))
        with pytest.raises(DataError, match="model.json.*Cartesian grid"):
            dataio.load_model(p)


def test_paths_csv_shape(tmp_path):
    grid = build_grid([0.0, 1.0], 4)
    paths = np.arange(2 * 5 * 1, dtype=float).reshape(2, 5, 1)
    p = tmp_path / "paths.csv"
    dataio.write_paths_csv(p, [paths], grid.times)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "sample,step,time,x_1"
    assert len(lines) == 1 + 2 * 5


def test_paths_csv_streams_one_sample_at_a_time(tmp_path, traced_peak):
    # 500 paths of 101 states: the whole file's lines would take 13 MB
    rng = np.random.default_rng(4)
    paths = rng.normal(size=(500, 101, 2))
    times = build_grid([0.0, 1.0], 100).times
    p = tmp_path / "paths.csv"
    peak = traced_peak(lambda: dataio.write_paths_csv(p, [paths], times))
    assert peak < 1e6, f"peak {peak} B"
    assert len(p.read_text().splitlines()) == 1 + 500 * 101


def test_atomic_write_accepts_chunks(tmp_path):
    p = tmp_path / "out.txt"
    dataio.atomic_write_text(p, (f"{k}\n" for k in range(3)))
    assert p.read_text() == "0\n1\n2\n"
    assert [q.name for q in tmp_path.iterdir()] == ["out.txt"]


def awkward_reals(rng, shape, finite=False):
    """Reals with exponents from -300 to 300, subnormals, -0.0 and, unless
    finite, +-inf and nan."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    specials = [-0.0, 5e-324, -2.2e-310, 1.7976931348623157e308, 0.1, 1.0]
    if not finite:
        specials += [np.inf, -np.inf, np.nan]
    flat = x.reshape(-1)
    flat[:len(specials)] = specials
    return x


def ref_row(*vals):
    return ",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in vals)


def test_csv_writers_match_per_value_format(tmp_path):
    # one %-format per row writes exactly what format(x, ".17g") per value does
    rng = np.random.default_rng(17)
    paths = awkward_reals(rng, (40, 11, 2))
    grid = build_grid([0.0, 1e-3], 10)
    p = tmp_path / "paths.csv"
    dataio.write_paths_csv(p, [paths], grid.times)
    want = ["sample,step,time,x_1,x_2"] + [
        ref_row(str(s), str(i), grid.times[i], *paths[s, i])
        for s in range(40) for i in range(11)]
    assert p.read_text() == "\n".join(want) + "\n"
    dataio.write_paths_csv(p, [paths[:15], paths[15:]], grid.times)    # numbered across blocks
    assert p.read_text() == "\n".join(want) + "\n"

    axes = np.split(awkward_reals(rng, (12,)), [3, 7])
    points, dens = grid_points(axes), awkward_reals(rng, (60,))
    p = tmp_path / "density.csv"
    dataio.write_density_csv(p, axes, dens)
    want = ["x_1,x_2,x_3,density"] + [ref_row(*points[k], dens[k]) for k in range(60)]
    assert p.read_text() == "\n".join(want) + "\n"

    times = np.sort(10.0 ** rng.uniform(-300, 300, size=30))
    obs = awkward_reals(rng, (30, 2), finite=True)
    dataio.write_dataset(tmp_path / "data", [Trajectory(times=times, obs=obs)])
    want = ["t,x_1,x_2"] + [ref_row(times[k], *obs[k]) for k in range(30)]
    text = (tmp_path / "data" / dataio.trajectory_filename(0)).read_text()
    assert text == "\n".join(want) + "\n"


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
