import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpsde import dataio
from gpsde.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def dir_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = run_cli(["generate", "--system", "double-well", "--n-traj", 2,
                  "--n-obs", 30, "--subsample-every", 2, "--seed", 1,
                  "--out-dir", out])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def tiny_model(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    rc = run_cli(["fit", "--data-dir", tiny_dataset, "--out-dir", out,
                  "--inducing=-2.5:2.5:6", "--lengthscales", "0.8",
                  "--max-iters", 4, "--n-samples", 6, "--seed", 0])
    assert rc == 0
    return out / "model.json"


class TestGenerate:
    def test_writes_expected_files(self, tiny_dataset):
        names = {p.name for p in tiny_dataset.iterdir()}
        assert names == {"traj_000.csv", "traj_001.csv", "manifest.ini"}
        trajs = dataio.read_dataset(tiny_dataset)
        assert trajs[0].n_obs == 30

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run_cli(["generate", "--system", "oscillator", "--n-traj", 1,
                          "--n-obs", 25, "--subsample-every", 5, "--seed", 9,
                          "--out-dir", out])
            assert rc == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_oscillator_observation_count(self, tmp_path):
        rc = run_cli(["generate", "--system", "oscillator", "--n-traj", 1,
                      "--n-obs", 25, "--subsample-every", 5,
                      "--out-dir", tmp_path / "o"])
        assert rc == 0
        trajs = dataio.read_dataset(tmp_path / "o")
        assert len(trajs) == 1 and trajs[0].n_obs == 25

    def test_unknown_system_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["generate", "--system", "nope", "--out-dir", tmp_path])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["generate", "--system", "double-well"])
        assert err.value.code == 2


class TestFit:
    def test_outputs_and_roundtrip(self, tiny_model):
        out = tiny_model.parent
        assert {"model.json", "report.json", "trace.csv", "manifest.ini"} <= \
            {p.name for p in out.iterdir()}
        model = dataio.load_model(tiny_model)
        assert model.M == 6
        report = json.loads((out / "report.json").read_text())
        assert report["final_log_posterior"] >= report["init_log_posterior"]
        assert all(isinstance(c["rejected_trials"], int) for c in report["candidates"])

    def test_rerun_is_byte_identical(self, tiny_dataset, tmp_path):
        dirs = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            rc = run_cli(["fit", "--data-dir", tiny_dataset, "--out-dir", out,
                          "--inducing=-2.5:2.5:5", "--lengthscales", "1.0",
                          "--max-iters", 3, "--n-samples", 4, "--seed", 5])
            assert rc == 0
            dirs.append(out)
        assert dir_bytes(dirs[0]) == dir_bytes(dirs[1])

    def test_zero_iterations_returns_init(self, tiny_dataset, tmp_path):
        out = tmp_path / "f0"
        rc = run_cli(["fit", "--data-dir", tiny_dataset, "--out-dir", out,
                      "--inducing=-2.5:2.5:5", "--lengthscales", "1.0",
                      "--max-iters", 0, "--n-samples", 4, "--seed", 5])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_log_posterior"] == report["init_log_posterior"]

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "data"
        bad.mkdir()
        (bad / "traj_000.csv").write_text("t,x_1\n0.0,1.0\n1.0,zzz\n")
        rc = run_cli(["fit", "--data-dir", bad, "--out-dir", tmp_path / "out",
                      "--inducing=-1:1:4", "--lengthscales", "1.0"])
        assert rc == 3
        assert "traj_000.csv" in capsys.readouterr().err

    def test_every_candidate_failing_is_numerical_failure(self, tiny_dataset,
                                                          tmp_path, monkeypatch, capsys):
        from gpsde import fit
        from gpsde.errors import SimulationError

        def blow_up(*args, **kwargs):
            raise SimulationError("state exceeded 1e+06 at step 1 (sample 0)")

        monkeypatch.setattr(fit, "evaluate_with_increments", blow_up)
        rc = run_cli(["fit", "--data-dir", tiny_dataset, "--out-dir", tmp_path / "out",
                      "--inducing=-2.5:2.5:5", "--lengthscales", "0.8,1.0",
                      "--max-iters", 2, "--n-samples", 4])
        assert rc == 4
        assert "all lengthscale candidates failed" in capsys.readouterr().err

    def test_missing_data_dir_is_usage_error(self, tmp_path, capsys):
        rc = run_cli(["fit", "--out-dir", tmp_path / "out"])
        assert rc == 2


class TestSimulate:
    def test_paths_csv_row_count(self, tiny_model, tmp_path):
        out = tmp_path / "sim"
        rc = run_cli(["simulate", "--model", tiny_model, "--x0", "0.5",
                      "--horizon", "1.0", "--dt", "0.05", "--n-paths", 7,
                      "--seed", 2, "--out-dir", out])
        assert rc == 0
        lines = (out / "paths.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 7 * 21

    def test_rerun_is_byte_identical(self, tiny_model, tmp_path):
        dirs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            rc = run_cli(["simulate", "--model", tiny_model, "--x0", "0.5",
                          "--horizon", "0.5", "--dt", "0.05", "--n-paths", 5,
                          "--seed", 3, "--density-grid=-3:3:121",
                          "--bandwidth", "0.3", "--out-dir", out])
            assert rc == 0
            dirs.append(out)
        assert dir_bytes(dirs[0]) == dir_bytes(dirs[1])

    def test_density_integrates_to_one(self, tiny_model, tmp_path):
        out = tmp_path / "dens"
        rc = run_cli(["simulate", "--model", tiny_model, "--x0", "0.0",
                      "--horizon", "0.5", "--dt", "0.05", "--n-paths", 20,
                      "--seed", 4, "--density-grid=-6:6:241",
                      "--bandwidth", "0.3", "--out-dir", out])
        assert rc == 0
        rows = (out / "density.csv").read_text().strip().splitlines()[1:]
        xs, dens = zip(*[tuple(map(float, r.split(","))) for r in rows])
        riemann = sum(dens) * (xs[1] - xs[0])
        assert 0.98 <= riemann <= 1.02

    def test_zero_diffusion_paths_identical(self, tmp_path):
        # build a drift-only model by hand
        from gpsde.field import InducingModel
        from gpsde.kernels import KernelParams
        m = InducingModel(Z=np.linspace(-1, 1, 4)[:, None],
                          U_f=np.array([[0.5], [0.1], [-0.1], [-0.5]]),
                          u_sigma=np.zeros(4),
                          drift_params=KernelParams(1.0, [0.8]),
                          diff_params=KernelParams(1.0, [0.8]),
                          noise_vars=[0.01])
        mp = tmp_path / "m.json"
        dataio.save_model(mp, m)
        out = tmp_path / "sim0"
        rc = run_cli(["simulate", "--model", mp, "--x0", "0.3",
                      "--horizon", "0.5", "--dt", "0.05", "--n-paths", 5,
                      "--seed", 8, "--out-dir", out])
        assert rc == 0
        rows = (out / "paths.csv").read_text().strip().splitlines()[1:]
        by_step = {}
        for r in rows:
            s, i, t, x = r.split(",")
            by_step.setdefault(i, set()).add(x)
        assert all(len(v) == 1 for v in by_step.values())

    def test_v1_model_with_general_A_is_data_error(self, tiny_model, tmp_path):
        d = json.loads(tiny_model.read_text())
        d["schema"] = "gpsde/model-v1"
        d["A"] = [[1.5]]
        mp = tmp_path / "v1.json"
        mp.write_text(json.dumps(d))
        rc = run_cli(["simulate", "--model", mp, "--x0", "0.5", "--horizon", "0.5",
                      "--dt", "0.05", "--n-paths", 3, "--out-dir", tmp_path / "out"])
        assert rc == 3


class TestEvaluate:
    def test_metrics_file_roundtrips(self, tiny_model, tmp_path):
        out = tmp_path / "eval"
        rc = run_cli(["evaluate", "--model", tiny_model, "--system", "double-well",
                      "--box=-1.5:1.5", "--n-grid", 21, "--x0", "0.5",
                      "--horizon", "0.5", "--n-paths", 50, "--seed", 0,
                      "--out-dir", out])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["drift_rms_error"] >= 0
        assert metrics["diffusion_rms_error"] >= 0
        assert metrics["distribution_discrepancy"] >= 0

    def test_oracle_model_close_to_zero_drift_error(self, tmp_path):
        from gpsde.field import InducingModel
        from gpsde.kernels import KernelParams
        from gpsde.systems import double_well
        sys_ = double_well()
        Z = np.linspace(-2.4, 2.4, 41)[:, None]
        m = InducingModel(Z=Z, U_f=sys_.drift_fn(Z), u_sigma=np.full(41, 1.5),
                          drift_params=KernelParams(1.0, [0.35]),
                          diff_params=KernelParams(1.0, [0.35]),
                          noise_vars=[0.01])
        mp = tmp_path / "oracle.json"
        dataio.save_model(mp, m)
        out = tmp_path / "eval"
        rc = run_cli(["evaluate", "--model", mp, "--system", "double-well",
                      "--box=-1.8:1.8", "--n-grid", 41, "--x0", "0.5",
                      "--horizon", "0.5", "--n-paths", 100, "--seed", 0,
                      "--out-dir", out])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["drift_rms_error"] < 0.05


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "gpsde", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout


def test_thread_env_applied_on_package_import():
    # importing the package, not only the CLI, pins BLAS before numpy loads
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["GPSDE_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, gpsde; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_config_file_overridden_by_flags(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[generate]\nn-traj = 3\nn-obs = 12\nseed = 4\n")
    out = tmp_path / "gen"
    rc = run_cli(["generate", "--system", "double-well", "--config", cfg,
                  "--n-obs", 15, "--out-dir", out])
    assert rc == 0
    trajs = dataio.read_dataset(out)
    assert len(trajs) == 3          # from file
    assert trajs[0].n_obs == 15     # flag wins
    manifest = dataio.read_manifest(out / "manifest.ini")
    assert manifest["generate"]["n_obs"] == "15"
    assert manifest["generate"]["n_traj"] == "3"
