import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gpsde import dataio
from gpsde.cli import build_parser, main
from gpsde.errors import InputError
from gpsde.fit import FitConfig
from gpsde.systems import GenSpec


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


@pytest.fixture(scope="module")
def osc_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("osc")
    rc = run_cli(["generate", "--system", "oscillator", "--n-traj", 1, "--n-obs", 12,
                  "--subsample-every", 5, "--seed", 2, "--out-dir", out])
    assert rc == 0
    return out


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

    def test_discrepancies_equal_separate_per_metric_runs(self, tiny_model, tmp_path):
        # both metrics come from one simulation per ensemble; they must equal,
        # bit for bit, one simulation per metric stepping the fitted drift and
        # diffusion through separate calls
        import math

        from gpsde.field import build_cache, diffusion_batch, drift_batch
        from gpsde.sim import child_seed, simulate_callable_batch
        from gpsde.systems import double_well, energy_distance, kde_l2_distance

        out = tmp_path / "eval"
        rc = run_cli(["evaluate", "--model", tiny_model, "--system", "double-well",
                      "--box=-1.5:1.5", "--n-grid", 11, "--x0", "0.5",
                      "--horizon", "0.5", "--n-paths", 40, "--seed", 3,
                      "--out-dir", out])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())

        sys_, c = double_well(), build_cache(dataio.load_model(tiny_model))
        dt, n_steps = 0.01, 50

        def draw(s):
            rng = np.random.Generator(np.random.PCG64(child_seed(s, 0)))
            return rng.normal(0.0, math.sqrt(dt), size=(40, n_steps, 1))

        def separate(dist):
            true = simulate_callable_batch(
                lambda X: (sys_.drift_fn(X), sys_.diffusion_fn(X)), [0.5], dt, draw(3))
            fit = simulate_callable_batch(
                lambda X: (drift_batch(X, c), diffusion_batch(X, c)), [0.5], dt, draw(4))
            checks = np.unique(np.linspace(1, n_steps, 10).round().astype(int))
            return float(sum(dist(true[:, i], fit[:, i]) for i in checks))

        assert metrics["distribution_discrepancy"] == separate(energy_distance)
        assert metrics["distribution_discrepancy_kde_l2"] == separate(kde_l2_distance)

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


class TestSampleBlocks:
    """768 paths of 300 steps of a 1-d model: simulate and evaluate step
    them in three blocks of 256 samples."""

    STEPS = ["--horizon", "3", "--dt", "0.01"]

    def simulate(self, model, out, n_paths=768, seed=5):
        return run_cli(["simulate", "--model", model, "--x0", "0.5", *self.STEPS,
                        "--n-paths", n_paths, "--seed", seed, "--density-grid=-3:3:31",
                        "--out-dir", out])

    def test_outputs_equal_one_batch(self, tiny_model, tmp_path, monkeypatch):
        from gpsde import cli, systems

        def outputs(out):
            assert self.simulate(tiny_model, out / "sim") == 0
            assert run_cli(["evaluate", "--model", tiny_model, "--system", "double-well",
                            "--box=-1.5:1.5", "--n-grid", 11, "--x0", "0.5",
                            "--horizon", "3", "--n-paths", 768, "--seed", 5,
                            "--out-dir", out / "eval"]) == 0
            return {f"{d}/{name}": text for d in ("sim", "eval")
                    for name, text in dir_bytes(out / d).items()}

        assert len(list(cli.sample_blocks(768, 300, 1))) == 3
        blocked = outputs(tmp_path / "blocked")
        for module in (cli, systems):
            monkeypatch.setattr(module, "sample_blocks", lambda n, *_: [slice(0, n)])
        one = outputs(tmp_path / "one")
        assert sorted(blocked) == ["eval/manifest.ini", "eval/metrics.json",
                                   "sim/density.csv", "sim/manifest.ini", "sim/paths.csv"]
        assert blocked == one

    def test_paths_do_not_depend_on_n_paths(self, tiny_model, tmp_path):
        # samples 256..511 are the second block of both runs, which differ
        # in their third
        few, many = tmp_path / "few", tmp_path / "many"
        assert self.simulate(tiny_model, few, n_paths=512) == 0
        assert self.simulate(tiny_model, many) == 0
        assert (many / "paths.csv").read_text().startswith((few / "paths.csv").read_text())

    def test_memory_stays_within_a_block(self, tiny_model, tmp_path, traced_peak):
        # one batch of all 768 paths holds 1.8 MB of paths and as much of
        # increments; a block of 256 holds a third of each
        def run():
            assert self.simulate(tiny_model, tmp_path / "sim") == 0

        peak = traced_peak(run)
        assert peak < 2.5e6, f"peak {peak} B"

    def test_blowup_in_a_later_block_leaves_no_output(self, tmp_path, capsys):
        # sigma 3e6 at x0 = 0 moves each sample to 3e5 z on its first step,
        # z its first standard-normal draw, where the field vanishes; with
        # seed 18 only sample 574, in the third block, has |z| > 10/3 and
        # leaves the 1e6 limit
        from gpsde.field import InducingModel
        from gpsde.kernels import KernelParams
        p = KernelParams(1.0, [1.0])
        m = InducingModel(Z=np.array([[-1.0], [0.0], [1.0]]), U_f=np.zeros((3, 1)),
                          u_sigma=np.full(3, 3e6), drift_params=p, diff_params=p,
                          noise_vars=[0.01])
        mp = tmp_path / "m.json"
        dataio.save_model(mp, m)
        out = tmp_path / "sim"
        rc = run_cli(["simulate", "--model", mp, "--x0", "0", *self.STEPS, "--n-paths", 768,
                      "--seed", 18, "--density-grid=-3:3:7", "--out-dir", out])
        assert rc == 4
        assert "at step 1 (sample 574)" in capsys.readouterr().err
        assert list(out.iterdir()) == []


# (argv, flag, exit code) of a bad flag: 2 for a value its flag's type rejects
# (argparse's usage error), 3 for a flag that disagrees with the system, the
# model or the data (a data error)
BAD_FLAGS = [
    (["simulate", "--x0", "0.5", "--density-grid=-5:5:x"], "--density-grid", 2),
    (["simulate", "--x0", "0.5", "--density-grid=-5:5:0"], "--density-grid", 2),
    (["simulate", "--x0", "0.5", "--density-grid=-5:5:9,-5:5:3"], "--density-grid", 3),
    (["simulate", "--x0", "0.5", "--dt", "0"], "--dt", 2),
    (["simulate", "--x0", "0.5", "--horizon", "0"], "--horizon", 2),
    (["simulate", "--x0", "0.5", "--horizon", "-1"], "--horizon", 2),
    (["evaluate", "--n-grid", "0"], "--n-grid", 2),
    (["evaluate", "--system", "van-der-pol", "--box=-3:3"], "--box", 3),
    (["fit", "--inducing=-2:2:x"], "--inducing", 2),
    (["simulate", "--x0", "0.1,0.2"], "--x0", 3),
    (["evaluate", "--x0", "0.1,0.2"], "--x0", 3),
    (["generate", "--system", "oscillator", "--x0-box=-2:2"], "--x0-box", 3),
    (["generate", "--x0-box=2:-2"], "--x0-box", 2),
    (["generate", "--n-obs", "1"], "--n-obs", 2),
    (["evaluate", "--n-paths", "1"], "--n-paths", 2),
    (["evaluate", "--system", "oscillator", "--box=-2:2,-2:2"], "--model", 3),
    (["generate", "--n-traj", "0"], "--n-traj", 2),
    (["generate", "--gen-dt", "-1"], "--gen-dt", 2),
    (["generate", "--gen-dt", "nan"], "--gen-dt", 2),
    (["generate", "--noise-std", "-0.1"], "--noise-std", 2),
    (["generate", "--subsample-every", "0"], "--subsample-every", 2),
    (["fit", "--n-samples", "0"], "--n-samples", 2),
    (["fit", "--resolution-factor", "0"], "--resolution-factor", 2),
    (["fit", "--lengthscales", "0.5,abc"], "--lengthscales", 2),
    (["fit", "--max-iters", "-1"], "--max-iters", 2),
    (["fit", "--grad-tol", "0"], "--grad-tol", 2),
    (["fit", "--noise-vars", "0.1,0"], "--noise-vars", 2),
    (["fit", "--noise-vars", "0.1,0.1,0.1"], "--noise-vars", 3),
    (["fit", "--kernel-variance", "-1"], "--kernel-variance", 2),
    (["fit", "--lengthscales", "0.5,-1"], "--lengthscales", 2),
    (["fit", "--inducing=-2:2:1"], "--inducing", 2),
    (["evaluate", "--box=1:2:3"], "--box", 2),
    (["generate", "--x0-box=abc"], "--x0-box", 2),
    (["fit", "--inducing=-inf:2:5"], "--inducing", 2),
    (["simulate", "--x0", "0.5", "--density-grid=-3:3"], "--density-grid", 2),
    (["simulate", "--x0", "a,b"], "--x0", 2),
    (["fit", "--inducing=2:2:5"], "--inducing", 2),
    (["fit", "--inducing=-2:2:3,-2:2:3"], "--inducing", 3),
    (["evaluate", "--data-dir", "OSC_DATASET"], "--data-dir", 3),
    (["simulate", "--x0", "nan"], "--x0", 2),
    (["evaluate", "--x0", "inf"], "--x0", 2),
    (["evaluate", "--box=-2:nan"], "--box", 2),
    (["generate", "--system", "van-der-pol", "--mu", "nan"], "--mu", 2),
    (["generate", "--system", "van-der-pol", "--mu", "inf"], "--mu", 2),
    (["evaluate", "--system", "van-der-pol", "--mu", "nan"], "--mu", 2),
    (["evaluate", "--system", "van-der-pol", "--mu=-inf"], "--mu", 2),
    (["simulate", "--x0", "0.5", "--density-grid=-3:3:5", "--density-time", "inf"],
      "--density-time", 2),
    (["simulate", "--x0", "0.5", "--density-grid=-3:3:5", "--density-time", "nan"],
      "--density-time", 2),
]


@pytest.mark.parametrize("argv, flag, code", BAD_FLAGS,
                         ids=[f"argv{i}-{flag}" for i, (_, flag, _) in enumerate(BAD_FLAGS)])
def test_bad_flag_is_data_error_that_names_it(argv, flag, code, tiny_dataset, tiny_model,
                                               osc_dataset, tmp_path, capsys):
    """Every bad flag is named and rejected before any output.  The cases
    keep the name and ids they had when all of them were data errors."""
    cmd, rest = argv[0], [osc_dataset if a == "OSC_DATASET" else a for a in argv[1:]]
    source = {"fit": ["--data-dir", tiny_dataset], "generate": []}.get(
        cmd, ["--model", tiny_model])
    out = tmp_path / "out"
    if code == 2:
        with pytest.raises(SystemExit) as err:
            run_cli([cmd, *source, *rest, "--out-dir", out])
        assert err.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert run_cli([cmd, *source, *rest, "--out-dir", out]) == 3
        assert flag in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("cmd", ["fit", "evaluate"])
def test_mixed_dimension_dataset_is_data_error(cmd, tiny_dataset, tiny_model,
                                               osc_dataset, tmp_path, capsys):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "traj_000.csv").write_bytes((tiny_dataset / "traj_000.csv").read_bytes())
    (mixed / "traj_001.csv").write_bytes((osc_dataset / "traj_000.csv").read_bytes())
    model = ["--model", tiny_model] if cmd == "evaluate" else []
    out = tmp_path / "out"
    assert run_cli([cmd, "--data-dir", mixed, *model, "--out-dir", out]) == 3
    assert "traj_001.csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["fit", "evaluate"])
def test_one_row_trajectory_is_data_error(cmd, tiny_dataset, tiny_model, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "traj_000.csv").write_bytes((tiny_dataset / "traj_000.csv").read_bytes())
    (data / "traj_001.csv").write_text("t,x_1\n0.0,0.5\n")
    model = ["--model", tiny_model] if cmd == "evaluate" else []
    out = tmp_path / "out"
    assert run_cli([cmd, "--data-dir", data, *model, "--out-dir", out]) == 3
    assert "traj_001.csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload", ["list", "string-Z", "ragged-U_f", "nan-U_f", "inf-Z",
                                     "duplicate-Z"])
@pytest.mark.parametrize("cmd", ["simulate", "evaluate"])
def test_malformed_model_file_is_data_error(payload, cmd, tiny_model, tmp_path, capsys):
    d = json.loads(tiny_model.read_text())
    edits = {"string-Z": ("Z", "abc"), "ragged-U_f": ("U_f", [[0.0], [1.0, 2.0]]),
             "nan-U_f": ("U_f", [[float("nan")]] + d["U_f"][1:]),
             "inf-Z": ("Z", [[float("inf")]] + d["Z"][1:]),
             "duplicate-Z": ("Z", d["Z"][:1] + d["Z"][:-1])}
    if payload in edits:
        key, value = edits[payload]
        d[key] = value
    model = tmp_path / "bad_model.json"
    model.write_text("[]" if payload == "list" else json.dumps(d))
    extra = ["--x0", "0.5"] if cmd == "simulate" else []
    out = tmp_path / "out"
    assert run_cli([cmd, "--model", model, *extra, "--out-dir", out]) == 3
    assert "bad_model.json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd, extra", [("simulate", ["--x0", "0.5"]), ("evaluate", [])])
def test_missing_model_is_usage_error(cmd, extra, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli([cmd, *extra, "--out-dir", out]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_usage_error_before_any_output(tiny_dataset, tiny_model, tmp_path,
                                                       capsys):
    for argv in (["generate"], ["fit", "--data-dir", tiny_dataset],
                 ["simulate", "--model", tiny_model, "--x0", "0"],
                 ["evaluate", "--model", tiny_model]):
        out = tmp_path / argv[0]
        with pytest.raises(SystemExit) as err:
            run_cli([*argv, "--seed", "-3", "--out-dir", out])
        assert err.value.code == 2
        assert "--seed: must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(InputError, match="seed"):
        FitConfig(lengthscale_grid=(1.0,), inducing_grid_spec=((-1, 1, 3),), seed=-1)
    with pytest.raises(InputError, match="seed"):
        GenSpec(n_traj=1, n_obs_per_traj=2, gen_dt=0.1, subsample_every=1, noise_std=0.1,
                x0_box=[[0.0, 1.0]], seed=-1)


def test_fit_flag_defaults_are_fit_config_defaults():
    parsed = vars(build_parser().parse_args(["fit", "--out-dir", "unused"]))
    shared = [f for f in fields(FitConfig) if f.name in parsed]
    assert shared
    for f in shared:
        assert parsed[f.name] == f.default, f.name


def test_every_value_flag_has_a_type():
    """A flag's value rule lives in its type, so a value flag without one
    would take any text unchecked; flags with choices and the path flags
    are the exceptions."""
    paths = {"--config", "--out-dir", "--data-dir", "--model"}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == ["evaluate", "fit", "generate", "simulate"]
    for name, parser in commands.items():
        for action in parser._actions:
            flag = action.option_strings[0]
            if action.nargs == 0 or action.choices or flag in paths:
                continue
            assert action.type is not None, f"{name} {flag}"


def test_removed_resample_period_flag_is_usage_error(tiny_dataset, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli(["fit", "--data-dir", tiny_dataset, "--resample-period", 1,
                 "--out-dir", out])
    assert err.value.code == 2
    assert not out.exists()


def test_manifest_with_removed_resample_period_is_data_error(tiny_model, tmp_path, capsys):
    # fit manifests written while the option existed hold this line
    text = (tiny_model.parent / "manifest.ini").read_text()
    old = tmp_path / "old.ini"
    old.write_text(text.replace("resolution_factor = 2\n",
                                "resolution_factor = 2\nresample_period = 0\n"))
    assert "resample_period = 0" in old.read_text()
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", old, "--out-dir", out]) == 3
    assert "unknown config key 'resample_period'" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["generate", "--system", "oscillator", "--n-traj", 1, "--n-obs", 12,
     "--subsample-every", 5, "--x0-box=-1:1,-1:1", "--seed", 2],
    ["fit", "--inducing=-2.5:2.5:5", "--lengthscales", "1.0", "--max-iters", 2,
     "--n-samples", 4, "--seed", 5],
    ["simulate", "--x0", "0.5", "--horizon", "0.5", "--dt", "0.05", "--n-paths", 5,
     "--density-grid=-3:3:31", "--density-time", "0.25", "--seed", 3],
    ["evaluate", "--box=-1.5:1.5", "--n-grid", 11, "--x0", "0.5", "--horizon", "0.3",
     "--n-paths", 20, "--seed", 1],
], ids=lambda argv: argv[0])
def test_manifest_as_config_reproduces_the_run(argv, tiny_dataset, tiny_model, tmp_path):
    cmd = argv[0]
    source = {"fit": ["--data-dir", tiny_dataset], "generate": []}.get(
        cmd, ["--model", tiny_model])
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli([*argv, *source, "--out-dir", first]) == 0
    assert run_cli([cmd, "--config", first / "manifest.ini", "--out-dir", again]) == 0
    assert dir_bytes(again) == dir_bytes(first)


@pytest.mark.parametrize("cmd, entry, flag", [
    ("generate", "n_obs = abc", "--n-obs"),
    ("simulate", "n_paths = 2.5", "--n-paths"),
    ("fit", "max_iters = 0.5", "--max-iters"),
    ("generate", "system = nosuch", "--system"),
    ("generate", "n_obs = 1", "--n-obs"),
    ("fit", "n_samples = 0", "--n-samples"),
    ("simulate", "horizon = -1", "--horizon"),
])
def test_bad_config_entry_fails_like_its_flag(cmd, entry, flag, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{cmd}]\n{entry}\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli([cmd, "--config", cfg, "--out-dir", out])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (None, "cannot open config file"),
    ("n-traj = 3\n", "invalid config file"),
], ids=["missing", "no-section"])
def test_unreadable_config_is_data_error(text, message, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli(["generate", "--config", cfg, "--out-dir", out]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[generate]\nbogus = 1\n")
    out = tmp_path / "out"
    assert run_cli(["generate", "--config", cfg, "--out-dir", out]) == 3
    assert "unknown config key 'bogus'" in capsys.readouterr().err
    assert not out.exists()
