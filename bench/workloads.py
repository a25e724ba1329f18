"""Workload definitions of the gpsde benchmark.

Each workload is a closed loop: one ``gpsde`` command process at a time,
the next one starting only when the previous one has ended.  Set-up makes
``n_setups`` datasets (or models) from the run's seed and writes them to
files before the first timed command; the commands see only those files.
An input is one set-up plus the command arguments drawn for it; ``inputs``
lists them.  Fit times depend on the data and on the fit's noise seed
through the number of objective evaluations the line search makes (9 to 28
at 5 double-well iterations, mostly 5 to 9 at one, with outliers up to 20),
so the fit workloads run one iteration, fit each dataset ``fit_seeds``
times with its own noise seed, and time a fit per objective evaluation it
makes (``work_units``); that count is not time and is the same on every
run of an input, so it takes the data's share out of the timing.
``setup_repeats`` set-ups are timed (the first ``n_setups`` are the
inputs), and ``pass_s``, the seconds one pass over the inputs took when the
workload was defined (2-vCPU VM), fixes the number of passes a run of a
given length makes.

Every workload records why it was chosen and which end-to-end metric each
per-layer metric should move on it (``predictions``), so a later change can
state its expected effect against these before it is measured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gpsde import dataio, systems
from gpsde.field import InducingModel, build_cache, update_values
from gpsde.kernels import KernelParams
from gpsde.objective import draw_increments, evaluate_with_increments, make_grids


@dataclass(frozen=True)
class Command:
    """One timed ``gpsde`` invocation and where it writes."""

    label: str           # fit | simulate | evaluate
    argv: tuple
    out_dir: Path


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _input_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


class _Passes:
    def passes(self, seconds: float, traced: bool) -> int:
        """Passes over the inputs in a run of ``seconds``: set by the length
        of the run alone, so faster code does not get more cycles to take
        its fastest from.  A traced pass runs every input twice."""
        n = round(seconds / (self.pass_s * (2 if traced else 1)))
        return max(n, 1 if traced else 2)


class FitWorkload(_Passes):
    """``gpsde fit`` on generated datasets with a fixed iteration budget."""

    def __init__(self, name, why, predictions, system, gen, fit, eval_box,
                 eval_grid, n_setups, fit_seeds, setup_repeats, pass_s):
        self.name = name
        self.why = why
        self.predictions = predictions
        self.system = system        # key of gpsde.systems.SYSTEMS
        self.gen = gen              # GenSpec fields except seed
        self.fit = fit              # gpsde fit flags
        self.eval_box = np.asarray(eval_box, dtype=float)
        self.eval_grid = eval_grid
        self.n_setups = n_setups
        self.fit_seeds = fit_seeds
        self.setup_repeats = setup_repeats
        self.pass_s = pass_s

    def setup(self, work: Path, seed: int, k: int) -> dict:
        data_dir = work / f"data{k}"
        s = _input_seed(seed, k)
        spec = systems.GenSpec(seed=s, **self.gen)
        trajs = systems.generate(systems.SYSTEMS[self.system](), spec)
        dataio.write_dataset(data_dir, trajs)
        return {"data_dir": data_dir, "seed": s}

    def inputs(self, setups: list[dict]) -> list[dict]:
        return [dict(s, fit_seed=100 * s["seed"] + j)
                for s in setups for j in range(self.fit_seeds)]

    def commands(self, work: Path, k: int, ctx: dict) -> list[Command]:
        out = work / f"fit{k}"
        argv = ["fit", "--data-dir", str(ctx["data_dir"]), "--out-dir", str(out),
                "--seed", str(ctx["fit_seed"])]
        for flag, val in self.fit.items():
            argv.append(f"--{flag}={val}")
        return [Command("fit", tuple(argv), out)]

    def work_units(self, cycle: dict) -> int:
        """Objective evaluations the input's fit made."""
        return cycle["fit"]["evals"]

    def check(self, cmd: Command, ctx: dict, res: dict) -> list[tuple[str, bool]]:
        """Output checks of one fit; each is one operation."""
        out = cmd.out_dir
        checks = [(f"fit made objective evaluations (counted {res['evals']} calls of "
                   f"gpsde.fit.evaluate_with_increments)", res["evals"] > 0)]
        try:
            report = json.loads((out / "report.json").read_text())
            cands = report["candidates"]
            checks += [(f"candidate {c.get('lengthscales')} ok",
                        c["termination"] != "error") for c in cands]
        except (OSError, ValueError, KeyError) as exc:
            checks.append((f"report.json readable ({exc})", False))
        try:
            rows = _count_lines(out / "trace.csv") - 1
            want = int(self.fit["max-iters"]) + 1
            checks.append((f"trace.csv has {want} rows (got {rows})", rows == want))
        except OSError:
            checks.append(("trace.csv readable", False))
        try:
            dataio.load_model(out / "model.json")
            checks.append(("model.json reloads", True))
        except ValueError as exc:
            checks.append((f"model.json reloads ({exc})", False))
        return checks

    def gradient_check(self, work: Path, k: int, ctx: dict, n_dirs=2, h=1e-7,
                       tol=1e-5) -> list[tuple[str, bool]]:
        """The fit's gradient at the fitted model against central differences
        of its frozen-noise objective along ``n_dirs`` random unit directions,
        the error taken relative to the gradient's norm.

        One L-BFGS step barely moves the fitted model, so ``drift_rms`` hardly
        depends on the gradient; this check does.  The step is small because
        the double-well objective is strongly curved: the truncation error
        falls as h**2 and reached 3e-3 of the gradient's norm at h=1e-5 and
        3e-5 at h=1e-6 (seed 204, first input); at h=1e-7 it is 3e-7, and
        round-off stays near 1e-7 down to h=1e-8.  Each direction is
        one operation."""
        model = dataio.load_model(work / f"fit{k}" / "model.json")
        data = dataio.read_dataset(ctx["data_dir"])
        cache = build_cache(model)
        grids = make_grids(data, int(self.fit["resolution-factor"]))
        incs = draw_increments(data, grids, model, int(self.fit["n-samples"]),
                               ctx["fit_seed"])
        grad = evaluate_with_increments(data, model, cache, grids, incs).packed_grad()
        MD, M = model.M * model.D, model.M
        x0 = np.concatenate([model.U_f.ravel(), model.u_sigma, np.log(model.noise_vars)])
        rng = np.random.default_rng(ctx["fit_seed"])
        checks = []
        for _ in range(n_dirs):
            v = rng.standard_normal(x0.size)
            v /= np.linalg.norm(v)
            vals = []
            for sign in (1.0, -1.0):
                x = x0 + sign * h * v
                m2, c2 = update_values(cache, model, U_f=x[:MD].reshape(M, model.D),
                                       u_sigma=x[MD:MD + M], noise_vars=np.exp(x[MD + M:]))
                vals.append(evaluate_with_increments(data, m2, c2, grids, incs).log_posterior)
            fd = (vals[0] - vals[1]) / (2 * h)
            rel = abs(float(grad @ v) - fd) / max(float(np.linalg.norm(grad)), 1e-8)
            checks.append((f"gradient along a random direction matches central "
                           f"differences (error {rel:.1e} of its norm, tol {tol:.0e})",
                           rel <= tol))
        return checks

    def drift_rms(self, work: Path, k: int, ctx: dict) -> float:
        model = dataio.load_model(work / f"fit{k}" / "model.json")
        data = dataio.read_dataset(ctx["data_dir"])
        return systems.drift_error(systems.SYSTEMS[self.system](), model,
                                   self.eval_box, self.eval_grid, data=data)


class SimulateEvaluateWorkload(_Passes):
    """``gpsde simulate`` then ``gpsde evaluate`` on a fixed model whose
    inducing values are the true fields at the inducing locations."""

    def __init__(self, name, why, predictions, gen, grid_box, grid_n,
                 lengthscale, sim, density, evaluate, n_setups, setup_repeats,
                 pass_s):
        self.name = name
        self.why = why
        self.predictions = predictions
        self.gen = gen
        self.grid_box = grid_box        # (lo, hi) per dimension of Z
        self.grid_n = grid_n            # inducing points per dimension
        self.lengthscale = lengthscale
        self.sim = sim                  # horizon, dt, n-paths
        self.density = density          # ((lo, hi, n), ...) of the KDE grid
        self.evaluate = evaluate        # gpsde evaluate flags
        self.n_setups = n_setups
        self.setup_repeats = setup_repeats
        self.pass_s = pass_s

    def _model(self) -> InducingModel:
        true = systems.van_der_pol()
        axes = [np.linspace(lo, hi, self.grid_n) for lo, hi in self.grid_box]
        Z = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        params = KernelParams(1.0, np.full(2, self.lengthscale))
        return InducingModel(Z=Z, U_f=true.drift_fn(Z), u_sigma=true.diffusion_fn(Z),
                             drift_params=params, diff_params=params, A=np.eye(2),
                             noise_vars=np.full(2, 0.01))

    def setup(self, work: Path, seed: int, k: int) -> dict:
        s = _input_seed(seed, k)
        data_dir = work / f"data{k}"
        spec = systems.GenSpec(seed=s, **self.gen)
        dataio.write_dataset(data_dir, systems.generate(systems.van_der_pol(), spec))
        model_path = work / f"model{k}.json"
        dataio.save_model(model_path, self._model())
        rng = np.random.default_rng(s)
        x0 = ",".join(repr(float(v)) for v in rng.uniform(-2.0, 2.0, size=2))
        return {"data_dir": data_dir, "model": model_path, "x0": x0, "seed": s}

    def inputs(self, setups: list[dict]) -> list[dict]:
        return setups

    def commands(self, work: Path, k: int, ctx: dict) -> list[Command]:
        sim_out, eval_out = work / f"sim{k}", work / f"eval{k}"
        grid = ",".join(f"{lo}:{hi}:{n}" for lo, hi, n in self.density)
        sim = ["simulate", "--model", str(ctx["model"]), f"--x0={ctx['x0']}",
               "--seed", str(ctx["seed"]), f"--density-grid={grid}",
               "--out-dir", str(sim_out)]
        sim += [f"--{flag}={val}" for flag, val in self.sim.items()]
        ev = ["evaluate", "--model", str(ctx["model"]), "--system", "van-der-pol",
              "--data-dir", str(ctx["data_dir"]), f"--x0={ctx['x0']}",
              "--seed", str(ctx["seed"]), "--out-dir", str(eval_out)]
        ev += [f"--{flag}={val}" for flag, val in self.evaluate.items()]
        return [Command("simulate", tuple(sim), sim_out),
                Command("evaluate", tuple(ev), eval_out)]

    def work_units(self, cycle: dict) -> int:
        """One simulate and evaluate pair."""
        return 1

    def check(self, cmd: Command, ctx: dict, res: dict) -> list[tuple[str, bool]]:
        out = cmd.out_dir
        if cmd.label == "evaluate":
            try:
                val = dataio.load_metrics(out / "metrics.json")["drift_rms_error"]
                return [("metrics.json drift_rms_error finite",
                         isinstance(val, float) and math.isfinite(val))]
            except (OSError, ValueError, KeyError) as exc:
                return [(f"metrics.json readable ({exc})", False)]
        checks = []
        n_steps = max(1, int(round(float(self.sim["horizon"]) / float(self.sim["dt"]))))
        want = int(self.sim["n-paths"]) * (n_steps + 1)
        try:
            rows = _count_lines(out / "paths.csv") - 1
            checks.append((f"paths.csv has {want} rows (got {rows})", rows == want))
        except OSError:
            checks.append(("paths.csv readable", False))
        try:
            dens = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
            cell = math.prod((hi - lo) / (n - 1) for lo, hi, n in self.density)
            mass = float(dens[:, -1].sum() * cell)
            checks.append((f"density integrates to 1 (got {mass:.4f})",
                           abs(mass - 1.0) < 0.02))
        except (OSError, ValueError) as exc:
            checks.append((f"density.csv readable ({exc})", False))
        try:
            dataio.load_model(ctx["model"])
            checks.append(("model.json reloads", True))
        except ValueError as exc:
            checks.append((f"model.json reloads ({exc})", False))
        return checks

    def gradient_check(self, work: Path, k: int, ctx: dict) -> list[tuple[str, bool]]:
        return []       # forward only: no gradient to check

    def drift_rms(self, work: Path, k: int, ctx: dict) -> float:
        return float(dataio.load_metrics(work / f"eval{k}" / "metrics.json")
                     ["drift_rms_error"])


_DW_GEN = dict(n_traj=6, n_obs_per_traj=250, gen_dt=0.01, subsample_every=10,
               noise_std=0.1, x0_box=np.array([[-2.0, 2.0]]))
_OSC_GEN = dict(n_traj=10, n_obs_per_traj=25, gen_dt=0.01, subsample_every=50,
                noise_std=0.1, x0_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]))
_VDP_GEN = dict(n_traj=8, n_obs_per_traj=50, gen_dt=0.01, subsample_every=50,
                noise_std=0.1, x0_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]))

_FIT_PREDICTIONS = (
    ("kernels.rbf_matrix.s", "fit_s (initialisation)"),
    ("field.build_cache.s", "fit_s, peak_rss_mb; largest on osc2d_m225_fit"),
    ("field.step_terms_batch.s", "fit_s; largest on osc2d_m225_fit"),
    ("field.update_values.s", "fit_s"),
    ("sensitivity.simulate_bundle.self_s", "fit_s: loop overhead on dw1d_fit"),
    ("sensitivity.stored_mb", "fit_s, peak_rss_mb on osc2d_m225_fit"),
    ("objective.evaluate.self_s", "fit_s"),
    ("objective.mc_loglik_grad.s", "fit_s"),
    ("fit.evals_per_iter", "fit_s (base: fit.iters)"),
    ("fit.driver_self_s", "fit_s"),
    ("fit.candidates_failed", "fail_ratio"),
    ("dataio.read_dataset.s", "fit_s"),
    ("dataio.write_dataset.s", "setup_s"),
    ("systems.generate.s", "setup_s"),
    ("sim.simulate_callable_batch.self_s", "setup_s"),
    ("cli.fit.s", "fit_s"),
)

_VDP_PREDICTIONS = (
    ("kernels.rbf_matrix.s", "evaluate_s"),
    ("field.drift_diffusion_batch.s", "simulate_s"),
    ("field.drift_batch.s", "evaluate_s"),
    ("field.diffusion_batch.s", "evaluate_s"),
    ("sim.simulate_batch.self_s", "simulate_s"),
    ("sim.sample_increments.s", "simulate_s"),
    ("sim.state_density.s", "simulate_s"),
    ("sim.path_steps", "simulate_s"),
    ("sim.simulate_callable_batch.self_s", "evaluate_s, setup_s"),
    ("systems.distribution_discrepancy.self_s", "evaluate_s"),
    ("systems.drift_error.s", "evaluate_s"),
    ("systems.generate.s", "setup_s"),
    ("dataio.write.s", "simulate_s"),
    ("dataio.bytes_written", "simulate_s"),
    ("cli.simulate.s", "simulate_s"),
    ("cli.evaluate.s", "evaluate_s"),
    ("sensitivity.simulate_bundle.s", "none: forward only, predicted no change"),
    ("objective.evaluate.calls", "none: no objective, predicted no change"),
)


def full_workloads() -> dict:
    return {w.name: w for w in (
        FitWorkload(
            name="dw1d_fit",
            why=("criterion-4 double-well fit (D=1, M=15, 6x250 obs, S=50, 249 steps, "
                 "1 iteration): small arrays, so per-call overhead in the step and "
                 "sensitivity loop dominates; preallocation and fusion show, BLAS-bound "
                 "changes barely do"),
            predictions=_FIT_PREDICTIONS,
            system="double-well", gen=_DW_GEN,
            fit={"inducing": "-5:5:15", "lengthscales": "1.0", "kernel-variance": "100",
                 "noise-vars": "0.01", "n-samples": "50", "resolution-factor": "1",
                 "max-iters": "1"},
            eval_box=[[-1.8, 1.8]], eval_grid=61, n_setups=5, fit_seeds=3,
            setup_repeats=10, pass_s=10.4,
        ),
        FitWorkload(
            name="osc2d_m225_fit",
            why=("oscillator-hotspot fit on a 15x15 inducing grid (D=2, M=225, 200 paths, "
                 "48 steps, 1 iteration): the (N, D, M*D) jac_u products, stored "
                 "sensitivities and the (M*D)^2 inverse dominate; the adjoint shows, "
                 "loop overhead barely does"),
            predictions=_FIT_PREDICTIONS,
            system="oscillator", gen=_OSC_GEN,
            fit={"inducing": "-1.8:1.8:15,-1.8:1.8:15", "lengthscales": "0.5",
                 "noise-vars": "0.01", "n-samples": "20", "resolution-factor": "2",
                 "max-iters": "1"},
            eval_box=[[-1.8, 1.8], [-1.8, 1.8]], eval_grid=41, n_setups=2, fit_seeds=2,
            setup_repeats=7, pass_s=8.5,
        ),
        SimulateEvaluateWorkload(
            name="vdp_simulate_evaluate",
            why=("forward-only simulate then evaluate of a fixed Van der Pol model (M=225): "
                 "no sensitivity, objective or optimizer, so it bypasses the fit-path "
                 "changes; covers both stepping loops and the dataio write side"),
            predictions=_VDP_PREDICTIONS,
            gen=_VDP_GEN, grid_box=((-3.0, 3.0), (-3.0, 3.0)), grid_n=15,
            lengthscale=0.6,
            sim={"horizon": "1", "dt": "0.01", "n-paths": "500"},
            density=((-5.0, 5.0, 81), (-6.0, 6.0, 81)),
            evaluate={"box": "-3:3,-3:3", "n-grid": "41", "horizon": "0.5",
                      "n-paths": "300"},
            n_setups=2, setup_repeats=6, pass_s=5.5,
        ),
    )}


def tiny_workloads() -> dict:
    """The same workloads at sizes that run in seconds, for the smoke check."""
    w = full_workloads()
    dw, osc, vdp = w["dw1d_fit"], w["osc2d_m225_fit"], w["vdp_simulate_evaluate"]
    dw.gen = dict(_DW_GEN, n_traj=2, n_obs_per_traj=30)
    dw.fit = dict(dw.fit, inducing="-5:5:6", **{"n-samples": "6"})
    osc.gen = dict(_OSC_GEN, n_traj=2, n_obs_per_traj=8)
    osc.fit = dict(osc.fit, inducing="-1.8:1.8:4,-1.8:1.8:4", **{"n-samples": "4"})
    vdp.gen = dict(_VDP_GEN, n_traj=1, n_obs_per_traj=10)
    vdp.grid_n = 6
    vdp.lengthscale = 1.5
    vdp.sim = {"horizon": "0.2", "dt": "0.01", "n-paths": "20"}
    vdp.density = ((-4.0, 4.0, 41), (-4.0, 4.0, 41))
    vdp.evaluate = {"box": "-3:3,-3:3", "n-grid": "11", "horizon": "0.2",
                    "n-paths": "20"}
    for wl in (dw, osc):
        wl.eval_grid = 11
        wl.fit_seeds = 1
    for wl in w.values():
        wl.n_setups = wl.setup_repeats = 1
    return w
