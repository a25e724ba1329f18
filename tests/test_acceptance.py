"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them even
on success).  The heavy recovery runs (double well, oscillator trend) are
desk-scale reductions with seeded, deterministic configurations.
"""

import json
import time

import numpy as np
import pytest

from gpsde import dataio
from gpsde.cli import main as cli_main
from gpsde.field import (
    InducingModel,
    build_cache,
    diffusion_batch,
    drift_batch,
    grid_points,
    update_values,
)
from gpsde.fit import FitConfig, fit_map
from gpsde.kernels import KernelParams
from gpsde.objective import (
    Trajectory,
    draw_increments,
    evaluate_with_increments,
    make_grids,
)
from gpsde.sim import build_grid, sample_increments, sample_paths, simulate_batch, state_density
from gpsde.systems import (
    GenSpec,
    distribution_discrepancy,
    double_well,
    drift_error,
    generate,
    oscillator_hotspot,
)


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: gradient fidelity -------------------------------------------

def distinct_uniform(rng, M, D):
    """M points drawn from U(-2, 2)^D, redrawn until pairwise distinct."""
    Z = rng.uniform(-2, 2, (M, D))
    while True:
        d2 = np.sum((Z[:, None] - Z[None]) ** 2, -1)
        d2[np.diag_indices(M)] = np.inf
        if d2.min() > 1e-4:
            return Z
        Z = rng.uniform(-2, 2, (M, D))


def random_instance(seed):
    rng = np.random.default_rng(seed)
    D = int(rng.integers(1, 3))
    M = int(rng.integers(2, 10))
    n_obs = int(rng.integers(3, 11))
    n_samples = int(rng.integers(2, 6))
    factor = int(rng.integers(2, max(3, 100 // (n_obs - 1))))
    if D == 1:
        Z = distinct_uniform(rng, M, 1)
    else:
        # the Cartesian grid of 1-3 random coordinates per axis, M >= 2 points
        sizes = rng.integers(1, 4, size=2)
        while sizes.prod() < 2:
            sizes = rng.integers(1, 4, size=2)
        axes = [distinct_uniform(rng, n, 1)[:, 0] for n in sizes]
        Z = grid_points(axes)
        M = len(Z)
    m = InducingModel(
        Z=Z,
        U_f=0.5 * rng.normal(size=(M, D)),
        u_sigma=0.4 * rng.normal(size=M),
        drift_params=KernelParams(1.0, rng.uniform(0.8, 1.5, D)),
        diff_params=KernelParams(1.0, rng.uniform(0.8, 1.5, D)),
        noise_vars=rng.uniform(0.02, 0.1, D),
    )
    # non-uniform sampling: gaps within 0.7-1.3x of each other
    gaps = rng.uniform(0.7, 1.3, n_obs - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)]) * (1.5 / gaps.sum())
    tr = Trajectory(times=times, obs=0.5 * rng.normal(size=(n_obs, D)))
    return m, tr, factor, n_samples


def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    worst = 0.0
    n_instances = 22
    for seed in range(n_instances):
        m, tr, factor, n_samples = random_instance(seed)
        cache = build_cache(m)
        grids = make_grids([tr], factor)
        incs = draw_increments([tr], grids, m, n_samples, seed + 1000)
        val = evaluate_with_increments([tr], m, cache, grids, incs)
        an = val.packed_grad()

        MD, M = m.M * m.D, m.M
        x0 = np.concatenate([m.u_f, m.u_sigma, np.log(m.noise_vars)])
        h = 1e-5
        fd = np.zeros_like(x0)
        for q in range(x0.size):
            vals = []
            for s in (+1, -1):
                x = x0.copy()
                x[q] += s * h
                m2, c2 = update_values(cache, m, U_f=x[:MD].reshape(m.M, m.D),
                                       u_sigma=x[MD:MD + M],
                                       noise_vars=np.exp(x[MD + M:]))
                vals.append(evaluate_with_increments([tr], m2, c2, grids, incs).log_posterior)
            fd[q] = (vals[0] - vals[1]) / (2 * h)
        rel = np.abs(an - fd) / np.maximum(1e-8, np.abs(fd))
        worst = max(worst, float(rel.max()))
    report("criterion 1 (gradient fidelity)", worst <= 1e-4,
           f"{n_instances} instances, worst relative error {worst:.2e} "
           f"(tol 1e-4), {time.time() - t0:.1f}s")


# -- criterion 2: weak correctness of the stepper ------------------------------

def ou_embedding(theta=1.0, sigma=0.5):
    Z = np.linspace(-4.0, 4.0, 33)[:, None]
    p = KernelParams(1.0, [0.75])
    m = InducingModel(Z=Z, U_f=-theta * Z, u_sigma=np.full(33, sigma),
                      drift_params=p, diff_params=p,
                      noise_vars=[0.01])
    return m, build_cache(m)


def test_criterion_2_weak_correctness():
    theta, sigma, x0, horizon = 1.0, 0.5, 1.0, 1.0
    m, c = ou_embedding(theta, sigma)
    mean_true = x0 * np.exp(-theta * horizon)
    var_true = sigma**2 * (1 - np.exp(-2 * theta * horizon)) / (2 * theta)

    grid = build_grid([0.0, horizon], 100)  # dt = 0.01
    term = sample_paths(c, [x0], grid, 10_000, 42)[:, -1, 0]
    se_mean = term.std(ddof=1) / np.sqrt(term.size)
    se_var = term.var(ddof=1) * np.sqrt(2.0 / (term.size - 1))
    mean_err = abs(term.mean() - mean_true)
    var_err = abs(term.var(ddof=1) - var_true)
    moments_ok = mean_err < 3 * se_mean + 3e-3 and var_err < 3 * se_var + 2e-3

    # refinement study on one Brownian path family: dt in {0.1, 0.05, 0.025}
    fine = build_grid([0.0, horizon], 40)
    inc_fine = sample_increments(fine, 20_000, 1, 11)
    errs = []
    for agg in (4, 2, 1):
        n = 40 // agg
        g = build_grid([0.0, horizon], n)
        inc = inc_fine.reshape(20_000, n, agg, 1).sum(axis=2)
        paths = simulate_batch(c, [x0], g, inc)
        errs.append(abs(paths[:, -1, 0].mean() - mean_true))
    monotone = errs[0] > errs[1] > errs[2]
    report("criterion 2 (weak correctness)", moments_ok and monotone,
           f"mean err {mean_err:.4f} (3SE {3 * se_mean:.4f}), "
           f"var err {var_err:.4f} (3SE {3 * se_var:.4f}), "
           f"refinement errors {[round(e, 4) for e in errs]} decreasing={monotone}")


# -- criterion 3: interpolation property ---------------------------------------

def test_criterion_3_interpolation():
    rng = np.random.default_rng(5)
    worst = 0.0
    for D, M, spacing in ((1, 9, 1.0), (2, 9, 1.2), (2, 16, 1.0)):
        if D == 1:
            Z = (np.arange(M) * spacing)[:, None]
        else:
            side = int(round(M ** 0.5))
            ax = np.arange(side) * spacing
            Z = grid_points([ax, ax])
        m = InducingModel(
            Z=Z, U_f=rng.normal(scale=2.0, size=Z.shape),
            u_sigma=rng.normal(scale=2.0, size=Z.shape[0]),
            drift_params=KernelParams(1.0, [0.8] * D),
            diff_params=KernelParams(1.0, [0.9] * D),
            noise_vars=np.full(D, 0.05),
        )
        c = build_cache(m)
        rel_f = np.max(np.abs(drift_batch(m.Z, c) - m.U_f) / (1.0 + np.abs(m.U_f)))
        rel_s = np.max(np.abs(diffusion_batch(m.Z, c) - m.u_sigma) / (1.0 + np.abs(m.u_sigma)))
        worst = max(worst, float(rel_f), float(rel_s))
    report("criterion 3 (interpolation)", worst <= 1e-4,
           f"worst |field(Z_m) - u_m| / (1 + |u_m|) = {worst:.2e} (tol 1e-4)")


# -- criteria 4 and 8: double-well recovery and optimizer contract -------------

DW_GEN = dict(n_traj=6, n_obs_per_traj=250, gen_dt=0.005, subsample_every=2,
              noise_std=0.1, seed=36)
DW_FIT = dict(lengthscales=1.0, kernel_variance=100.0, max_iters=1200,
              n_samples=50, seed=0)


@pytest.fixture(scope="module")
def double_well_fit():
    sys_ = double_well()
    spec = GenSpec(x0_box=np.array([[-2.2, 2.2]]), **DW_GEN)
    data = generate(sys_, spec)
    cfg = FitConfig(
        lengthscale_grid=(DW_FIT["lengthscales"],),
        inducing_grid_spec=((-5.0, 5.0, 15),),
        resolution_factor=1, n_samples=DW_FIT["n_samples"],
        seed=DW_FIT["seed"], max_iters=DW_FIT["max_iters"],
        kernel_variance=DW_FIT["kernel_variance"],
        fix_noise_vars=(DW_GEN["noise_std"] ** 2,),
    )
    t0 = time.time()
    rep = fit_map(data, cfg)
    return sys_, data, rep, time.time() - t0


def test_criterion_4_double_well_recovery(double_well_fit):
    sys_, data, rep, wall = double_well_fit
    model = rep.final_model
    cache = build_cache(model)
    rms = drift_error(sys_, cache, [[-1.8, 1.8]], 61)
    xs = np.linspace(-1.5, 1.5, 61)[:, None]
    mean_sigma = float(np.abs(diffusion_batch(xs, cache)).mean())
    ok = rms <= 0.6 and 1.1 <= mean_sigma <= 1.7
    report("criterion 4 (double-well recovery)", ok,
           f"drift RMS on [-1.8,1.8] = {rms:.3f} (tol 0.6), "
           f"mean |sigma| on [-1.5,1.5] = {mean_sigma:.3f} (band [1.1, 1.7]), "
           f"fit {wall:.0f}s")


def test_criterion_8_optimizer_improves_on_init(double_well_fit):
    _, _, rep, _ = double_well_fit
    ok = rep.final_log_posterior > rep.init_log_posterior
    report("criterion 8 (optimizer contract)", ok,
           f"frozen-seed log-posterior init {rep.init_log_posterior:.1f} -> "
           f"final {rep.final_log_posterior:.1f}")


# -- criterion 5: data-efficiency trend ----------------------------------------

def test_criterion_5_data_efficiency_trend():
    sys_ = oscillator_hotspot()
    counts = (1, 5, 10)
    errs = {k: [] for k in counts}
    discs = {k: [] for k in counts}
    t0 = time.time()
    for r in range(5):
        spec = GenSpec(n_traj=10, n_obs_per_traj=25, gen_dt=0.005,
                       subsample_every=100, noise_std=0.1,
                       x0_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), seed=200 + r)
        full = generate(sys_, spec)  # prefix-stable: first k form the k-batch
        for k in counts:
            cfg = FitConfig(
                lengthscale_grid=(0.5,),
                inducing_grid_spec=((-1.8, 1.8, 5), (-1.8, 1.8, 5)),
                resolution_factor=2, n_samples=25, seed=0,
                max_iters=80, kernel_variance=100.0,
                fix_noise_vars=(0.01, 0.01),
            )
            rep = fit_map(full[:k], cfg)
            model = rep.final_model
            cache = build_cache(model)
            errs[k].append(drift_error(sys_, cache,
                                       [[-1.6, 1.6], [-1.6, 1.6]], 21, data=full))
            discs[k].append(distribution_discrepancy(
                sys_, cache, [1.0, 0.0], 5.0, 300, 7,
                dt=0.05, fitted_seed=8)["energy"])
    med_e = [float(np.median(errs[k])) for k in counts]
    med_d = [float(np.median(discs[k])) for k in counts]
    ok = med_e[0] >= med_e[1] >= med_e[2] and med_d[0] >= med_d[1] >= med_d[2]
    report("criterion 5 (data-efficiency trend)", ok,
           f"median drift errors {[round(e, 3) for e in med_e]}, "
           f"median discrepancies {[round(d, 3) for d in med_d]} "
           f"for {counts} trajectories; {time.time() - t0:.0f}s")


# -- criterion 6: Monte Carlo density convergence -------------------------------

def test_criterion_6_density_convergence():
    Z = np.linspace(-2.5, 2.5, 26)[:, None]
    p = KernelParams(1.0, [0.4])
    m = InducingModel(Z=Z, U_f=4 * (Z - Z**3), u_sigma=np.full(26, 1.5),
                      drift_params=p, diff_params=p,
                      noise_vars=[0.01])
    c = build_cache(m)
    grid = build_grid([0.0, 1.0], 100)
    xs = np.linspace(-3.5, 3.5, 201)[:, None]
    dx = xs[1, 0] - xs[0, 0]
    h = 0.25
    ref = state_density(sample_paths(c, [0.0], grid, 5000, 999)[:, grid.n_steps],
                        [xs[:, 0]], h)
    medians = []
    for ns in (10, 50, 250):
        dists = []
        for seed in range(5):
            dens = state_density(sample_paths(c, [0.0], grid, ns, seed)[:, grid.n_steps],
                                 [xs[:, 0]], h)
            dists.append(float(np.sqrt(np.sum((dens - ref) ** 2) * dx)))
        medians.append(float(np.median(dists)))
    ok = medians[0] > medians[1] > medians[2]
    report("criterion 6 (density convergence)", ok,
           f"median L2 distance to 5000-path reference: "
           f"{[round(v, 4) for v in medians]} for 10/50/250 paths")


# -- criterion 7: CLI determinism and round trips -------------------------------

def test_criterion_7_determinism_and_roundtrip(tmp_path):
    def run(args):
        rc = cli_main([str(a) for a in args])
        assert rc == 0, f"command failed: {args}"

    def tree_bytes(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}

    # identical config (including input paths) + seed, fresh output dirs
    gen = tmp_path / "gen_a"
    stages = {}
    for tag in ("a", "b"):
        fit = tmp_path / f"fit_{tag}"
        sim = tmp_path / f"sim_{tag}"
        ev = tmp_path / f"eval_{tag}"
        run(["generate", "--system", "double-well", "--n-traj", 2, "--n-obs", 40,
             "--subsample-every", 2, "--seed", 11, "--out-dir", tmp_path / f"gen_{tag}"])
        run(["fit", "--data-dir", gen, "--out-dir", fit, "--inducing=-2.5:2.5:7",
             "--lengthscales", "0.8", "--max-iters", 5, "--n-samples", 8,
             "--resolution-factor", 1, "--seed", 3])
        run(["simulate", "--model", tmp_path / "fit_a" / "model.json", "--x0", "0.5",
             "--horizon", "1.0", "--dt", "0.05", "--n-paths", 10, "--seed", 4,
             "--density-grid=-4:4:101", "--bandwidth", "0.3", "--out-dir", sim])
        run(["evaluate", "--model", tmp_path / "fit_a" / "model.json",
             "--system", "double-well", "--box=-1.5:1.5", "--n-grid", 31,
             "--x0", "0.5", "--horizon", "1.0", "--n-paths", 100, "--seed", 5,
             "--data-dir", gen, "--out-dir", ev])
        stages[tag] = {name: tree_bytes(tmp_path / f"{name}_{tag}")
                       for name in ("gen", "fit", "sim", "eval")}

    identical = stages["a"] == stages["b"]

    # round trips: file -> object -> file must be byte-identical
    gen = tmp_path / "gen_a"
    traj_file = gen / "traj_000.csv"
    tr = dataio.read_trajectory_csv(traj_file)
    dataio.write_trajectory_csv(tmp_path / "rt.csv", tr)
    traj_rt = (tmp_path / "rt.csv").read_bytes() == traj_file.read_bytes()
    model_file = tmp_path / "fit_a" / "model.json"
    mdl = dataio.load_model(model_file)
    dataio.save_model(tmp_path / "rt.json", mdl)
    model_rt = (tmp_path / "rt.json").read_bytes() == model_file.read_bytes()

    ok = identical and traj_rt and model_rt
    report("criterion 7 (determinism & round-trip)", ok,
           f"rerun byte-identical={identical}, trajectory round-trip={traj_rt}, "
           f"model round-trip={model_rt}")
