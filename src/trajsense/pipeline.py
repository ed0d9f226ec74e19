"""Experiment pipeline: simulate -> build samples -> fit -> evaluate -> plan.

Stages communicate through flat files inside one artifact directory and
synchronize at file boundaries. Every output is listed in manifest.ini with a
content hash; a stage whose fingerprint and outputs are already present is
skipped, which makes reruns cheap and the whole pipeline idempotent for a
fixed config and seed.

Noise handling mirrors a physical data collection: the source rollout is the
clean reference, each perturbed recording gets its own temporal lag (drawn in
the configured range) and spatial noise seed.
"""

import configparser
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import io as tio
from .errors import ConfigError, DependencyError, StageError
from .gp import GPConfig
from .planner import PlanningProblem, plan_and_verify
from .sensitivity import SensitivityModel, build_samples, evaluate, fit_gp
from .sim import NoiseConfig, rollout, rollout_batch
from .voxel import VoxelGrid, voxelize_trajectory

STAGES = ("simulate", "build", "fit", "evaluate", "plan")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _gamma_tag(gamma):
    return f"g{gamma:g}"


class Manifest:
    """Stage fingerprints and content hashes of every produced file."""

    def __init__(self, root):
        self.root = root
        self.path = os.path.join(root, "manifest.ini")
        self.stages = {}
        self.files = {}
        if os.path.exists(self.path):
            parser = configparser.ConfigParser()
            parser.read(self.path)
            if parser.has_section("stages"):
                self.stages = dict(parser["stages"])
            if parser.has_section("files"):
                self.files = dict(parser["files"])

    def save(self):
        parser = configparser.ConfigParser()
        parser["stages"] = dict(sorted(self.stages.items()))
        parser["files"] = dict(sorted(self.files.items()))
        with open(self.path, "w") as fh:
            parser.write(fh)

    def record(self, stage, fingerprint, paths):
        self.stages[stage] = fingerprint
        for p in paths:
            rel = os.path.relpath(p, self.root)
            self.files[rel] = _sha256(p)
        self.save()

    def stage_is_current(self, stage, fingerprint):
        if self.stages.get(stage) != fingerprint:
            return False
        for rel, digest in self.files.items():
            if not rel.startswith(_stage_prefix(stage)):
                continue
            full = os.path.join(self.root, rel)
            if not os.path.exists(full) or _sha256(full) != digest:
                return False
        return True


def _stage_prefix(stage):
    return {"simulate": "trajectories", "build": "samples", "fit": "models",
            "evaluate": "metrics", "plan": "planning"}[stage] + os.sep


def _ensure_dirs(out, *names):
    for name in names:
        os.makedirs(os.path.join(out, name), exist_ok=True)


def _pmap(fn, items, workers):
    if workers <= 1:
        return [fn(item) for item in items]
    # one chunk per worker: arrays shared by the items are pickled once per chunk
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=-(-len(items) // workers)))


# -- simulate -------------------------------------------------------------------


def _per_sample_noise(cfg, index):
    """Each recording gets its own lag and noise seed, like separate runs."""
    base = cfg.noise
    if base.is_clean:
        return None
    rng = np.random.default_rng((cfg.seed, 77, index))
    shift = 0
    if base.temporal_shift != 0:
        n = abs(base.temporal_shift)
        shift = int(rng.integers(-n, n + 1))
    return NoiseConfig(temporal_shift=shift, spatial_std=base.spatial_std,
                       seed=int(rng.integers(2**31)))


def stage_simulate(cfg, out):
    """Roll out the source and every perturbation as one batch, then write them."""
    _ensure_dirs(out, "trajectories", "samples")
    traj_dir = os.path.join(out, "trajectories")

    deltas = cfg.perturbation_deltas()
    policies = [cfg.policy] + [cfg.policy.with_theta(cfg.policy.theta + d) for d in deltas]
    noises = [None] + [_per_sample_noise(cfg, i) for i in range(len(deltas))]
    trajs = rollout_batch(policies, cfg.x0, cfg.n_steps, cfg.dt, cfg.mode, noises)

    paths = []
    source_path = os.path.join(traj_dir, "source.csv")
    tio.write_trajectory(trajs[0], source_path)
    paths += [source_path, source_path + ".meta"]
    for i, traj in enumerate(trajs[1:]):
        p = os.path.join(traj_dir, f"sample_{i:04d}.csv")
        tio.write_trajectory(traj, p)
        paths += [p, p + ".meta"]

    pert_path = os.path.join(out, "samples", "perturbations.csv")
    tio.write_perturbations(cfg.policy.theta, deltas, pert_path)
    return paths + [pert_path]


# -- build ----------------------------------------------------------------------


def _split_indices(cfg, n):
    rng = np.random.default_rng(cfg.split_seed)
    perm = rng.permutation(n)
    n_test = max(1, int(round(cfg.holdout_fraction * n)))
    if n_test >= n:
        raise ConfigError("holdout fraction leaves no training samples")
    return sorted(perm[n_test:].tolist()), sorted(perm[:n_test].tolist())


def stage_build(cfg, out):
    traj_dir = os.path.join(out, "trajectories")
    source_path = os.path.join(traj_dir, "source.csv")
    if not os.path.exists(source_path):
        raise DependencyError("simulate stage outputs missing")
    source = tio.read_trajectory(source_path)
    deltas = tio.read_perturbations(os.path.join(out, "samples", "perturbations.csv"),
                                    cfg.policy.theta)
    pairs = []
    for i, d in enumerate(deltas):
        traj = tio.read_trajectory(os.path.join(traj_dir, f"sample_{i:04d}.csv"))
        pairs.append((d, traj))

    train_idx, test_idx = _split_indices(cfg, len(pairs))
    paths = []
    for gamma in cfg.gamma_sweep:
        pre = cfg.preprocess_config(gamma)
        tag = _gamma_tag(gamma)
        for name, idx in (("train", train_idx), ("test", test_idx)):
            subset = [pairs[i] for i in idx]
            samples = build_samples(source, subset, pre)
            p = os.path.join(out, "samples", f"{name}_{tag}.csv")
            tio.write_samples(samples, p)
            paths.append(p)
    return paths


# -- fit --------------------------------------------------------------------------


def _fit_task(args):
    t, samples, gp_config, seed, src_angles = args
    return t, fit_gp(samples, t, config=gp_config, seed=seed, source_angles=src_angles)


def _model_timesteps(cfg):
    steps = set(range(0, cfg.n_steps + 1, cfg.stride))
    if cfg.plan_t is not None:
        steps.add(cfg.plan_t)
    return sorted(steps)


def stage_fit(cfg, out, workers=1):
    _ensure_dirs(out, "models")
    source = tio.read_trajectory(os.path.join(out, "trajectories", "source.csv"))
    gp_config = GPConfig(optimize=cfg.gp_optimize, n_restarts=cfg.n_restarts)
    paths = []
    for gamma in cfg.gamma_sweep:
        tag = _gamma_tag(gamma)
        train_path = os.path.join(out, "samples", f"train_{tag}.csv")
        if not os.path.exists(train_path):
            raise DependencyError(f"missing training samples {train_path}")
        samples = tio.read_samples(train_path)
        src_for = source
        if gamma > 0:
            src_for = voxelize_trajectory(source, VoxelGrid(np.full(3, gamma)))
        tasks = [(t, samples, gp_config, cfg.seed, src_for.angles[t])
                 for t in _model_timesteps(cfg)]
        fitted = _pmap(_fit_task, tasks, workers)
        model = SensitivityModel(dict(fitted), nominal_theta=cfg.policy.theta,
                                 delta_low=samples.delta_theta.min(axis=0),
                                 delta_high=samples.delta_theta.max(axis=0))
        model_path = os.path.join(out, "models", f"model_{tag}.npz")
        model.save(model_path)
        summary_path = os.path.join(out, "models", f"summary_{tag}.txt")
        with open(summary_path, "w") as fh:
            fh.write("\n".join(model.summary_lines()))
        paths += [model_path, summary_path]
    return paths


# -- evaluate ----------------------------------------------------------------------


def stage_evaluate(cfg, out):
    _ensure_dirs(out, "metrics")
    results = []
    paths = []
    for gamma in cfg.gamma_sweep:
        tag = _gamma_tag(gamma)
        model_path = os.path.join(out, "models", f"model_{tag}.npz")
        test_path = os.path.join(out, "samples", f"test_{tag}.csv")
        if not (os.path.exists(model_path) and os.path.exists(test_path)):
            raise DependencyError(f"missing fit/build outputs for gamma {gamma:g}")
        model = SensitivityModel.load(model_path)
        test_samples = tio.read_samples(test_path)
        row, per_t, hists = evaluate(model, test_samples, label=cfg.label)
        results.append((gamma, row))

        p1 = os.path.join(out, "metrics", f"metrics_{tag}.csv")
        p2 = os.path.join(out, "metrics", f"per_timestep_{tag}.csv")
        tio.write_metrics(row, per_t, p1, p2)
        p3 = os.path.join(out, "metrics", f"cos_hist_{tag}.csv")
        edges = np.linspace(-1.0, 1.0, 21)
        with open(p3, "w") as fh:
            fh.write("t,bin_lo,bin_hi,count\n")
            for t in sorted(hists):
                for b, count in enumerate(hists[t]):
                    fh.write(f"{t},{edges[b]:.2f},{edges[b+1]:.2f},{count}\n")
        paths += [p1, p2, p3]

    best_gamma = max(results, key=lambda r: r[1].score_avg)[0]
    summary = os.path.join(out, "metrics", "metrics.csv")
    with open(summary, "w") as fh:
        fh.write("task,gamma,mse_avg,score_avg,cos_avg,n_timesteps,selected\n")
        for gamma, row in results:
            sel = 1 if gamma == best_gamma else 0
            fh.write(f"{row.label},{gamma:g},{row.mse_avg:.10g},{row.score_avg:.10g},"
                     f"{row.cos_avg:.10g},{row.n_timesteps},{sel}\n")
    return paths + [summary]


def best_gamma_of(out):
    summary = os.path.join(out, "metrics", "metrics.csv")
    if not os.path.exists(summary):
        raise DependencyError("evaluate stage outputs missing")
    with open(summary) as fh:
        rows = fh.read().strip().splitlines()[1:]
    for line in rows:
        parts = line.split(",")
        if parts[-1] == "1":
            return float(parts[1])
    raise DependencyError("no selected gamma in metrics summary")


# -- plan ---------------------------------------------------------------------------


def stage_plan(cfg, out):
    if cfg.plan_t is None:
        return []
    _ensure_dirs(out, "planning")
    gamma = best_gamma_of(out)
    model = SensitivityModel.load(os.path.join(out, "models",
                                               f"model_{_gamma_tag(gamma)}.npz"))
    source_kp = float(cfg.policy.theta[0])
    fixed_kd = float(cfg.policy.theta[1]) if cfg.policy.theta.size > 1 else 0.0

    paths = []
    report_path = os.path.join(out, "planning", "report.txt")
    with open(report_path, "w") as fh:
        for label, target_kp in zip(("short", "medium", "long"), cfg.plan_target_kps):
            target_traj = rollout(cfg.policy.with_theta(
                np.concatenate([[target_kp], cfg.policy.theta[1:]])),
                cfg.x0, cfg.n_steps, cfg.dt, cfg.mode)
            problem = PlanningProblem(
                source_kp=source_kp, fixed_kd=fixed_kd, t_constraint=cfg.plan_t,
                x_target_t=target_traj.angles[cfg.plan_t],
                final_target=cfg.policy.fixed.get("x_star", np.zeros(3)),
                constraint_dim=cfg.plan_dims)
            report = plan_and_verify(problem, model, cfg.policy, cfg.x0, cfg.dt,
                                     cfg.mode, cfg.n_steps)
            fh.write(f"[{label}]\n")
            fh.write(f"target_kp = {target_kp:.10g}\n")
            fh.write(f"kp_star = {report.kp_star:.10g}\n")
            fh.write(f"source_miss = {report.source_miss:.10g}\n")
            fh.write(f"miss = {report.miss:.10g}\n")
            fh.write(f"improvement = {report.improvement:.10g}\n")
            fh.write(f"improved = {report.improved}\n\n")

            verify = rollout(cfg.policy.with_theta(
                np.concatenate([[report.kp_star], cfg.policy.theta[1:]])),
                cfg.x0, cfg.n_steps, cfg.dt, cfg.mode)
            vp = os.path.join(out, "planning", f"planned_{label}.csv")
            tio.write_trajectory(verify, vp)
            paths += [vp, vp + ".meta"]
    return paths + [report_path]


# -- orchestration --------------------------------------------------------------------


def run_pipeline(cfg, out, workers=1):
    """Run every stage, skipping the ones whose outputs are already current."""
    os.makedirs(out, exist_ok=True)
    manifest = Manifest(out)
    fingerprint = cfg.fingerprint()
    stage_fns = {
        "simulate": lambda: stage_simulate(cfg, out),
        "build": lambda: stage_build(cfg, out),
        "fit": lambda: stage_fit(cfg, out, workers),
        "evaluate": lambda: stage_evaluate(cfg, out),
        "plan": lambda: stage_plan(cfg, out),
    }
    for stage in STAGES:
        if stage == "plan" and cfg.plan_t is None:
            continue
        if manifest.stage_is_current(stage, fingerprint):
            continue
        try:
            produced = stage_fns[stage]()
        except Exception as exc:
            manifest.save()
            raise StageError(f"stage {stage!r} failed: {exc}", stage=stage) from exc
        manifest.record(stage, fingerprint, produced)
    return manifest.path


# -- plot data ---------------------------------------------------------------------


PLOT_KINDS = ("gp_evolution", "cos_histogram", "quiver", "voxel_overlap", "planning")


def emit_plot_data(out, kind):
    """Write a plain-data bundle for one figure kind into <out>/plots/."""
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown figure kind {kind!r}")
    _ensure_dirs(out, "plots")
    dest = os.path.join(out, "plots", f"{kind}.csv")

    if kind == "gp_evolution":
        gamma = best_gamma_of(out)
        model_path = os.path.join(out, "models", f"model_{_gamma_tag(gamma)}.npz")
        if not os.path.exists(model_path):
            raise DependencyError("fit stage outputs missing")
        model = SensitivityModel.load(model_path)
        spread = model.delta_high - model.delta_low
        dim = int(np.argmax(spread))
        grid = np.linspace(model.delta_low[dim], model.delta_high[dim], 41)
        queries = np.zeros((grid.size, model.delta_low.size))
        queries[:, dim] = grid
        with open(dest, "w") as fh:
            fh.write("t,delta,mean_1,mean_2,mean_3,std_1,std_2,std_3\n")
            for t in model.timesteps:
                mean, std = model.model_at(t).predict(queries)
                block = np.column_stack([np.full(grid.size, t), grid, mean, std])
                tio._write_block(fh, tio._row_template(block.shape[1] - 1, end="\n"),
                                 block)
        return dest

    if kind == "cos_histogram":
        gamma = best_gamma_of(out)
        src = os.path.join(out, "metrics", f"cos_hist_{_gamma_tag(gamma)}.csv")
        if not os.path.exists(src):
            raise DependencyError("evaluate stage outputs missing")
        with open(src) as fh, open(dest, "w") as gh:
            gh.write(fh.read())
        return dest

    if kind == "quiver":
        traj_dir = os.path.join(out, "trajectories")
        source_path = os.path.join(traj_dir, "source.csv")
        pert_path = os.path.join(out, "samples", "perturbations.csv")
        if not (os.path.exists(source_path) and os.path.exists(pert_path)):
            raise DependencyError("simulate stage outputs missing")
        source = tio.read_trajectory(source_path)
        with open(dest, "w") as fh:
            fh.write("sample_id,t,src_x1,src_x2,src_x3,pert_x1,pert_x2,pert_x3,"
                     "dx_1,dx_2,dx_3\n")
            for i in range(min(3, _count_samples(traj_dir))):
                traj = tio.read_trajectory(os.path.join(traj_dir, f"sample_{i:04d}.csv"))
                step = max(1, source.n_steps // 20)
                for t in range(0, source.n_steps + 1, step):
                    delta = traj.angles[t] - source.angles[t]
                    row = np.concatenate([source.angles[t], traj.angles[t], delta])
                    fh.write(f"{i},{t}," + ",".join(f"{v:.9g}" for v in row) + "\n")
        return dest

    if kind == "voxel_overlap":
        traj_dir = os.path.join(out, "trajectories")
        source_path = os.path.join(traj_dir, "source.csv")
        if not (os.path.exists(source_path)
                and os.path.exists(os.path.join(traj_dir, "sample_0000.csv"))):
            raise DependencyError("simulate stage outputs missing")
        a = tio.read_trajectory(source_path)
        b = tio.read_trajectory(os.path.join(traj_dir, "sample_0000.csv"))
        with open(dest, "w") as fh:
            fh.write("gamma,l1_gap,same_cell_fraction\n")
            for gamma in (0.01, 0.04, 0.16, 0.2):
                g = VoxelGrid(np.full(3, gamma))
                va, vb = voxelize_trajectory(a, g), voxelize_trajectory(b, g)
                gap = float(np.mean(np.abs(va.angles - vb.angles)))
                same = float(np.mean(np.all(va.angles == vb.angles, axis=1)))
                fh.write(f"{gamma:g},{gap:.9g},{same:.9g}\n")
        return dest

    # kind == "planning"
    report_path = os.path.join(out, "planning", "report.txt")
    if not os.path.exists(report_path):
        raise DependencyError("plan stage outputs missing")
    parser = configparser.ConfigParser()
    parser.read(report_path)
    with open(dest, "w") as fh:
        fh.write("scenario,target_kp,kp_star,source_miss,miss,improvement\n")
        for section in parser.sections():
            s = parser[section]
            fh.write(f"{section},{s['target_kp']},{s['kp_star']},"
                     f"{s['source_miss']},{s['miss']},{s['improvement']}\n")
    return dest


def _count_samples(traj_dir):
    return len([f for f in os.listdir(traj_dir)
                if f.startswith("sample_") and f.endswith(".csv")])
