"""Experiment pipeline: simulate -> build samples -> fit -> evaluate -> plan.

Every stage writes its outputs as flat files inside one artifact directory,
and every output is listed in manifest.ini with a content hash. A stage whose
fingerprint and outputs are already present is skipped, which makes reruns
cheap and the whole pipeline idempotent for a fixed config and seed; once a
stage runs, every later stage runs too, so no output is older than its inputs.

Hand-off rule: inside one run_pipeline call, a stage takes what an earlier
stage of the same call built (the sample sets, the fitted models) from a dict
keyed by artifact path, and reads the file only when the entry is absent: the
earlier stage was skipped, or the stage runs on its own. The sample CSVs
round-trip exactly, and a loaded model predicts as the fitted one does, so
both paths give the same bytes. Trajectories are still read back from their
CSVs: those hold 9 significant digits, and the build stage must see the
rounded values a resumed run would read.

Noise handling mirrors a physical data collection: the source rollout is the
clean reference, each perturbed recording gets its own temporal lag (drawn in
the configured range) and spatial noise seed. The build stage reads each
recording once, aligns it against the raw source, and writes its rows of every
gamma's sample sets before it reads the next one. The fit stage fits each
gamma's timesteps in ascending order as one warm-started chain, so `workers`
processes run whole gammas and the results do not depend on their number.
"""

import configparser
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import io as tio
from .errors import ConfigError, DependencyError, StageError
from .planner import PlanningProblem, plan_and_verify
# build_samples and fit_gp are not called here; they are imported only because
# benchmark/tracing.py wraps pipeline.build_samples and pipeline.fit_gp
from .sensitivity import (COS_BIN_EDGES, SampleSet, SensitivityModel,  # noqa: F401
                          align_recording, build_samples, difference_into, evaluate,
                          fit_gp, fit_sensitivity_model, voxelized_source)
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
    """[fn(item) for item in items]. With workers <= 1 it runs here and takes
    the items one at a time; otherwise the pool draws them all up front."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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


def stage_build(cfg, out, handoff=None):
    """Write samples/{train,test}_g*.csv for every gamma of the sweep. Each
    recording is read, aligned and differenced into its rows of every gamma's
    set, then dropped, so no more than one recording is held at a time."""
    handoff = {} if handoff is None else handoff
    traj_dir = os.path.join(out, "trajectories")
    source_path = os.path.join(traj_dir, "source.csv")
    if not os.path.exists(source_path):
        raise DependencyError("simulate stage outputs missing")
    source = tio.read_trajectory(source_path)
    deltas = tio.read_perturbations(os.path.join(out, "samples", "perturbations.csv"),
                                    cfg.policy.theta)
    splits = dict(zip(("train", "test"), _split_indices(cfg, len(deltas))))
    slot = {i: (name, row) for name, idx in splits.items() for row, i in enumerate(idx)}
    grids = {gamma: voxelized_source(source, gamma) for gamma in cfg.gamma_sweep}
    sets = {(gamma, name): SampleSet(
                delta_theta=np.array([deltas[i] for i in idx]),
                delta_x=np.empty((len(idx),) + source.angles.shape))
            for gamma in grids for name, idx in splits.items()}
    # alignment does not depend on gamma: once per recording, voxels per gamma
    align_cfg = cfg.preprocess_config(0)
    for i, d in enumerate(deltas):
        traj = tio.read_trajectory(os.path.join(traj_dir, f"sample_{i:04d}.csv"))
        traj = align_recording(source, d, traj, align_cfg)
        name, row = slot[i]
        for gamma, (grid, src) in grids.items():
            difference_into(sets[gamma, name].delta_x[row], traj, src, grid)

    paths = []
    for gamma in cfg.gamma_sweep:
        for name in splits:
            p = os.path.join(out, "samples", f"{name}_{_gamma_tag(gamma)}.csv")
            tio.write_samples(sets[gamma, name], p)
            handoff[p] = sets[gamma, name]
            paths.append(p)
    return paths


# -- fit --------------------------------------------------------------------------


def _fit_chain(args):
    samples, timesteps, n_restarts, seed, source, nominal_theta = args
    return fit_sensitivity_model(samples, timesteps, n_restarts=n_restarts, seed=seed,
                                 source=source, nominal_theta=nominal_theta)


def _model_timesteps(cfg):
    steps = set(range(0, cfg.n_steps + 1, cfg.stride))
    if cfg.plan_t is not None:
        steps.add(cfg.plan_t)
    return sorted(steps)


def stage_fit(cfg, out, workers=1, handoff=None):
    """Fit one model per gamma. A gamma's timesteps form one warm-started
    chain (fit_sensitivity_model), so the unit of parallel work is a gamma."""
    handoff = {} if handoff is None else handoff
    _ensure_dirs(out, "models")
    source = tio.read_trajectory(os.path.join(out, "trajectories", "source.csv"))

    def chains():
        for gamma in cfg.gamma_sweep:
            train_path = os.path.join(out, "samples", f"train_{_gamma_tag(gamma)}.csv")
            samples = handoff.pop(train_path, None)
            if samples is None:
                if not os.path.exists(train_path):
                    raise DependencyError(f"missing training samples {train_path}")
                samples = tio.read_samples(train_path)
            _, src_for = voxelized_source(source, gamma)
            yield (samples, _model_timesteps(cfg), cfg.n_restarts, cfg.seed, src_for,
                   cfg.policy.theta)

    # a process per gamma at most: one gamma fits in this process
    workers = min(workers, len(cfg.gamma_sweep))
    paths = []
    for gamma, model in zip(cfg.gamma_sweep, _pmap(_fit_chain, chains(), workers)):
        tag = _gamma_tag(gamma)
        model_path = os.path.join(out, "models", f"model_{tag}.npz")
        model.save(model_path)
        handoff[model_path] = model
        summary_path = os.path.join(out, "models", f"summary_{tag}.txt")
        with open(summary_path, "w") as fh:
            fh.write("\n".join(model.summary_lines()))
        paths += [model_path, summary_path]
    return paths


# -- evaluate ----------------------------------------------------------------------


def stage_evaluate(cfg, out, handoff=None):
    handoff = {} if handoff is None else handoff
    _ensure_dirs(out, "metrics")
    results = []
    paths = []
    for gamma in cfg.gamma_sweep:
        tag = _gamma_tag(gamma)
        model_path = os.path.join(out, "models", f"model_{tag}.npz")
        test_path = os.path.join(out, "samples", f"test_{tag}.csv")
        model = handoff.get(model_path)  # the plan stage may want it again
        test_samples = handoff.pop(test_path, None)
        if model is None or test_samples is None:
            if not (os.path.exists(model_path) and os.path.exists(test_path)):
                raise DependencyError(f"missing fit/build outputs for gamma {gamma:g}")
        if model is None:
            model = SensitivityModel.load(model_path)
        if test_samples is None:
            test_samples = tio.read_samples(test_path)
        row, per_t, hists = evaluate(model, test_samples, label=cfg.label)
        results.append((gamma, row))

        p1 = os.path.join(out, "metrics", f"metrics_{tag}.csv")
        p2 = os.path.join(out, "metrics", f"per_timestep_{tag}.csv")
        tio.write_metrics(row, per_t, p1, p2)
        p3 = os.path.join(out, "metrics", f"cos_hist_{tag}.csv")
        with open(p3, "w") as fh:
            fh.write("t,bin_lo,bin_hi,count\n")
            for t in sorted(hists):
                for lo, hi, count in zip(COS_BIN_EDGES, COS_BIN_EDGES[1:], hists[t]):
                    fh.write(f"{t},{lo:.2f},{hi:.2f},{count}\n")
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


def rollout_with_kp(cfg, kp, n_steps):
    """cfg's policy with its proportional gain set to kp, rolled out n_steps."""
    return rollout(cfg.policy.with_theta(np.concatenate([[kp], cfg.policy.theta[1:]])),
                   cfg.x0, n_steps, cfg.dt, cfg.mode)


def plan_target(cfg, model, t, x_target, dims):
    """Retune the proportional gain of cfg's policy so that it reaches the
    angles x_target at timestep t, and verify the gain by rollout. dims is
    'all' or comma-separated angle indices, as in [planner] dims; the result
    is plan_and_verify's PlanReport."""
    theta = cfg.policy.theta
    problem = PlanningProblem(
        source_kp=float(theta[0]), fixed_kd=float(theta[1]) if theta.size > 1 else 0.0,
        t_constraint=t, x_target_t=x_target,
        final_target=cfg.policy.fixed.get("x_star", np.zeros(3)),
        constraint_dim="all" if dims == "all" else [int(v) for v in dims.split(",")])
    return plan_and_verify(problem, model, cfg.policy, cfg.x0, cfg.dt, cfg.mode,
                           cfg.n_steps)


def stage_plan(cfg, out, handoff=None):
    if cfg.plan_t is None:
        return []
    handoff = {} if handoff is None else handoff
    _ensure_dirs(out, "planning")
    model_path = os.path.join(out, "models", f"model_{_gamma_tag(best_gamma_of(out))}.npz")
    model = handoff.get(model_path)
    if model is None:
        model = SensitivityModel.load(model_path)

    paths = []
    report_path = os.path.join(out, "planning", "report.txt")
    with open(report_path, "w") as fh:
        for label, target_kp in zip(("short", "medium", "long"), cfg.plan_target_kps):
            # only the state at plan_t is read, so the target stops there
            x_target = rollout_with_kp(cfg, target_kp, cfg.plan_t).angles[cfg.plan_t]
            report = plan_target(cfg, model, cfg.plan_t, x_target, cfg.plan_dims)
            fh.write(f"[{label}]\n")
            fh.write(f"target_kp = {target_kp:.10g}\n")
            fh.write(f"kp_star = {report.kp_star:.10g}\n")
            fh.write(f"source_miss = {report.source_miss:.10g}\n")
            fh.write(f"miss = {report.miss:.10g}\n")
            fh.write(f"improvement = {report.improvement:.10g}\n")
            fh.write(f"improved = {report.improved}\n\n")

            vp = os.path.join(out, "planning", f"planned_{label}.csv")
            tio.write_trajectory(rollout_with_kp(cfg, report.kp_star, cfg.n_steps), vp)
            paths += [vp, vp + ".meta"]
    return paths + [report_path]


# -- orchestration --------------------------------------------------------------------


def run_pipeline(cfg, out, workers=1):
    """Run every stage from the first one whose outputs are not current on,
    handing each the objects the earlier stages of this call built."""
    os.makedirs(out, exist_ok=True)
    manifest = Manifest(out)
    fingerprint = cfg.fingerprint()
    handoff = {}  # artifact path -> the object a stage of this call wrote there
    stage_fns = {
        "simulate": lambda: stage_simulate(cfg, out),
        "build": lambda: stage_build(cfg, out, handoff),
        "fit": lambda: stage_fit(cfg, out, workers, handoff),
        "evaluate": lambda: stage_evaluate(cfg, out, handoff),
        "plan": lambda: stage_plan(cfg, out, handoff),
    }
    ran = False
    for stage in STAGES:
        if stage == "plan" and cfg.plan_t is None:
            continue
        if not ran and manifest.stage_is_current(stage, fingerprint):
            continue
        ran = True
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
