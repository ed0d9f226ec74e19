"""Experiment pipeline: simulate -> build samples -> fit -> evaluate -> plan.

Every stage writes its outputs as flat files inside one artifact directory,
and every output is listed in manifest.ini with a content hash. A stage whose
fingerprint and outputs are already present is skipped, which makes reruns
cheap and the whole pipeline idempotent for a fixed config and seed; once a
stage runs, every later stage runs too, so no output is older than its inputs.

Every artifact belongs to the stage that writes it (WRITERS, first match
wins), and every stage input goes through one lookup, `_input`. Inside one
run_pipeline call it takes what an earlier stage of that call built from a
dict keyed by artifact path (a sample set leaves it, a model stays for the
plan stage) and reads the file only when the entry is absent: the earlier
stage was skipped, or the stage runs on its own. A missing file is a
DependencyError naming it and its stage. The sample CSVs round-trip exactly,
and a loaded model predicts as the fitted one does, so both paths give the
same bytes. Trajectories are still read back from their CSVs: those hold 9
significant digits, and the build stage must see the rounded values a resumed
run would read. The manifest checks each recorded file under the stage that
wrote it, so a changed or missing file reruns from that stage.

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
from .config import parse_dims
from .errors import ConfigError, DatasetError, DependencyError, StageError
# plan_and_verify is not called here; it is imported only because
# benchmark/tracing.py wraps pipeline.plan_and_verify
from .planner import PlanningProblem, plan, plan_and_verify  # noqa: F401
# build_samples and fit_gp are not called here; they are imported only because
# benchmark/tracing.py wraps pipeline.build_samples and pipeline.fit_gp
from .sensitivity import (COS_BIN_EDGES, SampleSet, SensitivityModel,  # noqa: F401
                          align_recording, build_samples, difference_into, evaluate,
                          fit_gp, fit_sensitivity_model, voxelized_source)
from .sim import NoiseConfig, rollout, rollout_batch
from .voxel import VoxelGrid, voxelize_trajectory

STAGES = ("simulate", "build", "fit", "evaluate", "plan")
# artifact path prefix -> the stage that writes it; the first match wins
WRITERS = (("trajectories/", "simulate"), ("samples/perturbations.csv", "simulate"),
           ("samples/", "build"), ("models/", "fit"), ("metrics/", "evaluate"),
           ("planning/", "plan"))


def _writer(rel):
    return next((stage for prefix, stage in WRITERS if rel.startswith(prefix)), None)


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
        parser = configparser.ConfigParser()
        parser.read(self.path)  # no file reads as no sections
        self.stages = dict(parser["stages"]) if parser.has_section("stages") else {}
        self.files = dict(parser["files"]) if parser.has_section("files") else {}

    def save(self):
        parser = configparser.ConfigParser()
        parser["stages"] = dict(sorted(self.stages.items()))
        parser["files"] = dict(sorted(self.files.items()))
        with open(self.path, "w") as fh:
            parser.write(fh)

    def record(self, stage, fingerprint, paths):
        """Record stage's fingerprint and the hashes of paths, which replace
        every entry of a file the stage wrote before (WRITERS)."""
        self.stages[stage] = fingerprint
        self.files = {rel: digest for rel, digest in self.files.items()
                      if _writer(rel) != stage}
        for p in paths:
            rel = os.path.relpath(p, self.root)
            self.files[rel] = _sha256(p)
        self.save()

    def stage_is_current(self, stage, fingerprint):
        """Whether stage ran with fingerprint and its files (WRITERS) keep their hashes."""
        if self.stages.get(stage) != fingerprint:
            return False
        owned = [(os.path.join(self.root, rel), digest)
                 for rel, digest in self.files.items() if _writer(rel) == stage]
        return all(os.path.exists(p) and _sha256(p) == digest for p, digest in owned)


def _input(out, rel, read, handoff=None, keep=False):
    """This run's hand-off object for the artifact out/rel, else read(path);
    the entry leaves the hand-off unless keep. A missing file is a
    DependencyError naming it and the stage that writes it."""
    path = os.path.join(out, rel)
    if handoff is not None and path in handoff:
        return handoff[path] if keep else handoff.pop(path)
    if not os.path.exists(path):
        raise DependencyError(f"{_writer(rel)} stage outputs missing: {rel}")
    return read(path)


def _trajectory(out, rel):
    """The trajectory out/rel; it or its .meta sidecar missing is a
    DependencyError naming the missing file."""
    _input(out, rel + ".meta", lambda path: None)
    return _input(out, rel, tio.read_trajectory)


def _output(out, rel):
    """The path of the artifact out/rel, its directory made."""
    path = os.path.join(out, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _read_text(path):
    with open(path) as fh:
        return fh.read()


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
    deltas = cfg.perturbation_deltas()
    policies = [cfg.policy] + [cfg.policy.with_theta(cfg.policy.theta + d) for d in deltas]
    noises = [None] + [_per_sample_noise(cfg, i) for i in range(len(deltas))]
    trajs = rollout_batch(policies, cfg.x0, cfg.n_steps, cfg.dt, cfg.mode, noises)

    paths = []
    names = ["source"] + [f"sample_{i:04d}" for i in range(len(deltas))]
    for name, traj in zip(names, trajs):
        p = _output(out, f"trajectories/{name}.csv")
        tio.write_trajectory(traj, p)
        paths += [p, p + ".meta"]

    pert_path = _output(out, "samples/perturbations.csv")
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
    source = _trajectory(out, "trajectories/source.csv")
    deltas = _input(out, "samples/perturbations.csv",
                    lambda path: tio.read_perturbations(path, cfg.policy.theta))
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
        rel = f"trajectories/sample_{i:04d}.csv"
        try:
            traj = align_recording(source, d, _trajectory(out, rel), align_cfg)
        except DatasetError as exc:
            raise DatasetError(f"{rel}: {exc}") from exc
        name, row = slot[i]
        for gamma, (grid, src) in grids.items():
            difference_into(sets[gamma, name].delta_x[row], traj, src, grid)

    paths = []
    for gamma in cfg.gamma_sweep:
        for name in splits:
            p = _output(out, f"samples/{name}_{_gamma_tag(gamma)}.csv")
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
    source = _trajectory(out, "trajectories/source.csv")

    def chains():
        for gamma in cfg.gamma_sweep:
            samples = _input(out, f"samples/train_{_gamma_tag(gamma)}.csv",
                             tio.read_samples, handoff)
            _, src_for = voxelized_source(source, gamma)
            yield (samples, _model_timesteps(cfg), cfg.n_restarts, cfg.seed, src_for,
                   cfg.policy.theta)

    # a process per gamma at most: one gamma fits in this process
    workers = min(workers, len(cfg.gamma_sweep))
    if workers > 1:
        # forked workers inherit scipy (gp imports it at its first fit): each
        # importing it again added about 0.9 s to `fit --workers 2` on 2 vCPUs
        import scipy.optimize  # noqa: F401
    paths = []
    for gamma, model in zip(cfg.gamma_sweep, _pmap(_fit_chain, chains(), workers)):
        model_path = _output(out, _model_rel(gamma))
        model.save(model_path)
        handoff[model_path] = model
        summary_path = _output(out, f"models/summary_{_gamma_tag(gamma)}.txt")
        with open(summary_path, "w") as fh:
            fh.write("\n".join(model.summary_lines()))
        paths += [model_path, summary_path]
    return paths


# -- evaluate ----------------------------------------------------------------------


def stage_evaluate(cfg, out, handoff=None):
    results, paths = [], []
    for gamma in cfg.gamma_sweep:
        tag = _gamma_tag(gamma)
        # the plan stage may want the model again
        model = _input(out, _model_rel(gamma), SensitivityModel.load, handoff, keep=True)
        test_samples = _input(out, f"samples/test_{tag}.csv", tio.read_samples, handoff)
        row, per_t, hists = evaluate(model, test_samples, label=cfg.label)
        results.append((gamma, row))

        p1 = _output(out, f"metrics/metrics_{tag}.csv")
        p2 = _output(out, f"metrics/per_timestep_{tag}.csv")
        tio.write_metrics(row, per_t, p1, p2)
        p3 = _output(out, f"metrics/cos_hist_{tag}.csv")
        with open(p3, "w") as fh:
            fh.write("t,bin_lo,bin_hi,count\n")
            for t in sorted(hists):
                for lo, hi, count in zip(COS_BIN_EDGES, COS_BIN_EDGES[1:], hists[t]):
                    fh.write(f"{t},{lo:.2f},{hi:.2f},{count}\n")
        paths += [p1, p2, p3]

    best_gamma = max(results, key=lambda r: r[1].score_avg)[0]
    summary = _output(out, "metrics/metrics.csv")
    with open(summary, "w") as fh:
        fh.write("task,gamma,mse_avg,score_avg,cos_avg,n_timesteps,selected\n")
        for gamma, row in results:
            sel = 1 if gamma == best_gamma else 0
            fh.write(f"{row.label},{gamma:g},{row.mse_avg:.10g},{row.score_avg:.10g},"
                     f"{row.cos_avg:.10g},{row.n_timesteps},{sel}\n")
    return paths + [summary]


def best_gamma_of(out):
    for line in _input(out, "metrics/metrics.csv", _read_text).strip().splitlines()[1:]:
        parts = line.split(",")
        if parts[-1] == "1":
            return float(parts[1])
    raise DependencyError("no selected gamma in metrics summary")


def _model_rel(gamma):
    return f"models/model_{_gamma_tag(gamma)}.npz"


def selected_model(out):
    """The model file, relative to out, of the gamma that out's evaluate stage selected."""
    return _model_rel(best_gamma_of(out))


# -- plan ---------------------------------------------------------------------------


# the PlanReport fields that report.txt and `trajsense plan` print, in order
REPORT_KEYS = ("kp_star", "source_miss", "miss", "improvement")


def rollout_with_kp(cfg, kp, n_steps):
    """cfg's policy with its proportional gain set to kp, rolled out n_steps."""
    return rollout(cfg.policy.with_theta(np.concatenate([[kp], cfg.policy.theta[1:]])),
                   cfg.x0, n_steps, cfg.dt, cfg.mode)


def plan_target(cfg, model, t, x_target, dims):
    """Retune the proportional gain of cfg's policy so that it reaches the
    angles x_target at timestep t, and verify the gain by one rollout over
    cfg.n_steps. dims is 'all' or a list of angle indices, as
    config.parse_dims returns them; the result is planner.plan's
    (PlanReport, planned Trajectory)."""
    theta = cfg.policy.theta
    problem = PlanningProblem(
        source_kp=float(theta[0]), fixed_kd=float(theta[1]) if theta.size > 1 else 0.0,
        t_constraint=t, x_target_t=x_target,
        final_target=cfg.policy.fixed.get("x_star", np.zeros(3)), constraint_dim=dims)
    return plan(problem, model, cfg.policy, cfg.x0, cfg.dt, cfg.mode, cfg.n_steps)


def stage_plan(cfg, out, handoff=None):
    if cfg.plan_t is None:
        return []
    model = _input(out, selected_model(out), SensitivityModel.load, handoff)
    dims = parse_dims(cfg.plan_dims)
    paths = []
    report_path = _output(out, "planning/report.txt")
    with open(report_path, "w") as fh:
        for label, target_kp in zip(("short", "medium", "long"), cfg.plan_target_kps):
            # only the state at plan_t is read, so the target stops there
            x_target = rollout_with_kp(cfg, target_kp, cfg.plan_t).angles[cfg.plan_t]
            report, planned = plan_target(cfg, model, cfg.plan_t, x_target, dims)
            fh.write(f"[{label}]\ntarget_kp = {target_kp:.10g}\n")
            for key in REPORT_KEYS:
                fh.write(f"{key} = {getattr(report, key):.10g}\n")
            fh.write(f"improved = {report.improved}\n\n")

            vp = _output(out, f"planning/planned_{label}.csv")
            tio.write_trajectory(planned, vp)
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
    dest = _output(out, f"plots/{kind}.csv")

    if kind == "gp_evolution":
        model = _input(out, selected_model(out), SensitivityModel.load)
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
        rel = f"metrics/cos_hist_{_gamma_tag(best_gamma_of(out))}.csv"
        text = _input(out, rel, _read_text)
        with open(dest, "w") as fh:
            fh.write(text)
        return dest

    if kind == "quiver":
        source = _trajectory(out, "trajectories/source.csv")
        n_samples = len([f for f in os.listdir(os.path.join(out, "trajectories"))
                         if f.startswith("sample_") and f.endswith(".csv")])
        steps = range(0, source.n_steps + 1, max(1, source.n_steps // 20))
        with open(dest, "w") as fh:
            fh.write("sample_id,t,src_x1,src_x2,src_x3,pert_x1,pert_x2,pert_x3,"
                     "dx_1,dx_2,dx_3\n")
            for i in range(min(3, n_samples)):
                traj = _trajectory(out, f"trajectories/sample_{i:04d}.csv")
                for t in steps:
                    delta = traj.angles[t] - source.angles[t]
                    row = np.concatenate([source.angles[t], traj.angles[t], delta])
                    fh.write(f"{i},{t}," + ",".join(f"{v:.9g}" for v in row) + "\n")
        return dest

    if kind == "voxel_overlap":
        a = _trajectory(out, "trajectories/source.csv")
        b = _trajectory(out, "trajectories/sample_0000.csv")
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
    parser = configparser.ConfigParser()
    _input(out, "planning/report.txt", parser.read)
    keys = ("target_kp",) + REPORT_KEYS
    with open(dest, "w") as fh:
        fh.write(",".join(("scenario",) + keys) + "\n")
        for section in parser.sections():
            fh.write(",".join([section] + [parser[section][k] for k in keys]) + "\n")
    return dest
