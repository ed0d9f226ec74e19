"""Experiment pipeline: simulate -> build samples -> fit -> evaluate -> plan.

Every stage writes its outputs as flat files inside one artifact directory,
and every output is listed in manifest.ini with a content hash. A stage whose
fingerprint and outputs are already present is skipped, which makes reruns
cheap and the whole pipeline idempotent for a fixed config and seed; once a
stage runs, every later stage runs too, so no output is older than its inputs.

Each artifact's path is spelled once (the layout below) and belongs to the
stage that writes it (WRITERS, first match wins); every stage input goes
through one lookup, `_input`. Inside one run_pipeline call it takes what an
earlier stage of that call built from a dict keyed by artifact path (a
sample set leaves it, a model stays for the plan stage) and reads the file
only when the entry is absent: the earlier stage was skipped, or the stage
runs on its own. A missing file is a DependencyError naming it and its
stage; a manifest, model or table that cannot be read back is a ConfigError
naming it. The sample CSVs round-trip exactly, and a loaded model predicts
as the fitted one does, so both paths give the same bytes. Trajectories are
still read back from their CSVs: those hold 9 significant digits, and the
build stage must see the rounded values a resumed run would read. The
manifest checks each recorded file under the stage that wrote it, so a
changed or missing file reruns from that stage.

Noise handling mirrors a physical data collection: the source rollout is the
clean reference, each perturbed recording gets its own temporal lag (drawn in
the configured range) and spatial noise seed. The build stage reads the
recordings one at a time through sensitivity.build_sample_sets, the training
recordings first. The fit stage fits each gamma's timesteps in ascending
order as one warm-started chain, so `workers` processes run whole gammas
and, at one BLAS thread count (_pmap), the results do not depend on their
number. Every metrics and plot table goes through io.write_table, and the
summary is read back by the names of its columns (METRICS_COLUMNS).
"""

import configparser
import hashlib
import os
import shutil

import numpy as np

from . import io as tio
from .config import read_ini
from .errors import ConfigError, DependencyError, StageError
# plan_and_verify is not called here; it is imported only because
# benchmark/tracing.py wraps pipeline.plan_and_verify
from .planner import PlanningProblem, plan, plan_and_verify, with_kp  # noqa: F401
# build_samples and fit_gp are not called here; they are imported only because
# benchmark/tracing.py wraps pipeline.build_samples and pipeline.fit_gp
from .sensitivity import (COS_BIN_EDGES, SensitivityModel, build_sample_sets,  # noqa: F401
                          build_samples, evaluate, fit_gp, fit_sensitivity_model, voxelized)
from .sim import NoiseConfig, rollout, rollout_batch
from .voxel import voxelize_trajectory

STAGES = ("simulate", "build", "fit", "evaluate", "plan")

# -- artifact layout: the one spelling of each artifact's path in a run's
# directory; a template takes the recording index, split, gamma or label
SOURCE = "trajectories/source.csv"
RECORDING = "trajectories/sample_{:04d}.csv"
PERTURBATIONS = "samples/perturbations.csv"
SAMPLES = "samples/{}_g{:g}.csv"
MODEL = "models/model_g{:g}.npz"
MODEL_SUMMARY = "models/summary_g{:g}.txt"
PER_TIMESTEP = "metrics/per_timestep_g{:g}.csv"
COS_HIST = "metrics/cos_hist_g{:g}.csv"
METRICS = "metrics/metrics.csv"
# the columns of METRICS: one row per gamma, the selected one flagged
METRICS_COLUMNS = ("task", "gamma", "mse_avg", "score_avg", "cos_avg", "n_timesteps", "selected")
REPORT = "planning/report.txt"
PLANNED = "planning/planned_{}.csv"

# artifact path prefix -> the stage that writes it; the first match wins
WRITERS = (("trajectories/", "simulate"), (PERTURBATIONS, "simulate"),
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


class Manifest:
    """Stage fingerprints and content hashes of every produced file."""

    def __init__(self, root):
        self.root = root
        self.path = os.path.join(root, "manifest.ini")
        parser = configparser.ConfigParser()
        read_ini(parser, self.path)  # no file reads as no sections
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
    """The trajectory out/rel, named by rel in its meta["path"]; it or its
    .meta sidecar missing is a DependencyError naming the missing file."""
    _input(out, rel + ".meta", lambda path: None)
    traj = _input(out, rel, tio.read_trajectory)
    traj.meta["path"] = rel
    return traj


def _output(out, rel):
    """The path of the artifact out/rel, its directory made."""
    path = os.path.join(out, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _one_blas_thread():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _pmap(fn, items, workers):
    """[fn(item) for item in items]. With workers <= 1 it runs here and takes
    the items one at a time; otherwise the pool draws them all up front. The
    pool module is imported here: only workers > 1 needs it. Each worker
    sets OPENBLAS_NUM_THREADS=1, unless the caller's environment sets it,
    before it loads scipy, so the workers fit as a one-thread BLAS run does;
    a caller that loaded scipy first passes its own setting on to them."""
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, items))


# -- simulate -------------------------------------------------------------------


def _per_sample_noise(cfg, index):
    """Each recording gets its own lag and noise seed, like separate runs."""
    base = cfg.noise
    if base.is_clean:
        return NoiseConfig()
    rng = np.random.default_rng((cfg.seed, 77, index))
    shift = 0
    if base.temporal_shift != 0:
        n = abs(base.temporal_shift)
        shift = int(rng.integers(-n, n + 1))
    return NoiseConfig(temporal_shift=shift, spatial_std=base.spatial_std,
                       seed=int(rng.integers(2**31)))


def stage_simulate(cfg, out):
    """Roll out the source and every perturbation as one clean batch, then
    give each recording its noise, write it and drop it, so no more than one
    noisy recording is held at a time."""
    deltas, theta = cfg.deltas, cfg.policy.theta
    trajs = rollout_batch(cfg.policy, np.vstack([theta, theta + deltas]), cfg.x0,
                          cfg.n_steps, cfg.dt, cfg.mode)

    paths = []
    rels = [SOURCE] + [RECORDING.format(i) for i in range(len(deltas))]
    # the source stays the clean reference
    noises = [NoiseConfig()] + [_per_sample_noise(cfg, i) for i in range(len(deltas))]
    for rel, traj, noise in zip(rels, trajs, noises):
        paths += tio.write_trajectory(noise.apply(traj), _output(out, rel))
    return paths + stage_perturb(cfg, out)


def stage_perturb(cfg, out):
    """Write the perturbation table: the part of the simulate stage that
    `trajsense perturb` runs by itself. It is not a stage of STAGES."""
    path = _output(out, PERTURBATIONS)
    tio.write_perturbations(cfg.policy.theta, cfg.deltas, path)
    return [path]


# -- build ----------------------------------------------------------------------


def stage_build(cfg, out, handoff=None):
    """Write samples/{train,test}_g*.csv for every gamma of the sweep: one
    build_sample_sets over the training recordings, then one over the
    held-out ones, so that fit can free a gamma's training set."""
    handoff = {} if handoff is None else handoff
    source = _trajectory(out, SOURCE)
    deltas = _input(out, PERTURBATIONS,
                    lambda path: tio.read_perturbations(path, cfg.policy.theta))
    paths = []
    for name, rows in zip(("train", "test"), cfg.split_indices(len(deltas))):
        sets = build_sample_sets(
            source, deltas[rows],
            (_trajectory(out, RECORDING.format(i)) for i in rows),
            cfg.align_method, cfg.max_lag, cfg.gamma_sweep)
        for gamma, samples in zip(cfg.gamma_sweep, sets):
            p = _output(out, SAMPLES.format(name, gamma))
            tio.write_samples(samples, p)
            handoff[p] = samples
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
    source = _trajectory(out, SOURCE)

    def chains():
        for gamma in cfg.gamma_sweep:
            samples = _input(out, SAMPLES.format("train", gamma), tio.read_samples, handoff)
            yield (samples, _model_timesteps(cfg), cfg.n_restarts, cfg.seed,
                   voxelized(source, gamma), cfg.policy.theta)

    # a process per gamma at most: one gamma fits in this process
    workers = min(workers, len(cfg.gamma_sweep))
    paths = []
    for gamma, model in zip(cfg.gamma_sweep, _pmap(_fit_chain, chains(), workers)):
        model_path = _output(out, MODEL.format(gamma))
        model.save(model_path)
        handoff[model_path] = model
        summary_path = _output(out, MODEL_SUMMARY.format(gamma))
        with open(summary_path, "w") as fh:
            fh.write("\n".join(model.summary_lines()))
        paths += [model_path, summary_path]
    return paths


# -- evaluate ----------------------------------------------------------------------


def stage_evaluate(cfg, out, handoff=None):
    results, paths = [], []
    for gamma in cfg.gamma_sweep:
        # the plan stage may want the model again
        model = _input(out, MODEL.format(gamma), SensitivityModel.load, handoff, keep=True)
        test_samples = _input(out, SAMPLES.format("test", gamma), tio.read_samples, handoff)
        row, per_t, hists = evaluate(model, test_samples, label=cfg.label)
        results.append((gamma, row))

        p1 = _output(out, PER_TIMESTEP.format(gamma))
        tio.write_table(p1, "t,nmse,score,cos_mean,n_test", "%d,%.10g,%.10g,%.10g,%d\r\n",
                        [(r.t, r.nmse, r.score, r.cos_mean, r.n_test) for r in per_t],
                        end="\r\n")
        p2 = _output(out, COS_HIST.format(gamma))
        tio.write_table(p2, "t,bin_lo,bin_hi,count", "%d,%.2f,%.2f,%d\n",
                        [(t, lo, hi, count) for t in sorted(hists)
                         for lo, hi, count in zip(COS_BIN_EDGES, COS_BIN_EDGES[1:], hists[t])])
        paths += [p1, p2]

    best_gamma = max(results, key=lambda r: r[1].score_avg)[0]
    summary = _output(out, METRICS)
    tio.write_table(summary, ",".join(METRICS_COLUMNS),
                    "%s,%g,%.10g,%.10g,%.10g,%d,%d\n",
                    [(row.label, gamma, row.mse_avg, row.score_avg, row.cos_avg,
                      row.n_timesteps, gamma == best_gamma) for gamma, row in results])
    return paths + [summary]


def best_gamma_of(out):
    """The gamma that out's evaluate stage selected, read from METRICS by column name."""
    rows = _input(out, METRICS, lambda path: tio.read_columns(path, ("gamma", "selected")))
    for gamma in rows[rows[:, 1] == 1, 0]:
        return float(gamma)
    raise DependencyError("no selected gamma in metrics summary")


def selected_model(out):
    """The model file, relative to out, of the gamma that out's evaluate stage selected."""
    return MODEL.format(best_gamma_of(out))


# -- plan ---------------------------------------------------------------------------


# the PlanReport fields that report.txt and `trajsense plan` print, in order
REPORT_KEYS = ("kp_star", "source_miss", "miss", "improvement")


def plan_target(cfg, model, t, x_target, dims):
    """Retune the proportional gain of cfg's policy so that it reaches the
    angles x_target at timestep t, and verify the gain by one rollout over
    cfg.n_steps. dims is 'all' or a list of angle indices, as
    config.parse_dims returns them; the result is planner.plan's
    (PlanReport, planned Trajectory). A model trained around another
    nominal theta than cfg's is a ConfigError naming both."""
    theta = cfg.policy.theta
    nominal = model.nominal_theta
    if nominal is not None and not np.array_equal(nominal, theta):
        raise ConfigError(f"policy.theta {theta.tolist()} differs from the model's "
                          f"nominal_theta {nominal.tolist()}")
    problem = PlanningProblem(
        source_kp=float(theta[0]), fixed_kd=float(theta[1]) if theta.size > 1 else 0.0,
        t_constraint=t, x_target_t=x_target,
        final_target=cfg.policy.fixed.get("x_star", np.zeros(3)), constraint_dim=dims)
    return plan(problem, model, cfg.policy, cfg.x0, cfg.dt, cfg.mode, cfg.n_steps)


def stage_plan(cfg, out, handoff=None):
    if cfg.plan_t is None:
        return []
    model = _input(out, selected_model(out), SensitivityModel.load, handoff)
    paths = []
    report_path = _output(out, REPORT)
    with open(report_path, "w") as fh:
        for label, target_kp in zip(("short", "medium", "long"), cfg.plan_target_kps):
            # only the state at plan_t is read, so the target stops there
            x_target = rollout(with_kp(cfg.policy, target_kp), cfg.x0, cfg.plan_t, cfg.dt,
                               cfg.mode).angles[cfg.plan_t]
            report, planned = plan_target(cfg, model, cfg.plan_t, x_target, cfg.plan_dims)
            fh.write(f"[{label}]\ntarget_kp = {target_kp:.10g}\n")
            for key in REPORT_KEYS:
                fh.write(f"{key} = {getattr(report, key):.10g}\n")
            fh.write(f"improved = {report.improved}\n\n")
            paths += tio.write_trajectory(planned, _output(out, PLANNED.format(label)))
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
        block = np.vstack([np.column_stack([np.full(grid.size, t), grid,
                                            *model.model_at(t).predict(queries)])
                           for t in model.timesteps])
        tio.write_table(dest, "t,delta,mean_1,mean_2,mean_3,std_1,std_2,std_3",
                        "%d" + ",%.9g" * 7 + "\n", block)
        return dest

    if kind == "cos_histogram":
        _input(out, COS_HIST.format(best_gamma_of(out)), lambda path: shutil.copyfile(path, dest))
        return dest

    if kind == "quiver":
        source = _trajectory(out, SOURCE)
        steps = np.arange(0, source.n_steps + 1, max(1, source.n_steps // 20))
        src, rows = source.angles[steps], []
        # the first three recordings: a run has at least four (ExperimentConfig.split_indices)
        for i in range(3):
            pert = _trajectory(out, RECORDING.format(i)).angles[steps]
            rows += np.column_stack([np.full(steps.size, i), steps, src, pert,
                                     pert - src]).tolist()
        tio.write_table(dest, "sample_id,t,src_x1,src_x2,src_x3,pert_x1,pert_x2,pert_x3,"
                        "dx_1,dx_2,dx_3", "%d,%d" + ",%.9g" * 9 + "\n", rows)
        return dest

    if kind == "voxel_overlap":
        a = _trajectory(out, SOURCE)
        b = _trajectory(out, RECORDING.format(0))
        rows = []
        for gamma in (0.01, 0.04, 0.16, 0.2):
            va, vb = (voxelize_trajectory(t, gamma).angles for t in (a, b))
            rows.append((gamma, np.mean(np.abs(va - vb)), np.mean(np.all(va == vb, axis=1))))
        tio.write_table(dest, "gamma,l1_gap,same_cell_fraction", "%g,%.9g,%.9g\n", rows)
        return dest

    # kind == "planning"
    parser = configparser.ConfigParser()
    _input(out, REPORT, lambda path: read_ini(parser, path))
    keys = ("target_kp",) + REPORT_KEYS
    tio.write_table(dest, ",".join(("scenario",) + keys), "%s" + ",%s" * len(keys) + "\n",
                    [[section] + [parser[section][k] for k in keys]
                     for section in parser.sections()])
    return dest
