import ast
import concurrent.futures
import configparser
import importlib
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

import trajsense
from trajsense import (DynamicsMode, JointState, PolicySpec, Trajectory,
                       inject_temporal_noise, rollout, rollout_batch)
from trajsense import align, pipeline, planner
from trajsense import config as config_mod
from trajsense import gp as gp_mod
from trajsense import io as tio
from trajsense.cli import build_parser, main
from trajsense.config import load_config
from trajsense.errors import ConfigError, DatasetError, FitError, StageError
from trajsense.gp import ExactGP
from trajsense.pipeline import emit_plot_data, run_pipeline
from trajsense.sensitivity import (COS_BIN_EDGES, SensitivityModel, build_samples,
                                   fit_sensitivity_model, voxelized)
from trajsense.sim import START_POSE
from trajsense.voxel import voxelize_trajectory

import oracles
from oracles import former_perturbation_deltas, per_point_gp_evolution, posterior_error_bounds

SMALL_CFG = """
[experiment]
label = cli_small
seed = 5

[sim]
mode = linear
dt = 0.01
damping = 0.8
n_steps = 200
x0_angles = 1.5707963267948966, 1.5707963267948966, 3.141592653589793

[policy]
family = pd_feedback
theta = 0.4, 0.01
x_star = 0.3141592653589793, 2.356194490192345, 1.8325957145940461

[perturbation]
scheme = uniform
count = 24
ranges = 0.2:0.6, ~

[preprocess]
align = none
gamma_sweep = 0, 0.04

[gp]
stride = 40
optimize = true
n_restarts = 1

[eval]
holdout_fraction = 0.25
split_seed = 7

[planner]
t_constraint = 120
target_kps = 0.45, 0.5, 0.55
dims = all
"""

# SMALL_CFG's uniform scheme, which a gaussian edit replaces whole: the
# uniform ranges are read only under the uniform scheme
UNIFORM = "scheme = uniform\ncount = 24\nranges = 0.2:0.6, ~"


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG)
    return str(path)


def test_run_pipeline_produces_artifact_tree(cfg_file, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["run", "--config", cfg_file, "--out", out])
    assert rc == 0
    for sub in ("trajectories/source.csv", "samples/perturbations.csv",
                "samples/train_g0.csv", "samples/test_g0.04.csv",
                "models/model_g0.npz", "models/summary_g0.txt",
                "metrics/metrics.csv", "planning/report.txt", "manifest.ini"):
        assert os.path.exists(os.path.join(out, sub)), sub


def test_pipeline_reruns_are_byte_identical(cfg_file, tmp_path):
    cfg = load_config(cfg_file)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_pipeline(cfg, out1)
    run_pipeline(load_config(cfg_file), out2)
    for rel in ("metrics/metrics.csv", "metrics/per_timestep_g0.csv", "samples/train_g0.csv",
                "planning/report.txt"):
        a = Path(out1, rel).read_bytes()
        b = Path(out2, rel).read_bytes()
        assert a == b, rel


def test_pipeline_resume_skips_completed_stages(cfg_file, tmp_path):
    cfg = load_config(cfg_file)
    out = str(tmp_path / "out")
    run_pipeline(cfg, out)
    marker = os.path.join(out, "trajectories", "source.csv")
    before = os.path.getmtime(marker)
    run_pipeline(cfg, out)  # all stages current: nothing rewritten
    assert os.path.getmtime(marker) == before


def _tree(root, *subdirs):
    """Relative path -> bytes of every file under root's subdirs."""
    files = {}
    for sub in subdirs:
        for name in sorted(os.listdir(os.path.join(root, sub))):
            with open(os.path.join(root, sub, name), "rb") as fh:
                files[os.path.join(sub, name)] = fh.read()
    return files


def test_single_stage_commands_match_run(cfg_file, tmp_path):
    # the stages read each other's files here; inside `run` they hand objects over
    staged, whole = str(tmp_path / "staged"), str(tmp_path / "whole")
    for command in ("simulate", "build", "fit", "evaluate"):
        assert main([command, "--config", cfg_file, "--out", staged]) == 0, command
    assert main(["run", "--config", cfg_file, "--out", whole]) == 0
    dirs = ("samples", "models", "metrics")
    assert _tree(staged, *dirs) == _tree(whole, *dirs)


def test_run_pipeline_hands_samples_and_models_over_in_memory(cfg_file, tmp_path,
                                                              monkeypatch):
    reads, loads = [], []
    read_samples, load = tio.read_samples, SensitivityModel.load
    monkeypatch.setattr(tio, "read_samples", lambda path: reads.append(
        os.path.basename(path)) or read_samples(path))
    monkeypatch.setattr(SensitivityModel, "load", staticmethod(lambda path: loads.append(
        os.path.basename(path)) or load(path)))
    cfg, out = load_config(cfg_file), str(tmp_path / "out")
    run_pipeline(cfg, out)
    assert reads == [] and loads == []
    fresh = _tree(out, "metrics", "planning")

    # a run that resumes at fit reads what build wrote, once per file; the
    # stages after fit run again and get the refitted models in memory
    shutil.rmtree(os.path.join(out, "models"))
    run_pipeline(cfg, out)
    assert sorted(reads) == sorted(f"{name}_g{g:g}.csv" for name in ("train", "test")
                                   for g in cfg.gamma_sweep)
    assert loads == []
    assert _tree(out, "metrics", "planning") == fresh


def test_build_holds_one_recording_at_a_time(tmp_path):
    # the sample sets of every gamma are held at once; the recordings are not.
    # 200 recordings x 201 timesteps x 3 gammas: holding every aligned
    # recording (9 floats per step) as well took about 1.47x the dense size
    text = (SMALL_CFG.replace("count = 24", "count = 200")
            .replace("gamma_sweep = 0, 0.04", "gamma_sweep = 0, 0.01, 0.04"))
    path = tmp_path / "exp.ini"
    path.write_text(text)
    cfg, out = load_config(str(path)), str(tmp_path / "out")
    pipeline.stage_simulate(cfg, out)
    dense = len(cfg.gamma_sweep) * cfg.count * ((cfg.n_steps + 1) * 3 + 2) * 8
    handoff = {}
    tracemalloc.start()
    try:
        pipeline.stage_build(cfg, out, handoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.delta_x.nbytes + s.delta_theta.nbytes for s in handoff.values()) == dense
    assert peak <= 1.25 * dense, f"peak {peak / 1e6:.2f} MB, dense {dense / 1e6:.2f} MB"


NOISY = ("n_steps = 200", "n_steps = 200\ntemporal_shift = 5\n"
                          "spatial_std = 0.001, 0.001, 0.001")


def test_simulate_holds_one_noisy_recording_at_a_time(tmp_path, monkeypatch):
    # the clean batch is held whole; each recording gets its noise, is written
    # and dropped. When rollout_batch added the noise it returned every noisy
    # copy at once: the clean batch plus N recordings. The writer is replaced,
    # so its own formatting buffers do not count
    text = SMALL_CFG.replace(*NOISY).replace("n_steps = 200", "n_steps = 5000")
    path = tmp_path / "exp.ini"
    path.write_text(text)
    cfg, out = load_config(str(path)), str(tmp_path / "out")
    shifts = []
    monkeypatch.setattr(tio, "write_trajectory",
                        lambda traj, path: shifts.append(traj.meta["temporal_shift"]) or [path])
    recording = (2 * (cfg.n_steps + 1) + cfg.n_steps) * 3 * 8  # angles, velocities, torques
    clean_batch = (cfg.count + 1) * recording
    tracemalloc.start()
    try:
        pipeline.stage_simulate(cfg, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(shifts) == cfg.count + 1 and shifts[0] == 0 and any(shifts)
    assert peak <= clean_batch + 2 * recording, \
        f"peak {peak / 1e6:.2f} MB, clean batch {clean_batch / 1e6:.2f} MB"


@pytest.mark.parametrize("edits", [
    (),
    (NOISY, ("scheme = uniform", "scheme = gaussian\nlambda_sweep = 5, 50, 500"),
     ("count = 24", "count = 25"), ("ranges = 0.2:0.6, ~", "")),
], ids=["uniform", "gaussian-sweep"])
def test_perturb_writes_the_perturbations_simulate_writes(tmp_path, edits):
    text = SMALL_CFG
    for old, new in edits:
        text = text.replace(old, new)
    path = tmp_path / "exp.ini"
    path.write_text(text)
    alone, simulated = str(tmp_path / "perturb"), str(tmp_path / "simulate")
    assert main(["perturb", "--config", str(path), "--out", alone]) == 0
    assert main(["simulate", "--config", str(path), "--out", simulated]) == 0
    rel = os.path.join("samples", "perturbations.csv")
    written = Path(alone, rel).read_bytes()
    assert written == Path(simulated, rel).read_bytes()
    assert written.count(b"\r\n") == 1 + 24


def test_perturbation_deltas_draw_as_the_former_list_loop(tmp_path):
    # gaussian sweeps of 4 rates x count // 4, of 3 rates x count // 3 and
    # the default single rate; and every preset
    text = SMALL_CFG.replace("scheme = uniform", "scheme = gaussian").replace(
        "ranges = 0.2:0.6, ~", "")
    configs = []
    for sweep in ("\nlambda_sweep = 5, 50, 500, 5000", "\nlambda_sweep = 5, 50, 500", ""):
        path = tmp_path / "exp.ini"
        path.write_text(text.replace("scheme = gaussian", "scheme = gaussian" + sweep))
        configs.append(load_config(str(path)))
    from trajsense.cli import PRESET_DIR
    configs += [load_config(os.path.join(PRESET_DIR, name))
                for name in sorted(os.listdir(PRESET_DIR))]
    for cfg in configs:
        deltas = cfg.deltas
        assert not deltas.flags.writeable, cfg.label
        assert deltas.shape == (cfg.count, cfg.policy.theta.size), cfg.label
        assert np.array_equal(deltas, np.stack(former_perturbation_deltas(cfg))), cfg.label


def test_run_with_a_seed_flag_equals_a_config_with_that_seed(tmp_path):
    text = SMALL_CFG.replace(*NOISY)
    flagged, seeded = tmp_path / "flag.ini", tmp_path / "seed.ini"
    flagged.write_text(text)
    seeded.write_text(text.replace("seed = 5", "seed = 9"))
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", str(flagged), "--out", a, "--seed", "9"]) == 0
    assert main(["run", "--config", str(seeded), "--out", b]) == 0
    dirs = ("trajectories", "samples", "models", "metrics", "planning")
    assert _tree(a, *dirs) == _tree(b, *dirs)
    assert Path(a, "manifest.ini").read_text() == \
        Path(b, "manifest.ini").read_text()
    assert pipeline.Manifest(a).stages != {}
    c = str(tmp_path / "c")
    assert main(["run", "--config", str(flagged), "--out", c]) == 0
    assert pipeline.Manifest(c).stages != pipeline.Manifest(a).stages


def test_a_failed_stage_is_named_and_a_rerun_resumes_at_it(cfg_file, tmp_path, capsys,
                                                           monkeypatch):
    out = str(tmp_path / "out")
    stage_fit = pipeline.stage_fit

    def failing(*args, **kwargs):
        raise FitError("kernel not positive definite")

    monkeypatch.setattr(pipeline, "stage_fit", failing)
    with pytest.raises(StageError) as info:
        run_pipeline(load_config(cfg_file), out)
    assert info.value.stage == "fit" and isinstance(info.value.__cause__, FitError)
    capsys.readouterr()
    assert main(["run", "--config", cfg_file, "--out", out]) == 3
    assert "stage 'fit' failed: kernel not positive definite" in capsys.readouterr().err
    manifest = pipeline.Manifest(out)
    assert sorted(manifest.stages) == ["build", "simulate"]
    assert any(rel.startswith("trajectories/") for rel in manifest.files)
    assert any(rel.startswith("samples/train_") for rel in manifest.files)
    assert not any(rel.startswith("models/") for rel in manifest.files)

    # the fault removed, a rerun resumes at fit and simulates nothing again
    monkeypatch.setattr(pipeline, "stage_fit", stage_fit)
    ran = []
    record = pipeline.Manifest.record
    monkeypatch.setattr(pipeline.Manifest, "record", lambda self, stage, *rest: (
        ran.append(stage), record(self, stage, *rest)))
    monkeypatch.setattr(pipeline, "rollout_batch", lambda *args: pytest.fail("simulated"))
    assert main(["run", "--config", cfg_file, "--out", out]) == 0
    assert ran == ["fit", "evaluate", "plan"]


def test_workers_do_not_change_results(tmp_path):
    # two gammas: with 2 workers, each fits one gamma's warm-started chain
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("n_restarts = 1", "n_restarts = 2"))
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    run_pipeline(load_config(str(path)), out1, workers=1)
    run_pipeline(load_config(str(path)), out2, workers=2)
    a = Path(out1, "metrics", "metrics.csv").read_text()
    b = Path(out2, "metrics", "metrics.csv").read_text()
    assert a == b
    models = {k: v for k, v in _tree(out1, "models").items() if k.endswith(".npz")}
    assert len(models) == 2
    assert models == {k: v for k, v in _tree(out2, "models").items() if k.endswith(".npz")}


def test_pool_workers_run_on_one_blas_thread_unless_the_caller_sets_it(monkeypatch):
    # each worker sets the variable before it loads scipy, so workers that
    # share the cores run one BLAS thread each
    query = ["OPENBLAS_NUM_THREADS"] * 2
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert pipeline._pmap(os.getenv, query, 2) == ["1", "1"]
    assert "OPENBLAS_NUM_THREADS" not in os.environ  # the caller's stays unset
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert pipeline._pmap(os.getenv, query, 2) == ["2", "2"]


def test_one_gamma_fits_in_this_process(tmp_path, monkeypatch):
    # a gamma's chain is the unit of parallel work: one gamma starts no pool
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("gamma_sweep = 0, 0.04", "gamma_sweep = 0"))
    cfg, out = load_config(str(path)), str(tmp_path / "out")
    pipeline.stage_simulate(cfg, out)
    pipeline.stage_build(cfg, out)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    paths = pipeline.stage_fit(cfg, out, workers=4)
    assert [os.path.basename(p) for p in paths] == ["model_g0.npz", "summary_g0.txt"]


@pytest.mark.parametrize("noise", [
    "", "temporal_shift = 5", "spatial_std = 0.001, 0.002, 0",
    "temporal_shift = 5\nspatial_std = 0.001, 0.001, 0.001",
], ids=["clean", "temporal", "spatial", "both"])
def test_simulate_writes_the_recordings_of_the_former_noise(tmp_path, noise):
    # each recording's lag and seed used to be drawn into a NoiseConfig of its
    # own (oracles.former_recordings); stage_simulate now draws them from the
    # config's two values and calls the two injectors itself
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("n_steps = 200", "n_steps = 200\n" + noise))
    cfg, out, ref = load_config(str(path)), tmp_path / "out", tmp_path / "ref"
    pipeline.stage_simulate(cfg, str(out))
    theta = cfg.policy.theta
    clean = rollout_batch(cfg.policy, np.vstack([theta, theta + cfg.deltas]), cfg.x0,
                          cfg.n_steps, cfg.dt, cfg.mode)
    ref.mkdir()
    names = ["source.csv"] + [f"sample_{i:04d}.csv" for i in range(cfg.count)]
    for name, recording in zip(names, oracles.former_recordings(cfg, clean)):
        tio.write_trajectory(Trajectory(*recording), str(ref / name))
    written = sorted(os.listdir(out / "trajectories"))
    assert written == sorted(os.listdir(ref)) and len(written) == 2 * (cfg.count + 1)
    for name in written:
        assert (out / "trajectories" / name).read_bytes() == (ref / name).read_bytes(), name


def test_the_fit_grid_is_every_stride_th_step_and_the_constraint_step(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("t_constraint = 120", "t_constraint = 130"))
    assert load_config(str(path)).timesteps == (0, 40, 80, 120, 130, 160, 200)
    path.write_text(SMALL_CFG.split("[planner]")[0])
    assert load_config(str(path)).timesteps == (0, 40, 80, 120, 160, 200)


def test_stage_fit_runs_the_chain_of_fit_sensitivity_model(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("n_restarts = 1", "n_restarts = 2"))
    cfg, out, handoff = load_config(str(path)), str(tmp_path / "out"), {}
    pipeline.stage_simulate(cfg, out)
    pipeline.stage_build(cfg, out, handoff)
    train = {g: handoff[os.path.join(out, "samples", f"train_g{g:g}.csv")]
             for g in cfg.gamma_sweep}
    pipeline.stage_fit(cfg, out, 1, handoff)
    source = tio.read_trajectory(os.path.join(out, pipeline.SOURCE))
    for gamma, samples in train.items():
        staged = handoff[os.path.join(out, "models", f"model_g{gamma:g}.npz")]
        alone = fit_sensitivity_model(samples, cfg.timesteps, voxelized(source, gamma),
                                      cfg.policy.theta, n_restarts=2, seed=cfg.seed)
        assert staged.timesteps == alone.timesteps
        for t in alone.timesteps:
            assert np.array_equal(staged.model_at(t).state()[2],
                                  alone.model_at(t).state()[2]), (gamma, t)


PD_POLICY = """family = pd_feedback
theta = 0.4, 0.01
x_star = 0.3141592653589793, 2.356194490192345, 1.8325957145940461
"""


# (align method, policy, the aligners each recording must reach exactly once):
# the PD response has no velocity zero-crossing in joint 0, so zero_crossing
# falls back to correlation there; the sinusoid has one
@pytest.mark.parametrize("method, policy, aligners", [
    ("correlation", PD_POLICY, {"estimate_delay"}),
    ("zero_crossing", "family = sinusoidal\ntheta = 0.4, 0.05\n", {"align_zero_crossing"}),
    ("zero_crossing", PD_POLICY, {"align_zero_crossing", "estimate_delay"}),
], ids=["correlation", "zero_crossing", "zero_crossing_fallback"])
def test_build_aligns_each_recording_once(tmp_path, monkeypatch, method, policy, aligners):
    text = (SMALL_CFG.replace("align = none", f"align = {method}\nmax_lag = 10")
            .replace(PD_POLICY, policy)
            .replace("gamma_sweep = 0, 0.04", "gamma_sweep = 0, 0.01, 0.04")
            .replace("n_steps = 200", "n_steps = 200\ntemporal_shift = 5\n"
                                      "spatial_std = 0.001, 0.001, 0.001"))
    path = tmp_path / "exp.ini"
    path.write_text(text)
    cfg, out = load_config(str(path)), str(tmp_path / "out")
    pipeline.stage_simulate(cfg, out)

    # the former build: every (gamma, split) aligned the raw recordings anew
    traj_dir = os.path.join(out, "trajectories")
    source = tio.read_trajectory(os.path.join(traj_dir, "source.csv"))
    deltas = tio.read_perturbations(os.path.join(out, "samples", "perturbations.csv"),
                                    cfg.policy.theta)
    pairs = [(d, tio.read_trajectory(os.path.join(traj_dir, f"sample_{i:04d}.csv")))
             for i, d in enumerate(deltas)]
    assert any(t.meta["temporal_shift"] != 0 for _, t in pairs)
    splits = zip(("train", "test"), cfg.split_indices(len(pairs)))
    expected = {}
    for name, idx in splits:
        for gamma in cfg.gamma_sweep:
            ref = str(tmp_path / "ref.csv")
            tio.write_samples(build_samples(source, [pairs[i] for i in idx],
                                            cfg.align_method, cfg.max_lag, gamma), ref)
            expected[f"{name}_g{gamma:g}.csv"] = Path(ref).read_bytes()

    calls = {"estimate_delay": [], "align_zero_crossing": []}
    for fn in calls:
        def spy(ref, other, *args, _fn=getattr(align, fn), _calls=calls[fn]):
            _calls.append(other.angles.tobytes())
            return _fn(ref, other, *args)
        monkeypatch.setattr(align, fn, spy)
    paths = pipeline.stage_build(cfg, out)
    raw = sorted(t.angles.tobytes() for _, t in pairs)
    for fn, seen in calls.items():
        assert sorted(seen) == (raw if fn in aligners else []), fn
    assert sorted(os.path.basename(p) for p in paths) == sorted(expected)
    for p in paths:
        assert Path(p).read_bytes() == expected[os.path.basename(p)], p

    # a recording of the wrong length is a dataset error before any alignment
    short = tio.read_trajectory(os.path.join(traj_dir, "sample_0003.csv"))
    short = Trajectory(short.dt, short.angles[:-1], short.velocities[:-1],
                       short.torques[:-1], short.meta)
    tio.write_trajectory(short, os.path.join(traj_dir, "sample_0003.csv"))
    with pytest.raises(DatasetError, match="length"):
        pipeline.stage_build(cfg, out)


def test_emit_plots_all_kinds(cfg_file, tmp_path):
    out = str(tmp_path / "out")
    run_pipeline(load_config(cfg_file), out)
    rc = main(["emit-plots", "--out", out, "--kind", "gp_evolution",
               "cos_histogram", "quiver", "voxel_overlap", "planning"])
    assert rc == 0
    for kind in ("gp_evolution", "cos_histogram", "quiver", "voxel_overlap",
                 "planning"):
        path = os.path.join(out, "plots", f"{kind}.csv")
        assert os.path.exists(path)
        assert len(Path(path).read_text().splitlines()) > 1


def test_metrics_and_plot_tables_match_the_hand_written_writers(finished_run, tmp_path):
    # every metrics table and every emit-plots kind, byte for byte against the
    # row-by-row writers the evaluate stage and emit-plots used before they
    # shared io.write_table, the metrics fed by the former per-row evaluate;
    # quiver, voxel_overlap and planning had no test
    cfg_file, done = finished_run
    cfg, out = load_config(cfg_file), str(tmp_path / "out")
    shutil.copytree(done, out)
    ref = tmp_path / "ref"
    ref.mkdir()

    def same(rel, write):
        write(str(ref / "table.csv"))
        assert Path(out, rel).read_bytes() == \
            (ref / "table.csv").read_bytes(), rel

    results = []
    for gamma in cfg.gamma_sweep:
        tag = f"g{gamma:g}"
        model = SensitivityModel.load(os.path.join(out, f"models/model_{tag}.npz"))
        row, per_t, hists = oracles.former_evaluate(model, tio.read_samples(
            os.path.join(out, f"samples/test_{tag}.csv")), label=cfg.label)
        results.append((gamma, row))
        # the gamma's one summary row is its row of metrics.csv
        assert not os.path.exists(os.path.join(out, f"metrics/metrics_{tag}.csv"))
        same(f"metrics/per_timestep_{tag}.csv",
             lambda p: oracles.csv_write_per_timestep(per_t, p))
        same(f"metrics/cos_hist_{tag}.csv",
             lambda p: oracles.former_write_cos_hist(hists, COS_BIN_EDGES, p))
    same("metrics/metrics.csv", lambda p: oracles.former_write_metrics_summary(results, p))

    for kind in pipeline.PLOT_KINDS:
        emit_plot_data(out, kind)
    trajectories = os.path.join(out, "trajectories")
    source = tio.read_trajectory(os.path.join(trajectories, "source.csv")).angles
    first = [tio.read_trajectory(os.path.join(trajectories, f"sample_{i:04d}.csv")).angles
             for i in range(3)]
    best = f"g{pipeline.best_gamma_of(out):g}"
    same("plots/gp_evolution.csv", lambda p: oracles.former_plot_gp_evolution(
        SensitivityModel.load(os.path.join(out, pipeline.selected_model(out))), p))
    same("plots/cos_histogram.csv",
         lambda p: shutil.copy(os.path.join(out, f"metrics/cos_hist_{best}.csv"), p))
    same("plots/quiver.csv", lambda p: oracles.former_plot_quiver(source, first, p))

    def voxelize(angles, gamma):
        traj = Trajectory(cfg.dt, angles, np.zeros_like(angles),
                          np.zeros((len(angles) - 1, 3)), {})
        return voxelize_trajectory(traj, gamma).angles

    same("plots/voxel_overlap.csv",
         lambda p: oracles.former_plot_voxel_overlap(source, first[0], voxelize, p))
    same("plots/planning.csv", lambda p: oracles.former_plot_planning(
        os.path.join(out, "planning/report.txt"), pipeline.REPORT_KEYS, p))


def test_gp_evolution_matches_per_point_queries(cfg_file, tmp_path):
    out = str(tmp_path / "out")
    run_pipeline(load_config(cfg_file), out)
    path = emit_plot_data(out, "gp_evolution")
    with open(path) as fh:
        assert fh.readline() == "t,delta,mean_1,mean_2,mean_3,std_1,std_2,std_3\n"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)

    model = SensitivityModel.load(os.path.join(
        out, "models", f"model_g{pipeline.best_gamma_of(out):g}.npz"))
    dim = int(np.argmax(model.delta_high - model.delta_low))
    grid = np.linspace(model.delta_low[dim], model.delta_high[dim], 41)
    ref = per_point_gp_evolution(model, dim, grid)
    assert rows.shape == ref.shape
    # each value was printed with %.9g: half a unit in its 9th digit
    printed = 5e-9 * np.abs(ref)
    assert np.all(np.abs(rows[:, :2] - ref[:, :2]) <= printed[:, :2])

    queries = np.zeros((grid.size, model.delta_low.size))
    queries[:, dim] = grid
    for k, t in enumerate(model.timesteps):
        at_t = slice(k * grid.size, (k + 1) * grid.size)
        X, Y, phi = model.model_at(t).state()
        for i in range(3):
            mean_bound, var_bound = posterior_error_bounds(
                ExactGP.from_states(X, [Y[:, i:i + 1]], [phi[i:i + 1]])[0], queries)
            mean, ref_mean = rows[at_t, 2 + i], ref[at_t, 2 + i]
            std, ref_std = rows[at_t, 5 + i], ref[at_t, 5 + i]
            assert np.all(np.abs(mean - ref_mean) <= mean_bound + printed[at_t, 2 + i])
            # |s - s'| = |v - v'| / (s + s')
            assert np.all(np.abs(std - ref_std)
                          <= var_bound / (std + ref_std) + printed[at_t, 5 + i])


def test_only_a_variance_rebuilds_a_kernel_factor(cfg_file, tmp_path, monkeypatch):
    # evaluate and the planner read means, K* alpha; the gp_evolution export
    # reads stds, and each of its queries rebuilds one factor per dimension.
    # A fit or a load factorizes too: only the factors predict makes count
    rebuilt = []
    real = gp_mod._cholesky
    monkeypatch.setattr(gp_mod, "_cholesky", lambda D, phi: (
        sys._getframe(1).f_code.co_name == "predict" and rebuilt.append(1)) or real(D, phi))
    cfg, out = load_config(cfg_file), str(tmp_path / "out")
    run_pipeline(cfg, out)
    pipeline.stage_evaluate(cfg, out)  # from the model files this time
    pipeline.stage_plan(cfg, out)
    assert rebuilt == []
    emit_plot_data(out, "gp_evolution")
    model = SensitivityModel.load(os.path.join(out, pipeline.selected_model(out)))
    assert len(rebuilt) == len(model.timesteps) * 3


def test_a_file_a_stage_no_longer_writes_leaves_the_manifest(cfg_file, tmp_path,
                                                             monkeypatch):
    # recording a stage drops the entries of the files it wrote before: a gamma
    # taken out of the sweep used to stay listed, and once its model was
    # deleted every run reran fit, evaluate and plan
    out = str(tmp_path / "out")
    run_pipeline(load_config(cfg_file), out)
    one = tmp_path / "one.ini"
    one.write_text(SMALL_CFG.replace("gamma_sweep = 0, 0.04", "gamma_sweep = 0"))
    run_pipeline(load_config(str(one)), out)
    os.remove(os.path.join(out, "models", "model_g0.04.npz"))
    listed = pipeline.Manifest(out).files
    assert "samples/train_g0.csv" in listed and "models/model_g0.npz" in listed
    assert [rel for rel in listed if "g0.04" in rel] == []
    ran = []
    record = pipeline.Manifest.record
    monkeypatch.setattr(pipeline.Manifest, "record", lambda self, stage, *rest: (
        ran.append(stage), record(self, stage, *rest)))
    run_pipeline(load_config(str(one)), out)
    assert ran == []


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """(config path, artifact directory) of one whole run of SMALL_CFG."""
    root = tmp_path_factory.mktemp("finished")
    (root / "exp.ini").write_text(SMALL_CFG)
    run_pipeline(load_config(str(root / "exp.ini")), str(root / "out"))
    return str(root / "exp.ini"), str(root / "out")


@pytest.mark.parametrize("command, rel, writer", [
    ("fit", "trajectories/source.csv", "simulate"),
    ("build", "samples/perturbations.csv", "simulate"),
    ("build", "trajectories/sample_0003.csv", "simulate"),
    ("build", "trajectories/sample_0003.csv.meta", "simulate"),
    ("build", "trajectories/source.csv.meta", "simulate"),
    ("fit", "samples/train_g0.csv", "build"),
    ("evaluate", "samples/test_g0.csv", "build"),
    ("evaluate", "models/model_g0.npz", "fit"),
])
def test_a_missing_stage_input_names_the_file_and_its_stage(finished_run, tmp_path, capsys,
                                                            command, rel, writer):
    # the first three used to end in a FileNotFoundError traceback, exit code 1;
    # a missing .meta sidecar was a config error, exit code 2; the others named
    # neither the file nor the stage that writes it
    cfg_file, done = finished_run
    out = str(tmp_path / "out")
    shutil.copytree(done, out)
    os.remove(os.path.join(out, rel))
    capsys.readouterr()
    assert main([command, "--config", cfg_file, "--out", out]) == 3
    assert f"{writer} stage outputs missing: {rel}" in capsys.readouterr().err


def _lines(edit_lines):
    """An edit of a file from edit_lines, an edit of its lines, split at \r\n."""
    def edit(path):
        with open(path, newline="") as fh:
            lines = fh.read().split("\r\n")
        edit_lines(lines)
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines))
    return edit


def _cells(line, fn):
    """An edit of a CSV's lines (the header is line 1): line's cells become fn(cells)."""
    def edit(lines):
        lines[line - 1] = ",".join(fn(lines[line - 1].split(",")))
    return _lines(edit)


def _columns(fn):
    """An edit of a CSV's lines: every line's cells become fn(cells)."""
    def edit(lines):
        lines[:] = [",".join(fn(line.split(","))) if line else line for line in lines]
    return _lines(edit)


def _replace(old, new):
    """An edit of a file's lines: the first old in them becomes new."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if old in line)
        lines[i] = lines[i].replace(old, new, 1)
    return _lines(edit)


def _drop_last_rows(n):
    """An edit of a CSV's lines that drops its last n rows but the terminal one."""
    def edit(lines):
        del lines[-2 - n:-2]  # lines[-1] is the "" after the last line end
    return _lines(edit)


def _garbage(path):
    """An edit of a file: it holds a line of text."""
    with open(path, "w") as fh:
        fh.write("garbage\n")


def _npz_without(key):
    """An edit of an .npz file that drops its array key."""
    def edit(path):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != key}
        np.savez_compressed(path, **arrays)
    return edit


def _npz_with(key, array):
    """An edit of an .npz file that replaces its array key by array(old)."""
    def edit(path):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[key] = array(arrays[key])
        np.savez_compressed(path, **arrays)
    return edit


def _npz_of_junk(path):
    """An edit of an .npz file: each member holds bytes that are no .npy."""
    with np.load(path) as data:
        keys = data.files
    with zipfile.ZipFile(path, "w") as archive:
        for key in keys:
            archive.writestr(key + ".npy", b"junk")


def _not_a_number(line, column):
    """An edit of a CSV's lines: the cell at line, column (from 1) gets an x prefix."""
    return _cells(line, lambda cells: cells[:column - 1] + ["x" + cells[column - 1]]
                  + cells[column:])


def _cell(line, column, value):
    """An edit of a CSV's lines: the cell at line, column (from 1) becomes value."""
    return _cells(line, lambda cells: cells[:column - 1] + [value] + cells[column:])


@pytest.mark.parametrize("command, rel, edit, code, message", [
    pytest.param("build", "trajectories/sample_0003.csv", _not_a_number(9, 2), 2,
                 "trajectories/sample_0003.csv: line 9, column 2: could not convert "
                 "string 'x", id="trajectory-cell"),
    pytest.param("build", "trajectories/sample_0003.csv",
                 _cells(7, lambda cells: cells[:-1]), 2,
                 "trajectories/sample_0003.csv: line 7: wrong number of cells",
                 id="trajectory-missing-cell"),
    pytest.param("build", "trajectories/sample_0003.csv",
                 _cells(7, lambda cells: cells[:4] + ["0"] + cells[4:]), 2,
                 "trajectories/sample_0003.csv: line 7: wrong number of cells",
                 id="trajectory-extra-cell"),
    pytest.param("build", "trajectories/sample_0003.csv", _cells(9, lambda cells: []), 2,
                 "trajectories/sample_0003.csv: line 9: wrong number of cells (1, the "
                 "header has 10)", id="trajectory-blank-row"),
    pytest.param("build", "trajectories/sample_0003.csv",
                 _cells(202, lambda cells: cells + ["0"]), 2,
                 "trajectories/sample_0003.csv: line 202: wrong number of cells (11, the "
                 "header has 10)",
                 id="trajectory-terminal-extra-cell"),
    # nan and inf cells were read as numbers: an inf theta gave inf samples that
    # evaluate scored (exit code 0), nan angles failed the GP fit naming no file
    pytest.param("build", "trajectories/sample_0003.csv", _cell(42, 2, "nan"), 2,
                 "trajectories/sample_0003.csv: line 42, column 2: nan is not a finite "
                 "number", id="trajectory-nan"),
    pytest.param("build", "samples/perturbations.csv", _cell(4, 2, "inf"), 2,
                 "samples/perturbations.csv: line 4, column 2: inf is not a finite number",
                 id="perturbations-inf"),
    pytest.param("evaluate", "samples/test_g0.csv", _cell(30, 5, "nan"), 2,
                 "samples/test_g0.csv: line 30, column 5: nan is not a finite number",
                 id="samples-nan"),
    pytest.param("build", "samples/perturbations.csv", _not_a_number(4, 2), 2,
                 "samples/perturbations.csv: line 4, column 2: could not convert "
                 "string 'x", id="perturbations-cell"),
    pytest.param("build", "samples/perturbations.csv", _cells(5, lambda cells: cells[:-1]), 2,
                 "samples/perturbations.csv: line 5: wrong number of cells (2, the header "
                 "has 3)", id="perturbations-missing-cell"),
    pytest.param("build", "samples/perturbations.csv", _cells(6, lambda cells: cells + ["0"]),
                 2, "samples/perturbations.csv: line 6: wrong number of cells (4, the header "
                 "has 3)", id="perturbations-extra-cell"),
    pytest.param("build", "samples/perturbations.csv", _columns(lambda cells: cells[:2]), 2,
                 "samples/perturbations.csv: 1 theta columns, the policy has 2 parameters",
                 id="perturbations-missing-column"),
    pytest.param("build", "samples/perturbations.csv",
                 _columns(lambda cells: cells + [cells[-1].replace("theta_2", "theta_3")]), 2,
                 "samples/perturbations.csv: 3 theta columns, the policy has 2 parameters",
                 id="perturbations-extra-column"),
    pytest.param("build", "trajectories/sample_0003.csv.meta",
                 _replace("dt = 0.01", "dt = 0.0l"), 2,
                 "trajectories/sample_0003.csv.meta: dt = '0.0l' is not a number",
                 id="meta-dt"),
    # nan and inf loaded, 0 read as a missing dt, and -0.01 exited 3 naming no file
    *(pytest.param("build", "trajectories/sample_0003.csv.meta",
                   _replace("dt = 0.01", f"dt = {dt}"), 2,
                   f"trajectories/sample_0003.csv.meta: dt = {float(dt)!r} is not a "
                   "positive finite number", id=f"meta-dt-{dt}")
      for dt in ("nan", "inf", "0", "-0.01")),
    pytest.param("build", "trajectories/sample_0003.csv.meta", _replace("seed = 0", "seed = x"),
                 2, "trajectories/sample_0003.csv.meta: seed = 'x' is not a number",
                 id="meta-seed"),
    pytest.param("build", "trajectories/sample_0003.csv.meta",
                 _replace("temporal_shift = 0", "temporal_shift = 0.5"), 2,
                 "trajectories/sample_0003.csv.meta: temporal_shift = '0.5' is not a number",
                 id="meta-temporal-shift"),
    pytest.param("build", "trajectories/sample_0003.csv.meta",
                 _replace("spatial_std = 0,0,0", "spatial_std = 0,0;0"), 2,
                 "trajectories/sample_0003.csv.meta: spatial_std = '0,0;0' is not a number",
                 id="meta-spatial-std"),
    pytest.param("evaluate", "samples/test_g0.csv", _not_a_number(30, 5), 2,
                 "samples/test_g0.csv: line 30, column 5: could not convert string 'x",
                 id="samples-cell"),
    pytest.param("evaluate", "samples/test_g0.csv", _cells(31, lambda cells: cells + ["0"]), 2,
                 "samples/test_g0.csv: line 31: wrong number of cells (8, the header has 7)",
                 id="samples-extra-cell"),
    pytest.param("evaluate", "samples/test_g0.csv", _cells(41, lambda cells: cells[:-1]), 2,
                 "samples/test_g0.csv: line 41: wrong number of cells (6, the header has 7)",
                 id="samples-missing-cell"),
    pytest.param("build", "trajectories/sample_0003.csv", _drop_last_rows(10), 3,
                 "trajectories/sample_0003.csv: perturbed trajectory length/dt mismatch",
                 id="trajectory-truncated"),
    # np.load's ValueError for pickled data and KeyError for a missing array
    # ended in a traceback naming no file, exit code 1
    pytest.param("evaluate", "models/model_g0.npz", _garbage, 2,
                 "models/model_g0.npz: not a model .npz file", id="model-not-npz"),
    *(pytest.param("evaluate", "models/model_g0.npz", _npz_without(key), 2,
                   f"models/model_g0.npz: no {key!r} array in the model file",
                   id=f"model-without-{key}")
      for key in ("y", "phi", "timesteps", "src", "nominal_theta")),
    # members that are no .npy loaded as bytes and failed with "could not
    # convert string to float", a phi of two dimensions with an IndexError:
    # tracebacks naming no file, exit code 1
    pytest.param("evaluate", "models/model_g0.npz", _npz_of_junk, 2,
                 "models/model_g0.npz: 'X' is not an array of finite numbers with 2 "
                 "dimensions", id="model-members-junk"),
    pytest.param("evaluate", "models/model_g0.npz", _npz_with("phi", lambda a: np.zeros((2, 3))),
                 2, "models/model_g0.npz: 'phi' is not an array of finite numbers with 3 "
                 "dimensions", id="model-phi-2d"),
    pytest.param("evaluate", "models/model_g0.npz", _npz_with("phi", lambda a: a[..., 1:]), 2,
                 "models/model_g0.npz: 'phi' has shape (6, 3, 3), need (6, 3, 4) for 6 "
                 "timesteps of X (19, 2)", id="model-phi-shape"),
    pytest.param("evaluate", "models/model_g0.npz", _npz_with("y", lambda a: a[:-1]), 2,
                 "models/model_g0.npz: 'y' has shape (5, 19, 3), need (6, 19, 3)",
                 id="model-y-timesteps"),
    # a repeated timestep loaded as one map with the second one's source
    # angles, and 10.7 loaded as timestep 10
    pytest.param("evaluate", "models/model_g0.npz",
                 _npz_with("timesteps", lambda a: np.r_[a[:1], a[:-1]]), 2,
                 "models/model_g0.npz: 'timesteps' must be distinct non-negative integers",
                 id="model-timesteps-repeated"),
    pytest.param("evaluate", "models/model_g0.npz",
                 _npz_with("timesteps", lambda a: a + 0.7), 2,
                 "models/model_g0.npz: 'timesteps' must be distinct non-negative integers",
                 id="model-timesteps-float"),
])
def test_a_malformed_stage_input_names_the_file_and_its_line(finished_run, tmp_path, capsys,
                                                             command, rel, edit, code,
                                                             message):
    # a bad cell, a missing one or a blank row used to end in a traceback
    # naming no file (exit code 1), an extra cell was read as if it were not
    # there, and the length mismatch of a truncated recording did not name it.
    # A perturbation CSV with a theta column too few was broadcast against the
    # nominal (exit code 0), one with a column too many and a sidecar value
    # that is not a number ended in a traceback (exit code 1)
    cfg_file, done = finished_run
    out = str(tmp_path / "out")
    shutil.copytree(done, out)
    edit(os.path.join(out, rel))
    capsys.readouterr()
    assert main([command, "--config", cfg_file, "--out", out]) == code
    assert message in capsys.readouterr().err


def test_a_malformed_manifest_is_named(finished_run, tmp_path, capsys):
    # configparser's MissingSectionHeaderError used to end in a traceback,
    # exit code 1
    cfg_file, done = finished_run
    out = str(tmp_path / "out")
    shutil.copytree(done, out)
    _garbage(os.path.join(out, "manifest.ini"))
    capsys.readouterr()
    assert main(["run", "--config", cfg_file, "--out", out]) == 2
    assert f"{os.path.join(out, 'manifest.ini')}: malformed INI file" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda cells: cells[:1] + ["abc"] + cells[2:],
     "line 2, column 2: could not convert string 'abc'"),
    (lambda cells: cells[:-1], "line 2: wrong number of cells (6, the header has 7)"),
], ids=["gamma-cell", "missing-cell"])
def test_a_malformed_metrics_summary_names_the_file_and_its_line(finished_run, tmp_path,
                                                                 capsys, edit, message):
    # the selected gamma was read as the second cell of the row whose last
    # cell is 1: a gamma that is not a number ended in a ValueError
    # traceback, exit code 1
    _, done = finished_run
    out = str(tmp_path / "out")
    shutil.copytree(done, out)
    path = os.path.join(out, "metrics", "metrics.csv")
    with open(path) as fh:
        lines = fh.read().split("\n")
    lines[1] = ",".join(edit(lines[1].split(",")))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    capsys.readouterr()
    assert main(["emit-plots", "--out", out, "--kind", "gp_evolution"]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


def test_the_metrics_summary_is_read_by_column_name(finished_run, tmp_path):
    # best_gamma_of used to read the second and the last cell of each row
    _, done = finished_run
    out = str(tmp_path / "out")
    shutil.copytree(done, out)
    path = os.path.join(out, "metrics", "metrics.csv")
    best = pipeline.best_gamma_of(out)
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    with open(path, "w") as fh:
        fh.write("".join(",".join(row[::-1]) + "\n" for row in rows))
    assert pipeline.best_gamma_of(out) == best


def test_a_recording_that_cannot_be_aligned_is_named(tmp_path, capsys):
    # a constant recording has nothing to correlate; the error used to name
    # no file
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("align = none", "align = correlation"))
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", str(path), "--out", out]) == 0
    rel = os.path.join(out, "trajectories", "sample_0003.csv")
    traj = tio.read_trajectory(rel)
    tio.write_trajectory(Trajectory(traj.dt, np.ones_like(traj.angles), traj.velocities,
                                    traj.torques, traj.meta), rel)
    capsys.readouterr()
    assert main(["build", "--config", str(path), "--out", out]) == 3
    assert ("error: trajectories/sample_0003.csv: trajectory is constant; correlation "
            "undefined") in capsys.readouterr().err


def test_a_constant_source_is_named_not_a_recording(tmp_path, capsys):
    # the build stage used to prefix every alignment error with the recording
    # it was aligning, so a constant source was blamed on sample_0000.csv
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("align = none", "align = correlation"))
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", str(path), "--out", out]) == 0
    rel = os.path.join(out, "trajectories", "source.csv")
    traj = tio.read_trajectory(rel)
    tio.write_trajectory(Trajectory(traj.dt, np.ones_like(traj.angles), traj.velocities,
                                    traj.torques, traj.meta), rel)
    capsys.readouterr()
    assert main(["build", "--config", str(path), "--out", out]) == 3
    err = capsys.readouterr().err
    assert ("error: trajectories/source.csv: trajectory is constant; correlation "
            "undefined") in err
    assert "sample_" not in err


def test_a_changed_or_missing_perturbations_file_reruns_from_simulate(cfg_file, tmp_path,
                                                                      monkeypatch):
    # simulate writes samples/perturbations.csv. The manifest used to check it
    # under build, which never rehashed it: an edit reran build to plan on
    # every run, and a deleted file failed build until trajectories/ went too
    cfg, out = load_config(cfg_file), str(tmp_path / "out")
    run_pipeline(cfg, out)
    path = os.path.join(out, "samples", "perturbations.csv")
    written = Path(path).read_text()
    ran = []
    record = pipeline.Manifest.record
    monkeypatch.setattr(pipeline.Manifest, "record", lambda self, stage, *rest: (
        ran.append(stage), record(self, stage, *rest)))
    for change in ("edit", "delete"):
        if change == "edit":
            with open(path, "a") as fh:
                fh.write("\n")
        else:
            os.remove(path)
        run_pipeline(cfg, out)
        assert ran == list(pipeline.STAGES), change
        assert Path(path).read_text() == written
        ran.clear()
        run_pipeline(cfg, out)
        assert ran == [], change


@pytest.mark.parametrize("argv, flag", [
    (["plan", "--dims", "5"], "--dims"),
    (["plan", "--dims", "x"], "--dims"),
    (["plan", "--dims", "0,0"], "--dims"),
    (["plan", "--target", "0.3,2.3"], "--target"),
    (["plan", "--target", "0.3,2.3,1.8,0.1"], "--target"),
    (["plan", "--target", "0.3,x,1.8"], "--target"),
    (["plan", "--target", "0.3,nan,1.8"], "--target"),
])
def test_bad_flag_values_are_config_errors(finished_run, tmp_path, capsys, argv, flag):
    # a bad --dims or a 4-value or non-numeric --target used to end in a
    # traceback (exit code 1), and --dims 0,0 and a 2-value --target planned
    cfg_file, done = finished_run
    command, *flags = argv
    base = ["plan", "--config", cfg_file, "--out", str(tmp_path / "plan"),
            "--model", os.path.join(done, "models", "model_g0.npz"),
            "--t", "120", "--target", "0.3,2.3,1.8"]
    capsys.readouterr()
    assert main(base + flags) == 2  # the last --target wins
    assert f"{flag} {flags[1]!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_emit_plots_missing_artifacts_fails(tmp_path):
    rc = main(["emit-plots", "--out", str(tmp_path), "--kind", "gp_evolution"])
    assert rc == 3


def test_align_subcommand(tmp_path, capsys):
    pol = PolicySpec("pd_feedback", [0.4, 0.01],
                     {"x_star": np.array([0.3, 2.3, 1.8])})
    traj = rollout(pol, JointState(START_POSE, np.zeros(3)), 300, 0.01,
                   DynamicsMode("linear", damping=0.8))
    lagged = inject_temporal_noise(traj, 7)
    ref_path, other_path = str(tmp_path / "ref.csv"), str(tmp_path / "other.csv")
    tio.write_trajectory(traj, ref_path)
    tio.write_trajectory(lagged, other_path)
    rc = main(["align", ref_path, other_path, "--max-lag", "30",
               "--epsilon", "0.01"])
    assert rc == 0
    report = capsys.readouterr().out
    assert "tau_star = -7" in report
    assert "kind = temporal" in report


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_align_rejects_an_epsilon_that_is_not_finite(tmp_path, capsys, epsilon):
    # nan printed kind = spatial and inf kind = temporal for any pair
    ref, other = _two_recordings(tmp_path, 300, 300)
    assert main(["align", ref, other, "--epsilon", epsilon]) == 2
    assert (f"config error: epsilon must be positive and finite, got {epsilon}"
            in capsys.readouterr().err)


def test_align_names_a_constant_trajectory(tmp_path, capsys):
    # the error used to name neither file: "error: trajectory is constant;
    # correlation undefined"
    traj = rollout(PolicySpec("sinusoidal", [0.4, 0.05]), JointState(START_POSE, np.zeros(3)),
                   300, 0.01, DynamicsMode("linear", damping=0.8))
    a, c = str(tmp_path / "a.csv"), str(tmp_path / "c.csv")
    tio.write_trajectory(traj, a)
    tio.write_trajectory(Trajectory(traj.dt, np.ones_like(traj.angles), traj.velocities,
                                    traj.torques, traj.meta), c)
    for argv in ([a, c], [c, a]):
        capsys.readouterr()
        assert main(["align", *argv]) == 3
        assert (f"error: {c}: trajectory is constant; correlation undefined"
                in capsys.readouterr().err), argv


def test_align_methods_report_one_lag(tmp_path, capsys):
    # the zero-crossing method used to print tau_star = 7 where correlation
    # printed -7, and a lag window as long as the recording ended in a
    # traceback (exit code 1)
    traj = rollout(PolicySpec("sinusoidal", [0.4, 0.05]), JointState(START_POSE, np.zeros(3)),
                   300, 0.01, DynamicsMode("linear", damping=0.8))
    ref_path, other_path = str(tmp_path / "ref.csv"), str(tmp_path / "other.csv")
    tio.write_trajectory(traj, ref_path)
    tio.write_trajectory(inject_temporal_noise(traj, 7), other_path)
    for method in ("correlation", "zero_crossing"):
        capsys.readouterr()
        assert main(["align", ref_path, other_path, "--method", method]) == 0
        assert "tau_star = -7" in capsys.readouterr().out, method
    assert main(["align", ref_path, other_path, "--method", "zero_crossing",
                 "--max-lag", "400"]) == 2
    assert "config error: max_lag must satisfy" in capsys.readouterr().err


def _two_recordings(tmp_path, n_ref, n_other):
    """Paths of two sinusoidal recordings of n_ref and n_other steps."""
    paths = []
    for name, n in (("ref.csv", n_ref), ("other.csv", n_other)):
        traj = rollout(PolicySpec("sinusoidal", [0.4, 0.05]),
                       JointState(START_POSE, np.zeros(3)), n, 0.01,
                       DynamicsMode("linear", damping=0.8))
        paths.append(str(tmp_path / name))
        tio.write_trajectory(traj, paths[-1])
    return paths


def test_align_names_both_recordings_of_another_length(tmp_path, capsys):
    # the message named neither recording nor either length
    ref, other = _two_recordings(tmp_path, 500, 150)
    assert main(["align", ref, other]) == 2
    err = capsys.readouterr().err
    assert (f"config error: {ref} (500 steps, dt 0.01) and {other} (150 steps, dt 0.01) "
            "must share dt, length and dimension") in err


def test_align_names_max_lag_and_its_bound(tmp_path, capsys):
    ref, other = _two_recordings(tmp_path, 300, 300)
    assert main(["align", ref, other, "--max-lag", "5000"]) == 2
    err = capsys.readouterr().err
    assert "config error: max_lag must satisfy 1 <= max_lag < T/2 = 150, got 5000" in err
    assert f"{ref} (300 steps, dt 0.01) and {other} (300 steps, dt 0.01)" in err


def test_align_zero_crossing_falls_back_to_correlation(tmp_path, capsys):
    # a sinusoid on joint 3 alone leaves joint 0 still, with no zero-crossing
    # to anchor on: the zero-crossing method exited 3 here, where the build
    # stage fell back to correlation
    traj = rollout(PolicySpec("sinusoidal", [0.4, 0.05], {"joints": (3,)}),
                   JointState(START_POSE, np.zeros(3)), 300, 0.01,
                   DynamicsMode("linear", damping=0.8))
    assert not np.any(traj.velocities[:, 0])
    ref_path, other_path = str(tmp_path / "ref.csv"), str(tmp_path / "other.csv")
    tio.write_trajectory(traj, ref_path)
    tio.write_trajectory(inject_temporal_noise(traj, 7), other_path)
    reports = {}
    for method in ("correlation", "zero_crossing"):
        assert main(["align", ref_path, other_path, "--method", method]) == 0
        reports[method] = capsys.readouterr().out
    assert "tau_star = -7\nmethod = correlation\n" in reports["zero_crossing"]
    assert reports["zero_crossing"] == reports["correlation"]


def test_readme_command_lines_parse():
    # every `trajsense ...` line of the README's code blocks, continuations
    # joined, comments and environment assignments stripped
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", fh.read(), re.S | re.M)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            match = re.match(r"\s*(?:[A-Za-z_]\w*=\S*\s+)*trajsense\s(.*)", line.split("#")[0])
            if match:
                commands.append(shlex.split(match.group(1)))
    assert len(commands) >= 11
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: trajsense {shlex.join(argv)}")


def test_only_the_stages_that_fit_take_workers(finished_run, tmp_path, capsys):
    cfg_file, done = finished_run
    out = str(tmp_path / "out")
    shutil.copytree(done, out)
    for command in ("simulate", "perturb", "build", "evaluate"):
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg_file, "--out", out, "--workers", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert main(["fit", "--config", cfg_file, "--out", out, "--workers", "2"]) == 0


def test_voxelize_subcommand(tmp_path):
    pol = PolicySpec("pd_feedback", [0.4, 0.01],
                     {"x_star": np.array([0.3, 2.3, 1.8])})
    traj = rollout(pol, JointState(START_POSE, np.zeros(3)), 50, 0.01,
                   DynamicsMode("linear", damping=0.8))
    src, dst = str(tmp_path / "in.csv"), str(tmp_path / "out.csv")
    tio.write_trajectory(traj, src)
    rc = main(["voxelize", src, dst, "--gamma", "0.04"])
    assert rc == 0
    vox = tio.read_trajectory(dst)
    ratio = (vox.angles - 0.04) / 0.08
    assert np.allclose(ratio, np.round(ratio), atol=1e-6)


@pytest.mark.parametrize("gamma", ["0", "-0.1", "nan", "inf"])
def test_voxelize_names_a_bad_gamma(tmp_path, capsys, gamma):
    # the message named no flag: "gamma must be positive and finite, got [0. 0. 0.]"
    traj = rollout(PolicySpec("sinusoidal", [0.4, 0.05]), JointState(START_POSE, np.zeros(3)),
                   20, 0.01, DynamicsMode("linear", damping=0.8))
    src, dst = str(tmp_path / "in.csv"), str(tmp_path / "out.csv")
    tio.write_trajectory(traj, src)
    assert main(["voxelize", src, dst, f"--gamma={gamma}"]) == 2
    assert f"config error: --gamma {gamma}: need a positive finite" in capsys.readouterr().err
    assert not os.path.exists(dst)


@pytest.mark.parametrize("argv", [["align", "{missing}", "{present}"],
                                  ["align", "{present}", "{missing}"],
                                  ["voxelize", "{missing}", "{out}", "--gamma", "0.1"]],
                         ids=["align-reference", "align-other", "voxelize"])
def test_a_missing_trajectory_file_is_named(tmp_path, capsys, argv):
    # a FileNotFoundError traceback, exit code 1
    traj = rollout(PolicySpec("sinusoidal", [0.4, 0.05]), JointState(START_POSE, np.zeros(3)),
                   200, 0.01, DynamicsMode("linear", damping=0.8))
    paths = {"missing": str(tmp_path / "nowhere.csv"), "present": str(tmp_path / "in.csv"),
             "out": str(tmp_path / "out.csv")}
    tio.write_trajectory(traj, paths["present"])
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert f"trajectory file not found: {paths['missing']}" in capsys.readouterr().err
    assert not os.path.exists(paths["out"])


def test_plan_rejects_a_model_of_another_nominal_theta(finished_run, tmp_path, capsys):
    # the model was trained around theta = 0.4, 0.01; plan took the config's
    # 0.3 as the source gain, printed a shifted kp_star and exited 0
    _, done = finished_run
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(SMALL_CFG.replace("theta = 0.4, 0.01", "theta = 0.3, 0.01"))
    plan_dir = tmp_path / "plan"
    capsys.readouterr()
    assert main(["plan", "--config", str(cfg_file), "--out", str(plan_dir),
                 "--model", os.path.join(done, "models", "model_g0.npz"),
                 "--t", "120", "--target", "0.3,2.3,1.8"]) == 2
    assert ("policy.theta [0.3, 0.01] differs from the model's nominal_theta [0.4, 0.01]"
            in capsys.readouterr().err)
    assert not os.path.exists(plan_dir / "planned.csv")


def test_plan_subcommand(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    run_pipeline(load_config(cfg_file), out)
    target_traj = rollout(
        PolicySpec("pd_feedback", [0.5, 0.01],
                   {"x_star": np.array([0.3141592653589793, 2.356194490192345,
                                        1.8325957145940461])}),
        JointState(START_POSE, np.zeros(3)), 200, 0.01,
        DynamicsMode("linear", damping=0.8))
    target = ",".join(f"{v:.9g}" for v in target_traj.angles[120])
    rc = main(["plan", "--config", cfg_file, "--out", str(tmp_path / "plan"),
               "--model", os.path.join(out, "models", "model_g0.npz"),
               "--t", "120", "--target", target, "--dims", "all"])
    assert rc == 0
    report = capsys.readouterr().out
    kp_star = float([l for l in report.splitlines() if l.startswith("kp_star")][0]
                    .split("=")[1])
    assert kp_star == pytest.approx(0.5, abs=5e-3)
    assert os.path.exists(tmp_path / "plan" / "planned.csv")
    # a constraint time past the config's horizon (n_steps = 200) is a config
    # error; it used to fail as an untrained timestep, exit code 3
    rc = main(["plan", "--config", cfg_file, "--out", str(tmp_path / "late"),
               "--model", os.path.join(out, "models", "model_g0.npz"),
               "--t", "250", "--target", target])
    assert rc == 2
    err = capsys.readouterr().err
    assert "t_constraint 250" in err and "n_steps 200" in err
    assert not os.path.exists(tmp_path / "late" / "planned.csv")


@pytest.mark.parametrize("dims", ["all", "0,2"])
def test_plan_subcommand_matches_the_plan_stage(tmp_path, capsys, dims):
    # both plan each [planner] target through pipeline.plan_target; a
    # comma-separated dims used to fail the plan stage, exit code 3
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(SMALL_CFG.replace("dims = all", f"dims = {dims}"))
    cfg_file = str(cfg_file)
    cfg, out = load_config(cfg_file), str(tmp_path / "out")
    # the config parses planner.dims once; the plan stage takes its value
    assert cfg.plan_dims == ("all" if dims == "all" else [0, 2])
    run_pipeline(cfg, out)
    model = os.path.join(out, "models", f"model_g{pipeline.best_gamma_of(out):g}.npz")
    report = configparser.ConfigParser()
    report.read(os.path.join(out, "planning", "report.txt"))
    capsys.readouterr()
    for label, target_kp in zip(("short", "medium", "long"), cfg.plan_target_kps):
        policy = cfg.policy.with_theta(np.concatenate([[target_kp], cfg.policy.theta[1:]]))
        target = rollout(policy, cfg.x0, cfg.n_steps, cfg.dt, cfg.mode).angles[cfg.plan_t]
        plan_dir = tmp_path / f"plan_{label}"
        assert main(["plan", "--config", cfg_file, "--out", str(plan_dir), "--model", model,
                     "--t", str(cfg.plan_t), "--target", ",".join(f"{v:.17g}" for v in target),
                     "--dims", dims]) == 0
        keys = ("kp_star", "source_miss", "miss", "improvement")
        assert capsys.readouterr().out.splitlines() == \
            [f"{k} = {report[label][k]}" for k in keys], label
        for suffix in ("", ".meta"):
            planned = Path(plan_dir / f"planned.csv{suffix}").read_bytes()
            staged = os.path.join(out, "planning", f"planned_{label}.csv{suffix}")
            assert planned == Path(staged).read_bytes(), (label, suffix)


def test_each_planned_gain_is_rolled_out_once(cfg_file, tmp_path, monkeypatch):
    # a target's rollout to plan_t, then one rollout of the planned gain over
    # n_steps, which both the report and planned_*.csv read; the report used
    # to roll the gain out to plan_t again first
    cfg, out = load_config(cfg_file), str(tmp_path / "out")
    run_pipeline(cfg, out)
    steps = []
    for module in (pipeline, planner):
        monkeypatch.setattr(module, "rollout", lambda policy, x0, n, *rest,
                            real=module.rollout: steps.append(n) or real(policy, x0, n, *rest))
    pipeline.stage_plan(cfg, out)
    assert steps == [cfg.plan_t, cfg.n_steps] * len(cfg.plan_target_kps)
    steps.clear()
    assert main(["plan", "--config", cfg_file, "--out", str(tmp_path / "plan"),
                 "--model", os.path.join(out, "models", "model_g0.npz"),
                 "--t", str(cfg.plan_t), "--target", "0.3,2.3,1.8"]) == 0
    assert steps == [cfg.n_steps]


def test_missing_config_is_config_error(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_invalid_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nlabel = x\n")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_gp_optimize_other_than_true_is_rejected(tmp_path):
    off = tmp_path / "off.ini"
    off.write_text(SMALL_CFG.replace("optimize = true", "optimize = false"))
    with pytest.raises(ConfigError, match="optimize"):
        load_config(str(off))
    assert main(["run", "--config", str(off), "--out", str(tmp_path / "o")]) == 2
    absent = tmp_path / "absent.ini"
    absent.write_text(SMALL_CFG.replace("optimize = true\n", ""))
    on = tmp_path / "on.ini"
    on.write_text(SMALL_CFG)
    assert load_config(str(absent)).fingerprint() == load_config(str(on)).fingerprint()


@pytest.mark.parametrize("edit, name", [
    (("n_restarts = 1", "n_restart = 5"), "gp.n_restart"),
    (("gamma_sweep = 0, 0.04", "gamma_sweep = 0, 0.04\nepsilon = 0.01"), "preprocess.epsilon"),
    (("[eval]", "[evaluate]"), "[evaluate]"),
    (("mode = linear", "mode = pendulum4"), "sim.mode"),
    (("damping = 0.8", "damping = -0.8"), "sim.damping"),
    (("n_steps = 200", "n_steps = 200\nspatial_std = 0.01, -0.01, 0"), "sim.spatial_std"),
    (("t_constraint = 120", "t_constraint = 250"), "planner.t_constraint"),
    (("gamma_sweep = 0, 0.04", "gamma_sweep = -0.04, 0.04"), "preprocess.gamma_sweep"),
    (("gamma_sweep = 0, 0.04", "gamma_sweep ="), "preprocess.gamma_sweep"),
    (("gamma_sweep = 0, 0.04", "gamma_sweep = 0, 0"), "preprocess.gamma_sweep"),
    (("gamma_sweep = 0, 0.04", "gamma_sweep = 0, nan"), "preprocess.gamma_sweep"),
    (("gamma_sweep = 0, 0.04", "gamma_sweep = 0, inf"), "preprocess.gamma_sweep"),
    (("label = cli_small", "label = cli, small"), "experiment.label"),
    (("label = cli_small", "label = cli\n  small"), "experiment.label"),
    (("dims = all", "dims = 5"), "planner.dims"),
    (("dims = all", "dims = 0,0"), "planner.dims"),
    (("dims = all", "dims = 1.0"), "planner.dims"),
    (("dims = all", "dims ="), "planner.dims"),
    (("dims = all", "dims = -1"), "planner.dims"),
    (("target_kps = 0.45, 0.5, 0.55", "target_kps = 0.42, 0.45, 0.5, 0.55"),
     "planner.target_kps"),
    (("scheme = uniform", "scheme = unifrom"), "perturbation.scheme"),
    (("scheme = uniform", "scheme = basis"), "perturbation.scheme"),
    (("align = none", "align = corelation"), "preprocess.align"),
    (("stride = 40", "stride = 0"), "gp.stride"),
    (("stride = 40", "stride = -40"), "gp.stride"),
    (("ranges = 0.2:0.6, ~", "ranges = 0.6:0.2, ~"), "perturbation.ranges"),
    (("align = none", "align = correlation\nmax_lag = 150"), "preprocess.max_lag"),
    (("n_restarts = 1", "n_restarts = 0"), "gp.n_restarts"),
    (("scheme = uniform", "scheme = gaussian\nlambda_rate = 0"), "perturbation.lambda_rate"),
    ((UNIFORM, "scheme = gaussian\ncount = 24\nlambda_sweep = 50, -5"),
     "perturbation.lambda_sweep"),
    (("count = 24", "count = 1"), "eval.holdout_fraction"),
    (("count = 24", "count = 2"), "eval.holdout_fraction"),
    (("count = 24", "count = 3"), "eval.holdout_fraction"),
    (("count = 24", "count = 4"), "eval.holdout_fraction"),
    (("holdout_fraction = 0.25", "holdout_fraction = 0.95"), "eval.holdout_fraction"),
    ((UNIFORM, "scheme = gaussian\ncount = 5\nlambda_sweep = 5, 50, 500"),
     "eval.holdout_fraction"),
    (("label = cli_small", 'label = cli "small"'), "experiment.label"),
    (("seed = 5", "seed = 5.5"), "experiment.seed"),
    (("theta = 0.4, 0.01", "theta = 0.4, x"), "policy.theta"),
    (("ranges = 0.2:0.6, ~", "ranges = 0.2-0.6, ~"), "perturbation.ranges"),
    (("x_star = 0.3141592653589793, 2.356194490192345, 1.8325957145940461", "x_star = 1, 2"),
     "policy.x_star"),
    (("x0_angles = 1.5707963267948966, 1.5707963267948966, 3.141592653589793",
      "x0_angles = 1, 2"), "sim.x0_angles"),
    (("n_steps = 200", "n_steps = abc"), "sim.n_steps"),
    (("label = cli_small", "label = a%b"), "experiment.label"),
    (("family = pd_feedback\n", ""), "policy.family: missing"),
    ((UNIFORM, "scheme = gaussian\ncount = 24\nlambda_sweep = 0"), "perturbation.lambda_sweep"),
    (("scheme = uniform", "scheme = gaussian\nlambda_sweep ="), "perturbation.lambda_sweep"),
    (("scheme = uniform", "scheme = gaussian\nn_per_lambda = 8"), "perturbation.n_per_lambda"),
    (("dt = 0.01", "dt = 0"), "sim.dt"),
    (("dt = 0.01", "dt = nan"), "sim.dt"),
    (("theta = 0.4, 0.01", "theta = 0.4"), "policy.theta"),
    ((PD_POLICY, "family = sinusoidal\ntheta = 0.4, 0.01\njoints = 4\n"), "policy.joints"),
    (("n_steps = 200", "n_steps = 200\ntemporal_shift = 300"), "sim.temporal_shift"),
    (("n_steps = 200", "n_steps = 200\ntemporal_shift = 200"), "sim.temporal_shift"),
    ((UNIFORM, "scheme = gaussian\ncount = 24\nlambda_sweep = 50, nan"),
     "perturbation.lambda_sweep"),
    (("damping = 0.8", "damping = 0.8\ngravity_gain = nan"), "sim.gravity_gain"),
    (("damping = 0.8", "damping = nan"), "sim.damping"),
    (("damping = 0.8", "damping = inf"), "sim.damping"),
    (("x_star = 0.3141592653589793, 2.356194490192345, 1.8325957145940461",
      "x_star = nan, 1, 1"), "policy.x_star"),
    (("x0_angles = 1.5707963267948966, 1.5707963267948966, 3.141592653589793",
      "x0_angles = 4, 1, 1"), "sim.x0_angles"),
    (("n_steps = 200", "n_steps = 200\nspatial_std = nan, 0, 0"), "sim.spatial_std"),
    (("damping = 0.8", "damping = 0.8\ngravity_gain = 0.3"), "sim.gravity_gain"),
    (("scheme = uniform", "scheme = gaussian"), "perturbation.ranges"),
    (("ranges = 0.2:0.6, ~", "ranges = 0.2:0.6, ~\nlambda_sweep = 50"),
     "perturbation.lambda_sweep"),
    (("align = none", "align = none\nmax_lag = 10"), "preprocess.max_lag"),
    (("t_constraint = 120\ntarget_kps = 0.45, 0.5, 0.55\n", ""), "planner.dims"),
    (("t_constraint = 120\n", ""), "planner.target_kps"),
    (("family = pd_feedback", "family = linear_openloop"), "policy.x_star"),
    (("family = pd_feedback", "family = sinusoidal"), "policy.x_star"),
    ((PD_POLICY, "family = linear_openloop\ntheta = 0.4, 0.01\njoints = 1\n"), "policy.joints"),
    (("family = pd_feedback\ntheta = 0.4, 0.01", "family = p_feedback\ntheta = 0.4\njoints = 1"),
     "policy.joints"),
    (("family = pd_feedback", "family = pd_feedback\njoints = 1"), "policy.joints"),
    (("t_constraint = 120\ntarget_kps = 0.45, 0.5, 0.55\ndims = all\n", ""),
     "planner.t_constraint"),
    (("ranges = 0.2:0.6, ~", "ranges = 0.2:inf, ~"), "perturbation.ranges"),
    ((UNIFORM, "scheme = gaussian\ncount = 24\nlambda_sweep = inf"), "perturbation.lambda_sweep"),
    (("target_kps = 0.45, 0.5, 0.55", "target_kps = nan, 0.5, 0.55"), "planner.target_kps"),
])
def test_unknown_config_keys_are_rejected(tmp_path, capsys, edit, name):
    # a misspelt key used to load silently and run with the key's default;
    # an invalid [sim] value escaped as an InvalidStateError, exit code 3, and
    # a t_constraint past n_steps failed the fit stage, exit code 3. A negative
    # gamma ran unvoxelized (and could be selected), an empty sweep failed the
    # evaluate stage, a repeated gamma was fitted twice and selected twice, and
    # a label with a comma split its metrics.csv row so that the plan stage
    # failed, exit code 3. A misspelt or basis scheme ran the gaussian scheme;
    # a misspelt align method, a max_lag of half the run or more, a stride
    # below 1, an empty ranges interval or a rate <= 0 failed a later stage,
    # exit code 3; n_restarts = 0 ran one start. A label with a double quote
    # was quoted in metrics_g*.csv but not in metrics.csv. A split with fewer
    # than 2 training or 2 held-out recordings failed build, fit or evaluate
    # after the simulate stage, exit code 3; a lambda sweep can draw fewer
    # recordings than count. A value that did not parse, or a required key left
    # out, gave a ConfigError that did not name its key, and an empty
    # lambda_sweep fell back to lambda_rate, now a removed key like n_per_lambda.
    # A dt of 0 failed the simulate stage, exit code 3, and a NaN dt wrote NaN
    # trajectories. A theta of the wrong length or a joint outside 1..3 did not
    # name its key. A temporal_shift of n_steps or more failed the simulate
    # stage, exit code 3, as soon as a recording drew a shift that long, and a
    # NaN rate drew NaN perturbations that failed it too. A NaN gravity_gain
    # ran (exit code 0), and so did a NaN spatial_std, with no noise at all; a
    # NaN damping or x_star failed the fit stage and an infinite damping the
    # evaluate stage, exit code 3; an x0 outside the joint limits failed the
    # simulate stage, exit code 3, naming no key. A key that its settings do
    # not read (gravity_gain under linear dynamics, the ranges of one scheme
    # under the other, max_lag without alignment, a [planner] without
    # t_constraint, a policy constant its family does not use) loaded, did
    # nothing and still changed the fingerprint. An infinite ranges bound
    # ended in an OverflowError traceback, exit code 1; an infinite rate
    # failed the build stage and a NaN target_kps the plan stage, exit code 3
    bad = tmp_path / "bad.ini"
    text = SMALL_CFG.replace(*edit)
    assert text != SMALL_CFG
    bad.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(name)):
        load_config(str(bad))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit", [("seed = 5", "seed = 5\nseed = 6"),
                                  ("[experiment]", "label = x\n[experiment]")],
                         ids=["duplicate-key", "no-section-header"])
def test_a_malformed_ini_file_is_named(tmp_path, capsys, edit):
    # configparser's own error escaped load_config: a traceback, exit code 1
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL_CFG.replace(*edit))
    with pytest.raises(ConfigError, match=re.escape(str(bad))):
        load_config(str(bad))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert str(bad) in capsys.readouterr().err


def test_readme_names_every_config_key():
    # each key is a line of the example block under its section, or is named
    # as `section.key` in the text around it
    readme = Path(os.path.dirname(__file__), "..", "README.md").read_text()
    text = readme.split("### Config format")[1].split("\n## ")[0]
    block = configparser.ConfigParser(inline_comment_prefixes=(";",))
    block.read_string(text.split("```ini\n")[1].split("```")[0])
    missing = [f"{section}.{key}" for section, keys in config_mod._SCHEMA.items()
               for key in keys if not block.has_option(section, key)
               and f"`{section}.{key}" not in text]
    assert missing == []


def test_readme_library_imports_resolve():
    # every name of every `from trajsense... import ...` in a python block
    readme = Path(os.path.dirname(__file__), "..", "README.md").read_text()
    blocks = [part.split("```")[0] for part in readme.split("```python\n")[1:]]
    imports = [node for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) and node.module.startswith("trajsense")]
    assert len(imports) >= 3
    missing = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []


def test_readme_config_block_loads(tmp_path):
    readme = Path(os.path.dirname(__file__), "..", "README.md").read_text()
    block = readme.split("### Config format")[1].split("```ini\n")[1].split("```")[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = load_config(str(path))
    # the inline "; ..." notes are comments, not part of the values
    assert cfg.mode.tag == "pendulum3" and cfg.align_method == "correlation"
    assert cfg.gamma_sweep == (0.0, 0.01, 0.04) and cfg.n_restarts == 2


@pytest.mark.parametrize("model", ["missing.npz", "models_dir"])
def test_plan_with_a_missing_model_is_config_error(cfg_file, tmp_path, capsys, model):
    (tmp_path / "models_dir").mkdir()
    # a models directory loads the gamma its run's metrics summary selects
    (tmp_path / "metrics").mkdir()
    (tmp_path / "metrics" / "metrics.csv").write_text("label,gamma,selected\nx,0,1\n")
    path = str(tmp_path / model)
    rc = main(["plan", "--config", cfg_file, "--model", path, "--out", str(tmp_path / "p"),
               "--t", "120", "--target", "0.3,2.3,1.8"])
    assert rc == 2
    expected = path if model.endswith(".npz") else os.path.join(path, "model_g0.npz")
    assert expected in capsys.readouterr().err


def test_plan_with_a_models_dir_loads_the_selected_gamma(cfg_file, tmp_path, capsys):
    # a models directory used to mean its model_g0.npz, whatever gamma the
    # run's evaluate stage had selected
    out = tmp_path / "out"
    run_pipeline(load_config(cfg_file), str(out))
    summary = out / "metrics" / "metrics.csv"
    lines = summary.read_text().splitlines()
    assert [l.split(",")[1] for l in lines[1:]] == ["0", "0.04"]
    summary.write_text("\n".join([lines[0], lines[1][:-1] + "0", lines[2][:-1] + "1"]) + "\n")

    def plan(model, name):
        rc = main(["plan", "--config", cfg_file, "--model", str(model), "--out",
                   str(tmp_path / name), "--t", "120", "--target", "0.3,2.3,1.8"])
        return rc, capsys.readouterr(), tmp_path / name / "planned.csv"

    rc, printed, planned = plan(out / "models", "from_dir")
    assert rc == 0
    rc_file, printed_file, planned_file = plan(out / "models" / "model_g0.04.npz", "from_file")
    assert rc_file == 0
    assert printed.out == printed_file.out
    assert planned.read_bytes() == planned_file.read_bytes()
    assert printed.out != plan(out / "models" / "model_g0.npz", "g0")[1].out

    summary.unlink()  # no selected gamma: the plan stage's DependencyError
    rc, printed, _ = plan(out / "models", "no_metrics")
    assert rc == 3
    assert "evaluate stage outputs missing" in printed.err


# run in a fresh interpreter: argv is src, a config, an artifact directory
NO_SCIPY_SCRIPT = """
import os, sys
sys.path.insert(0, sys.argv[1])
import trajsense, trajsense.cli, trajsense.pipeline
from trajsense.config import load_config
load_config(os.path.join(trajsense.cli.PRESET_DIR, "demo_small.ini"))
cfg, out = sys.argv[2:]
source = os.path.join(out, "trajectories", "source.csv")
for argv in (["simulate", "--config", cfg, "--out", out],
             ["build", "--config", cfg, "--out", out],
             ["voxelize", source, os.path.join(out, "vox.csv"), "--gamma", "0.04"],
             ["emit-plots", "--out", out, "--kind", "quiver"]):
    assert trajsense.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_commands_that_fit_nothing_do_not_import_scipy(cfg_file, tmp_path):
    # scipy's import is about three quarters of a command's cold start; gp and
    # planner import it at their first factorization or solve
    src = os.path.dirname(os.path.dirname(trajsense.__file__))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, src, cfg_file,
                           str(tmp_path / "out")], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_importing_the_cli_loads_no_process_pool():
    # only fit --workers N > 1 starts a pool; the import added about 10 ms
    # to every command's start
    src = os.path.dirname(os.path.dirname(trajsense.__file__))
    proc = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                           "import trajsense.cli; print('concurrent.futures.process' in "
                           "sys.modules)", src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_preset_names_resolve():
    from trajsense.cli import _resolve_config

    path = _resolve_config("demo_small")
    assert path.endswith("demo_small.ini")
    with pytest.raises(ConfigError):
        _resolve_config("nonexistent_preset")


def test_all_presets_parse():
    from trajsense.cli import PRESET_DIR

    names = sorted(os.listdir(PRESET_DIR))
    assert len(names) >= 8
    for name in names:
        cfg = load_config(os.path.join(PRESET_DIR, name))
        assert cfg.n_steps >= 1
        assert cfg.count >= 1
