import configparser
import os
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import trajsense
from trajsense import (DynamicsMode, JointState, PolicySpec, Trajectory,
                       inject_temporal_noise, rollout)
from trajsense import align, pipeline, planner
from trajsense import io as tio
from trajsense.cli import main
from trajsense.config import load_config
from trajsense.errors import ConfigError, DatasetError
from trajsense.gp import ExactGP
from trajsense.pipeline import emit_plot_data, run_pipeline
from trajsense.sensitivity import SensitivityModel, build_samples, fit_sensitivity_model
from trajsense.sim import START_POSE

from oracles import per_point_gp_evolution, posterior_error_bounds

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
    for rel in ("metrics/metrics.csv", "metrics/metrics_g0.csv",
                "metrics/per_timestep_g0.csv", "samples/train_g0.csv",
                "planning/report.txt"):
        a = open(os.path.join(out1, rel), "rb").read()
        b = open(os.path.join(out2, rel), "rb").read()
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


def test_workers_do_not_change_results(tmp_path):
    # two gammas: with 2 workers, each fits one gamma's warm-started chain
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("n_restarts = 1", "n_restarts = 2"))
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    run_pipeline(load_config(str(path)), out1, workers=1)
    run_pipeline(load_config(str(path)), out2, workers=2)
    a = open(os.path.join(out1, "metrics", "metrics.csv")).read()
    b = open(os.path.join(out2, "metrics", "metrics.csv")).read()
    assert a == b
    models = {k: v for k, v in _tree(out1, "models").items() if k.endswith(".npz")}
    assert len(models) == 2
    assert models == {k: v for k, v in _tree(out2, "models").items() if k.endswith(".npz")}


def test_one_gamma_fits_in_this_process(tmp_path, monkeypatch):
    # a gamma's chain is the unit of parallel work: one gamma starts no pool
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("gamma_sweep = 0, 0.04", "gamma_sweep = 0"))
    cfg, out = load_config(str(path)), str(tmp_path / "out")
    pipeline.stage_simulate(cfg, out)
    pipeline.stage_build(cfg, out)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
    paths = pipeline.stage_fit(cfg, out, workers=4)
    assert [os.path.basename(p) for p in paths] == ["model_g0.npz", "summary_g0.txt"]


def test_stage_fit_runs_the_chain_of_fit_sensitivity_model(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CFG.replace("n_restarts = 1", "n_restarts = 2"))
    cfg, out, handoff = load_config(str(path)), str(tmp_path / "out"), {}
    pipeline.stage_simulate(cfg, out)
    pipeline.stage_build(cfg, out, handoff)
    train = {g: handoff[os.path.join(out, "samples", f"train_g{g:g}.csv")]
             for g in cfg.gamma_sweep}
    pipeline.stage_fit(cfg, out, 1, handoff)
    for gamma, samples in train.items():
        staged = handoff[os.path.join(out, "models", f"model_g{gamma:g}.npz")]
        alone = fit_sensitivity_model(samples, pipeline._model_timesteps(cfg),
                                      n_restarts=2, seed=cfg.seed)
        assert staged.timesteps == alone.timesteps
        for t in alone.timesteps:
            for a, b in zip(staged.model_at(t).gps, alone.model_at(t).gps):
                assert np.array_equal(a.state()[2], b.state()[2]), (gamma, t)


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
    splits = zip(("train", "test"), pipeline._split_indices(cfg, len(pairs)))
    expected = {}
    for name, idx in splits:
        for gamma in cfg.gamma_sweep:
            ref = str(tmp_path / "ref.csv")
            tio.write_samples(build_samples(source, [pairs[i] for i in idx],
                                            cfg.preprocess_config(gamma)), ref)
            expected[f"{name}_g{gamma:g}.csv"] = open(ref, "rb").read()

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
        assert open(p, "rb").read() == expected[os.path.basename(p)], p

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
        assert len(open(path).read().splitlines()) > 1


def test_gp_evolution_matches_per_point_queries(cfg_file, tmp_path):
    out = str(tmp_path / "out")
    run_pipeline(load_config(cfg_file), out)
    path = emit_plot_data(out, "gp_evolution")
    with open(path) as fh:
        assert fh.readline() == "t,delta,mean_1,mean_2,mean_3,std_1,std_2,std_3\n"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)

    model = SensitivityModel.load(os.path.join(
        out, "models", f"model_{pipeline._gamma_tag(pipeline.best_gamma_of(out))}.npz"))
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
        for i, gp in enumerate(model.model_at(t).gps):
            mean_bound, var_bound = posterior_error_bounds(gp, queries)
            mean, ref_mean = rows[at_t, 2 + i], ref[at_t, 2 + i]
            std, ref_std = rows[at_t, 5 + i], ref[at_t, 5 + i]
            assert np.all(np.abs(mean - ref_mean) <= mean_bound + printed[at_t, 2 + i])
            # |s - s'| = |v - v'| / (s + s')
            assert np.all(np.abs(std - ref_std)
                          <= var_bound / (std + ref_std) + printed[at_t, 5 + i])


def test_only_a_variance_rebuilds_a_kernel_factor(cfg_file, tmp_path, monkeypatch):
    # evaluate and the planner read means, K* alpha; the gp_evolution export
    # reads stds, and each of its queries rebuilds one factor per map
    rebuilt = []
    refactor = ExactGP._refactor
    monkeypatch.setattr(ExactGP, "_refactor", lambda gp: rebuilt.append(1) or refactor(gp))
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


def _cells(line, fn):
    """An edit of a CSV's lines (the header is line 1): line's cells become fn(cells)."""
    def edit(lines):
        lines[line - 1] = ",".join(fn(lines[line - 1].split(",")))
    return edit


def _drop_last_rows(n):
    """An edit of a CSV's lines that drops its last n rows but the terminal one."""
    def edit(lines):
        del lines[-2 - n:-2]  # lines[-1] is the "" after the last line end
    return edit


def _not_a_number(line, column):
    """An edit of a CSV's lines: the cell at line, column (from 1) gets an x prefix."""
    return _cells(line, lambda cells: cells[:column - 1] + ["x" + cells[column - 1]]
                  + cells[column:])


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
    pytest.param("build", "samples/perturbations.csv", _not_a_number(4, 2), 2,
                 "samples/perturbations.csv: line 4, column 2: could not convert "
                 "string 'x", id="perturbations-cell"),
    pytest.param("evaluate", "samples/test_g0.csv", _not_a_number(30, 5), 2,
                 "samples/test_g0.csv: line 30, column 5: could not convert string 'x",
                 id="samples-cell"),
    pytest.param("build", "trajectories/sample_0003.csv", _drop_last_rows(10), 3,
                 "trajectories/sample_0003.csv: perturbed trajectory length/dt mismatch",
                 id="trajectory-truncated"),
])
def test_a_malformed_stage_input_names_the_file_and_its_line(finished_run, tmp_path, capsys,
                                                             command, rel, edit, code,
                                                             message):
    # a bad cell, a missing one or a blank row used to end in a traceback
    # naming no file (exit code 1), an extra cell was read as if it were not
    # there, and the length mismatch of a truncated recording did not name it
    cfg_file, done = finished_run
    out = str(tmp_path / "out")
    shutil.copytree(done, out)
    path = os.path.join(out, rel)
    with open(path, newline="") as fh:
        lines = fh.read().split("\r\n")
    edit(lines)
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
    capsys.readouterr()
    assert main([command, "--config", cfg_file, "--out", out]) == code
    assert message in capsys.readouterr().err


def test_a_changed_or_missing_perturbations_file_reruns_from_simulate(cfg_file, tmp_path,
                                                                      monkeypatch):
    # simulate writes samples/perturbations.csv. The manifest used to check it
    # under build, which never rehashed it: an edit reran build to plan on
    # every run, and a deleted file failed build until trajectories/ went too
    cfg, out = load_config(cfg_file), str(tmp_path / "out")
    run_pipeline(cfg, out)
    path = os.path.join(out, "samples", "perturbations.csv")
    written = open(path).read()
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
        assert open(path).read() == written
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
    (["voxelize", "--origin", "1,2"], "--origin"),
    (["voxelize", "--origin", "1,2,x"], "--origin"),
])
def test_bad_flag_values_are_config_errors(finished_run, tmp_path, capsys, argv, flag):
    # a bad --dims or a 4-value or non-numeric --target used to end in a
    # traceback (exit code 1), --dims 0,0 and a 2-value --target planned, and a
    # 2-value --origin ended in a broadcast ValueError (exit code 1)
    cfg_file, done = finished_run
    command, *flags = argv
    if command == "plan":
        base = ["plan", "--config", cfg_file, "--out", str(tmp_path / "plan"),
                "--model", os.path.join(done, "models", "model_g0.npz"),
                "--t", "120", "--target", "0.3,2.3,1.8"]
    else:
        base = ["voxelize", os.path.join(done, "trajectories", "source.csv"),
                str(tmp_path / "vox.csv"), "--gamma", "0.04"]
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
                     "--dims", cfg.plan_dims]) == 0
        keys = ("kp_star", "source_miss", "miss", "improvement")
        assert capsys.readouterr().out.splitlines() == \
            [f"{k} = {report[label][k]}" for k in keys], label
        for suffix in ("", ".meta"):
            planned = open(plan_dir / f"planned.csv{suffix}", "rb").read()
            staged = os.path.join(out, "planning", f"planned_{label}.csv{suffix}")
            assert planned == open(staged, "rb").read(), (label, suffix)


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
])
def test_unknown_config_keys_are_rejected(tmp_path, edit, name):
    # a misspelt key used to load silently and run with the key's default;
    # an invalid [sim] value escaped as an InvalidStateError, exit code 3, and
    # a t_constraint past n_steps failed the fit stage, exit code 3. A negative
    # gamma ran unvoxelized (and could be selected), an empty sweep failed the
    # evaluate stage, a repeated gamma was fitted twice and selected twice, and
    # a label with a comma split its metrics.csv row so that the plan stage
    # failed, exit code 3
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL_CFG.replace(*edit))
    with pytest.raises(ConfigError, match=re.escape(name)):
        load_config(str(bad))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_readme_config_block_loads(tmp_path):
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
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
