import os

import numpy as np
import pytest

from trajsense import DynamicsMode, JointState, PolicySpec, inject_temporal_noise, rollout
from trajsense import io as tio
from trajsense import pipeline
from trajsense.cli import main
from trajsense.config import load_config
from trajsense.errors import ConfigError
from trajsense.pipeline import emit_plot_data, run_pipeline
from trajsense.sensitivity import SensitivityModel
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


def test_workers_do_not_change_results(cfg_file, tmp_path):
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    run_pipeline(load_config(cfg_file), out1, workers=1)
    run_pipeline(load_config(cfg_file), out2, workers=2)
    a = open(os.path.join(out1, "metrics", "metrics.csv")).read()
    b = open(os.path.join(out2, "metrics", "metrics.csv")).read()
    assert a == b


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


def test_missing_config_is_config_error(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_invalid_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nlabel = x\n")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


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
