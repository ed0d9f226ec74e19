"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured margin. Tolerances are fixed here and
nowhere else."""

import os
import time

import numpy as np
import pytest

from trajsense import (
    DynamicsMode,
    JointState,
    PlanningProblem,
    PolicySpec,
    basis_directions,
    build_jacobian_stack,
    build_samples,
    estimate_delay,
    fit_sensitivity_model,
    gp_score,
    inject_temporal_noise,
    plan_and_verify,
    reconstruct_linear,
    rollout,
    rollout_batch,
    voxel_center,
)
from trajsense.config import load_config
from trajsense.pipeline import run_pipeline
from trajsense.sim import START_POSE

from oracles import ramp_torque_jacobian

DT = 0.01
RAMP_THETA = np.array([1e-5, 1e-4, -1e-5, -0.28, -0.15, -0.08])
X_STAR = np.array([np.pi / 10, 3 * np.pi / 4, 7 * np.pi / 12])


def _report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1: analytic-oracle Jacobian equivalence ------------------------------------


def test_criterion_1_jacobian_oracle_equivalence():
    start = time.perf_counter()
    T = 300
    mode = DynamicsMode("linear", damping=0.0)
    x0 = JointState(START_POSE, np.zeros(3))
    source = rollout(PolicySpec("linear_openloop", RAMP_THETA), x0, T, DT, mode)

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        delta = rng.normal(size=6) * 1e-3
        pert = rollout(PolicySpec("linear_openloop", RAMP_THETA + delta), x0, T, DT,
                       mode)
        delta_x = build_samples(source, [(delta, pert)]).delta_x
        assert np.array_equal(delta_x[0, 0], np.zeros(3))
        for t in range(100, T + 1, 100):
            dx_dw, dx_db = ramp_torque_jacobian(DT, t)
            jvp = dx_dw * delta[:3] + dx_db * delta[3:]
            rel = np.linalg.norm(delta_x[0, t] - jvp) / np.linalg.norm(jvp)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-5 and elapsed < 10,
            f"finite differences vs closed-form JVP: worst rel err {worst:.2e} "
            f"(tol 1e-5), {elapsed:.1f}s (budget 10s)")


# -- 2: linear reconstruction converges at first order ----------------------------


def test_criterion_2_reconstruction_first_order():
    start = time.perf_counter()
    mode = DynamicsMode("pendulum3", damping=0.5, gravity_gain=0.3)
    x0 = JointState(START_POSE, np.zeros(3))
    theta = np.array([0.0, 0.0, 0.0, 0.1, -0.05, 0.08])
    T, t_check = 200, 200

    def run(delta):
        return rollout(PolicySpec("linear_openloop", theta + delta), x0, T, DT,
                       mode).angles

    basis = basis_directions(6, 1e-6)
    stack = build_jacobian_stack(run, basis, timesteps=[t_check])
    base = run(np.zeros(6))
    rng = np.random.default_rng(42)
    coarse, fine = [], []
    for _ in range(50):
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        for scale, bucket in ((0.12, coarse), (0.06, fine)):
            truth = run(scale * u)[t_check] - base[t_check]
            recon = reconstruct_linear(stack, basis, scale * u, t_check)
            bucket.append(np.linalg.norm(recon - truth))
    ratio = np.mean(coarse) / np.mean(fine)
    elapsed = time.perf_counter() - start
    _report(2, ratio >= 4.0 and elapsed < 60,
            f"50 unseen directions, step halved: error shrank {ratio:.3f}x "
            f"(needs >= 4x), {elapsed:.1f}s (budget 60s)")


# -- 3: GP generalization on the PD uniform experiment -----------------------------


PD_U_CONFIG = """
[experiment]
label = pd_u_desk
seed = 11

[sim]
mode = pendulum3
dt = 0.01
damping = 0.8
gravity_gain = 0.3
n_steps = 1500
x0_angles = 1.5707963267948966, 1.5707963267948966, 3.141592653589793

[policy]
family = pd_feedback
theta = 1.0, 0.01
x_star = 0.3141592653589793, 2.356194490192345, 1.8325957145940461

[perturbation]
scheme = uniform
count = 130
ranges = -0.5:1.5, ~

[preprocess]
align = none
gamma_sweep = 0, 0.01, 0.04

[gp]
stride = 10
optimize = true
n_restarts = 2

[eval]
holdout_fraction = 0.2308
split_seed = 3
"""


def _best_metrics_row(out):
    lines = open(os.path.join(out, "metrics", "metrics.csv")).read().splitlines()
    for line in lines[1:]:
        parts = line.split(",")
        if parts[-1] == "1":
            return {"gamma": float(parts[1]), "mse": float(parts[2]),
                    "score": float(parts[3]), "cos": float(parts[4])}
    raise AssertionError("no selected gamma row")


def test_criterion_3_gp_generalization(tmp_path):
    start = time.perf_counter()
    cfg_path = tmp_path / "pd_u.ini"
    cfg_path.write_text(PD_U_CONFIG)
    cfg = load_config(str(cfg_path))
    out = str(tmp_path / "out")
    run_pipeline(cfg, out)
    best = _best_metrics_row(out)
    elapsed = time.perf_counter() - start
    ok = best["score"] >= 0.8 and best["cos"] >= 0.9 and elapsed < 600
    _report(3, ok,
            f"PD uniform 100/30 split, best gamma {best['gamma']:g}: "
            f"score {best['score']:.4f} (needs >= 0.8), cos {best['cos']:.4f} "
            f"(needs >= 0.9), {elapsed:.0f}s (budget 600s)")


# -- 4: exact delay recovery --------------------------------------------------------


def _acceptance_trajectories():
    x0 = JointState(START_POSE, np.zeros(3))
    T = 400
    return [
        rollout(PolicySpec("linear_openloop", RAMP_THETA), x0, T, DT,
                DynamicsMode("linear", damping=0.3)),
        rollout(PolicySpec("pd_feedback", [0.4, 0.01], {"x_star": X_STAR.copy()}),
                x0, T, DT, DynamicsMode("linear", damping=0.8)),
        rollout(PolicySpec("sinusoidal", [0.5, 0.01], {"joints": (1,)}), x0, T, DT,
                DynamicsMode("pendulum3", damping=0.5, gravity_gain=0.3)),
        rollout(PolicySpec("sinusoidal", [-0.4, 0.013, 0.5, 0.007],
                           {"joints": (2, 3)}), x0, T, DT,
                DynamicsMode("linear", damping=0.5)),
        rollout(PolicySpec("linear_openloop", [2e-5, -1e-4, 1e-5, 0.1, 0.12, -0.2]),
                x0, T, DT, DynamicsMode("pendulum3", damping=0.4, gravity_gain=0.5)),
    ]


def test_criterion_4_delay_recovery():
    start = time.perf_counter()
    failures = 0
    checks = 0
    for traj in _acceptance_trajectories():
        for n in range(-50, 51):
            other = inject_temporal_noise(traj, n) if n != 0 else traj
            est = estimate_delay(traj, other, max_lag=50)
            checks += 1
            if est.tau_star != -n:
                failures += 1
    elapsed = time.perf_counter() - start
    _report(4, failures == 0 and elapsed < 30,
            f"{checks} shift recoveries across 5 trajectories: {failures} failures "
            f"(needs 0), {elapsed:.1f}s (budget 30s)")


# -- 5: voxel quantization error bound ------------------------------------------------


def test_criterion_5_quantization_bound():
    start = time.perf_counter()
    sigma = 0.01
    margins = []
    for gamma in (0.01, 0.04, 0.16, 0.2):
        rng = np.random.default_rng(int(gamma * 1000))
        errs, raws = [], []
        for _ in range(1000):
            x1, x2 = rng.uniform(0, 3, size=(2, 3))
            e1, e2 = rng.normal(0, sigma, size=(2, 3))
            vox_diff = voxel_center(x2 + e2, gamma) - voxel_center(x1 + e1, gamma)
            errs.append(np.max(np.abs(vox_diff - (x2 - x1))))
            raws.append(np.max(np.abs(e2 - e1)))
        mean_err = float(np.mean(errs))
        bound = 2 * gamma + float(np.mean(raws))
        assert mean_err <= bound  # exact inequality, no tolerance
        margins.append(bound - mean_err)
    elapsed = time.perf_counter() - start
    _report(5, elapsed < 30,
            f"1000-pair batches at four voxel sizes all inside 2*gamma + raw "
            f"noise (min margin {min(margins):.4f}), {elapsed:.1f}s (budget 30s)")


# -- 6: zero-shot planning ------------------------------------------------------------


def test_criterion_6_zero_shot_planning():
    start = time.perf_counter()
    KD, KP_S, T, TC = 0.01, 0.4, 1500, 600
    results = []
    for mode, floor in ((DynamicsMode("linear", damping=0.8), 0.8),
                        (DynamicsMode("pendulum3", damping=0.8, gravity_gain=0.3),
                         0.5)):
        def pd_policy(kp):
            return PolicySpec("pd_feedback", [kp, KD], {"x_star": X_STAR.copy()})

        def pd_rollout(kp):
            return rollout(pd_policy(kp), JointState(START_POSE, np.zeros(3)), T, DT, mode)

        rng = np.random.default_rng(0)
        source = pd_rollout(KP_S)
        # one batch, bit-equal to 100 single rollouts (tests/test_sim.py)
        kps = rng.uniform(0.2, 0.6, size=100)
        trajs = rollout_batch(pd_policy(KP_S), np.column_stack([kps, np.full(kps.size, KD)]),
                              JointState(START_POSE, np.zeros(3)), T, DT, mode)
        perturbed = [(np.array([kp - KP_S, 0.0]), traj) for kp, traj in zip(kps, trajs)]
        model = fit_sensitivity_model(build_samples(source, perturbed),
                                      timesteps=[TC], source=source,
                                      nominal_theta=np.array([KP_S, KD]))
        for kp_target in (0.45, 0.5, 0.58):
            target = pd_rollout(kp_target).angles[TC]
            problem = PlanningProblem(source_kp=KP_S, fixed_kd=KD, t_constraint=TC,
                                      x_target_t=target, final_target=X_STAR,
                                      constraint_dim="all")
            rep = plan_and_verify(problem, model, pd_policy(KP_S),
                                  JointState(START_POSE, np.zeros(3)), DT, mode, T)
            results.append((mode.tag, kp_target, rep.improvement, floor))
    elapsed = time.perf_counter() - start
    ok = all(imp >= floor for _, _, imp, floor in results) and elapsed < 300
    worst = min(imp for _, _, imp, _ in results)
    _report(6, ok,
            f"six planning scenarios (3 distances x 2 modes): worst miss "
            f"reduction {worst:.4f} (needs >= 0.8 linear / 0.5 pendulum3), "
            f"{elapsed:.0f}s (budget 300s)")


# -- 7: score definition ---------------------------------------------------------------


def test_criterion_7_score_unit_tests():
    y = np.array([4.0, -1.0, 2.5, 0.5])
    exact = (gp_score(y, y) == 1.0
             and gp_score(y, np.full(4, y.mean())) == 0.0
             and gp_score([1, 2, 3], [1, 2, 4]) == 0.5)
    _report(7, exact, "score(y,y)=1, score(y,mean)=0, worked example = 0.5 exactly")


# -- 8: pipeline determinism -------------------------------------------------------------


DETERMINISM_CONFIG = """
[experiment]
label = determinism
seed = 9

[sim]
mode = linear
dt = 0.01
damping = 0.8
n_steps = 250
x0_angles = 1.5707963267948966, 1.5707963267948966, 3.141592653589793

[policy]
family = pd_feedback
theta = 0.4, 0.01
x_star = 0.3141592653589793, 2.356194490192345, 1.8325957145940461

[perturbation]
scheme = uniform
count = 30
ranges = 0.2:0.6, ~

[preprocess]
align = correlation
max_lag = 20
gamma_sweep = 0, 0.04

[gp]
stride = 50
optimize = true
n_restarts = 2

[eval]
holdout_fraction = 0.25
split_seed = 7
"""


def test_criterion_8_run_determinism(tmp_path):
    cfg_path = tmp_path / "det.ini"
    cfg_path.write_text(DETERMINISM_CONFIG)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    run_pipeline(load_config(str(cfg_path)), out1)
    run_pipeline(load_config(str(cfg_path)), out2)
    identical = True
    metric_dir = os.path.join(out1, "metrics")
    for name in sorted(os.listdir(metric_dir)):
        a = open(os.path.join(out1, "metrics", name), "rb").read()
        b = open(os.path.join(out2, "metrics", name), "rb").read()
        if a != b:
            identical = False
    _report(8, identical,
            f"two runs with identical config+seed: all "
            f"{len(os.listdir(metric_dir))} metrics CSVs byte-identical")
