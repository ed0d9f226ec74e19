import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

from trajsense import (
    DynamicsMode,
    JointState,
    PlanningProblem,
    PolicySpec,
    build_samples,
    fit_sensitivity_model,
    plan_and_verify,
    rollout,
    rollout_batch,
    solve_kp,
)
from trajsense import planner
from trajsense.errors import ConfigError, TargetUnreachableError
from trajsense.gp import ExactGP
from trajsense.sim import START_POSE

from oracles import (
    full_horizon_plan_and_verify,
    pd_closed_loop_angle,
    per_point_predict_curve,
    posterior_error_bounds,
)

DT = 0.01
# enough viscous damping that no kp in the training range overshoots a joint
# past its mechanical limit, keeping the unclamped closed form valid
DAMPING = 0.8
MODE = DynamicsMode("linear", damping=DAMPING)
X_STAR = np.array([np.pi / 10, 3 * np.pi / 4, 7 * np.pi / 12])
KD = 0.01
KP_SOURCE = 0.4
T_TOTAL = 800
T_CONSTRAINT = 400


def pd_policy(kp):
    return PolicySpec("pd_feedback", [kp, KD], {"x_star": X_STAR.copy()})


def pd_rollout(kp, n_steps=T_TOTAL):
    return rollout(pd_policy(kp), JointState(START_POSE, np.zeros(3)), n_steps, DT,
                   MODE)


def oracle_angle_at(kp, t=T_CONSTRAINT, dim=0):
    return pd_closed_loop_angle(START_POSE[dim], 0.0, kp, KD, X_STAR[dim], DT, t,
                                damping=DAMPING)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    source = pd_rollout(KP_SOURCE)
    perturbed = []
    for _ in range(60):
        kp = rng.uniform(0.2, 0.6)
        delta = np.array([kp - KP_SOURCE, 0.0])
        perturbed.append((delta, pd_rollout(kp)))
    samples = build_samples(source, perturbed)
    model = fit_sensitivity_model(samples, timesteps=[T_CONSTRAINT], source=source,
                                  nominal_theta=np.array([KP_SOURCE, KD]))
    return model, source


def problem_for(target_angles, dims="all"):
    return PlanningProblem(source_kp=KP_SOURCE, fixed_kd=KD,
                           t_constraint=T_CONSTRAINT, x_target_t=target_angles,
                           final_target=X_STAR, constraint_dim=dims)


def test_simulator_agrees_with_matrix_power_map(trained):
    # sanity for the oracle itself before it is used to judge the planner;
    # checking the gain extremes also proves no joint limit is hit in range
    _, source = trained
    for dim in range(3):
        assert source.angles[T_CONSTRAINT, dim] == pytest.approx(
            oracle_angle_at(KP_SOURCE, dim=dim), abs=1e-10)
    for kp in (0.2, 0.6):
        traj = pd_rollout(kp, n_steps=T_CONSTRAINT)
        for dim in range(3):
            assert traj.angles[T_CONSTRAINT, dim] == pytest.approx(
                oracle_angle_at(kp, dim=dim), abs=1e-10)


def test_target_on_source_needs_no_correction(trained):
    model, source = trained
    result = solve_kp(model, problem_for(source.angles[T_CONSTRAINT], dims=0))
    assert result.kp_star == pytest.approx(KP_SOURCE, abs=2e-3)


def test_solved_gain_matches_analytic_map(trained):
    model, _ = trained
    for kp_target in (0.3, 0.47, 0.55):
        target = np.array([oracle_angle_at(kp_target, dim=d) for d in range(3)])
        result = solve_kp(model, problem_for(target, dims=0))
        # the analytic inverse of the gain-to-state map on the oracle side
        kp_oracle = brentq(lambda k: oracle_angle_at(k) - target[0], 0.2, 0.6,
                           xtol=1e-12)
        assert kp_oracle == pytest.approx(kp_target, abs=1e-9)
        assert result.kp_star == pytest.approx(kp_oracle, abs=1e-4)


def test_least_squares_mode_hits_realizable_targets(trained):
    model, _ = trained
    kp_target = 0.52
    target = np.array([oracle_angle_at(kp_target, dim=d) for d in range(3)])
    result = solve_kp(model, problem_for(target, dims="all"))
    assert result.kp_star == pytest.approx(kp_target, abs=1e-3)
    assert np.all(np.abs(result.residuals) < 1e-3)


def test_unreachable_target_reports_attainable_range(trained):
    model, _ = trained
    target = np.array([2.5, 0.0, 0.0])  # far beyond anything kp in range reaches
    with pytest.raises(TargetUnreachableError) as err:
        solve_kp(model, problem_for(target, dims=0))
    assert err.value.attainable_low is not None
    assert err.value.attainable_high is not None
    assert not err.value.attainable_low <= 2.5 <= err.value.attainable_high


def test_fixed_point_agrees_with_root_search(trained):
    model, _ = trained
    target = np.array([oracle_angle_at(0.5, dim=d) for d in range(3)])
    root = solve_kp(model, problem_for(target, dims=0), method="root_search")
    fixed = solve_kp(model, problem_for(target, dims=0), method="fixed_point")
    assert fixed.kp_star == pytest.approx(root.kp_star, abs=1e-4)


def test_plan_and_verify_improves_miss(trained):
    model, _ = trained
    for kp_target in (0.45, 0.5, 0.58):  # short / medium / long corrections
        target = np.array([oracle_angle_at(kp_target, dim=d) for d in range(3)])
        report = plan_and_verify(problem_for(target, dims="all"), model,
                                 pd_policy(KP_SOURCE),
                                 JointState(START_POSE, np.zeros(3)), DT, MODE,
                                 T_TOTAL)
        assert report.improved
        assert report.miss < 1e-3
        assert report.improvement > 0.8


def test_second_correction_is_smaller(trained):
    # contraction near the solution: replanning from the planned gain asks for
    # a smaller adjustment than the first correction did
    model, _ = trained
    kp_target = 0.55
    target = np.array([oracle_angle_at(kp_target, dim=d) for d in range(3)])
    first = solve_kp(model, problem_for(target, dims=0))

    rng = np.random.default_rng(1)
    source2 = pd_rollout(first.kp_star)
    perturbed = []
    for _ in range(40):
        kp = rng.uniform(first.kp_star - 0.1, first.kp_star + 0.1)
        perturbed.append((np.array([kp - first.kp_star, 0.0]), pd_rollout(kp)))
    model2 = fit_sensitivity_model(build_samples(source2, perturbed),
                                   timesteps=[T_CONSTRAINT], source=source2,
                                   nominal_theta=np.array([first.kp_star, KD]))
    problem2 = PlanningProblem(source_kp=first.kp_star, fixed_kd=KD,
                               t_constraint=T_CONSTRAINT, x_target_t=target,
                               final_target=X_STAR, constraint_dim=0)
    second = solve_kp(model2, problem2)
    assert abs(second.delta_star) < abs(first.delta_star)


# -- block queries -------------------------------------------------------------


def _gain_grid(model, grid_n=planner.DEFAULT_GRID):
    return np.linspace(model.delta_low[0], model.delta_high[0], grid_n)


def test_gain_curve_matches_per_point_queries(trained):
    model, source = trained
    problem = problem_for(source.angles[T_CONSTRAINT])
    deltas = _gain_grid(model)
    dims = problem.dims()
    curve = planner._predict_curve(model, problem, deltas, dims)
    ref = per_point_predict_curve(model, problem, deltas, dims)
    assert curve.shape == ref.shape == (deltas.size, len(dims))
    queries = np.zeros((deltas.size, model.delta_low.size))
    queries[:, 0] = deltas
    for j, d in enumerate(dims):
        bound, _ = posterior_error_bounds(model.model_at(T_CONSTRAINT).gps[d], queries)
        assert np.all(np.abs(curve[:, j] - ref[:, j]) <= bound)


def test_gain_curve_is_one_predict_per_dimension(trained, monkeypatch):
    model, source = trained
    # each GP's posterior is what ExactGP.predict computes; the query block's
    # distance stack is built once for all of them
    rows, stacks = [], []
    real, real_stack = ExactGP.posterior, ExactGP.query_stack
    monkeypatch.setattr(ExactGP, "posterior", lambda gp, Dq, std=True: (
        rows.append((Dq.shape[1], std)) or real(gp, Dq, std)))
    monkeypatch.setattr(ExactGP, "query_stack",
                        lambda gp, Xq: stacks.append(1) or real_stack(gp, Xq))
    planner._predict_curve(model, problem_for(source.angles[T_CONSTRAINT]),
                           _gain_grid(model), [0, 1, 2])
    # means only: the planner reads no std, so it rebuilds no kernel factor
    assert rows == [(planner.DEFAULT_GRID, False)] * len(model.model_at(T_CONSTRAINT).gps)
    assert len(stacks) == 1


def test_solve_kp_answers_match_per_point_curve(trained, monkeypatch):
    model, source = trained
    problems = [problem_for(source.angles[T_CONSTRAINT], dims=0)]
    for kp_target, dims in ((0.3, 0), (0.47, 0), (0.55, 0), (0.52, "all")):
        target = np.array([oracle_angle_at(kp_target, dim=d) for d in range(3)])
        problems.append(problem_for(target, dims=dims))
    methods = ["root_search"] * len(problems) + ["fixed_point"]
    problems.append(problem_for(
        np.array([oracle_angle_at(0.5, dim=d) for d in range(3)]), dims=0))

    block = [solve_kp(model, p, method=k) for p, k in zip(problems, methods)]
    monkeypatch.setattr(planner, "_predict_curve", per_point_predict_curve)
    per_point = [solve_kp(model, p, method=k) for p, k in zip(problems, methods)]
    for a, b in zip(block, per_point):
        assert abs(a.kp_star - b.kp_star) <= planner.DEFAULT_TOL
        assert (a.n_roots, a.extrapolated) == (b.n_roots, b.extrapolated)


def test_plan_report_keeps_solver_findings(trained):
    model, _ = trained
    inside = np.array([oracle_angle_at(0.5, dim=d) for d in range(3)])
    outside = np.array([oracle_angle_at(0.65, dim=d) for d in range(3)])  # kp > 0.6
    reports = [plan_and_verify(problem_for(target, dims="all"), model,
                               pd_policy(KP_SOURCE), JointState(START_POSE, np.zeros(3)),
                               DT, MODE, T_TOTAL)
               for target in (inside, outside)]
    assert [r.extrapolated for r in reports] == [False, True]
    assert [r.n_roots for r in reports] == [1, 1]


# -- verification stops at the constraint time -------------------------------------

HORIZON = 300


@pytest.fixture(scope="module", params=["linear", "pendulum3"])
def horizon_model(request):
    """(mode, model) with GP maps at the first, a middle and the last step."""
    mode = MODE if request.param == "linear" else \
        DynamicsMode("pendulum3", damping=DAMPING, gravity_gain=0.3)
    x0 = JointState(START_POSE, np.zeros(3))
    kps = np.random.default_rng(2).uniform(0.2, 0.6, size=30)
    source = rollout(pd_policy(KP_SOURCE), x0, HORIZON, DT, mode)
    trajs = rollout_batch([pd_policy(kp) for kp in kps], x0, HORIZON, DT, mode)
    samples = build_samples(source, [(np.array([kp - KP_SOURCE, 0.0]), traj)
                                     for kp, traj in zip(kps, trajs)])
    model = fit_sensitivity_model(samples, timesteps=[1, HORIZON // 2, HORIZON],
                                  source=source, nominal_theta=np.array([KP_SOURCE, KD]))
    return mode, model


@pytest.mark.parametrize("dims", ["all", 0])
def test_verification_up_to_the_constraint_matches_the_full_horizon(horizon_model, dims,
                                                                    monkeypatch):
    mode, model = horizon_model
    x0 = JointState(START_POSE, np.zeros(3))
    target = rollout(pd_policy(0.5), x0, HORIZON, DT, mode).angles
    real = planner.rollout
    simulated = []
    monkeypatch.setattr(planner, "rollout", lambda policy, x, n, *rest:
                        simulated.append(n) or real(policy, x, n, *rest))
    fields = {f.name for f in dataclasses.fields(planner.PlanReport)}
    for t in model.timesteps:
        problem = PlanningProblem(source_kp=KP_SOURCE, fixed_kd=KD, t_constraint=t,
                                  x_target_t=target[t], final_target=X_STAR,
                                  constraint_dim=dims)
        report = plan_and_verify(problem, model, pd_policy(KP_SOURCE), x0, DT, mode,
                                 HORIZON)
        ref = full_horizon_plan_and_verify(problem, model, pd_policy(KP_SOURCE), x0, DT,
                                           mode, HORIZON, solve_kp, real)
        assert set(ref) == fields
        for name, value in ref.items():
            got = getattr(report, name)
            assert type(got) is type(value), name
            assert np.array_equal(got, value), name
    assert simulated == list(model.timesteps)


@pytest.mark.parametrize("dims", ["all", 0])
def test_plan_reports_from_its_one_full_horizon_rollout(horizon_model, dims):
    # the pipeline and `trajsense plan` write this rollout and take the report
    # from it, where they used to roll the gain out a second time
    mode, model = horizon_model
    x0 = JointState(START_POSE, np.zeros(3))
    target = rollout(pd_policy(0.5), x0, HORIZON, DT, mode).angles
    for t in model.timesteps:
        problem = PlanningProblem(source_kp=KP_SOURCE, fixed_kd=KD, t_constraint=t,
                                  x_target_t=target[t], final_target=X_STAR,
                                  constraint_dim=dims)
        report, planned = planner.plan(problem, model, pd_policy(KP_SOURCE), x0, DT, mode,
                                       HORIZON)
        ref = full_horizon_plan_and_verify(problem, model, pd_policy(KP_SOURCE), x0, DT,
                                           mode, HORIZON, solve_kp, rollout)
        for name, value in ref.items():
            assert np.array_equal(getattr(report, name), value), name
        again = rollout(pd_policy(report.kp_star), x0, HORIZON, DT, mode)
        for name in ("angles", "velocities", "torques"):
            assert np.array_equal(getattr(planned, name), getattr(again, name)), name


@pytest.mark.parametrize("t, n_steps", [
    (T_TOTAL + 100, T_TOTAL),             # no GP map there: was UntrainedTimestepError
    (T_CONSTRAINT, T_CONSTRAINT - 100),   # a trained step past the rollout: was IndexError
])
def test_constraint_beyond_the_horizon_is_a_config_error(trained, t, n_steps):
    model, source = trained
    problem = PlanningProblem(source_kp=KP_SOURCE, fixed_kd=KD, t_constraint=t,
                              x_target_t=source.angles[T_CONSTRAINT], final_target=X_STAR)
    with pytest.raises(ConfigError, match=f"t_constraint {t} .* n_steps {n_steps}"):
        plan_and_verify(problem, model, pd_policy(KP_SOURCE),
                        JointState(START_POSE, np.zeros(3)), DT, MODE, n_steps)
