import numpy as np
import pytest

from trajsense import (
    DynamicsMode,
    JointState,
    NoiseConfig,
    PolicySpec,
    Trajectory,
    inject_spatial_noise,
    inject_temporal_noise,
    rollout,
    rollout_batch,
)
from trajsense import controllers
from trajsense.errors import InvalidShiftError, InvalidStateError, PolicyEvalError
from trajsense.sim import JOINT_HIGH, JOINT_LOW, START_POSE, TORQUE_CAP, _step_arrays

from oracles import (damped_const_torque_state, former_rollout_batch,
                     pendulum3_pd_sensitivities, ramp_torque_state)

LINEAR = DynamicsMode("linear", damping=0.0)


def zero_state(angles=(0.5, 0.5, 0.5)):
    return JointState(np.array(angles), np.zeros(3))


def constant_torque(u):
    # a linear_openloop ramp of zero slope holds the torque u at every step
    return PolicySpec("linear_openloop", np.concatenate([np.zeros(3), u]))


def test_zero_torque_zero_velocity_is_fixed_point():
    s = zero_state()
    out = rollout(constant_torque(np.zeros(3)), s, 1, 0.01, LINEAR)
    assert np.array_equal(out.angles[1], s.angles)
    assert np.array_equal(out.velocities[1], s.velocities)


def test_joint_limit_clamps_and_zeroes_velocity():
    # Appendix-style hard stop: joint 2 (index 1) driven past its upper limit
    s = JointState(np.array([np.pi / 2, np.pi / 2, np.pi]), np.zeros(3))
    out = rollout(constant_torque(np.array([0.0, 5.0, 0.0])), s, 1, 1.0, LINEAR)
    assert out.angles[1, 1] == np.pi
    assert out.velocities[1, 1] == 0.0
    assert np.all(out.angles[1] <= JOINT_HIGH) and np.all(out.angles[1] >= JOINT_LOW)


def test_constant_torque_matches_closed_form_after_100_steps():
    traj = rollout(constant_torque(np.array([1.0, 0.0, 0.0])), zero_state(), 100, 0.01,
                   LINEAR)
    x_expect, v_expect = ramp_torque_state(0.5, 0.0, w=0.0, b=1.0, dt=0.01, n=100)
    assert traj.velocities[100, 0] == pytest.approx(1.0, abs=1e-12)
    assert traj.angles[100, 0] == pytest.approx(x_expect, abs=1e-12)
    assert x_expect == pytest.approx(1.0, abs=1e-12)  # x0 + u*t^2/2 = 0.5 + 0.5


def test_nonfinite_inputs_rejected():
    with pytest.raises(InvalidStateError):
        JointState(np.array([np.nan, 0, 0]), np.zeros(3))


def test_step_rejects_nonpositive_dt():
    with pytest.raises(InvalidStateError):
        rollout(constant_torque(np.zeros(3)), zero_state(), 1, 0.0, LINEAR)


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
def test_rollout_rejects_a_bad_dt_before_the_first_step(monkeypatch, dt):
    # 0 and -0.01 ran every step before Trajectory raised; nan gave an all-NaN
    # recording and inf a recording, both without an error
    calls = []
    real = controllers.torque_at
    monkeypatch.setattr(controllers, "torque_at",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    for mode in (LINEAR, DynamicsMode("pendulum3", damping=0.8, gravity_gain=0.3)):
        with pytest.raises(InvalidStateError, match="dt must be positive and finite"):
            rollout(constant_torque(np.zeros(3)), zero_state(), 20000, dt, mode)
    assert calls == []
    with pytest.raises(InvalidStateError, match="dt must be positive and finite"):
        Trajectory(dt, np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((1, 3)))


def ramp_policy():
    return PolicySpec("linear_openloop",
                      [1e-5, 1e-4, -1e-5, -0.28, -0.15, -0.08])


def test_rollout_from_platform_start_pose():
    traj = rollout(ramp_policy(), JointState(START_POSE, np.zeros(3)), 1500, 0.01,
                   LINEAR)
    assert traj.angles.shape == (1501, 3)
    assert traj.torques.shape == (1500, 3)
    assert np.all(traj.angles >= JOINT_LOW) and np.all(traj.angles <= JOINT_HIGH)


def test_pd_rollout_horizon_1500():
    pol = PolicySpec("pd_feedback", [1.0, 0.01],
                     {"x_star": np.array([np.pi / 10, 3 * np.pi / 4, 7 * np.pi / 12])})
    traj = rollout(pol, JointState(START_POSE, np.zeros(3)), 1500, 0.01,
                   DynamicsMode("linear", damping=0.5))
    assert traj.n_steps == 1500
    # the servo should have moved every joint toward its target
    start_err = np.abs(START_POSE - pol.fixed["x_star"])
    end_err = np.abs(traj.angles[-1] - pol.fixed["x_star"])
    assert np.all(end_err < start_err)


def test_rollout_deterministic_without_noise():
    a = rollout(ramp_policy(), zero_state(), 200, 0.01, LINEAR)
    b = rollout(ramp_policy(), zero_state(), 200, 0.01, LINEAR)
    assert np.array_equal(a.angles, b.angles)
    assert np.array_equal(a.velocities, b.velocities)
    assert np.array_equal(a.torques, b.torques)


def test_rollout_deterministic_with_seeded_noise():
    noise = NoiseConfig(temporal_shift=3, spatial_std=np.full(3, 0.01), seed=42)
    a = noise.apply(rollout(ramp_policy(), zero_state(), 200, 0.01, LINEAR))
    b = noise.apply(rollout(ramp_policy(), zero_state(), 200, 0.01, LINEAR))
    assert np.array_equal(a.angles, b.angles)


def test_linear_mode_matches_ramp_closed_form_everywhere():
    w, b = 0.02, -0.01
    pol = PolicySpec("linear_openloop", [w, 0.0, 0.0, b, 0.0, 0.0])
    dt = 0.01
    traj = rollout(pol, JointState(np.array([1.0, 1.0, 1.0]), np.zeros(3)), 400, dt,
                   LINEAR)
    for n in range(0, 401, 25):
        x_ref, v_ref = ramp_torque_state(1.0, 0.0, w, b, dt, n)
        assert traj.angles[n, 0] == pytest.approx(x_ref, rel=1e-9, abs=1e-12)
        assert traj.velocities[n, 0] == pytest.approx(v_ref, rel=1e-9, abs=1e-12)


def test_damped_linear_mode_matches_one_shot_solution():
    c = 0.8
    pol = PolicySpec("linear_openloop", [0.0, 0.0, 0.0, 0.3, 0.0, 0.0])
    traj = rollout(pol, JointState(np.array([1.0, 1.0, 1.0]), np.zeros(3)), 500, 0.01,
                   DynamicsMode("linear", damping=c))
    x_ref, v_ref = damped_const_torque_state(1.0, 0.0, 0.3, c, 500 * 0.01)
    assert traj.angles[500, 0] == pytest.approx(x_ref, rel=1e-9)
    assert traj.velocities[500, 0] == pytest.approx(v_ref, rel=1e-9)


def test_pendulum_mode_runs_and_respects_limits():
    pol = PolicySpec("sinusoidal", [0.5, 0.01], {"joints": (1,)})
    mode = DynamicsMode("pendulum3", damping=0.5, gravity_gain=0.3)
    traj = rollout(pol, JointState(START_POSE, np.zeros(3)), 2000, 0.01, mode)
    assert np.all(traj.angles >= JOINT_LOW) and np.all(traj.angles <= JOINT_HIGH)
    assert np.all(np.isfinite(traj.angles))


# -- temporal noise -----------------------------------------------------------


def test_temporal_shift_zero_is_identity():
    traj = rollout(ramp_policy(), zero_state(), 100, 0.01, LINEAR)
    out = inject_temporal_noise(traj, 0)
    assert np.array_equal(out.angles, traj.angles)


def test_temporal_shift_moves_states():
    traj = rollout(ramp_policy(), zero_state(), 100, 0.01, LINEAR)
    out = inject_temporal_noise(traj, 5)
    assert np.array_equal(out.angles[:-5], traj.angles[5:])
    assert np.array_equal(out.angles[-5:], np.tile(traj.angles[-1], (5, 1)))
    assert out.meta["temporal_shift"] == 5


def test_temporal_shift_inverse_restores_interior():
    traj = rollout(ramp_policy(), zero_state(), 100, 0.01, LINEAR)
    back = inject_temporal_noise(inject_temporal_noise(traj, -3), 3)
    assert np.array_equal(back.angles[3:-3], traj.angles[3:-3])


def test_temporal_shift_too_large_rejected():
    traj = rollout(ramp_policy(), zero_state(), 50, 0.01, LINEAR)
    with pytest.raises(InvalidShiftError):
        inject_temporal_noise(traj, 50)
    with pytest.raises(InvalidShiftError):
        inject_temporal_noise(traj, -51)


# -- spatial noise ------------------------------------------------------------


def test_spatial_noise_zero_is_identity():
    traj = rollout(ramp_policy(), zero_state(), 100, 0.01, LINEAR)
    out = inject_spatial_noise(traj, np.zeros(3), seed=1)
    assert np.array_equal(out.angles, traj.angles)


def test_spatial_noise_seed_sensitivity():
    traj = rollout(ramp_policy(), zero_state(), 100, 0.01, LINEAR)
    a = inject_spatial_noise(traj, np.full(3, 0.01), seed=1)
    b = inject_spatial_noise(traj, np.full(3, 0.01), seed=2)
    assert a.angles.shape == b.angles.shape
    assert not np.array_equal(a.angles, b.angles)


def test_spatial_noise_sup_norm_bounded_over_seeds():
    # Monte Carlo: 100 seeds, sigma = 0.01, sup deviation stays under 6 sigma
    traj = rollout(ramp_policy(), zero_state(), 100, 0.01, LINEAR)
    sigma = 0.01
    for seed in range(100):
        out = inject_spatial_noise(traj, np.full(3, sigma), seed=seed)
        dev = np.max(np.abs(out.angles - traj.angles))
        assert dev <= 6 * sigma
        assert out.meta["spatial_sup_deviation"] == pytest.approx(dev)


def test_repeat_noise_spread_grows_with_scale():
    # Assumption-style check: the worst pairwise sup-norm gap over M repeats
    # is bounded and grows monotonically with the noise scale
    traj = rollout(ramp_policy(), zero_state(), 100, 0.01, LINEAR)
    spreads = []
    for s in (0.005, 0.01, 0.02, 0.05):
        runs = [inject_spatial_noise(traj, np.full(3, s), seed=k).angles
                for k in range(20)]
        worst = max(np.max(np.abs(a - b)) for i, a in enumerate(runs)
                    for b in runs[i + 1:])
        spreads.append(worst)
        assert worst <= 12 * s  # two 6-sigma tails
    assert all(a < b for a, b in zip(spreads, spreads[1:]))


# -- batched rollouts -------------------------------------------------------------

PENDULUM = DynamicsMode("pendulum3", damping=0.8, gravity_gain=0.3)
X_STAR = np.array([np.pi / 10, 3 * np.pi / 4, 7 * np.pi / 12])


def _stack(policies):
    """The lead policy and the (N, m) parameter stack of policies of one family."""
    return policies[0], np.stack([p.theta for p in policies])


def assert_batch_equals_single(policies, mode, n_steps, noises=None, x0=None):
    """Each batch row, with noises[i] applied if given, against the same
    noise applied to a rollout of policies[i] alone; returns the rows."""
    x0 = JointState(START_POSE, np.zeros(3)) if x0 is None else x0
    batch = rollout_batch(*_stack(policies), x0, n_steps, 0.01, mode)
    assert len(batch) == len(policies)
    if noises is not None:
        batch = [noise.apply(traj) for noise, traj in zip(noises, batch)]
    for i, (traj, policy) in enumerate(zip(batch, policies)):
        single = rollout(policy, x0, n_steps, 0.01, mode)
        if noises is not None:
            single = noises[i].apply(single)
        assert np.array_equal(traj.angles, single.angles)
        assert np.array_equal(traj.velocities, single.velocities)
        assert np.array_equal(traj.torques, single.torques)
        assert traj.meta == single.meta
    return batch


def test_batch_equals_single_for_every_family():
    ramp = ramp_policy()
    cases = [
        ([ramp.with_theta(ramp.theta * s) for s in (0.5, 1.0, 3.0)], LINEAR),
        ([PolicySpec("sinusoidal", [a, w, 0.3, 0.02], {"joints": (1, 3)})
          for a, w in ((0.5, 0.01), (0.7, 0.013), (-0.4, 0.05))], PENDULUM),
        ([PolicySpec("p_feedback", [kp], {"x_star": X_STAR}) for kp in (0.2, 0.7, 1.5)],
         PENDULUM),
        ([PolicySpec("pd_feedback", [kp, kd], {"x_star": X_STAR})
          for kp, kd in ((1.0, 0.01), (0.4, 0.3), (1.4, 0.0))], PENDULUM),
    ]
    for policies, mode in cases:
        batch = assert_batch_equals_single(policies, mode, 400)
        assert not np.array_equal(batch[0].angles, batch[1].angles)


def test_rollout_equals_stepping_one_state():
    # the (N, 3) batch loop against _step_arrays on one (3,) state
    x0 = JointState(START_POSE, np.zeros(3))
    for policy, mode in ((PolicySpec("pd_feedback", [-0.4, 0.01], {"x_star": X_STAR}), PENDULUM),
                         (PolicySpec("sinusoidal", [0.5, 0.01], {"joints": (2,)}), PENDULUM),
                         (ramp_policy(), DynamicsMode("linear", damping=0.5))):
        traj = rollout(policy, x0, 500, 0.01, mode)
        x, v = x0.angles, x0.velocities
        for k in range(500):
            u = np.clip(controllers.torque_at(policy, k, k * 0.01, x, v),
                        -TORQUE_CAP, TORQUE_CAP)
            x, v = _step_arrays(x, v, u, 0.01, mode)
            assert np.array_equal(traj.torques[k], u)
            assert np.array_equal(traj.angles[k + 1], x)
            assert np.array_equal(traj.velocities[k + 1], v)


def test_batch_equals_single_in_linear_mode_with_and_without_damping():
    policies = [PolicySpec("pd_feedback", [kp, 0.01], {"x_star": X_STAR})
                for kp in np.linspace(0.1, 1.5, 6)]
    for damping in (0.0, 0.5):
        assert_batch_equals_single(policies, DynamicsMode("linear", damping=damping), 600)


def test_batch_equals_single_across_joint_limit_hits():
    # kp below about -0.2 tips the chain over into the joint stops
    policies = [PolicySpec("pd_feedback", [kp, 0.01], {"x_star": X_STAR})
                for kp in (-0.5, -0.3, 0.05, 1.0)]
    batch = assert_batch_equals_single(policies, PENDULUM, 600)
    at_stop = [np.any((t.angles == JOINT_LOW) | (t.angles == JOINT_HIGH)) for t in batch]
    assert at_stop == [True, True, False, False]


def test_batch_equals_single_with_temporal_and_spatial_noise():
    policies = [PolicySpec("sinusoidal", [a, 0.01], {"joints": (3,)})
                for a in (0.3, 0.45, 0.6, 0.7)]
    noises = [NoiseConfig(),
              NoiseConfig(temporal_shift=7, seed=3),
              NoiseConfig(spatial_std=np.full(3, 0.005), seed=4),
              NoiseConfig(temporal_shift=-12, spatial_std=np.array([0.01, 0.0, 0.02]),
                          seed=5)]
    batch = assert_batch_equals_single(policies, PENDULUM, 500, noises)
    assert [t.meta["temporal_shift"] for t in batch] == [0, 7, 0, -12]
    assert batch[2].meta["spatial_sup_deviation"] > 0


def test_batch_rejects_a_stack_of_the_wrong_width():
    # one policy and one stack cannot mix families or fixed constants; a
    # p_feedback width, one vector that is no stack, or no row at all is an error
    x0 = JointState(START_POSE, np.zeros(3))
    pd = PolicySpec("pd_feedback", [1.0, 0.01], {"x_star": X_STAR})
    for thetas in (np.ones((2, 1)), np.ones((2, 3)), np.ones(2), np.ones((0, 2)),
                   np.array([[1.0, np.nan]])):
        with pytest.raises(InvalidStateError):
            rollout_batch(pd, thetas, x0, 10, 0.01, LINEAR)


def _bits_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# Every family pushes a joint into a stop and drives some torque to exactly
# +-TORQUE_CAP, or past it; the -0.0 entries are the signed zeros the clips
# must keep or drop as np.clip did.
FORMER_LOOP_CASES = {
    "linear_openloop": ([[-0.0, 0.0, 0.0, -0.0, TORQUE_CAP, -TORQUE_CAP],
                         [1.0, -2.0, -0.0, -7.0, 0.3, -TORQUE_CAP]], {}),
    "sinusoidal": ([[-0.5, 0.01, 20.0, 0.05], [0.7, 0.02, -9.0, 0.013]], {"joints": (1, 3)}),
    "p_feedback": ([[30.0], [0.2]], {"x_star": np.array([-1.0, 1.0, 7.0])}),
    "pd_feedback": ([[2.0, 0.5], [40.0, -0.0]], {"x_star": np.array([-0.0, 4.0, 2.0])}),
}
# joint 1 starts at its low stop as -0.0, joint 2 at its high stop
STOPPED_X0 = JointState(np.array([-0.0, np.pi, 1.0]), np.array([-0.0, 0.0, -3.0]))


@pytest.mark.parametrize("mode", [LINEAR, DynamicsMode("linear", damping=0.5), PENDULUM],
                         ids=["linear", "linear_damped", "pendulum3"])
@pytest.mark.parametrize("family", sorted(FORMER_LOOP_CASES))
def test_rollout_loop_matches_the_former_loop(family, mode):
    thetas, fixed = FORMER_LOOP_CASES[family]
    policies = [PolicySpec(family, theta, dict(fixed)) for theta in thetas]
    x0 = STOPPED_X0
    angles, velocities, torques = former_rollout_batch(policies, x0.angles, x0.velocities,
                                                       300, 0.01, mode)
    trajs = rollout_batch(*_stack(policies), x0, 300, 0.01, mode) + [
        rollout(policies[0], x0, 300, 0.01, mode)]
    for traj, i in zip(trajs, [*range(len(policies)), 0]):
        assert _bits_equal(traj.angles, angles[i])
        assert _bits_equal(traj.velocities, velocities[i])
        assert _bits_equal(traj.torques, torques[i])
    assert np.any(np.abs(torques) == TORQUE_CAP)
    assert np.any((angles[:, 1:] == JOINT_LOW) | (angles[:, 1:] == JOINT_HIGH))


def test_former_loop_cases_reach_signed_zeros():
    # the cases above only test the clips' signed zeros if such zeros occur
    thetas, fixed = FORMER_LOOP_CASES["linear_openloop"]
    traj = rollout(PolicySpec("linear_openloop", thetas[0], dict(fixed)), STOPPED_X0, 300,
                   0.01, LINEAR)
    assert np.all(traj.torques[:, 0] == 0.0) and np.all(np.signbit(traj.torques[:, 0]))
    assert np.signbit(traj.angles[0, 0]) and not np.signbit(traj.angles[1, 0])


def test_controller_failure_names_the_step(monkeypatch):
    real = controllers.pd_feedback

    def failing(angles, velocities, theta, x_star):
        if failing.calls == 7:
            raise FloatingPointError("boom")
        failing.calls += 1
        return real(angles, velocities, theta, x_star)

    failing.calls = 0
    monkeypatch.setattr(controllers, "pd_feedback", failing)
    policy = PolicySpec("pd_feedback", [0.5, 0.01], {"x_star": X_STAR})
    with pytest.raises(PolicyEvalError) as info:
        rollout_batch(policy, [[0.5, 0.01], [1.0, 0.01]], JointState(START_POSE, np.zeros(3)),
                      20, 0.01, LINEAR)
    assert info.value.timestep == 7
    assert "step 7" in str(info.value)


# -- exact pendulum3 sensitivities -------------------------------------------------

# the pd_u preset's dynamics, start and target
PD_U_MODE = DynamicsMode("pendulum3", damping=0.8, gravity_gain=0.3)
PD_U_X_STAR = np.array([np.pi / 10, 3 * np.pi / 4, 7 * np.pi / 12])


def central_differences(theta, x_star, h, n_steps=1500):
    """The derivatives of the angles and of the velocities by (kp, kd), one
    (2, T+1, 3, 2) stack, by central differences of one rollout_batch over
    theta +- h along each parameter."""
    policy = PolicySpec("pd_feedback", theta, {"x_star": x_star})
    rows = [theta + sign * h * e for e in np.eye(2) for sign in (1, -1)]
    trajs = rollout_batch(policy, np.array(rows), JointState(START_POSE, np.zeros(3)),
                          n_steps, 0.01, PD_U_MODE)
    return np.stack([np.stack([(getattr(trajs[2 * j], name) - getattr(trajs[2 * j + 1], name))
                               / (2 * h) for j in range(2)], axis=-1)
                     for name in ("angles", "velocities")])


def exact_sensitivities(theta, x_star, n_steps=1500):
    """(angles, the (2, T+1, 3, 2) stack of dx and dv, clipped, clamped)."""
    angles, dx, dv, clipped, clamped = pendulum3_pd_sensitivities(
        START_POSE, np.zeros(3), theta[0], theta[1], x_star, 0.01, n_steps,
        PD_U_MODE.damping, PD_U_MODE.gravity_gain)
    return angles, np.stack([dx, dv]), clipped, clamped


def test_exact_pendulum3_sensitivities_match_central_differences_at_second_order():
    # pd_u's nominal gains clip no torque and hit no stop, so the rollout is
    # smooth in theta and the central difference's error is O(h^2)
    theta = np.array([1.0, 0.01])
    angles, exact, clipped, clamped = exact_sensitivities(theta, PD_U_X_STAR)
    assert clipped == clamped == 0
    policy = PolicySpec("pd_feedback", theta, {"x_star": PD_U_X_STAR})
    sim = rollout(policy, JointState(START_POSE, np.zeros(3)), 1500, 0.01, PD_U_MODE)
    assert np.allclose(angles, sim.angles, rtol=0, atol=1e-14)
    errors = [np.abs(central_differences(theta, PD_U_X_STAR, h) - exact).max()
              for h in (1e-3, 5e-4)]
    assert 3.8 < errors[0] / errors[1] < 4.2
    assert errors[1] < 1e-6 * np.abs(exact).max()


@pytest.mark.parametrize("kp, x_star, branch", [
    (4.0, PD_U_X_STAR, "clipped"),  # joints 1 and 3 start beyond the torque cap
    (1.0, PD_U_X_STAR * [0, 1, 1], "clamped"),  # joint 1 overshoots its stop at 0
])
def test_a_clipped_torque_or_a_joint_stop_has_zero_derivative(kp, x_star, branch):
    # with steps small enough that no neighbour clips or clamps at another
    # step, central differences see the same zero rows as the oracle
    theta = np.array([kp, 0.01])
    _, exact, clipped, clamped = exact_sensitivities(theta, x_star)
    assert {"clipped": clipped, "clamped": clamped}[branch] > 0
    error = np.abs(central_differences(theta, x_star, 1e-5) - exact).max()
    assert error < 1e-8 * np.abs(exact).max()
