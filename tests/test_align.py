import numpy as np
import pytest

from trajsense import (
    DynamicsMode,
    JointState,
    PolicySpec,
    classify_noise,
    estimate_delay,
    inject_spatial_noise,
    inject_temporal_noise,
    rollout,
)
from trajsense.align import align_zero_crossing, shift_residual
from trajsense.errors import ConfigError, DegenerateSignalError, LandmarkMissingError
from trajsense.sim import Trajectory

from oracles import brute_force_corr_peak, brute_force_realign


def make_traj(angles, dt=0.01, velocities=None):
    angles = np.asarray(angles, dtype=float)
    if velocities is None:
        velocities = np.gradient(angles, axis=0) / dt
    torques = np.zeros((angles.shape[0] - 1, 3))
    return Trajectory(dt, angles, velocities, torques)


def wavy_traj(T=400, dt=0.01):
    # aperiodic mix: three incommensurate frequencies plus a drift
    t = np.arange(T + 1)
    angles = np.stack([
        1.5 + 0.4 * np.sin(0.031 * t) + 0.001 * t,
        1.2 + 0.3 * np.sin(0.017 * t + 0.5),
        3.0 + 0.5 * np.sin(0.011 * t) * np.cos(0.003 * t),
    ], axis=1)
    return make_traj(angles, dt)


def test_self_alignment_is_zero():
    traj = wavy_traj()
    est = estimate_delay(traj, traj, max_lag=50)
    assert est.tau_star == 0
    assert est.method == "correlation"


def test_recovers_injected_shift():
    ref = wavy_traj()
    other = inject_temporal_noise(ref, 5)
    est = estimate_delay(ref, other, max_lag=50)
    assert est.tau_star == -5
    # re-applying the estimate aligns the interior exactly
    realigned = inject_temporal_noise(other, est.tau_star)
    assert np.allclose(realigned.angles[5:-5], ref.angles[5:-5])


def test_estimate_matches_brute_force_peak():
    ref = wavy_traj()
    for n in (-37, -8, 0, 13, 41):
        other = inject_temporal_noise(ref, n) if n else ref
        est = estimate_delay(ref, other, max_lag=50)
        tau_bf = brute_force_corr_peak(ref.angles, other.angles, 50)
        assert est.tau_star == tau_bf == -n


def test_recovers_every_shift_in_window():
    ref = wavy_traj()
    for n in range(-50, 51):
        other = inject_temporal_noise(ref, n) if n else ref
        assert estimate_delay(ref, other, max_lag=50).tau_star == -n


def test_antisymmetric_on_clean_shifts():
    ref = wavy_traj()
    other = inject_temporal_noise(ref, 12)
    assert estimate_delay(ref, other, max_lag=50).tau_star == \
        -estimate_delay(other, ref, max_lag=50).tau_star


def test_two_noisy_rollouts_of_same_policy_stay_aligned():
    pol = PolicySpec("linear_openloop", [1e-5, 1e-4, -1e-5, -0.28, -0.15, -0.08])
    x0 = JointState([np.pi / 2, np.pi / 2, np.pi], np.zeros(3))
    mode = DynamicsMode("linear", damping=0.3)
    base = rollout(pol, x0, 400, 0.01, mode)
    run1 = inject_spatial_noise(base, np.full(3, 0.002), seed=1)
    run2 = inject_spatial_noise(base, np.full(3, 0.002), seed=2)
    est = estimate_delay(run1, run2, max_lag=50)
    assert abs(est.tau_star) <= 1
    cls = classify_noise(run1, run2, epsilon=0.01, max_lag=50)
    assert cls.kind == "temporal"


def test_degenerate_constant_trajectory_rejected():
    traj = make_traj(np.tile([1.0, 2.0, 3.0], (101, 1)))
    with pytest.raises(DegenerateSignalError):
        estimate_delay(traj, traj, max_lag=10)


def test_max_lag_window_validated():
    traj = wavy_traj(T=100)
    with pytest.raises(ConfigError):
        estimate_delay(traj, traj, max_lag=50)
    with pytest.raises(ConfigError):
        estimate_delay(traj, traj, max_lag=0)
    with pytest.raises(ConfigError):
        classify_noise(traj, traj, epsilon=0.01, max_lag=50)


def test_estimated_shift_minimizes_l1_residual():
    ref = wavy_traj()
    other = inject_temporal_noise(ref, -21)
    est = estimate_delay(ref, other, max_lag=50)
    tau_bf, res_bf = brute_force_realign(ref.angles, other.angles, 50)
    assert est.tau_star == tau_bf
    assert shift_residual(ref, other, est.tau_star) == pytest.approx(res_bf)


# -- zero-crossing landmarks ---------------------------------------------------


def sine_velocity_traj(offset=0, T=200):
    t = np.arange(T + 1)
    v = np.cos(0.05 * (t - offset))  # first sign change at a known index
    velocities = np.stack([v, np.ones_like(v), np.ones_like(v)], axis=1)
    angles = np.cumsum(velocities * 0.01, axis=0) + 1.0
    return make_traj(angles, velocities=velocities)


def test_zero_crossing_self_alignment():
    traj = sine_velocity_traj()
    est = align_zero_crossing(traj, traj)
    assert est.tau_star == 0
    assert est.method == "zero_crossing"


def test_zero_crossing_known_offset():
    ref = sine_velocity_traj(offset=10)
    other = sine_velocity_traj(offset=0)
    # ref crosses 10 steps after other: other shifts by -10 to meet it
    est = align_zero_crossing(ref, other)
    assert est.tau_star == -10


def test_zero_crossing_missing_landmark():
    t = np.arange(101)
    angles = np.stack([0.01 * t + 1, 0.01 * t + 1, 0.01 * t + 1], axis=1)
    traj = make_traj(angles, velocities=np.ones((101, 3)))
    with pytest.raises(LandmarkMissingError):
        align_zero_crossing(traj, traj)


def test_zero_crossing_consistent_with_injection():
    ref = sine_velocity_traj()
    other = inject_temporal_noise(ref, -15)
    est = align_zero_crossing(ref, other)
    # both methods report the shift that undoes the injected one
    assert est.tau_star == 15
    corr = estimate_delay(ref, other, max_lag=50)
    assert corr.tau_star == est.tau_star


# -- noise classification ------------------------------------------------------


def test_pure_shift_classified_temporal_for_any_epsilon():
    ref = wavy_traj()
    for n in (-50, -7, 3, 50):
        other = inject_temporal_noise(ref, n)
        for eps in (1e-12, 1e-6, 0.1):
            cls = classify_noise(ref, other, epsilon=eps, max_lag=50)
            assert cls.kind == "temporal"
            assert cls.residual_l1 <= eps


def test_identical_trajectories_have_zero_residual():
    ref = wavy_traj()
    cls = classify_noise(ref, ref, epsilon=1e-9, max_lag=50)
    assert cls.kind == "temporal"
    assert cls.residual_l1 == 0.0


def test_heavy_spatial_noise_classified_spatial():
    ref = wavy_traj()
    noisy = inject_spatial_noise(ref, np.full(3, 0.05), seed=9)
    # verify by sweep that no lag explains the corruption under a tight bound
    residuals = [shift_residual(ref, noisy, tau) for tau in range(-50, 51)]
    assert min(residuals) > 1e-3
    cls = classify_noise(ref, noisy, epsilon=1e-3, max_lag=50)
    assert cls.kind == "spatial"
    assert cls.residual_l1 == pytest.approx(min(residuals))


def test_classify_rejects_nonpositive_epsilon():
    # nan called every pair spatial and inf every pair temporal
    ref = wavy_traj()
    for epsilon in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
            classify_noise(ref, ref, epsilon=epsilon)
