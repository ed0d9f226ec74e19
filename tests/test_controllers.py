import numpy as np
import pytest

from trajsense.controllers import PolicySpec, linear_openloop, pd_feedback, sinusoidal, torque_at
from trajsense.errors import ConfigError

W_NOMINAL = np.array([1e-5, 1e-4, -1e-5])
B_NOMINAL = np.array([-0.28, -0.15, -0.08])
THETA_RAMP = np.concatenate([W_NOMINAL, B_NOMINAL])


def test_ramp_at_zero_returns_offsets():
    assert np.array_equal(linear_openloop(0.0, THETA_RAMP), B_NOMINAL)


def test_ramp_zero_slope_is_constant():
    theta = np.concatenate([np.zeros(3), B_NOMINAL])
    for t in (0.0, 1.0, 123.0):
        assert np.array_equal(linear_openloop(t, theta), B_NOMINAL)


def test_ramp_value_at_ten_seconds():
    # t = 1000 * dt with dt = 0.01: u1 = 1e-5 * 10 - 0.28 = -0.2799
    u = linear_openloop(1000 * 0.01, THETA_RAMP)
    assert u[0] == pytest.approx(-0.2799, abs=1e-12)


def test_ramp_is_affine_in_theta():
    rng = np.random.default_rng(0)
    for _ in range(20):
        th1, th2 = rng.normal(size=6), rng.normal(size=6)
        a = rng.uniform(-1, 2)
        t = rng.uniform(0, 20)
        mixed = linear_openloop(t, a * th1 + (1 - a) * th2)
        combo = a * linear_openloop(t, th1) + (1 - a) * linear_openloop(t, th2)
        assert np.allclose(mixed, combo, atol=1e-12)


def test_sinusoid_zero_at_t_zero():
    assert np.array_equal(sinusoidal(0, [0.5, 0.01], (1,)), np.zeros(3))


def test_sinusoid_single_joint_nominal():
    u = sinusoidal(100, [0.5, 0.01], (3,))
    assert u[0] == 0.0 and u[1] == 0.0
    assert u[2] == pytest.approx(0.5 * np.sin(1.0))


def test_sinusoid_two_joint_nominal():
    theta = [-0.4, 0.01, 0.5, 0.01]
    u = sinusoidal(50, theta, (2, 3))
    assert u[0] == 0.0
    assert u[1] == pytest.approx(-0.4 * np.sin(0.5))
    assert u[2] == pytest.approx(0.5 * np.sin(0.5))


def test_sinusoid_empty_joint_set_rejected():
    # PolicySpec checks the joint set; sinusoidal takes it as given
    with pytest.raises(ConfigError):
        PolicySpec("sinusoidal", [0.5, 0.01], {"joints": ()})


def test_pd_zero_error_zero_torque():
    x_star = np.array([np.pi / 10, 3 * np.pi / 4, 7 * np.pi / 12])
    u = pd_feedback(x_star, np.zeros(3), [1.0, 0.01], x_star)
    assert np.allclose(u, 0.0)


def test_pd_drives_toward_target():
    x_star = np.array([1.0, 1.0, 1.0])
    u = pd_feedback(np.zeros(3), np.zeros(3), [1.0, 0.01], x_star)
    assert np.all(u > 0)


def test_pd_linear_in_kp():
    x = np.array([0.2, 0.4, 0.6])
    x_star = np.array([1.0, 1.0, 1.0])
    u1 = pd_feedback(x, np.zeros(3), [1.0, 0.0], x_star)
    u2 = pd_feedback(x, np.zeros(3), [2.0, 0.0], x_star)
    assert np.allclose(u2, 2 * u1)


def test_p_controller_is_pd_with_zero_kd():
    x = np.array([0.2, 0.4, 0.6])
    v = np.array([0.1, -0.2, 0.3])
    x_star = np.ones(3)
    assert np.allclose(pd_feedback(x, v, [0.7], x_star),
                       pd_feedback(x, v, [0.7, 0.0], x_star))


def test_policy_spec_validation():
    with pytest.raises(ConfigError):
        PolicySpec("linear_openloop", [1.0, 2.0])
    with pytest.raises(ConfigError):
        PolicySpec("pd_feedback", [1.0])
    with pytest.raises(ConfigError):
        PolicySpec("warp_drive", [1.0])
    with pytest.raises(ConfigError):
        PolicySpec("linear_openloop", [np.nan, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("family, theta, fixed, field", [
    ("pd_feedback", [1.0, 0.01], {"x_star": [np.nan, 1.0, 1.0]}, "x_star"),
    ("pd_feedback", [1.0, 0.01], {"x_star": [1.0, 1.0]}, "x_star"),
    ("pd_feedback", [1.0, 0.01], {"x_star": np.ones(3), "joints": (3,)}, "joints"),
    ("sinusoidal", [0.5, 0.01], {"joints": (1,), "x_star": np.ones(3)}, "x_star"),
    ("pd_feedback", [1.0, 0.01], {"bogus": 1}, "bogus"),
], ids=["nan-x_star", "two-x_star", "joints-on-pd", "x_star-on-sinusoidal", "unknown"])
def test_policy_spec_rejects_a_constant_its_family_does_not_read(family, theta, fixed, field):
    # a NaN x_star rolled out NaN angles, a 2-value one raised a bare
    # ValueError from reshape, and a constant the family does not read was
    # kept and did nothing
    with pytest.raises(ConfigError, match=f"^{field}: "):
        PolicySpec(family, theta, fixed)


def test_policy_spec_leaves_the_callers_constants_alone():
    # x_star became an ndarray and joints a tuple of ints in the caller's dict
    pd_fixed, sin_fixed = {"x_star": [0.3, 2.3, 1.8]}, {"joints": [2.0]}
    pd = PolicySpec("pd_feedback", [0.4, 0.01], pd_fixed)
    sin = PolicySpec("sinusoidal", [0.5, 0.01], sin_fixed)
    assert pd_fixed == {"x_star": [0.3, 2.3, 1.8]} and sin_fixed == {"joints": [2.0]}
    assert isinstance(pd.fixed["x_star"], np.ndarray) and sin.fixed["joints"] == (2,)
    moved = pd.with_theta([0.5, 0.01])
    assert moved.fixed is not pd.fixed and np.array_equal(moved.fixed["x_star"], pd.fixed["x_star"])


def test_p_feedback_family_dispatch():
    pol = PolicySpec("p_feedback", [0.7], {"x_star": np.ones(3)})
    x, v = np.full(3, 0.3), np.full(3, -0.1)
    u = torque_at(pol, 0, 0.0, x, v)
    assert np.allclose(u, 0.7 * (np.ones(3) - x))


def test_dispatch_matches_family_functions():
    ramp = PolicySpec("linear_openloop", THETA_RAMP)
    assert np.array_equal(torque_at(ramp, 7, 0.07, np.zeros(3), np.zeros(3)),
                          linear_openloop(0.07, THETA_RAMP))
    sine = PolicySpec("sinusoidal", [0.5, 0.01], {"joints": (3,)})
    assert np.array_equal(torque_at(sine, 9, 0.09, np.zeros(3), np.zeros(3)),
                          sinusoidal(9, [0.5, 0.01], (3,)))
    pd = PolicySpec("pd_feedback", [1.0, 0.01], {"x_star": np.ones(3)})
    x, v = np.full(3, 0.3), np.full(3, -0.1)
    assert np.array_equal(torque_at(pd, 0, 0.0, x, v),
                          pd_feedback(x, v, [1.0, 0.01], np.ones(3)))
