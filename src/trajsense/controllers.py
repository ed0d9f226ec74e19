"""Controller families: linear open-loop ramp, sinusoidal drive, P/PD feedback.

Every controller is a pure function of (time, state, parameters). The flat
parameter vector theta is the differentiation variable downstream; its
ordering per family is

    linear_openloop : [w1, w2, w3, b1, b2, b3]
    sinusoidal      : [amp, omega] per driven joint, joints in ascending order
    p_feedback      : [kp]
    pd_feedback     : [kp, kd]

The sinusoidal phase advances in radians per *timestep* (the platform logs
are index-based), while the linear ramp uses seconds. PolicySpec checks a
family's parameter count and constants once; the torque functions, called at
every step of every rollout, take them as given.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# family -> the fixed constants it reads
FAMILIES = {"linear_openloop": (), "sinusoidal": ("joints",),
            "p_feedback": ("x_star",), "pd_feedback": ("x_star",)}


@dataclass
class PolicySpec:
    """Controller family tag, flat parameter vector, and fixed constants.

    fixed holds only the constants FAMILIES gives the family: 'x_star' (3
    finite target angles, feedback) or 'joints' (1-based driven joints,
    sinusoidal). A ConfigError from these checks starts with the field at fault.
    """

    family: str
    theta: np.ndarray
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"family: unknown controller family {self.family!r}")
        reads = FAMILIES[self.family]
        self.fixed = dict(self.fixed)  # normalized below, apart from the caller's dict
        for key in self.fixed:
            if key not in reads:
                raise ConfigError(f"{key}: {self.family} reads no {key}")
        self.theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.theta)):
            raise ConfigError("theta: components must be finite")
        m = self.theta.size
        if self.family == "linear_openloop" and m != 6:
            raise ConfigError("theta: linear_openloop needs 6 parameters (w1..w3, b1..b3)")
        if self.family == "p_feedback" and m != 1:
            raise ConfigError("theta: p_feedback needs 1 parameter (kp)")
        if self.family == "pd_feedback" and m != 2:
            raise ConfigError("theta: pd_feedback needs 2 parameters (kp, kd)")
        if self.family == "sinusoidal":
            joints = self.fixed.get("joints", (1,))
            joints = tuple(int(j) for j in joints)
            if len(joints) == 0:
                raise ConfigError("joints: sinusoidal needs a nonempty joint set")
            if any(j not in (1, 2, 3) for j in joints):
                raise ConfigError(f"joints: sinusoidal joints must be in {{1, 2, 3}}, got {joints}")
            if m != 2 * len(joints):
                raise ConfigError("theta: sinusoidal needs one (amp, omega) pair per driven joint")
            self.fixed["joints"] = joints
        if "x_star" in reads:
            x_star = np.asarray(self.fixed.get("x_star", np.zeros(3)), dtype=float).reshape(-1)
            if x_star.size != 3 or not np.all(np.isfinite(x_star)):
                raise ConfigError(f"x_star: need 3 finite angles, got {x_star.tolist()}")
            self.fixed["x_star"] = x_star

    def with_theta(self, theta):
        return PolicySpec(self.family, theta, self.fixed)

    def policy_id(self):
        params = ",".join(f"{v:.6g}" for v in self.theta)
        return f"{self.family}({params})"


def linear_openloop(t, theta):
    """Open-loop ramp torque u_i = w_i * t + b_i, t in seconds.

    theta is one (6,) vector or an (N, 6) stack; the torque has the matching
    shape (3,) or (N, 3).
    """
    theta = np.asarray(theta, dtype=float)
    return theta[..., :3] * t + theta[..., 3:]


def sinusoidal(t, theta, joints):
    """Sinusoidal drive amp*sin(omega*t) on the given joints, zero elsewhere.

    theta holds one (amp, omega) pair per driven joint, or is an (N, 2k)
    stack of such vectors; t counts timesteps.
    """
    theta = np.asarray(theta, dtype=float)
    theta = theta.reshape(theta.shape[:-1] + (len(joints), 2))
    u = np.zeros(theta.shape[:-2] + (3,))
    for k, j in enumerate(joints):
        u[..., j - 1] = theta[..., k, 0] * np.sin(theta[..., k, 1] * t)
    return u


def pd_feedback(angles, velocities, theta, x_star):
    """PD servo toward x_star: u = kp*(x_star - x) - kd*xd.

    The proportional error is taken as (x_star - x) so the published positive
    gains drive toward the target; kd damps the approach. The P controller is
    the kd = 0 special case. theta may be an (N, m) stack with (N, 3) states.
    """
    theta = np.asarray(theta, dtype=float)
    kp = theta[..., 0, None]
    kd = theta[..., 1, None] if theta.shape[-1] > 1 else 0.0
    err = np.asarray(x_star, dtype=float) - np.asarray(angles, dtype=float)
    return kp * err - kd * np.asarray(velocities, dtype=float)


def torque_at(policy, step_index, t_seconds, angles, velocities, theta=None):
    """Evaluate the policy's torque at one timestep (dispatch by family).

    theta overrides policy.theta; an (N, m) stack with (N, 3) states gives
    the (N, 3) torques of N parameter vectors of the policy's family.
    """
    theta = policy.theta if theta is None else theta
    if policy.family == "linear_openloop":
        return linear_openloop(t_seconds, theta)
    if policy.family == "sinusoidal":
        return sinusoidal(step_index, theta, policy.fixed["joints"])
    return pd_feedback(angles, velocities, theta, policy.fixed["x_star"])
