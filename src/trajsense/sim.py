"""Simulator of the 3-joint finger platform.

Two dynamics modes are provided. The ``linear`` mode is a damped double
integrator per joint with an exact zero-order-hold discretization, so every
downstream estimator can be checked against closed-form solutions. The
``pendulum3`` mode is a gravity-coupled 3-link planar chain integrated with
semi-implicit Euler; it is nonlinear and cross-coupled.

Angles are clamped to the platform's joint limits ([0, pi], [0, pi],
[0, 2*pi]) with the velocity zeroed at the stop, which mimics a hard
mechanical limit.

rollout_batch is the one stepper: it advances N states as one (N, 3) array
per step, with the torque held constant over the step, and rollout is its
batch of one. Rollouts are clean; a recording's measurement noise is added
afterwards, its time lag by inject_temporal_noise and its per-angle Gaussian
noise by inject_spatial_noise.
"""

from dataclasses import dataclass, field

import numpy as np

from .controllers import torque_at
from .errors import InvalidShiftError, InvalidStateError, PolicyEvalError

JOINT_LOW = np.array([0.0, 0.0, 0.0])
JOINT_HIGH = np.array([np.pi, np.pi, 2.0 * np.pi])

# Torque magnitude cap per component (simulator convention, abstract N*m).
TORQUE_CAP = 5.0

START_POSE = np.array([np.pi / 2.0, np.pi / 2.0, np.pi])


@dataclass
class JointState:
    """Angles (rad) and angular velocities (rad/s) of the three joints."""

    angles: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float).reshape(3)
        self.velocities = np.asarray(self.velocities, dtype=float).reshape(3)
        if not (np.all(np.isfinite(self.angles)) and np.all(np.isfinite(self.velocities))):
            raise InvalidStateError("non-finite joint state")


DYNAMICS_TAGS = ("linear", "pendulum3")


@dataclass
class DynamicsMode:
    """Dynamics selector: 'linear' (exactly solvable) or 'pendulum3'. An
    InvalidStateError from its checks starts with the field at fault."""

    tag: str = "linear"
    damping: float = 0.0
    gravity_gain: float = 0.0

    def __post_init__(self):
        if self.tag not in DYNAMICS_TAGS:
            raise InvalidStateError(f"tag: unknown dynamics tag {self.tag!r}")
        if not 0 <= self.damping < np.inf:
            raise InvalidStateError(f"damping: need a finite value >= 0, got {self.damping}")
        if not np.isfinite(self.gravity_gain):
            raise InvalidStateError(f"gravity_gain: need a finite number, got {self.gravity_gain}")


@dataclass
class Trajectory:
    """One rollout: angles/velocities per step plus the applied torques.

    angles and velocities have shape (T+1, 3); torques has shape (T, 3).
    meta carries provenance (policy id, seed, mode, noise settings).
    """

    dt: float
    angles: np.ndarray
    velocities: np.ndarray
    torques: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        self.torques = np.asarray(self.torques, dtype=float)
        if not 0 < self.dt < np.inf:  # NaN fails too
            raise InvalidStateError(f"dt must be positive and finite, got {self.dt}")
        if self.angles.shape != self.velocities.shape:
            raise InvalidStateError("angles/velocities shape mismatch")
        if self.angles.shape[0] != self.torques.shape[0] + 1:
            raise InvalidStateError("need exactly one more state than torque")
        if self.angles.shape[0] < 2:
            raise InvalidStateError("trajectory must contain at least one step")

    @property
    def n_steps(self):
        return self.torques.shape[0]


def _gravity_torque(angles, gravity_gain):
    # Planar chain with unit links: torque at joint i collects the gravity
    # pull of every link at or beyond i, expressed through the cumulative
    # link angles: [s0 + s1 + s2, s1 + s2, s2]. angles is (3,) or an (N, 3)
    # batch.
    s = np.sin(np.add.accumulate(angles, axis=-1))  # np.cumsum without its dispatch
    g = s.copy()
    g[..., :2] += s[..., 1:]
    g[..., 0] += s[..., 2]
    return gravity_gain * g


def _step_arrays(angles, velocities, u, dt, mode):
    """Advance raw angle/velocity arrays, (3,) or (N, 3), one step under the
    torque u, already clipped to TORQUE_CAP.

    Every operation is elementwise per row, so a batch row takes exactly the
    steps of the same state advanced alone. No input validation.
    """
    c = mode.damping
    if mode.tag == "linear":
        if c == 0.0:
            new_v = velocities + u * dt
            new_x = angles + velocities * dt + 0.5 * u * dt * dt
        else:
            decay = np.exp(-c * dt)
            drift = u / c
            new_v = velocities * decay + drift * (1.0 - decay)
            new_x = angles + drift * dt + (velocities - drift) * (1.0 - decay) / c
    else:
        acc = u - c * velocities - _gravity_torque(angles, mode.gravity_gain)
        new_v = velocities + dt * acc
        new_x = angles + dt * new_v
    # the clip method is np.clip without its dispatch; a clamped joint stops
    clamped = new_x.clip(JOINT_LOW, JOINT_HIGH)
    np.copyto(new_v, 0.0, where=clamped != new_x)
    return clamped, new_v


def rollout(policy, x0, n_steps, dt, mode):
    """Roll the policy out for n_steps and return the recorded Trajectory.

    Deterministic: repeated calls give bit-identical trajectories. This is
    rollout_batch with a batch of one.
    """
    return rollout_batch(policy, policy.theta[None], x0, n_steps, dt, mode)[0]


def rollout_batch(policy, thetas, x0, n_steps, dt, mode):
    """Roll the policy out in lockstep from the same x0 once per row of the
    (N, m) parameter stack thetas.

    The state is advanced as one (N, 3) array per step; each row sees the
    same floating-point operations as a rollout alone, so trajectory i equals
    rollout(policy.with_theta(thetas[i]), ...) bit for bit. The recordings
    are clean (inject_temporal_noise and inject_spatial_noise add noise) and
    share the batch's arrays.
    Returns a list of N Trajectories.
    """
    if n_steps < 1:
        raise InvalidStateError("n_steps must be >= 1")
    if not 0 < dt < np.inf:  # NaN fails too
        raise InvalidStateError(f"dt must be positive and finite, got {dt}")
    thetas = np.asarray(thetas, dtype=float)
    if (thetas.ndim != 2 or thetas.shape[0] < 1 or thetas.shape[1] != policy.theta.size
            or not np.all(np.isfinite(thetas))):
        raise InvalidStateError(f"need a finite (N, {policy.theta.size}) parameter stack "
                                f"with N >= 1, got shape {thetas.shape}")
    x0_angles = np.asarray(x0.angles, dtype=float)
    if np.any(x0_angles < JOINT_LOW) or np.any(x0_angles > JOINT_HIGH):
        raise InvalidStateError("initial angles outside joint limits")

    n = thetas.shape[0]
    x = np.tile(x0_angles, (n, 1))
    v = np.tile(np.asarray(x0.velocities, dtype=float), (n, 1))
    # recording-major storage: angles[i] is recording i's contiguous (T+1, 3)
    angles = np.empty((n, n_steps + 1, 3))
    velocities = np.empty((n, n_steps + 1, 3))
    torques = np.empty((n, n_steps, 3))
    angles[:, 0] = x
    velocities[:, 0] = v
    for k in range(n_steps):
        try:
            u = torque_at(policy, k, k * dt, x, v, theta=thetas)
        except Exception as exc:  # noqa: BLE001 - wrap with timestep context
            raise PolicyEvalError(f"controller failed at step {k}: {exc}", timestep=k) from exc
        u = u.clip(-TORQUE_CAP, TORQUE_CAP)
        torques[:, k] = u
        x, v = _step_arrays(x, v, u, dt, mode)
        angles[:, k + 1] = x
        velocities[:, k + 1] = v

    return [Trajectory(dt, angles[i], velocities[i], torques[i], meta={
                "policy_id": policy.with_theta(theta).policy_id(),
                "seed": 0,
                "mode": mode.tag,
                "temporal_shift": 0,
                "spatial_std": (0.0, 0.0, 0.0),
            }) for i, theta in enumerate(thetas)]


def inject_temporal_noise(traj, n):
    """Shift the recorded sequences by n steps: out[t] = in[t + n].

    Boundary entries are replicated so the trajectory keeps its length, and
    n adds to the shift meta["temporal_shift"] records; 0 copies traj.
    """
    n = int(n)
    T = traj.n_steps
    if abs(n) >= T:
        raise InvalidShiftError(f"|shift| {abs(n)} must be < {T}")
    idx_states = np.clip(np.arange(T + 1) + n, 0, T)
    idx_torques = np.clip(np.arange(T) + n, 0, T - 1)
    out = Trajectory(traj.dt, traj.angles[idx_states], traj.velocities[idx_states],
                     traj.torques[idx_torques], dict(traj.meta))
    out.meta["temporal_shift"] = int(traj.meta.get("temporal_shift", 0)) + n
    return out


def inject_spatial_noise(traj, spatial_std, seed):
    """Add zero-mean Gaussian noise to every recorded angle.

    The per-dimension scales are spatial_std; the realized sup-norm deviation
    from the input trajectory is stored in meta["spatial_sup_deviation"].
    """
    spatial_std = np.asarray(spatial_std, dtype=float).reshape(3)
    if np.any(spatial_std < 0):
        raise InvalidStateError("spatial_std must be nonnegative")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, size=traj.angles.shape)
    noise *= spatial_std
    sup = float(np.max(np.abs(noise)))
    # velocities and torques are shared: no trajectory is written in place
    out = Trajectory(traj.dt, traj.angles + noise, traj.velocities, traj.torques,
                     dict(traj.meta))
    out.meta["spatial_std"] = tuple(float(s) for s in spatial_std)
    out.meta["seed"] = seed
    out.meta["spatial_sup_deviation"] = sup
    return out
