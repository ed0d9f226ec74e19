"""Per-timestep trajectory sensitivity estimation.

Training pairs (delta_theta, delta_x_t) are finite differences between a
source rollout and rollouts under perturbed parameters, optionally
delay-aligned and voxelized first. The state coordinate whose sensitivity is
tracked is the angle vector (the measured quantity); velocities ride along in
the trajectories but are not regression targets.

Three views of the same map are provided: the raw differences as a dense
SampleSet, a linear reconstruction from orthonormal basis probes, and GP maps
per timestep that generalize to new perturbations, all trained on one X.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import align as align_mod
from . import voxel as voxel_mod
from .errors import (
    ConfigError,
    DatasetError,
    DegenerateScoreError,
    FitError,
    InsufficientDataError,
    LandmarkMissingError,
    UndefinedAlignmentError,
    UntrainedTimestepError,
)
from .gp import N_RESTARTS, ExactGP

_NORM_FLOOR = 1e-15
_VAR_FLOOR = 1e-24
# evaluate's histogram of cos alignment: 20 bins over [-1, 1]
COS_BIN_EDGES = np.linspace(-1.0, 1.0, 21)


@dataclass
class SampleSet:
    """Training pairs as dense arrays, one row per perturbed recording:
    delta_theta (N, m) holds each parameter change and delta_x (N, T+1, d)
    the angle change it induced, so delta_x[:, t] are the targets at timestep
    t. len() counts the N * (T+1) (recording, timestep) pairs."""

    delta_theta: np.ndarray
    delta_x: np.ndarray

    def __len__(self):
        return self.delta_x.shape[0] * self.delta_x.shape[1]

    @property
    def n_steps(self):
        return self.delta_x.shape[1] - 1


@dataclass
class PreprocessConfig:
    """Alignment and voxelization applied before differencing.

    align_method: 'none', 'correlation', or 'zero_crossing'; zero-crossing
    alignment anchors on joint 0's velocity, and a recording without such a
    zero-crossing is aligned by correlation instead.
    gamma None or 0 disables voxelization.
    """

    align_method: str = "none"
    max_lag: int = align_mod.DEFAULT_MAX_LAG
    gamma: float = None


def align_recording(source, delta_theta, traj, preprocess=None):
    """One perturbed recording, checked against the source and delay-aligned
    to it by preprocess.align_method; preprocess.gamma is not applied. A zero
    delta_theta or a length or dt unlike the source's is a DatasetError."""
    if np.linalg.norm(np.asarray(delta_theta, dtype=float).reshape(-1)) == 0.0:
        raise DatasetError("delta_theta must be nonzero")
    if traj.n_steps != source.n_steps or traj.dt != source.dt:
        raise DatasetError("perturbed trajectory length/dt mismatch")
    method = "none" if preprocess is None else preprocess.align_method
    shift = 0
    if method == "correlation":
        shift = align_mod.estimate_delay(source, traj, preprocess.max_lag).tau_star
    elif method == "zero_crossing":
        try:
            # landmark lag is reported ref-minus-other; undo it on the other side
            shift = -align_mod.align_zero_crossing(source, traj, 0).tau_star
        except LandmarkMissingError:
            # no velocity zero-crossing to anchor on: fall back to correlation
            shift = align_mod.estimate_delay(source, traj, preprocess.max_lag).tau_star
    elif method != "none":
        raise ConfigError(f"unknown align_method {method!r}")
    return align_mod.apply_shift(traj, shift) if shift != 0 else traj


def voxelized_source(source, gamma):
    """(grid, source snapped to it) for voxel half-width gamma, on a grid
    anchored at zero; with gamma None or 0 the grid is None and the
    source is returned as it is."""
    if not gamma:
        return None, source
    grid = voxel_mod.VoxelGrid(gamma=np.full(3, float(gamma)))
    return grid, voxel_mod.voxelize_trajectory(source, grid)


def difference_into(out, traj, src, grid):
    """Write the angle change of an aligned recording into out (T+1, d): the
    recording, voxelized by grid (None: as it is), minus src, the source as
    voxelized_source returned it for the same grid."""
    if grid:
        traj = voxel_mod.voxelize_trajectory(traj, grid)
    np.subtract(traj.angles, src.angles, out=out)


def build_samples(source, perturbed, preprocess=None):
    """Difference perturbed rollouts against the source at every timestep.

    perturbed is a list of (delta_theta, Trajectory) pairs produced by rolling
    out theta_nominal + delta_theta. All trajectories must share the source's
    length and dt. Each goes through align_recording, then difference_into.
    Returns a SampleSet with one row per pair.
    """
    if preprocess is None:
        preprocess = PreprocessConfig()
    grid, src = voxelized_source(source, preprocess.gamma)
    delta_theta = np.array([np.asarray(d, dtype=float).reshape(-1) for d, _ in perturbed])
    delta_x = np.empty((len(perturbed),) + src.angles.shape)
    for i, (d, traj) in enumerate(perturbed):
        difference_into(delta_x[i], align_recording(source, d, traj, preprocess), src, grid)
    return SampleSet(delta_theta=delta_theta, delta_x=delta_x)


# -- linear reconstruction from basis probes ---------------------------------


@dataclass
class JacobianStack:
    """Per-timestep matrices of directional derivatives along basis columns.

    matrices[t] has shape (d, m); column j is the per-unit state change along
    basis direction j at timestep t.
    """

    matrices: dict
    basis: object


def build_jacobian_stack(rollout_fn, basis, timesteps=None):
    """Probe each basis direction by finite differences.

    rollout_fn(delta_theta) must return the (T+1, d) angle array of a rollout
    at theta_nominal + delta_theta. The step along column j is basis.steps[:, j];
    the recorded column is the difference quotient, i.e. per unit length.
    """
    base = np.asarray(rollout_fn(np.zeros(basis.Lambda.shape[0])), dtype=float)
    if timesteps is None:
        timesteps = range(base.shape[0])
    m = basis.Lambda.shape[1]
    cols = []
    for j in range(m):
        step = basis.steps[:, j]
        h = float(np.linalg.norm(step))
        probe = np.asarray(rollout_fn(step), dtype=float)
        cols.append((probe - base) / h)
    matrices = {int(t): np.stack([c[t] for c in cols], axis=1) for t in timesteps}
    return JacobianStack(matrices=matrices, basis=basis)


def reconstruct_linear(stack, basis, delta_theta, t):
    """Directional derivative along an arbitrary delta_theta at timestep t.

    Computes matrices[t] @ (Lambda^T delta_theta): exact when the dynamics
    are linear in the parameters, first-order accurate otherwise.
    """
    if t not in stack.matrices:
        raise UntrainedTimestepError(f"no basis probe at timestep {t}")
    delta_theta = np.asarray(delta_theta, dtype=float).reshape(-1)
    return stack.matrices[t] @ (basis.Lambda.T @ delta_theta)


# -- per-timestep GP maps -----------------------------------------------------


@dataclass
class TimestepGP:
    """Independent scalar GPs on shared inputs, one per state dimension, at one timestep."""

    t: int
    gps: list
    source_angles: np.ndarray = None

    def predict(self, delta_theta):
        """Means and stds (q, d); the d GPs share X, so they share a query stack."""
        Dq = self.gps[0].query_stack(delta_theta)
        means, stds = zip(*(gp.posterior(Dq) for gp in self.gps))
        return np.stack(means, axis=1), np.stack(stds, axis=1)


def fit_gp(samples, t, n_restarts=N_RESTARTS, seed=0, source_angles=None, warm=None):
    """Fit the map delta_theta -> delta_x[:, t] of a SampleSet at timestep t.

    A (0, 0) training pair is pinned: applying no perturbation changes
    nothing, which anchors the small-perturbation behavior exactly. warm, a
    TimestepGP fitted on the same samples, lends each dimension's optimum as a
    warm start; a degenerate (flat) predecessor lends none. A dimension whose
    GP cannot be fitted raises FitError naming the timestep and the dimension.
    """
    if len(samples.delta_x) < 2 or not 0 <= t <= samples.n_steps:
        raise InsufficientDataError(f"need >= 2 samples at timestep {t}")
    dtheta, dx = samples.delta_theta, samples.delta_x[:, t]
    X = np.vstack([np.zeros((1, dtheta.shape[1])), dtheta])
    Y = np.vstack([np.zeros((1, dx.shape[1])), dx])
    gps = []
    for i in range(Y.shape[1]):
        gp = ExactGP(n_restarts)
        lend = warm is not None and not warm.gps[i].degenerate
        try:
            gp.fit(X, Y[:, i], seed=np.random.default_rng((seed, t, i)).integers(2**31),
                   warm=warm.gps[i].state()[2] if lend else None)
        except (FitError, ValueError) as exc:
            raise FitError(f"GP fit failed at timestep {t}, dimension {i}: {exc}") from exc
        gps.append(gp)
    return TimestepGP(t=int(t), gps=gps, source_angles=source_angles)


class SensitivityModel:
    """The family of per-timestep GP maps plus training metadata."""

    def __init__(self, models, nominal_theta=None, delta_low=None, delta_high=None):
        self.models = dict(models)
        self.nominal_theta = None if nominal_theta is None else np.asarray(nominal_theta, float)
        self.delta_low = None if delta_low is None else np.asarray(delta_low, float)
        self.delta_high = None if delta_high is None else np.asarray(delta_high, float)

    @property
    def timesteps(self):
        return sorted(self.models)

    def model_at(self, t):
        if t not in self.models:
            raise UntrainedTimestepError(f"no trained model at timestep {t}")
        return self.models[t]

    def predict(self, t, delta_theta):
        """Posterior mean and std of the angle change for one perturbation."""
        mean, std = self.model_at(t).predict(delta_theta)
        return mean[0], std[0]

    def source_angles_at(self, t):
        sa = self.model_at(t).source_angles
        if sa is None:
            raise UntrainedTimestepError(f"no source state stored at timestep {t}")
        return sa

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        """One .npz (README: File formats) with the X all maps share stored
        once; a map on other inputs is a DatasetError naming its timestep."""
        tms = [self.models[t] for t in self.timesteps]
        Xs, ys, phis = zip(*(zip(*(gp.state() for gp in tm.gps)) for tm in tms))
        for t, X in zip(self.timesteps, Xs):
            if not all(np.array_equal(x, Xs[0][0]) for x in X):
                raise DatasetError(f"timestep {t}: training inputs are not the shared X")
        arrays = {"timesteps": np.array(self.timesteps, dtype=int), "X": Xs[0][0],
                  "y": np.array([np.column_stack(y) for y in ys]), "phi": np.array(phis)}
        if tms[0].source_angles is not None:
            arrays["src"] = np.array([tm.source_angles for tm in tms])
        for key in ("nominal_theta", "delta_low", "delta_high"):
            if getattr(self, key) is not None:
                arrays[key] = getattr(self, key)
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path):
        """The model `save` wrote; a former layout is a ConfigError naming the file."""
        if not os.path.isfile(path):
            raise ConfigError(f"model file not found: {path}")
        with np.load(path) as data:
            if "X" not in data:
                raise ConfigError(f"{path}: no shared X; a model file of a former layout, "
                                  "refit it (remove models/ and rerun)")
            T, Y, phi, src = data["timesteps"], data["y"], data["phi"], data.get("src")
            gps = ExactGP.from_states(data["X"], np.moveaxis(Y, 0, 1), phi)  # (n, T, d)
            d = Y.shape[2]
            models = {int(t): TimestepGP(int(t), gps[k * d:(k + 1) * d],
                                         None if src is None else src[k])
                      for k, t in enumerate(T)}
            return cls(models, nominal_theta=data.get("nominal_theta"),
                       delta_low=data.get("delta_low"), delta_high=data.get("delta_high"))

    def summary_lines(self):
        lines = []
        for t in self.timesteps:
            tm = self.models[t]
            lines.append(f"[t={t}]")
            lines.append(f"n_train = {tm.gps[0].n_train}")
            for i, gp in enumerate(tm.gps):
                ls = ",".join(f"{v:.6g}" for v in gp.lengthscales)
                lines.append(f"dim{i}_lengthscales = {ls}")
                lines.append(f"dim{i}_signal_var = {gp.signal_var:.6g}")
                lines.append(f"dim{i}_noise_var = {gp.noise_var:.6g}")
            lines.append("")
        return lines


def fit_sensitivity_model(samples, timesteps=None, stride=1, n_restarts=N_RESTARTS, seed=0,
                          source=None, nominal_theta=None):
    """Fit TimestepGPs over a timestep grid and bundle them into a model.

    timesteps defaults to every stride-th step of the samples. They are fitted
    in ascending order as one chain: each fit starts one restart from the
    previous timestep's optimum (fit_gp's warm), since neighbouring maps are
    close. The source trajectory, when given, stores the per-timestep nominal
    angles the planner needs.
    """
    if timesteps is None:
        timesteps = range(0, samples.n_steps + 1, stride)
    models, prev = {}, None
    for t in sorted({int(t) for t in timesteps}):
        if not 0 <= t <= samples.n_steps:
            raise ConfigError(f"no samples at requested timestep {t}")
        src_angles = source.angles[t] if source is not None else None
        prev = models[t] = fit_gp(samples, t, n_restarts=n_restarts, seed=seed,
                                  source_angles=src_angles, warm=prev)
    return SensitivityModel(models, nominal_theta=nominal_theta,
                            delta_low=samples.delta_theta.min(axis=0),
                            delta_high=samples.delta_theta.max(axis=0))


# -- metrics ------------------------------------------------------------------


def gp_score(y_true, y_pred):
    """Coefficient of determination: 1 - residual SS / total SS (best is 1)."""
    y_true = np.asarray(y_true, dtype=float).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=float).reshape(-1)
    if y_true.size < 2:
        raise DegenerateScoreError("need at least 2 points")
    v = float(np.sum((y_true - y_true.mean()) ** 2))
    if v <= 0.0:
        raise DegenerateScoreError("zero-variance ground truth")
    u = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - u / v

def cosine_alignment(pred, truth):
    """Cosine of the angle between predicted and true change vectors."""
    pred = np.asarray(pred, dtype=float).reshape(-1)
    truth = np.asarray(truth, dtype=float).reshape(-1)
    np_, nt = np.linalg.norm(pred), np.linalg.norm(truth)
    if np_ < _NORM_FLOOR or nt < _NORM_FLOOR:
        raise UndefinedAlignmentError("cosine undefined for zero vector")
    return float(np.clip(pred @ truth / (np_ * nt), -1.0, 1.0))


@dataclass
class MetricsRow:
    """Time-averaged quality of a fitted model on held-out perturbations."""

    label: str
    mse_avg: float
    score_avg: float
    cos_avg: float
    n_timesteps: int = 0


@dataclass
class TimestepMetrics:
    t: int
    nmse: float
    score: float
    cos_mean: float
    n_test: int


def evaluate(model, test_samples, label=""):
    """Score the model on held-out samples: normalized MSE, GP score, cos.

    Returns (MetricsRow, per-timestep TimestepMetrics list, histogram dict
    t -> counts of cos alignment in the bins of COS_BIN_EDGES). Timesteps whose
    ground truth is degenerate (all-zero change, fewer than 2 test samples)
    are skipped.
    """
    if not len(test_samples):
        raise ConfigError("empty held-out set")
    n_test = len(test_samples.delta_x)
    rows, hists = [], {}
    for t in model.timesteps:
        if t > test_samples.n_steps or n_test < 2:
            continue
        X = test_samples.delta_theta
        Y = test_samples.delta_x[:, t]
        P, _ = model.model_at(t).predict(X)
        var = Y.var(axis=0)
        valid = var > _VAR_FLOOR
        if not np.any(valid):
            continue
        nmse = float(np.mean(((P - Y) ** 2).mean(axis=0)[valid] / var[valid]))
        score = float(np.mean([gp_score(Y[:, i], P[:, i])
                               for i in np.flatnonzero(valid)]))
        cosines = []
        for p_row, y_row in zip(P, Y):
            try:
                cosines.append(cosine_alignment(p_row, y_row))
            except UndefinedAlignmentError:
                continue
        if not cosines:
            continue
        hists[t] = np.histogram(cosines, bins=COS_BIN_EDGES)[0]
        rows.append(TimestepMetrics(t=int(t), nmse=nmse, score=score,
                                    cos_mean=float(np.mean(cosines)), n_test=n_test))
    if not rows:
        raise ConfigError("no evaluable timesteps in the held-out set")
    row = MetricsRow(label=label,
                     mse_avg=float(np.mean([r.nmse for r in rows])),
                     score_avg=float(np.mean([r.score for r in rows])),
                     cos_avg=float(np.mean([r.cos_mean for r in rows])),
                     n_timesteps=len(rows))
    return row, rows, hists
