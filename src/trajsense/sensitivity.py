"""Per-timestep trajectory sensitivity estimation.

Training pairs (delta_theta, delta_x_t) are finite differences between a
source rollout and rollouts under perturbed parameters, optionally
delay-aligned and voxelized first. The state coordinate whose sensitivity is
tracked is the angle vector (the measured quantity); velocities ride along in
the trajectories but are not regression targets.

Three views of the same map are provided: the raw differences as dense
SampleSets (build_sample_sets), a linear reconstruction from orthonormal
basis probes, and GP maps per timestep that generalize to new perturbations:
one gp.ExactGP per timestep, with a column per angle dimension, all on one X,
queried a block of perturbations at a time through model_at(t).predict.
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
    UndefinedAlignmentError,
    UntrainedTimestepError,
)
from .gp import N_RESTARTS, ExactGP
from .sim import inject_temporal_noise

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


def align_recording(source, delta_theta, traj, align_method="none",
                    max_lag=align_mod.DEFAULT_MAX_LAG):
    """One perturbed recording, checked against the source and shifted by
    align.delay(source, traj, align_method, max_lag). A zero delta_theta or
    a length or dt unlike the source's is a DatasetError."""
    if np.linalg.norm(np.asarray(delta_theta, dtype=float).reshape(-1)) == 0.0:
        raise DatasetError("delta_theta must be nonzero")
    if traj.n_steps != source.n_steps or traj.dt != source.dt:
        raise DatasetError("perturbed trajectory length/dt mismatch")
    shift = align_mod.delay(source, traj, align_method, max_lag).tau_star
    return inject_temporal_noise(traj, shift) if shift != 0 else traj


def voxelized(traj, gamma):
    """traj snapped to the voxel grid of half-width gamma, anchored at zero;
    with gamma None or 0 it is returned as it is."""
    return voxel_mod.voxelize_trajectory(traj, gamma) if gamma else traj


def build_sample_sets(source, delta_theta, recordings, align_method="none",
                      max_lag=align_mod.DEFAULT_MAX_LAG, gammas=(None,)):
    """One SampleSet per voxel half-width in gammas (None or 0: no grid), each
    with one row per row of delta_theta (N, m): recording i, the i-th item of
    the iterable recordings, differenced against the source at every
    timestep. Recordings are taken one at a time, each aligned once
    (align_recording) and then voxelized on every grid. Another number of
    recordings than N is a DatasetError; a recording's DatasetError names
    it by its meta["path"], or as "recording <i>" without one."""
    delta_theta = np.asarray(delta_theta, dtype=float)
    n = len(delta_theta)
    grids = [(gamma, voxelized(source, gamma)) for gamma in gammas]
    sets = [SampleSet(delta_theta, np.empty((n,) + src.angles.shape)) for _, src in grids]
    i = -1
    for i, traj in enumerate(recordings):
        if i == n:
            break
        try:
            traj = align_recording(source, delta_theta[i], traj, align_method, max_lag)
        except DatasetError as exc:
            raise DatasetError(f"{traj.meta.get('path', f'recording {i}')}: {exc}") from exc
        for (gamma, src), samples in zip(grids, sets):
            np.subtract(voxelized(traj, gamma).angles, src.angles, out=samples.delta_x[i])
    if i + 1 != n:
        raise DatasetError(f"not one recording per row of delta_theta ({n} rows)")
    return sets


def build_samples(source, perturbed, align_method="none",
                  max_lag=align_mod.DEFAULT_MAX_LAG, gamma=None):
    """build_sample_sets on one voxel grid (gamma None or 0: none) for a
    list of (delta_theta, Trajectory) pairs, each recording rolled out
    under theta_nominal + delta_theta: one SampleSet with a row per pair."""
    delta_theta = np.array([np.asarray(d, dtype=float).reshape(-1) for d, _ in perturbed])
    return build_sample_sets(source, delta_theta, (traj for _, traj in perturbed),
                             align_method, max_lag, (gamma,))[0]


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


def fit_gp(samples, t, n_restarts=N_RESTARTS, seed=0, warm=None):
    """Fit the map delta_theta -> delta_x[:, t] of a SampleSet at timestep t:
    one ExactGP with a column per angle dimension.

    A (0, 0) training pair is pinned: applying no perturbation changes
    nothing, which anchors the small-perturbation behavior exactly. warm, the
    map of another timestep fitted on the same samples, lends each
    dimension's optimum as a warm start; a degenerate (flat) dimension lends
    none. A dimension that cannot be fitted raises FitError naming the
    timestep and the dimension.
    """
    if len(samples.delta_x) < 2 or not 0 <= t <= samples.n_steps:
        raise InsufficientDataError(f"need >= 2 samples at timestep {t}")
    dtheta, dx = samples.delta_theta, samples.delta_x[:, t]
    X = np.vstack([np.zeros((1, dtheta.shape[1])), dtheta])
    Y = np.vstack([np.zeros((1, dx.shape[1])), dx])
    seeds = [np.random.default_rng((seed, t, i)).integers(2**31) for i in range(Y.shape[1])]
    try:
        return ExactGP(n_restarts).fit(X, Y, seed=seeds, warm=warm)
    except FitError as exc:
        # the dimension's own error stays the cause
        raise FitError(f"GP fit failed at timestep {t}, {exc}") from exc.__cause__


class SensitivityModel:
    """The per-timestep GP maps, t -> ExactGP with a column per angle
    dimension, the source angles at those timesteps, t -> (d,), which the
    planner needs, and training metadata."""

    def __init__(self, models, nominal_theta=None, delta_low=None, delta_high=None,
                 source_angles=None):
        self.models = dict(models)
        self.source_angles = dict(source_angles or {})
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

    def source_angles_at(self, t):
        self.model_at(t)
        if t not in self.source_angles:
            raise UntrainedTimestepError(f"no source state stored at timestep {t}")
        return self.source_angles[t]

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        """One .npz (README: File formats) with the X all maps share stored
        once; a map on other inputs is a DatasetError naming its timestep."""
        Xs, ys, phis = zip(*(self.models[t].state() for t in self.timesteps))
        for t, X in zip(self.timesteps, Xs):
            if not np.array_equal(X, Xs[0]):
                raise DatasetError(f"timestep {t}: training inputs are not the shared X")
        arrays = {"timesteps": np.array(self.timesteps, dtype=int), "X": Xs[0],
                  "y": np.array(ys), "phi": np.array(phis)}
        if self.source_angles:
            arrays["src"] = np.array([self.source_angles[t] for t in self.timesteps])
        for key in ("nominal_theta", "delta_low", "delta_high"):
            if getattr(self, key) is not None:
                arrays[key] = getattr(self, key)
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path):
        """The model `save` wrote. A file that is not an .npz, one of a former
        layout and one without an array of `save` are ConfigErrors naming
        the file (and the array)."""
        if not os.path.isfile(path):
            raise ConfigError(f"model file not found: {path}")
        try:
            with np.load(path) as npz:
                data = dict(npz)
        except (OSError, ValueError, EOFError, TypeError) as exc:
            # TypeError: np.load of an .npy is one array, not a context manager
            raise ConfigError(f"{path}: not a model .npz file: {exc}") from exc
        if "X" not in data:
            raise ConfigError(f"{path}: no shared X; a model file of a former layout, "
                              "refit it (remove models/ and rerun)")
        for key in ("timesteps", "y", "phi"):
            if key not in data:
                raise ConfigError(f"{path}: no {key!r} array in the model file")
        T, src = [int(t) for t in data["timesteps"]], data.get("src")
        return cls(dict(zip(T, ExactGP.from_states(data["X"], data["y"], data["phi"]))),
                   nominal_theta=data.get("nominal_theta"),
                   delta_low=data.get("delta_low"), delta_high=data.get("delta_high"),
                   source_angles=None if src is None else dict(zip(T, src)))

    def summary_lines(self):
        lines = []
        for t in self.timesteps:
            gp = self.models[t]
            lines += [f"[t={t}]", f"n_train = {gp.n_train}"]
            for i, (ls, sf2, sn2) in enumerate(zip(gp.lengthscales, gp.signal_var,
                                                   gp.noise_var)):
                lines.append(f"dim{i}_lengthscales = " + ",".join(f"{v:.6g}" for v in ls))
                lines.append(f"dim{i}_signal_var = {sf2:.6g}")
                lines.append(f"dim{i}_noise_var = {sn2:.6g}")
            lines.append("")
        return lines


def fit_sensitivity_model(samples, timesteps=None, stride=1, n_restarts=N_RESTARTS, seed=0,
                          source=None, nominal_theta=None):
    """Fit the GP maps over a timestep grid and bundle them into a model.

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
        prev = models[t] = fit_gp(samples, t, n_restarts=n_restarts, seed=seed, warm=prev)
    return SensitivityModel(models, nominal_theta=nominal_theta,
                            delta_low=samples.delta_theta.min(axis=0),
                            delta_high=samples.delta_theta.max(axis=0),
                            source_angles=None if source is None
                            else {t: source.angles[t] for t in models})


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
        P, _ = model.model_at(t).predict(X, std=False)
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
