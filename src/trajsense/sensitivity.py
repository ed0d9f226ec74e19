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
queried a block of perturbations at a time through model_at(t).predict. A
SensitivityModel always carries the nominal theta its maps perturb and the
source angles at its timesteps, and reads its trained range from that X.
evaluate scores a model on held-out samples as one array, a row per scored
timestep (PER_TIMESTEP_COLUMNS), and that row's cosine histogram.
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


def reconstruct_linear(stack, delta_theta, t):
    """Directional derivative along an arbitrary delta_theta at timestep t.

    Computes matrices[t] @ (Lambda^T delta_theta), with the Lambda of the
    basis the stack was probed along: exact when the dynamics are linear in
    the parameters, first-order accurate otherwise.
    """
    if t not in stack.matrices:
        raise UntrainedTimestepError(f"no basis probe at timestep {t}")
    delta_theta = np.asarray(delta_theta, dtype=float).reshape(-1)
    return stack.matrices[t] @ (stack.basis.Lambda.T @ delta_theta)


# -- per-timestep GP maps -----------------------------------------------------


def fit_gp(samples, t, n_restarts=N_RESTARTS, seed=0, warm=None):
    """Fit the map delta_theta -> delta_x[:, t] of a SampleSet at timestep t:
    one ExactGP with a column per angle dimension.

    A (0, 0) training pair is pinned: applying no perturbation changes
    nothing, which anchors the small-perturbation behavior exactly. warm, the
    map of another timestep fitted on the same samples, lends each
    dimension's optimum as a warm start; a degenerate (flat) dimension lends
    none. Fewer than 2 samples or a t outside 0..n_steps is an
    InsufficientDataError; a dimension that cannot be fitted raises FitError
    naming the timestep and the dimension.
    """
    if len(samples.delta_x) < 2:
        raise InsufficientDataError(f"need >= 2 samples at timestep {t}")
    if not 0 <= t <= samples.n_steps:
        raise InsufficientDataError(f"timestep {t} is outside 0..{samples.n_steps}")
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
    dimension, all on one X; the source angles at those timesteps, t -> (d,),
    which the planner needs; and the nominal theta the maps perturb. The
    trained range delta_low..delta_high is X's without its pinned origin
    (row 0). A map on another X, a timestep without source angles, and source
    angles or a nominal theta of a shape other than the maps' (d,) and (m,)
    are DatasetErrors naming the timestep or the array."""

    def __init__(self, models, source_angles, nominal_theta):
        self.models = dict(models)
        self.timesteps = sorted(self.models)
        if not self.timesteps:
            raise DatasetError("a sensitivity model needs a map at one timestep at least")
        X, Y, _ = self.models[self.timesteps[0]].state()
        for t in self.timesteps:
            if not np.array_equal(self.models[t].state()[0], X):
                raise DatasetError(f"timestep {t}: training inputs are not the shared X")
        self.delta_low, self.delta_high = X[1:].min(axis=0), X[1:].max(axis=0)
        self.source_angles = {t: np.asarray(a, dtype=float) for t, a in source_angles.items()}
        for t in self.timesteps:
            if t not in self.source_angles:
                raise DatasetError(f"timestep {t}: no source angles")
            if self.source_angles[t].shape != Y.shape[1:]:
                raise DatasetError(f"timestep {t}: source angles of shape "
                                   f"{self.source_angles[t].shape}, need {Y.shape[1:]}")
        self.nominal_theta = np.asarray(nominal_theta, dtype=float)
        if self.nominal_theta.shape != X.shape[1:]:
            raise DatasetError(f"nominal_theta has shape {self.nominal_theta.shape}, "
                               f"need {X.shape[1:]}")

    def model_at(self, t):
        if t not in self.models:
            raise UntrainedTimestepError(f"no trained model at timestep {t}")
        return self.models[t]

    def source_angles_at(self, t):
        self.model_at(t)
        return self.source_angles[t]

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        """One .npz (README: File formats) with the X all maps share stored
        once."""
        Xs, ys, phis = zip(*(self.models[t].state() for t in self.timesteps))
        np.savez_compressed(path, timesteps=np.array(self.timesteps, dtype=int), X=Xs[0],
                            y=np.array(ys), phi=np.array(phis),
                            src=np.array([self.source_angles[t] for t in self.timesteps]),
                            nominal_theta=self.nominal_theta)

    @classmethod
    def load(cls, path):
        """The model `save` wrote. A file that is not an .npz, one without an
        array of `save` and one whose array is not finite numbers of the shape
        the others imply are ConfigErrors naming the file (and the array), as
        are timesteps that are not one or more distinct non-negative
        integers; other arrays in the file are not read."""
        if not os.path.isfile(path):
            raise ConfigError(f"model file not found: {path}")
        try:
            with np.load(path) as npz:
                data = dict(npz)
        except (OSError, ValueError, EOFError, TypeError) as exc:
            # TypeError: np.load of an .npy is one array, not a context manager
            raise ConfigError(f"{path}: not a model .npz file: {exc}") from exc
        for key in ("timesteps", "X", "y", "phi", "src", "nominal_theta"):
            if key not in data:
                raise ConfigError(f"{path}: no {key!r} array in the model file; refit it "
                                  "(remove the run's models/ and rerun)")

        def shape(key, ndim):
            # a member that is no .npy loads as its raw bytes
            a = data[key]
            if not (isinstance(a, np.ndarray) and a.dtype.kind in "iuf" and a.ndim == ndim
                    and np.isfinite(a).all()):
                raise ConfigError(f"{path}: {key!r} is not an array of finite numbers "
                                  f"with {ndim} dimensions")
            return a.shape

        (n, m), (n_t,), d = shape("X", 2), shape("timesteps", 1), shape("y", 3)[-1]
        for key, want in (("y", (n_t, n, d)), ("phi", (n_t, d, m + 2)), ("src", (n_t, d)),
                          ("nominal_theta", (m,))):
            if shape(key, len(want)) != want:
                raise ConfigError(f"{path}: {key!r} has shape {data[key].shape}, need {want} "
                                  f"for {n_t} timesteps of X {(n, m)}")
        T = data["timesteps"].tolist()
        if not T or data["timesteps"].dtype.kind not in "iu" or min(T) < 0 or len(set(T)) < n_t:
            raise ConfigError(f"{path}: 'timesteps' must be distinct non-negative integers, "
                              f"one at least, got {T}")
        return cls(dict(zip(T, ExactGP.from_states(data["X"], data["y"], data["phi"]))),
                   dict(zip(T, data["src"])), data["nominal_theta"])

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


def fit_sensitivity_model(samples, timesteps, source, nominal_theta, n_restarts=N_RESTARTS,
                          seed=0):
    """Fit the GP maps at the given timesteps into a model around nominal_theta
    that stores the source trajectory's angles at those timesteps.

    The timesteps are fitted in ascending order as one chain: each fit starts
    one restart from the previous timestep's optimum (fit_gp's warm), since
    neighbouring maps are close.
    """
    models, prev = {}, None
    for t in sorted({int(t) for t in timesteps}):
        prev = models[t] = fit_gp(samples, t, n_restarts=n_restarts, seed=seed, warm=prev)
    return SensitivityModel(models, {t: source.angles[t] for t in models}, nominal_theta)


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


def _cosines(P, Y):
    """The cosine between each row of P and of Y (N, d), clipped to [-1, 1], for the
    rows where neither norm is below _NORM_FLOOR. Dots and norms are stacked
    matmuls, which sum as `p @ y` and np.linalg.norm do on one row."""
    def dot(A, B):
        return (A[:, None, :] @ B[:, :, None])[:, 0, 0]

    norm_p, norm_y = np.sqrt(dot(P, P)), np.sqrt(dot(Y, Y))
    defined = ~(np.minimum(norm_p, norm_y) < _NORM_FLOOR)
    return np.clip(dot(P[defined], Y[defined]) / (norm_p[defined] * norm_y[defined]), -1.0, 1.0)


def cosine_alignment(pred, truth):
    """Cosine of the angle between predicted and true change vectors."""
    cos = _cosines(*(np.asarray(v, dtype=float).reshape(1, -1) for v in (pred, truth)))
    if not cos.size:
        raise UndefinedAlignmentError("cosine undefined for zero vector")
    return float(cos[0])


# the columns of evaluate's per-timestep array, in order
PER_TIMESTEP_COLUMNS = ("t", "nmse", "score", "cos_mean", "n_test")


def evaluate(model, test_samples):
    """Score the model on held-out samples: (per_t, hists), a (k, 5) array of
    PER_TIMESTEP_COLUMNS per scored timestep and its (k, 20) cosine counts
    over COS_BIN_EDGES. Per dimension of variance > _VAR_FLOOR, ratio is
    SS_res/SS_tot: nmse is its mean, score the mean of 1 - ratio. A timestep
    with < 2 rows, no such dimension or no defined cosine is skipped."""
    if not len(test_samples):
        raise ConfigError("empty held-out set")
    X, n_test = test_samples.delta_theta, len(test_samples.delta_x)
    rows, hists = [], []
    for t in model.timesteps:
        if t > test_samples.n_steps or n_test < 2:
            continue
        Y = test_samples.delta_x[:, t]
        P, _ = model.model_at(t).predict(X, std=False)
        var = Y.var(axis=0)
        valid = var > _VAR_FLOOR
        cos = _cosines(P, Y)
        if not (np.any(valid) and cos.size):
            continue
        ratio = ((P - Y) ** 2).mean(axis=0)[valid] / var[valid]
        rows.append((t, np.mean(ratio), np.mean(1.0 - ratio), np.mean(cos), n_test))
        hists.append(np.histogram(cos, bins=COS_BIN_EDGES)[0])
    if not rows:
        raise ConfigError("no evaluable timesteps in the held-out set")
    return np.array(rows, dtype=float), np.array(hists)
