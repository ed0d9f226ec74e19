"""Temporal-noise correction: delay estimation between two recordings.

A constant time shift between two recordings of the same policy is estimated
either by correlation of the normalized angle sequences or from the first
velocity zero-crossing landmark. Both report it one way: the shift to pass to
sim.inject_temporal_noise so that the second recording re-aligns with the
first. `delay` is the one entry point that picks the estimator by method
name; the pipeline and `trajsense align` both call it. classify_noise
separates shift-removable (temporal) corruption from residual (spatial)
corruption by sweeping the lag window and thresholding the best-case L1
residual.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSignalError, LandmarkMissingError

DEFAULT_MAX_LAG = 50
# how `delay` may estimate a lag; "none" aligns nothing
METHODS = ("none", "correlation", "zero_crossing")

# variation below one nano-radian per unit magnitude is numerical dust, not
# signal (np.std of a bit-constant array is already ~1e-15 from mean rounding)
_REL_FLOOR = 1e-9


@dataclass
class DelayEstimate:
    """Estimated lag between two trajectories.

    tau_star is the shift to pass to sim.inject_temporal_noise so the second
    trajectory re-aligns with the reference, whichever the method.
    """

    tau_star: int
    correlation_peak: float
    method: str


@dataclass
class NoiseClass:
    """Definition-style classification of the residual between two rollouts."""

    kind: str
    epsilon: float
    residual_l1: float


def _check_pair(ref, other, max_lag=None):
    """A ConfigError naming both recordings (by meta["path"]) unless they
    share dt and angle shape and, with a max_lag, 1 <= max_lag < T/2, so
    that each lag leaves an overlap longer than half the trajectory."""
    a, b = (f"{traj.meta.get('path', name)} ({traj.n_steps} steps, dt {traj.dt})"
            for traj, name in ((ref, "reference"), (other, "other")))
    if ref.dt != other.dt or ref.angles.shape != other.angles.shape:
        raise ConfigError(f"{a} and {b} must share dt, length and dimension")
    if max_lag is not None and not 1 <= max_lag < ref.n_steps / 2:
        raise ConfigError(f"max_lag must satisfy 1 <= max_lag < T/2 = {ref.n_steps / 2:g}, "
                          f"got {max_lag} for {a} and {b}")


def _overlap(other, ref, tau):
    """other[t + tau] and ref[t] over every t where both exist, as two
    equal-length windows."""
    T = len(ref) - 1
    lo = max(0, -tau)
    hi = min(T, T - tau)
    return other[lo + tau: hi + tau + 1], ref[lo: hi + 1]


def _live_dims(traj):
    """The angle dimensions of traj with real variation; none is a
    DegenerateSignalError naming traj by its meta["path"], if it has one."""
    sd = traj.angles.std(axis=0)
    floor = _REL_FLOOR * (1.0 + np.abs(traj.angles.mean(axis=0)))
    live = sd > floor
    if not np.any(live):
        name = f"{traj.meta['path']}: " if "path" in traj.meta else ""
        raise DegenerateSignalError(f"{name}trajectory is constant; correlation undefined")
    return live


def _window_correlation(a, b):
    """Per-dimension Pearson correlation of two equal-length windows, summed.

    Each window is zero-meaned and variance-normalized over its own extent,
    which keeps large lags from being structurally favored or penalized by
    boundary effects. Dimensions without real variation inside a window are
    skipped.
    """
    mu_a = a.mean(axis=0)
    mu_b = b.mean(axis=0)
    a = a - mu_a
    b = b - mu_b
    sa = np.sqrt((a * a).sum(axis=0))
    sb = np.sqrt((b * b).sum(axis=0))
    root_n = np.sqrt(a.shape[0])
    floor_a = _REL_FLOOR * root_n * (1.0 + np.abs(mu_a))
    floor_b = _REL_FLOOR * root_n * (1.0 + np.abs(mu_b))
    total = 0.0
    for d in range(a.shape[1]):
        if sa[d] > floor_a[d] and sb[d] > floor_b[d]:
            total += float((a[:, d] @ b[:, d]) / (sa[d] * sb[d]))
    return total


def _lag_correlations(ref, other, max_lag):
    """Correlation profile of the shifted other against ref.

    Entry k corresponds to lag tau = k - max_lag; the value is the per-window
    normalized correlation of other[t + tau] against ref[t] over the overlap,
    averaged over the live angle dimensions so the peak is at most 1.
    """
    live = _live_dims(ref) & _live_dims(other)
    if not np.any(live):
        raise DegenerateSignalError("no jointly varying angle dimension")
    x_ref = ref.angles[:, live]
    x_other = other.angles[:, live]
    n_live = int(live.sum())
    corrs = np.empty(2 * max_lag + 1)
    for k, tau in enumerate(range(-max_lag, max_lag + 1)):
        corrs[k] = _window_correlation(*_overlap(x_other, x_ref, tau)) / n_live
    return corrs


def _pick_peak(corrs, max_lag):
    best = np.max(corrs)
    tol = 1e-12 * max(1.0, abs(best))
    candidates = [k - max_lag for k in np.flatnonzero(corrs >= best - tol)]
    tau = min(candidates, key=lambda t: (abs(t), t))
    return tau, corrs[tau + max_lag]


def estimate_delay(ref, other, max_lag=DEFAULT_MAX_LAG):
    """Estimate the lag of other against ref by normalized correlation.

    Returns the lag tau_star maximizing the per-window normalized correlation
    between the shifted other and ref; ties break toward the smallest |tau|.
    inject_temporal_noise(other, tau_star) then best aligns other with ref.
    """
    _check_pair(ref, other, max_lag)
    corrs = _lag_correlations(ref, other, max_lag)
    tau, peak = _pick_peak(corrs, max_lag)
    return DelayEstimate(tau_star=int(tau), correlation_peak=float(peak), method="correlation")


def _first_zero_crossing(velocities):
    v_prev = velocities[:-1]
    v_next = velocities[1:]
    crossing = (v_prev * v_next < 0) | ((v_next == 0) & (v_prev != 0))
    idx = np.flatnonzero(crossing)
    if idx.size == 0:
        return None
    return int(idx[0] + 1)


def align_zero_crossing(ref, other):
    """Estimate the lag from the first velocity zero-crossing in joint 0.

    Returns first-crossing(other) - first-crossing(ref), the shift that
    moves other's landmark onto ref's; raises LandmarkMissingError when
    either trajectory never crosses.
    """
    _check_pair(ref, other)
    c_ref = _first_zero_crossing(ref.velocities[:, 0])
    c_other = _first_zero_crossing(other.velocities[:, 0])
    if c_ref is None or c_other is None:
        raise LandmarkMissingError("no velocity zero-crossing in joint 0")
    return DelayEstimate(tau_star=c_other - c_ref, correlation_peak=float("nan"),
                         method="zero_crossing")


def shift_residual(ref, other, tau):
    """Mean absolute angle difference between ref and the tau-shifted other.

    Averaged per element over the overlap window so the value is comparable
    across lags and trajectory lengths.
    """
    shifted, window = _overlap(other.angles, ref.angles, tau)
    return float(np.mean(np.abs(shifted - window)))


def classify_noise(ref, other, epsilon, max_lag=DEFAULT_MAX_LAG):
    """Classify the discrepancy between two rollouts as temporal or spatial.

    Temporal means some lag within the window brings the per-element L1
    residual at or below epsilon; otherwise no shift explains the difference
    and the noise is spatial. An epsilon that is not finite and positive is a
    ConfigError: NaN would call every pair spatial, inf every pair temporal.
    """
    _check_pair(ref, other, max_lag)
    if not 0 < epsilon < np.inf:  # NaN fails too
        raise ConfigError(f"epsilon must be positive and finite, got {epsilon}")
    residuals = [shift_residual(ref, other, tau) for tau in range(-max_lag, max_lag + 1)]
    best = float(min(residuals))
    kind = "temporal" if best <= epsilon else "spatial"
    return NoiseClass(kind=kind, epsilon=float(epsilon), residual_l1=best)


def delay(ref, other, method, max_lag=DEFAULT_MAX_LAG):
    """The DelayEstimate that re-aligns other with ref, by method (one of
    METHODS): a zero lag for "none", estimate_delay's for "correlation", and
    for "zero_crossing" align_zero_crossing's on joint 0, or estimate_delay's
    when either recording has no zero-crossing there to anchor on. Its
    method names the estimator that gave the lag."""
    if method == "none":
        return DelayEstimate(tau_star=0, correlation_peak=float("nan"), method="none")
    if method == "zero_crossing":
        try:
            return align_zero_crossing(ref, other)
        except LandmarkMissingError:
            pass
    elif method != "correlation":
        raise ConfigError(f"unknown align_method {method!r}")
    return estimate_delay(ref, other, max_lag)
