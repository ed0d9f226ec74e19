"""Spatial-noise suppression by snapping states to voxel centers.

The state space is tiled by axis-aligned cells of one half-width gamma in
every dimension, with a cell boundary at zero; every recorded angle vector is
replaced by the center of the cell that contains it. The quantization
error this introduces into pairwise state differences is bounded by
2*gamma plus the raw noise level, which check_lemma_bound verifies
empirically.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sim import Trajectory


def voxel_center(x, gamma):
    """Map x to the center of its cell: 2*gamma*(k + 1/2), k = floor(x / (2*gamma)).

    Idempotent, and ||x - center||_inf <= gamma always holds. A gamma that is
    not positive and finite is a ConfigError.
    """
    gamma = float(gamma)
    if not 0 < gamma < np.inf:  # NaN fails too
        raise ConfigError(f"gamma must be positive and finite, got {gamma}")
    width = 2.0 * gamma
    return width * (np.floor(np.asarray(x, dtype=float) / width) + 0.5)


def voxelize_trajectory(traj, gamma):
    """Snap every angle state to its voxel center; velocities and torques
    pass through, shared with traj, which is not written in place."""
    return Trajectory(traj.dt, voxel_center(traj.angles, gamma), traj.velocities,
                      traj.torques, dict(traj.meta))


@dataclass
class BoundReport:
    """Empirical check of the quantized-difference error bound."""

    mean_voxel_error: float
    mean_raw_error: float
    bound: float
    satisfied: bool
    n_pairs: int


def check_lemma_bound(pairs, gamma, raw_errors):
    """Verify mean ||quantized difference - clean difference||_inf <= 2*gamma + raw level.

    pairs holds (clean_difference, voxelized_noisy_difference) per sample and
    raw_errors the matching ||eps2 - eps1||_inf noise magnitudes.
    """
    if len(pairs) == 0:
        raise ConfigError("need at least one pair")
    if len(raw_errors) != len(pairs):
        raise ConfigError("raw_errors must match pairs")
    errs = np.array([np.max(np.abs(np.asarray(vox) - np.asarray(clean)))
                     for clean, vox in pairs])
    mean_err = float(errs.mean())
    mean_raw = float(np.mean(raw_errors))
    bound = 2.0 * float(gamma) + mean_raw
    return BoundReport(mean_voxel_error=mean_err, mean_raw_error=mean_raw,
                       bound=bound, satisfied=bool(mean_err <= bound), n_pairs=len(pairs))
