"""Spatial-noise suppression by snapping states to voxel centers.

The state space is tiled by axis-aligned cells of half-width gamma per
dimension; every recorded angle vector is replaced by the center of the cell
that contains it. The quantization error this introduces into pairwise state
differences is bounded by 2*gamma plus the raw noise level, which
check_lemma_bound verifies empirically.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .sim import Trajectory


@dataclass
class VoxelGrid:
    """Axis-aligned grid with per-dimension half-width gamma and an anchor origin."""

    gamma: np.ndarray
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        self.origin = np.atleast_1d(np.asarray(self.origin, dtype=float))
        if self.gamma.size == 1 and self.origin.size > 1:
            self.gamma = np.full(self.origin.shape, self.gamma[0])
        if self.origin.size == 1 and self.gamma.size > 1:
            self.origin = np.full(self.gamma.shape, self.origin[0])
        if np.any(self.gamma <= 0):
            raise ConfigError("gamma must be positive componentwise")


def voxel_center(x, grid):
    """Map x to the center of its cell: origin + 2*gamma*(k + 1/2).

    Idempotent, and ||x - center||_inf <= gamma always holds.
    """
    x = np.asarray(x, dtype=float)
    width = 2.0 * grid.gamma
    k = np.floor((x - grid.origin) / width)
    return grid.origin + width * (k + 0.5)


def voxelize_trajectory(traj, grid):
    """Snap every angle state to its voxel center; velocities pass through."""
    centers = voxel_center(traj.angles, grid)
    out = Trajectory(traj.dt, centers, traj.velocities.copy(), traj.torques.copy(),
                     dict(traj.meta))
    out.meta["gamma"] = tuple(float(g) for g in grid.gamma)
    return out


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
