"""Perturbation sampling around a nominal parameter vector.

Two randomized schemes feed the training phase, one function each:
sample_gaussian draws a scale from an exponential distribution at a given
rate and then a zero-mean normal perturbation with that scale times
||theta_nominal||; sample_uniform draws each parameter from a declared
interval (or freezes it). Either checks its own arguments and draws its
perturbations as one (count, m) array. basis_directions, which is not a
scheme, produces orthonormal axis directions plus scaled steps for direct
finite differencing.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SCHEMES = ("gaussian", "uniform")


@dataclass
class DirectionBasis:
    """Orthonormal direction matrix; column j is the j-th probe direction."""

    Lambda: np.ndarray
    steps: np.ndarray

    def __post_init__(self):
        self.Lambda = np.asarray(self.Lambda, dtype=float)
        self.steps = np.asarray(self.steps, dtype=float)
        m = self.Lambda.shape[0]
        if self.Lambda.shape != (m, m):
            raise ConfigError("direction matrix must be square")
        gram = self.Lambda.T @ self.Lambda
        if not np.allclose(gram, np.eye(m), atol=1e-10):
            raise ConfigError("direction columns must be orthonormal")


def sample_gaussian(nominal, count, rate, seed):
    """Draw count perturbations of nominal with exponentially distributed scales.

    Each sample first draws e ~ Exponential(rate) (mean 1/rate) and then
    delta_theta ~ Normal(0, (e * ||nominal||_2)^2 * I). Deterministic under
    seed. Returns a (count, m) array.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    if not 0 < rate < np.inf:  # NaN too
        raise ConfigError(f"rate {rate:g} must be positive and finite")
    rng = np.random.default_rng(seed)
    nominal = np.asarray(nominal, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(nominal))
    out = np.empty((count, nominal.size))
    for row in out:  # the scale and then the normal of each sample, in that order
        scale = rng.exponential(1.0 / rate)
        row[:] = rng.normal(0.0, 1.0, size=nominal.size) * (scale * norm)
    return out


def sample_uniform(nominal, ranges, count, seed):
    """Draw count perturbations of nominal from per-parameter uniform intervals.

    ranges holds one finite (low, high) pair with low < high per parameter,
    or None to freeze that parameter at its nominal value (delta 0). Returns
    delta_theta = theta' - nominal for each draw as a (count, m) array; the
    draws run sample by sample, parameter by parameter.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    nominal = np.asarray(nominal, dtype=float).reshape(-1)
    if len(ranges) != nominal.size:
        raise ConfigError("uniform scheme needs one range (or None) per parameter")
    for r in ranges:
        if r is not None and not -np.inf < r[0] < r[1] < np.inf:  # NaN too
            raise ConfigError(f"uniform interval [{r[0]}, {r[1]}] must be finite and nonempty")
    rng = np.random.default_rng(seed)
    live = [i for i, r in enumerate(ranges) if r is not None]
    low, high = np.array([ranges[i] for i in live], dtype=float).reshape(-1, 2).T
    thetas = np.tile(nominal, (count, 1))
    thetas[:, live] = rng.uniform(low, high, (count, len(live)))
    return thetas - nominal


def basis_directions(m, scale):
    """Canonical orthonormal axes with finite-difference steps scale*e_j."""
    if m < 1:
        raise ConfigError("dimension must be >= 1")
    if scale <= 0:
        raise ConfigError("scale must be positive")
    eye = np.eye(m)
    return DirectionBasis(Lambda=eye, steps=scale * eye)
