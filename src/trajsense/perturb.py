"""Perturbation sampling around a nominal parameter vector.

Two randomized schemes feed the training phase: 'gaussian' draws a scale
from an exponential distribution and then a zero-mean normal perturbation
with that scale times ||theta_nominal||; 'uniform' draws each parameter from
a declared interval (or freezes it). Either draws its perturbations as one
(count, m) array. basis_directions, which is not a scheme, produces
orthonormal axis directions plus scaled steps for direct finite
differencing.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SCHEMES = ("gaussian", "uniform")


@dataclass
class PerturbationPlan:
    """How to draw perturbations delta_theta around a nominal vector.

    For the uniform scheme, ranges holds one (low, high) pair per parameter
    or None to freeze that parameter at its nominal value.
    """

    scheme: str
    nominal: np.ndarray
    count: int = 1
    seed: int = 0
    lambda_rate: float = 100.0
    ranges: tuple = ()

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown perturbation scheme {self.scheme!r}")
        self.nominal = np.asarray(self.nominal, dtype=float).reshape(-1)
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if self.scheme == "gaussian" and self.lambda_rate <= 0:
            raise ConfigError("lambda_rate must be positive")
        if self.scheme == "uniform":
            if len(self.ranges) != self.nominal.size:
                raise ConfigError("uniform scheme needs one range (or None) per parameter")
            for r in self.ranges:
                if r is None:
                    continue
                low, high = r
                if not low < high:
                    raise ConfigError(f"empty uniform interval [{low}, {high}]")


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


def sample_gaussian(plan):
    """Draw plan.count perturbations with exponentially distributed scales.

    Each sample first draws e ~ Exponential(lambda_rate) (mean 1/lambda) and
    then delta_theta ~ Normal(0, (e * ||nominal||_2)^2 * I). Deterministic
    under plan.seed. Returns a (count, m) array.
    """
    if plan.scheme != "gaussian":
        raise ConfigError("plan scheme must be 'gaussian'")
    rng = np.random.default_rng(plan.seed)
    m = plan.nominal.size
    norm = float(np.linalg.norm(plan.nominal))
    out = np.empty((plan.count, m))
    for row in out:  # the scale and then the normal of each sample, in that order
        scale = rng.exponential(1.0 / plan.lambda_rate)
        row[:] = rng.normal(0.0, 1.0, size=m) * (scale * norm)
    return out


def sample_uniform(plan):
    """Draw plan.count perturbations from per-parameter uniform intervals.

    Parameters with a None range stay at their nominal value (delta 0).
    Returns delta_theta = theta' - nominal for each draw as a (count, m)
    array; the draws run sample by sample, parameter by parameter.
    """
    if plan.scheme != "uniform":
        raise ConfigError("plan scheme must be 'uniform'")
    rng = np.random.default_rng(plan.seed)
    live = [i for i, r in enumerate(plan.ranges) if r is not None]
    low, high = np.array([plan.ranges[i] for i in live], dtype=float).reshape(-1, 2).T
    thetas = np.tile(plan.nominal, (plan.count, 1))
    thetas[:, live] = rng.uniform(low, high, (plan.count, len(live)))
    return thetas - plan.nominal


def sample(plan):
    return sample_gaussian(plan) if plan.scheme == "gaussian" else sample_uniform(plan)


def basis_directions(m, scale):
    """Canonical orthonormal axes with finite-difference steps scale*e_j."""
    if m < 1:
        raise ConfigError("dimension must be >= 1")
    if scale <= 0:
        raise ConfigError("scale must be positive")
    eye = np.eye(m)
    return DirectionBasis(Lambda=eye, steps=scale * eye)
