"""Experiment configuration: flat INI files with one section per pipeline block.

Every experiment is a single diffable file; all randomness is seeded from the
[experiment] section, never from ambient entropy. See presets/ for one config
per benchmark task.
"""

import configparser
import hashlib

import numpy as np

from . import align
from . import io as tio
from .controllers import PolicySpec
from .errors import ConfigError, InvalidStateError
from .gp import N_RESTARTS
from .perturb import PerturbationPlan, sample as sample_plan
from .sim import DYNAMICS_TAGS, START_POSE, DynamicsMode, JointState, NoiseConfig

def _floats(raw):
    return [float(v.strip()) for v in raw.split(",") if v.strip() != ""]


def parse_dims(raw, key="planner.dims"):
    """'all', or the list of distinct angle indices (each 0..2) that the
    comma-separated raw names; anything else is a ConfigError naming key."""
    dims = [v.strip() for v in raw.split(",")]
    if raw != "all" and sorted(set(dims) & set("012")) != sorted(dims):
        raise ConfigError(f"{key} {raw!r}: need 'all' or distinct comma-separated "
                          "angle indices in 0..2")
    return raw if raw == "all" else [int(v) for v in dims]


def _ranges(raw):
    """Per-parameter uniform intervals: 'lo:hi' entries, '~' to freeze."""
    out = []
    for part in raw.split(","):
        part = part.strip()
        if part == "~":
            out.append(None)
        else:
            lo, hi = part.split(":")
            out.append((float(lo), float(hi)))
    return tuple(out)


# every key each section may hold; anything else is a typo or a removed setting
_KEYS = {
    "experiment": {"label", "seed"},
    "sim": {"mode", "damping", "gravity_gain", "dt", "n_steps", "x0_angles",
            "temporal_shift", "spatial_std"},
    "policy": {"family", "theta", "x_star", "joints"},
    "perturbation": {"scheme", "count", "ranges", "lambda_rate", "lambda_sweep",
                     "n_per_lambda"},
    "preprocess": {"align", "max_lag", "gamma_sweep"},
    "gp": {"stride", "optimize", "n_restarts"},
    "eval": {"holdout_fraction", "split_seed"},
    "planner": {"t_constraint", "target_kps", "dims"},
}


def _built(key, cls, *args, **kwargs):
    """cls(*args, **kwargs), with the InvalidStateError of its own checks
    raised as a ConfigError that names the config key at fault."""
    try:
        return cls(*args, **kwargs)
    except InvalidStateError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _check_keys(parser):
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"[{section}]: unknown config section")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown config key")


class ExperimentConfig:
    """Typed view of an experiment INI file. Unknown sections and keys are
    ConfigErrors, so a misspelt setting cannot fall back to its default."""

    def __init__(self, parser):
        _check_keys(parser)
        for section in _KEYS:  # an absent optional section reads as empty
            if not parser.has_section(section):
                parser.add_section(section)
        try:
            exp = parser["experiment"]
            self.label = exp.get("label", "experiment")
            self.seed = exp.getint("seed", 0)

            sim = parser["sim"]
            tag = sim.get("mode", "linear")
            if tag not in DYNAMICS_TAGS:
                raise ConfigError(f"sim.mode: unknown dynamics mode {tag!r}, "
                                  f"expected one of {', '.join(DYNAMICS_TAGS)}")
            self.mode = _built("sim.damping", DynamicsMode, tag,
                               damping=sim.getfloat("damping", 0.0),
                               gravity_gain=sim.getfloat("gravity_gain", 0.0))
            self.dt = sim.getfloat("dt", 0.01)
            self.n_steps = sim.getint("n_steps", None)
            x0 = _floats(sim.get("x0_angles", "")) or list(START_POSE)
            self.x0 = JointState(np.array(x0), np.zeros(3))
            self.noise = _built(
                "sim.spatial_std", NoiseConfig,
                temporal_shift=sim.getint("temporal_shift", 0),
                spatial_std=np.array(_floats(sim.get("spatial_std", "0,0,0"))))

            pol = parser["policy"]
            fixed = {}
            if pol.get("x_star", None):
                fixed["x_star"] = np.array(_floats(pol["x_star"]))
            if pol.get("joints", None):
                fixed["joints"] = tuple(int(v) for v in _floats(pol["joints"]))
            self.policy = PolicySpec(pol["family"], np.array(_floats(pol["theta"])),
                                     fixed)

            per = parser["perturbation"]
            self.scheme = per.get("scheme", "uniform")
            self.count = per.getint("count", None)
            self.ranges = _ranges(per.get("ranges", "")) if self.scheme == "uniform" else ()
            self.lambda_rate = per.getfloat("lambda_rate", 100.0)
            sweep = per.get("lambda_sweep", "")
            self.lambda_sweep = tuple(_floats(sweep)) if sweep else ()
            self.n_per_lambda = per.getint("n_per_lambda", 0)

            pre = parser["preprocess"]
            self.align_method = pre.get("align", "none")
            self.max_lag = pre.getint("max_lag", align.DEFAULT_MAX_LAG)
            self.gamma_sweep = tuple(_floats(pre.get("gamma_sweep", "0")))

            gp = parser["gp"]
            self.stride = gp.getint("stride", 1)
            if gp.get("optimize", "true").lower() != "true":
                raise ConfigError("gp.optimize: hyperparameters are always optimized; "
                                  "only 'true' is accepted")
            self.n_restarts = gp.getint("n_restarts", N_RESTARTS)

            ev = parser["eval"]
            self.holdout_fraction = ev.getfloat("holdout_fraction", 0.2)
            self.split_seed = ev.getint("split_seed", 1)

            pl = parser["planner"]
            self.plan_t = pl.getint("t_constraint", None)
            self.plan_target_kps = tuple(_floats(pl.get("target_kps", "")))
            self.plan_dims = pl.get("dims", "all")
        except (KeyError, ValueError, TypeError, configparser.Error) as exc:
            raise ConfigError(f"invalid experiment config: {exc}") from exc

        tio.check_label(self.label, "experiment.label")
        tags = [f"{g:g}" for g in self.gamma_sweep]
        if not tags or len(set(tags)) < len(tags) or \
                not all(np.isfinite(g) and g >= 0 for g in self.gamma_sweep):
            raise ConfigError(f"preprocess.gamma_sweep {tags}: need one or more "
                              "distinct finite voxel sizes >= 0")
        if self.n_steps is None or self.n_steps < 1:
            raise ConfigError("sim.n_steps must be a positive integer")
        if self.count is None or self.count < 1:
            raise ConfigError("perturbation.count must be a positive integer")
        if self.stride < 1:
            raise ConfigError("gp.stride must be a positive integer")
        if self.n_restarts < 1:
            raise ConfigError("gp.n_restarts must be a positive integer")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("eval.holdout_fraction must be in (0, 1)")
        if self.plan_t is not None and not 0 < self.plan_t <= self.n_steps:
            raise ConfigError(f"planner.t_constraint {self.plan_t} must be in "
                              f"1..n_steps ({self.n_steps})")
        parse_dims(self.plan_dims)
        if self.scheme not in ("uniform", "gaussian"):
            raise ConfigError(f"perturbation.scheme {self.scheme!r}: need uniform or gaussian")
        try:  # a plan checks its ranges, or its rate, when it is built
            self.perturbation_plans()
        except ConfigError as exc:
            key = ("ranges" if self.scheme == "uniform"
                   else "lambda_sweep" if self.lambda_sweep else "lambda_rate")
            raise ConfigError(f"perturbation.{key}: {exc}") from exc
        if self.align_method not in align.METHODS:
            raise ConfigError(f"preprocess.align {self.align_method!r}: need one of "
                              f"{', '.join(align.METHODS)}")
        # correlation alignment, and zero-crossing's fallback to it, need this
        if self.align_method != "none" and not 1 <= self.max_lag < self.n_steps / 2:
            raise ConfigError(f"preprocess.max_lag {self.max_lag}: need 1 <= max_lag "
                              f"< n_steps / 2 ({self.n_steps} steps)")
        if len(self.plan_target_kps) > 3:
            raise ConfigError("planner.target_kps: at most 3 targets (short, medium, long)")
        self.split_indices(len(self.perturbation_deltas()))

    # -- derived objects -------------------------------------------------------

    def perturbation_plans(self):
        """One plan, or one plan per rate when a lambda sweep is configured."""
        if self.scheme == "uniform":
            return [PerturbationPlan("uniform", self.policy.theta, count=self.count,
                                     seed=self.seed + 1, ranges=self.ranges)]
        if self.lambda_sweep:
            n = self.n_per_lambda or max(1, self.count // len(self.lambda_sweep))
            return [PerturbationPlan("gaussian", self.policy.theta, count=n,
                                     seed=self.seed + 1 + k, lambda_rate=lam)
                    for k, lam in enumerate(self.lambda_sweep)]
        return [PerturbationPlan("gaussian", self.policy.theta, count=self.count,
                                 seed=self.seed + 1, lambda_rate=self.lambda_rate)]

    def perturbation_deltas(self):
        """The first `count` deltas drawn from the plans, in recording order,
        as one (N, m) array."""
        return np.concatenate([sample_plan(plan) for plan in self.perturbation_plans()])[
            : self.count]

    def split_indices(self, n):
        """(training, held-out) recording indices, each sorted, of n recordings.
        Fewer than 2 on either side is a ConfigError: the fit needs 2
        training recordings and the evaluation 2 held-out ones."""
        perm = np.random.default_rng(self.split_seed).permutation(n)
        n_test = max(1, int(round(self.holdout_fraction * n)))
        if min(n_test, n - n_test) < 2:
            raise ConfigError(f"eval.holdout_fraction {self.holdout_fraction:g} splits "
                              f"{n} recordings into {n - n_test} training and {n_test} "
                              "held-out; need at least 2 of each")
        return sorted(perm[n_test:].tolist()), sorted(perm[:n_test].tolist())

    def fingerprint(self):
        """Stable hash of everything that determines the pipeline outputs."""
        parts = [
            self.label, self.seed, self.mode.tag, self.mode.damping,
            self.mode.gravity_gain, self.dt, self.n_steps,
            tuple(self.x0.angles), self.noise.temporal_shift,
            tuple(self.noise.spatial_std), self.policy.family,
            tuple(self.policy.theta),
            tuple(sorted((k, str(v)) for k, v in self.policy.fixed.items())),
            self.scheme, self.count, self.ranges, self.lambda_rate,
            self.lambda_sweep, self.n_per_lambda, self.align_method, self.max_lag,
            self.gamma_sweep, self.stride, self.n_restarts, self.holdout_fraction,
            self.split_seed, self.plan_t, self.plan_target_kps, self.plan_dims,
        ]
        return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def load_config(path):
    # "key = value   ; note" lines, as in the README, end at the comment
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in ("experiment", "sim", "policy", "perturbation"):
        if not parser.has_section(section):
            raise ConfigError(f"config missing [{section}] section")
    return ExperimentConfig(parser)
