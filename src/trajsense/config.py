"""Experiment configuration: flat INI files with one section per pipeline block.

Every experiment is a single diffable file; all randomness is seeded from the
[experiment] section, never from ambient entropy. See presets/ for one config
per benchmark task.

_SCHEMA holds every key a section may hold, with its parser and default; a key
outside it is a typo or a removed setting. A value its parser rejects, a
required key left out, and a key given under a setting that does not read it
(_READ_UNDER) is a ConfigError that starts with `section.key`.
"""

import configparser
import hashlib

import numpy as np

from . import align
from .controllers import FAMILIES, PolicySpec
from .errors import ConfigError, InvalidStateError
from .gp import N_RESTARTS
from .perturb import SCHEMES, sample_gaussian, sample_uniform
from .sim import DYNAMICS_TAGS, JOINT_HIGH, JOINT_LOW, START_POSE, DynamicsMode, JointState


def parse_dims(raw, key="planner.dims"):
    """'all', or the list of distinct angle indices (each 0..2) that the
    comma-separated raw names; anything else is a ConfigError naming key."""
    dims = [v.strip() for v in raw.split(",")]
    if raw != "all" and sorted(set(dims) & set("012")) != sorted(dims):
        raise ConfigError(f"{key} {raw!r}: need 'all' or distinct comma-separated "
                          "angle indices in 0..2")
    return raw if raw == "all" else [int(v) for v in dims]


def _floats(raw):
    return tuple(float(v) for v in raw.split(",") if v.strip())


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


def _check(parse, ok, need):
    """parse, then a ValueError saying what the value needs unless ok(value)."""
    def run(raw):
        value = parse(raw)
        if not ok(value):
            raise ValueError(f"need {need}, got {raw!r}")
        return value
    return run


def _one_of(names):
    return _check(str, names.__contains__, "one of " + ", ".join(names))


# the label fills one cell of metrics.csv as it is
_LABEL = _check(str, lambda v: not any(c in v for c in ',"\n'),
                "no comma, double quote or line break")


_POSITIVE = _check(int, lambda v: v >= 1, "a positive integer")
_GAMMAS = _check(_floats, lambda g: g and len({f"{v:g}" for v in g}) == len(g) and
                 all(np.isfinite(v) and v >= 0 for v in g),
                 "one or more distinct finite voxel sizes >= 0")
_REQUIRED = object()  # the default of a key that must be given

# section -> key -> (parser of the raw string, default value)
_SCHEMA = {
    "experiment": {"label": (_LABEL, "experiment"), "seed": (int, 0)},
    "sim": {"mode": (_one_of(DYNAMICS_TAGS), "linear"),
            "dt": (_check(float, lambda v: 0 < v < np.inf, "a positive finite step"), 0.01),
            "damping": (float, 0.0), "gravity_gain": (float, 0.0),  # DynamicsMode checks both
            "n_steps": (_POSITIVE, _REQUIRED),
            "x0_angles": (_check(_floats, lambda v: len(v) == 3 and
                                 np.all((JOINT_LOW <= v) & (v <= JOINT_HIGH)),
                                 "3 angles within the joint limits [0, pi], [0, pi], [0, 2 pi]"),
                          tuple(START_POSE.tolist())),
            # the +-range each perturbed recording draws its own lag from
            "temporal_shift": (int, 0),
            "spatial_std": (_check(_floats, lambda v: len(v) == 3 and
                                   all(0 <= s < np.inf for s in v), "3 finite values >= 0"),
                            (0.0, 0.0, 0.0))},
    "policy": {"family": (_one_of(FAMILIES), _REQUIRED), "theta": (_floats, _REQUIRED),
               "x_star": (_floats, None),
               "joints": (lambda raw: tuple(int(v) for v in raw.split(",")), None)},
    "perturbation": {"scheme": (_one_of(SCHEMES), "uniform"),
                     "count": (_POSITIVE, _REQUIRED), "ranges": (_ranges, ()),
                     "lambda_sweep": (_check(_floats, bool, "one or more rates"), (100.0,))},
    "preprocess": {"align": (_one_of(align.METHODS), "none"),
                   "max_lag": (int, align.DEFAULT_MAX_LAG),
                   "gamma_sweep": (_GAMMAS, (0.0,))},
    "gp": {"stride": (_POSITIVE, 1), "n_restarts": (_POSITIVE, N_RESTARTS),
           # hyperparameters are always optimized; an older config's line still loads
           "optimize": (_check(str.lower, "true".__eq__, "'true'"), "true")},
    "eval": {"holdout_fraction": (_check(float, lambda v: 0 < v < 1, "a fraction in (0, 1)"),
                                  0.2),
             "split_seed": (int, 1)},
    "planner": {"t_constraint": (int, None), "dims": (parse_dims, "all"),
                "target_kps": (_check(_floats, lambda v: len(v) <= 3 and np.all(np.isfinite(v)),
                                      "at most 3 finite targets (short, medium, long)"), ())},
}

# a key read only under some settings -> (the setting that decides, the values it is read under)
_READ_UNDER = {"sim.gravity_gain": ("sim.mode", ("pendulum3",)),
               "perturbation.ranges": ("perturbation.scheme", ("uniform",)),
               "perturbation.lambda_sweep": ("perturbation.scheme", ("gaussian",)),
               "preprocess.max_lag": ("preprocess.align", ("correlation", "zero_crossing"))}


def _read(parser):
    """{'section.key': value} for every key in _SCHEMA: its parser's value of
    the file's entry, else its default. An unknown section or key, a value
    the parser rejects, a required key left out and a key no setting reads
    (_READ_UNDER, or a [planner] without t_constraint) are ConfigErrors."""
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"[{section}]: unknown config section")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown config key")
    values = {}
    for section, keys in _SCHEMA.items():
        for key, (parse, default) in keys.items():
            name = f"{section}.{key}"
            if not parser.has_option(section, key):
                if default is _REQUIRED:
                    raise ConfigError(f"{name}: missing")
                values[name] = default
                continue
            try:
                values[name] = parse(parser.get(section, key))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
    for name, (setting, under) in _READ_UNDER.items():
        if parser.has_option(*name.split(".")) and values[setting] not in under:
            raise ConfigError(f"{name}: read only under {setting} = {' or '.join(under)}, "
                              f"not {values[setting]}")
    if parser.has_section("planner") and values["planner.t_constraint"] is None:
        key = next(iter(parser["planner"]), "t_constraint")
        raise ConfigError(f"planner.{key}: a [planner] section needs planner.t_constraint")
    return values


class ExperimentConfig:
    """Typed view of an experiment INI file: each key's value, parsed by
    _SCHEMA, the objects the pipeline builds from them, and the values
    derived once at load: the perturbation deltas and the fit's timesteps."""

    def __init__(self, parser):
        v = self._values = _read(parser)
        self.label, self.seed = v["experiment.label"], v["experiment.seed"]
        try:
            self.mode = DynamicsMode(v["sim.mode"], damping=v["sim.damping"],
                                     gravity_gain=v["sim.gravity_gain"])
        except InvalidStateError as exc:  # its message starts with the field at fault
            raise ConfigError(f"sim.{exc}") from exc
        self.dt, self.n_steps = v["sim.dt"], v["sim.n_steps"]
        self.x0 = JointState(v["sim.x0_angles"], np.zeros(3))
        self.temporal_shift, self.spatial_std = v["sim.temporal_shift"], v["sim.spatial_std"]
        fixed = {key: v[f"policy.{key}"] for key in ("x_star", "joints")
                 if v[f"policy.{key}"] is not None}
        try:
            self.policy = PolicySpec(v["policy.family"], v["policy.theta"], fixed)
        except ConfigError as exc:  # its message starts with the field at fault
            raise ConfigError(f"policy.{exc}") from exc
        self.scheme, self.count = v["perturbation.scheme"], v["perturbation.count"]
        self.ranges = v["perturbation.ranges"]
        self.lambda_sweep = v["perturbation.lambda_sweep"]
        self.align_method, self.max_lag = v["preprocess.align"], v["preprocess.max_lag"]
        self.gamma_sweep = v["preprocess.gamma_sweep"]
        self.n_restarts = v["gp.n_restarts"]
        self.holdout_fraction = v["eval.holdout_fraction"]
        self.split_seed = v["eval.split_seed"]
        self.plan_t, self.plan_dims = v["planner.t_constraint"], v["planner.dims"]
        self.plan_target_kps = v["planner.target_kps"]

        if abs(self.temporal_shift) >= self.n_steps:  # a draw may reach +-shift
            raise ConfigError(f"sim.temporal_shift {self.temporal_shift}: need "
                              f"|temporal_shift| < n_steps ({self.n_steps})")
        if self.plan_t is not None and not 0 < self.plan_t <= self.n_steps:
            raise ConfigError(f"planner.t_constraint {self.plan_t} must be in "
                              f"1..n_steps ({self.n_steps})")
        # the fit's grid: every stride-th step and the planner's constraint step
        grid = set(range(0, self.n_steps + 1, v["gp.stride"]))
        self.timesteps = tuple(sorted(grid if self.plan_t is None else grid | {self.plan_t}))
        try:  # drawn once, read-only; the draw checks its ranges, or its rate
            self.deltas = self._draw_deltas()
        except ConfigError as exc:
            key = "ranges" if self.scheme == "uniform" else "lambda_sweep"
            raise ConfigError(f"perturbation.{key}: {exc}") from exc
        self.deltas.flags.writeable = False
        # correlation alignment, and zero-crossing's fallback to it, need this
        if self.align_method != "none" and not 1 <= self.max_lag < self.n_steps / 2:
            raise ConfigError(f"preprocess.max_lag {self.max_lag}: need 1 <= max_lag "
                              f"< n_steps / 2 ({self.n_steps} steps)")
        self.split_indices(len(self.deltas))

    # -- derived objects -------------------------------------------------------

    def _draw_deltas(self):
        """The first `count` deltas around policy.theta, in recording order, as
        one (N, m) array: one uniform draw with seed + 1, or one gaussian draw
        of count // len(lambda_sweep) (at least 1) per rate k, with seed + 1 + k."""
        theta = self.policy.theta
        if self.scheme == "uniform":
            return sample_uniform(theta, self.ranges, self.count, self.seed + 1)
        n = max(1, self.count // len(self.lambda_sweep))
        return np.concatenate([sample_gaussian(theta, n, lam, self.seed + 1 + k)
                               for k, lam in enumerate(self.lambda_sweep)])[: self.count]

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
        """Stable hash of every setting that determines the pipeline outputs:
        the parsed value of each key in _SCHEMA, defaults included."""
        return hashlib.sha256(repr(sorted(self._values.items())).encode()).hexdigest()[:16]


def read_ini(parser, path):
    """parser.read(path): whether the file was there to read. A file that is
    not INI is a ConfigError naming it."""
    try:
        return bool(parser.read(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: malformed INI file: {exc}") from exc


def load_config(path, seed=None):
    """The ExperimentConfig of the INI file at path; a seed that is not None
    replaces its experiment.seed. A file that is missing or not INI is a
    ConfigError naming it."""
    # "key = value   ; note" lines, as in the README, end at the comment
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not read_ini(parser, path):
        raise ConfigError(f"config file not found: {path}")
    for section in ("experiment", "sim", "policy", "perturbation"):
        if not parser.has_section(section):
            raise ConfigError(f"config missing [{section}] section")
    if seed is not None:
        parser["experiment"]["seed"] = str(seed)
    return ExperimentConfig(parser)
