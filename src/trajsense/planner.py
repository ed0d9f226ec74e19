"""Zero-shot gain planning from a trained sensitivity model.

Given per-timestep GP maps trained by perturbing the proportional gain of a
PD servo, solve for the gain that bends the nominal trajectory through a
desired intermediate state at a chosen timestep, then verify by rollout.
The relation is implicit (the map is queried at the correction being solved
for). One solver per constraint shape: a single constraint dimension is a
bracketed root search over the trained perturbation range, several are a
least-squares compromise.

scipy's `minimize_scalar` is imported only in the least-squares branch that
uses it, so importing the package does not load scipy (see `gp`).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TargetUnreachableError
from .sim import rollout

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 100
DEFAULT_GRID = 201


@dataclass
class PlanningProblem:
    """Reach x_target_t at t_constraint by retuning the proportional gain.

    constraint_dim selects which angle dimensions must match: a single index,
    a list of indices, or 'all' (least-squares compromise when more than one).
    The tuned gain is the first entry of the perturbation vector.
    """

    source_kp: float
    fixed_kd: float
    t_constraint: int
    x_target_t: np.ndarray
    final_target: np.ndarray
    constraint_dim: object = "all"

    def __post_init__(self):
        self.x_target_t = np.asarray(self.x_target_t, dtype=float).reshape(-1)
        self.final_target = np.asarray(self.final_target, dtype=float).reshape(3)
        if self.t_constraint <= 0:
            raise ConfigError("t_constraint must be positive")

    def dims(self):
        if isinstance(self.constraint_dim, str) and self.constraint_dim == "all":
            return list(range(self.x_target_t.size))
        if np.isscalar(self.constraint_dim):
            return [int(self.constraint_dim)]
        return [int(d) for d in self.constraint_dim]


@dataclass
class SolveResult:
    kp_star: float
    residuals: np.ndarray
    n_roots: int
    extrapolated: bool


@dataclass
class PlanReport:
    kp_star: float
    achieved: np.ndarray
    miss: float
    source_miss: float
    improved: bool
    improvement: float
    n_roots: int
    extrapolated: bool


def with_kp(policy, kp):
    """policy with its proportional gain, the tuned first parameter, set to kp."""
    theta = policy.theta.copy()
    theta[0] = kp
    return policy.with_theta(theta)


def _predict_curve(model, problem, deltas, dims):
    """Predicted change of the `dims` angles along the gains `deltas` (one
    block query per GP): (deltas.size, len(dims)). A single gain is a one-row
    block."""
    block = np.zeros((deltas.size, model.delta_low.size))
    block[:, 0] = deltas
    mean, _ = model.model_at(problem.t_constraint).predict(block, std=False)
    return mean[:, dims]


def _bisect(f, lo, hi, f_lo):
    for _ in range(DEFAULT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < DEFAULT_TOL or (hi - lo) < DEFAULT_TOL:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_kp(model, problem):
    """Solve for the gain whose predicted state change meets the target:
    SolveResult(kp_star, residuals, n_roots, extrapolated).

    Single constraint dimension: bracketed root search on
    predicted_change(delta) - required_change over the trained delta range.
    On the DEFAULT_GRID-point grid an exact zero is a root and a sign change
    to the next point is bisected; the root with the smallest |delta| wins,
    and n_roots counts them. No root is a TargetUnreachableError carrying
    the attainable range of the angle.
    Several dimensions: least-squares compromise, per-dim residuals reported.
    extrapolated says the target lies outside the range the grid attains.
    Searches stop at DEFAULT_TOL or after DEFAULT_MAX_ITER steps. The
    residuals reuse the solver's one-gain query at the solution, if it made one.
    """
    dims = problem.dims()
    source_x = np.asarray(model.source_angles_at(problem.t_constraint), dtype=float)
    required = problem.x_target_t[dims] - source_x[dims]

    lo, hi = float(model.delta_low[0]), float(model.delta_high[0])
    if not lo < hi:
        raise ConfigError("model has no spread in the tuned gain")
    deltas = np.linspace(lo, hi, DEFAULT_GRID)
    curve = _predict_curve(model, problem, deltas, dims)

    @functools.lru_cache(maxsize=None)
    def change(d):
        return _predict_curve(model, problem, np.array([d]), dims)[0]

    extrapolated = bool(np.any(required < curve.min(axis=0))
                        or np.any(required > curve.max(axis=0)))

    n_roots = 1
    if len(dims) == 1:
        resid = curve[:, 0] - required[0]
        f = lambda d: change(d)[0] - required[0]
        # each grid point that is an exact zero or whose sign changes to the next
        neg = resid < 0
        at = np.flatnonzero((resid == 0.0) | np.append(neg[:-1] != neg[1:], False))
        roots = [deltas[i] if resid[i] == 0.0 else
                 _bisect(f, deltas[i], deltas[i + 1], resid[i]) for i in at]
        if not roots:
            raise TargetUnreachableError(
                "no gain in the trained range reaches the target",
                attainable_low=float(curve[:, 0].min() + source_x[dims][0]),
                attainable_high=float(curve[:, 0].max() + source_x[dims][0]))
        delta = min(roots, key=abs)
        n_roots = len(roots)
    else:
        from scipy.optimize import minimize_scalar

        sq = np.sum((curve - required) ** 2, axis=1)
        k = int(np.argmin(sq))
        b_lo = deltas[max(0, k - 1)]
        b_hi = deltas[min(DEFAULT_GRID - 1, k + 1)]
        obj = lambda d: float(np.sum((change(d) - required) ** 2))
        res = minimize_scalar(obj, bounds=(b_lo, b_hi), method="bounded",
                              options={"xatol": DEFAULT_TOL})
        delta = float(res.x)

    return SolveResult(kp_star=float(problem.source_kp + delta),
                       residuals=change(delta) - required, n_roots=n_roots,
                       extrapolated=extrapolated)


def plan(problem, model, policy, x0, dt, mode, n_steps):
    """Solve for the gain, roll it out for n_steps, and report the
    constraint-time miss: (PlanReport, planned Trajectory).

    The report compares the planned trajectory's distance to the target at
    t_constraint against the source trajectory's distance (improvement should
    be positive for any solvable problem). A t_constraint past n_steps is a
    ConfigError.
    """
    if problem.t_constraint > n_steps:
        raise ConfigError(f"t_constraint {problem.t_constraint} is beyond the "
                          f"horizon n_steps {n_steps}")
    result = solve_kp(model, problem)
    dims = problem.dims()

    planned = rollout(with_kp(policy, result.kp_star), x0, n_steps, dt, mode)
    achieved = planned.angles[problem.t_constraint]

    source_x = np.asarray(model.source_angles_at(problem.t_constraint), dtype=float)
    target = problem.x_target_t[dims]
    miss = float(np.linalg.norm(achieved[dims] - target))
    source_miss = float(np.linalg.norm(source_x[dims] - target))
    improvement = 0.0 if source_miss == 0 else 1.0 - miss / source_miss
    report = PlanReport(kp_star=result.kp_star, achieved=achieved, miss=miss,
                        source_miss=source_miss, improved=bool(miss < source_miss),
                        improvement=improvement, n_roots=result.n_roots,
                        extrapolated=result.extrapolated)
    return report, planned


def plan_and_verify(problem, model, policy, x0, dt, mode, n_steps):
    """`plan`'s report. n_steps is the horizon the plan must fall within; the
    simulator is causal, so the verifying rollout stops at t_constraint, the
    only step the report reads."""
    # past n_steps, the shorter of the two is n_steps and plan raises
    steps = min(problem.t_constraint, n_steps)
    return plan(problem, model, policy, x0, dt, mode, steps)[0]
