"""Zero-shot gain planning from a trained sensitivity model.

Given per-timestep GP maps trained by perturbing the proportional gain of a
PD servo, solve for the gain that bends the nominal trajectory through a
desired intermediate state at a chosen timestep, then verify by rollout.
The relation is implicit (the map is queried at the correction being solved
for), so the primary solver is a bracketed root search over the trained
perturbation range; a fixed-point iteration is offered as a cross-check.

scipy's `minimize_scalar` is imported only in the least-squares branch that
uses it, so importing the package does not load scipy (see `gp`).
"""

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
    delta_star: float
    residuals: np.ndarray
    n_roots: int = 1
    extrapolated: bool = False


@dataclass
class PlanReport:
    kp_star: float
    achieved: np.ndarray
    target: np.ndarray
    miss: float
    source_miss: float
    improved: bool
    improvement: float
    n_roots: int
    extrapolated: bool


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


def solve_kp(model, problem, method="root_search"):
    """Solve for the gain whose predicted state change meets the target.

    Single constraint dimension: bracketed root search on
    predicted_change(delta) - required_change over the trained delta range;
    with multiple sign changes the root with the smallest |delta| wins.
    Multiple dimensions: least-squares compromise, per-dim residuals reported.
    The grid has DEFAULT_GRID gains; searches stop at DEFAULT_TOL or after
    DEFAULT_MAX_ITER steps.
    """
    dims = problem.dims()
    source_x = np.asarray(model.source_angles_at(problem.t_constraint), dtype=float)
    required = problem.x_target_t[dims] - source_x[dims]

    lo, hi = float(model.delta_low[0]), float(model.delta_high[0])
    if not lo < hi:
        raise ConfigError("model has no spread in the tuned gain")
    deltas = np.linspace(lo, hi, DEFAULT_GRID)
    curve = _predict_curve(model, problem, deltas, dims)
    change = lambda d: _predict_curve(model, problem, np.array([d]), dims)[0]

    extrapolated = bool(np.any(required < curve.min(axis=0) - 0.0)
                        or np.any(required > curve.max(axis=0)))

    n_roots = 1
    if method == "fixed_point":
        delta = _fixed_point(change, required, dims, lo, hi)
    elif len(dims) == 1:
        resid = curve[:, 0] - required[0]
        f = lambda d: change(d)[0] - required[0]
        roots = []
        for i in range(DEFAULT_GRID - 1):
            if resid[i] == 0.0:
                roots.append(deltas[i])
            elif (resid[i] < 0) != (resid[i + 1] < 0):
                roots.append(_bisect(f, deltas[i], deltas[i + 1], resid[i]))
        if resid[-1] == 0.0:
            roots.append(deltas[-1])
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

    achieved_change = change(delta)
    return SolveResult(kp_star=float(problem.source_kp + delta), delta_star=float(delta),
                       residuals=achieved_change - required, n_roots=n_roots,
                       extrapolated=extrapolated)


def _fixed_point(change, required, dims, lo, hi):
    """Iterate the slope reading: delta <- required / (g(delta)/delta)."""
    if len(dims) != 1:
        raise ConfigError("fixed-point mode handles a single constraint dimension")
    delta = 0.5 * (lo + hi)
    if delta == 0.0:
        delta = 0.25 * (hi - lo)
    for _ in range(DEFAULT_MAX_ITER):
        g = change(delta)[0]
        if abs(g) < 1e-30:
            raise TargetUnreachableError("flat sensitivity at the iterate")
        new_delta = float(np.clip(required[0] * delta / g, lo, hi))
        if abs(new_delta - delta) < DEFAULT_TOL:
            return new_delta
        delta = new_delta
    return delta


def plan(problem, model, policy, x0, dt, mode, n_steps, method="root_search"):
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
    result = solve_kp(model, problem, method=method)
    dims = problem.dims()

    theta = policy.theta.copy()
    theta[0] = result.kp_star
    planned = rollout(policy.with_theta(theta), x0, n_steps, dt, mode)
    achieved = planned.angles[problem.t_constraint]

    source_x = np.asarray(model.source_angles_at(problem.t_constraint), dtype=float)
    target = problem.x_target_t
    miss = float(np.linalg.norm(achieved[dims] - target[dims]))
    source_miss = float(np.linalg.norm(source_x[dims] - target[dims]))
    improvement = 0.0 if source_miss == 0 else 1.0 - miss / source_miss
    report = PlanReport(kp_star=result.kp_star, achieved=achieved, target=target,
                        miss=miss, source_miss=source_miss,
                        improved=bool(miss < source_miss), improvement=improvement,
                        n_roots=result.n_roots, extrapolated=result.extrapolated)
    return report, planned


def plan_and_verify(problem, model, policy, x0, dt, mode, n_steps,
                    method="root_search"):
    """`plan`'s report. n_steps is the horizon the plan must fall within; the
    simulator is causal, so the verifying rollout stops at t_constraint, the
    only step the report reads."""
    # past n_steps, the shorter of the two is n_steps and plan raises
    steps = min(problem.t_constraint, n_steps)
    return plan(problem, model, policy, x0, dt, mode, steps, method)[0]
