"""Zero-shot gain planning from a trained sensitivity model.

Given per-timestep GP maps trained by perturbing the proportional gain of a
PD servo, solve for the gain that bends the nominal trajectory through a
desired intermediate state at a chosen timestep, then verify by rollout.
The relation is implicit (the map is queried at the correction being solved
for), so the primary solver is a bracketed root search over the trained
perturbation range; a fixed-point iteration is offered as a cross-check.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

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
    gain_index locates the tuned gain inside the perturbation vector.
    """

    source_kp: float
    fixed_kd: float
    t_constraint: int
    x_target_t: np.ndarray
    final_target: np.ndarray
    constraint_dim: object = "all"
    gain_index: int = 0

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


def _gain_query(model, t, delta, gain_index, m):
    dq = np.zeros(m)
    dq[gain_index] = delta
    mean, _ = model.predict(t, dq)
    return mean


def _predict_curve(model, problem, deltas, dims):
    """Predicted change of the `dims` angles along the gain grid `deltas`:
    one block query per GP, (deltas.size, len(dims))."""
    m = model.nominal_theta.size if model.nominal_theta is not None else \
        model.delta_low.size
    block = np.zeros((deltas.size, m))
    block[:, problem.gain_index] = deltas
    mean, _ = model.model_at(problem.t_constraint).predict(block)
    return mean[:, dims], m


def _bisect(f, lo, hi, f_lo, tol, max_iter):
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < tol or (hi - lo) < tol:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_kp(model, problem, method="root_search", tol=DEFAULT_TOL,
             max_iter=DEFAULT_MAX_ITER, grid_n=DEFAULT_GRID):
    """Solve for the gain whose predicted state change meets the target.

    Single constraint dimension: bracketed root search on
    predicted_change(delta) - required_change over the trained delta range;
    with multiple sign changes the root with the smallest |delta| wins.
    Multiple dimensions: least-squares compromise, per-dim residuals reported.
    """
    t = problem.t_constraint
    dims = problem.dims()
    source_x = np.asarray(model.source_angles_at(t), dtype=float)
    required = problem.x_target_t[dims] - source_x[dims]

    lo = float(model.delta_low[problem.gain_index])
    hi = float(model.delta_high[problem.gain_index])
    if not lo < hi:
        raise ConfigError("model has no spread in the tuned gain")
    deltas = np.linspace(lo, hi, grid_n)
    curve, m = _predict_curve(model, problem, deltas, dims)

    extrapolated = bool(np.any(required < curve.min(axis=0) - 0.0)
                        or np.any(required > curve.max(axis=0)))

    if method == "fixed_point":
        delta = _fixed_point(model, problem, required, dims, lo, hi, m, tol, max_iter)
        n_roots = 1
    elif len(dims) == 1:
        resid = curve[:, 0] - required[0]
        roots = []
        for i in range(grid_n - 1):
            if resid[i] == 0.0:
                roots.append(deltas[i])
            elif (resid[i] < 0) != (resid[i + 1] < 0):
                f = lambda d: _gain_query(model, t, d, problem.gain_index, m)[dims][0] - required[0]
                roots.append(_bisect(f, deltas[i], deltas[i + 1], resid[i], tol, max_iter))
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
        sq = np.sum((curve - required) ** 2, axis=1)
        k = int(np.argmin(sq))
        b_lo = deltas[max(0, k - 1)]
        b_hi = deltas[min(grid_n - 1, k + 1)]
        obj = lambda d: float(np.sum(
            (_gain_query(model, t, d, problem.gain_index, m)[dims] - required) ** 2))
        res = minimize_scalar(obj, bounds=(b_lo, b_hi), method="bounded",
                              options={"xatol": tol})
        delta = float(res.x)
        n_roots = 1

    achieved_change = _gain_query(model, t, delta, problem.gain_index, m)[dims]
    return SolveResult(kp_star=float(problem.source_kp + delta), delta_star=float(delta),
                       residuals=achieved_change - required, n_roots=n_roots,
                       extrapolated=extrapolated)


def _fixed_point(model, problem, required, dims, lo, hi, m, tol, max_iter):
    """Iterate the slope reading: delta <- required / (g(delta)/delta)."""
    if len(dims) != 1:
        raise ConfigError("fixed-point mode handles a single constraint dimension")
    t = problem.t_constraint
    delta = 0.5 * (lo + hi)
    if delta == 0.0:
        delta = 0.25 * (hi - lo)
    for _ in range(max_iter):
        g = _gain_query(model, t, delta, problem.gain_index, m)[dims][0]
        if abs(g) < 1e-30:
            raise TargetUnreachableError("flat sensitivity at the iterate")
        new_delta = float(np.clip(required[0] * delta / g, lo, hi))
        if abs(new_delta - delta) < tol:
            return new_delta
        delta = new_delta
    return delta


def plan_and_verify(problem, model, policy, x0, dt, mode, n_steps,
                    method="root_search"):
    """Solve for the gain, roll it out, and report the constraint-time miss.

    The report compares the planned trajectory's distance to the target at
    t_constraint against the source trajectory's distance (improvement should
    be positive for any solvable problem).
    """
    result = solve_kp(model, problem, method=method)
    dims = problem.dims()

    theta = policy.theta.copy()
    theta[problem.gain_index] = result.kp_star
    planned = rollout(policy.with_theta(theta), x0, n_steps, dt, mode)
    achieved = planned.angles[problem.t_constraint]

    source_x = np.asarray(model.source_angles_at(problem.t_constraint), dtype=float)
    target = problem.x_target_t
    miss = float(np.linalg.norm(achieved[dims] - target[dims]))
    source_miss = float(np.linalg.norm(source_x[dims] - target[dims]))
    improvement = 0.0 if source_miss == 0 else 1.0 - miss / source_miss
    return PlanReport(kp_star=result.kp_star, achieved=achieved, target=target,
                      miss=miss, source_miss=source_miss,
                      improved=bool(miss < source_miss), improvement=improvement,
                      n_roots=result.n_roots, extrapolated=result.extrapolated)
