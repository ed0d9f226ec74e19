"""Independent reference computations used to freeze expected test values.

Everything here is computed by a different route than the library code:
combinatorial closed-form sums instead of iterated stepping, one-shot
exponential solutions, homogeneous matrix powers for closed-loop maps,
exhaustive brute-force sweeps, forward tangents for the exact pendulum3
sensitivities, one object per training sample,
row-by-row csv-module writers for the file formats, hand-written rows for
the metrics and plot tables, one GP query per point for the block queries,
the former rollout loop, verification over the whole horizon, the former
planner root scan and fixed-point solver, and the former per-sample
perturbation draws. Keep this module free of trajsense
imports so the oracles cannot inherit a library bug.
"""

import configparser
import csv
from collections import namedtuple

import numpy as np
from scipy.linalg import cholesky, solve_triangular


def ramp_torque_state(x0, v0, w, b, dt, n):
    """Closed-form state of xdd = u with u_k = w*(k*dt) + b held per step.

    Direct combinatorial sums (no stepping):
      v_n = v0 + w*dt^2*n(n-1)/2 + b*dt*n
      x_n = x0 + v0*n*dt + w*dt^3*n(n-1)(2n-1)/12 + b*dt^2*n^2/2
    """
    v = v0 + w * dt**2 * n * (n - 1) / 2.0 + b * dt * n
    x = (x0 + v0 * n * dt + w * dt**3 * n * (n - 1) * (2 * n - 1) / 12.0
         + b * dt**2 * n * n / 2.0)
    return x, v


def ramp_torque_jacobian(dt, n):
    """d(x_n)/d(w), d(x_n)/d(b) for the ramp-torque double integrator."""
    dx_dw = dt**3 * n * (n - 1) * (2 * n - 1) / 12.0
    dx_db = dt**2 * n * n / 2.0
    return dx_dw, dx_db


def damped_const_torque_state(x0, v0, u, c, t):
    """One-shot continuous solution of xdd = u - c*xd at time t (c > 0)."""
    drift = u / c
    x = x0 + drift * t + (v0 - drift) * (1.0 - np.exp(-c * t)) / c
    v = drift + (v0 - drift) * np.exp(-c * t)
    return x, v


def pd_closed_loop_angle(x0, v0, kp, kd, x_star, dt, n, damping=0.0):
    """Angle after n steps of the discretized PD loop, via matrix power.

    Per step: u = kp*(x_star - x) - kd*v, then the exact zero-order-hold
    update of xdd = u - damping*xd. The affine step map is composed once as
    the n-th power of a 3x3 homogeneous matrix, a different route than
    iterating the simulator.
    """
    if damping == 0.0:
        g = dt * dt / 2.0   # torque-to-position gain over one step
        h = dt              # torque-to-velocity gain
        xv = dt             # velocity-to-position drift
        vv = 1.0
    else:
        c = damping
        E = np.exp(-c * dt)
        h = (1.0 - E) / c
        g = dt / c - (1.0 - E) / c**2
        xv = (1.0 - E) / c
        vv = E
    H = np.array([
        [1.0 - kp * g, xv - kd * g, kp * x_star * g],
        [-kp * h, vv - kd * h, kp * x_star * h],
        [0.0, 0.0, 1.0],
    ])
    z = np.linalg.matrix_power(H, n) @ np.array([x0, v0, 1.0])
    return z[0]


def brute_force_realign(ref_angles, other_angles, max_lag):
    """Lag minimizing the mean |ref - shifted(other)| over the overlap."""
    T = ref_angles.shape[0] - 1
    best_tau, best_res = 0, np.inf
    for tau in range(-max_lag, max_lag + 1):
        lo = max(0, -tau)
        hi = min(T, T - tau)
        res = np.mean(np.abs(other_angles[lo + tau: hi + tau + 1]
                             - ref_angles[lo: hi + 1]))
        if res < best_res - 1e-15 or (abs(res - best_res) <= 1e-15 and abs(tau) < abs(best_tau)):
            best_res, best_tau = res, tau
    return best_tau, best_res


def brute_force_corr_peak(ref_angles, other_angles, max_lag):
    """Argmax over lags of the summed per-window Pearson correlation.

    Independent implementation via np.corrcoef per (lag, dimension).
    """
    T = ref_angles.shape[0] - 1
    best = None
    for tau in range(-max_lag, max_lag + 1):
        lo = max(0, -tau)
        hi = min(T, T - tau)
        seg_o = other_angles[lo + tau: hi + tau + 1]
        seg_r = ref_angles[lo: hi + 1]
        c = 0.0
        for d in range(ref_angles.shape[1]):
            if seg_o[:, d].std() > 1e-15 and seg_r[:, d].std() > 1e-15:
                c += float(np.corrcoef(seg_o[:, d], seg_r[:, d])[0, 1])
        if best is None or c > best[1] + 1e-12:
            best = (tau, c)
        elif abs(c - best[1]) <= 1e-12 and abs(tau) < abs(best[0]):
            best = (tau, c)
    return best[0]


# -- one object per training sample --------------------------------------------
# How build_samples assembled its result before samples became dense arrays:
# one object per (recording, timestep) holding the recording's parameter
# change, the angle difference at t and the norm of the parameter change.

Sample = namedtuple("Sample", "t delta_theta delta_x magnitude")


def object_samples(delta_thetas, diffs):
    """Sample objects, recording after recording; diffs[i] is recording i's
    (T+1, d) angle difference against the source."""
    samples = []
    for delta_theta, d in zip(delta_thetas, diffs):
        delta_theta = np.asarray(delta_theta, dtype=float).reshape(-1)
        mag = float(np.linalg.norm(delta_theta))
        for t in range(len(d)):
            samples.append(Sample(t, delta_theta, d[t], mag))
    return samples


def object_build_samples(source_angles, pairs):
    """The former build_samples on (delta_theta, angles) pairs whose angles,
    like source_angles, are already aligned and voxelized."""
    return object_samples([d for d, _ in pairs], [a - source_angles for _, a in pairs])


# -- row-wise CSV writers -----------------------------------------------------
# The csv-module writers the library used before it formatted whole blocks with
# numpy; the library's writers must reproduce their bytes. Inputs are duck
# typed (angles/velocities/torques arrays; samples with t, delta_theta, delta_x
# and magnitude), so no trajsense type is needed.

TRAJ_HEADER = ["t", "x1", "x2", "x3", "v1", "v2", "v3", "u1", "u2", "u3"]


def csv_write_trajectory(traj, path):
    """Trajectory CSV (no .meta sidecar): one csv row per recorded step."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRAJ_HEADER)
        T = traj.torques.shape[0]
        for t in range(T + 1):
            row = [str(t)]
            row += [f"{v:.9g}" for v in traj.angles[t]]
            row += [f"{v:.9g}" for v in traj.velocities[t]]
            row += [f"{v:.9g}" for v in traj.torques[t]] if t < T else ["", "", ""]
            w.writerow(row)


def csv_write_samples(samples, path):
    m = samples[0].delta_theta.size
    d = samples[0].delta_x.size
    header = (["t"] + [f"dtheta_{j+1}" for j in range(m)]
              + [f"dx_{i+1}" for i in range(d)] + ["dtheta_norm"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for s in samples:
            row = [str(s.t)]
            row += [f"{v:.17g}" for v in s.delta_theta]
            row += [f"{v:.17g}" for v in s.delta_x]
            row.append(f"{s.magnitude:.17g}")
            w.writerow(row)


def csv_write_perturbations(nominal, deltas, path):
    m = len(nominal)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id"] + [f"theta_{j+1}" for j in range(m)])
        for i, d in enumerate(deltas):
            w.writerow([str(i)] + [f"{v:.17g}" for v in (np.asarray(nominal) + d)])


# -- per-point GP queries -------------------------------------------------------
# The planner's gain curve and the gp_evolution export as they were computed
# before both queried the GP maps in blocks: one model.model_at(t).predict(dq)
# of a single row per grid point. `model` and `problem` are duck typed
# (SensitivityModel, PlanningProblem).


def per_point_predict_curve(model, problem, deltas, dims):
    """The (deltas.size, len(dims)) curve, one single-row query per gain in `deltas`."""
    m = model.nominal_theta.size if model.nominal_theta is not None else \
        model.delta_low.size
    curve = np.empty((deltas.size, len(dims)))
    for i, d in enumerate(deltas):
        dq = np.zeros(m)
        dq[0] = d
        mean = model.model_at(problem.t_constraint).predict(dq)[0][0]
        curve[i] = mean[dims]
    return curve


def per_point_gp_evolution(model, dim, grid):
    """Rows (t, delta, mean_1..3, std_1..3) of the gp_evolution export, unformatted."""
    rows = []
    for t in model.timesteps:
        for dv in grid:
            q = np.zeros(model.delta_low.size)
            q[dim] = dv
            mean, std = (a[0] for a in model.model_at(t).predict(q))
            rows.append(np.concatenate([[t, dv], mean, std]))
    return np.array(rows)


def posterior_error_bounds(gp, Xq):
    """First-order rounding-error bounds (mean_bound, var_bound) of a fitted
    one-column GP's posterior at the rows of Xq, from the float64 unit
    roundoff alone.

    mean = K* alpha is a length-n dot product per row: n*eps*(|K*| |alpha|).
    var = sf2 + sn2 - |L^-1 k*|^2: a triangular solve is backward stable,
    (L + dL) v = k* with |dL| <= n*eps*|L|, so the computed variance is exact
    for a kernel perturbed by |dK| <= 2n*eps*|L||L^T|, which moves it by at
    most 2n*eps*| |L^T| |w| |^2 with w = K^-1 k*; the final sum adds
    n*eps*(sf2 + sn2 + |v|^2). A block query and a single-row query evaluate
    the same formulas in different orders; the tests hold them to within one
    bound of each other.
    """
    _, y, (phi,) = gp.state()
    ls2, sf2, sn2 = np.exp(phi[:-2]) ** 2, np.exp(phi[-2]), np.exp(phi[-1])

    def kernel(A):
        d2 = (A[:, None, :] - gp._X[None, :, :]) ** 2 / ls2
        return sf2 * np.exp(-0.5 * d2.sum(axis=2))

    Ks = kernel((np.atleast_2d(Xq) - gp._x_mean) / gp._x_scale)
    n = y.size
    eps = np.finfo(float).eps
    mean_bound = n * eps * (np.abs(Ks) @ np.abs(gp.alpha[0]))
    # the factor of the noisy training kernel, with the jitter the GP needed
    L = cholesky(kernel(gp._X) + (sn2 + gp.jitter[0] * sf2) * np.eye(n), lower=True)
    V = solve_triangular(L, Ks.T, lower=True)
    W = solve_triangular(L, V, lower=True, trans="T")
    LtW = np.abs(L).T @ np.abs(W)
    var_bound = (2 * n * eps * np.sum(LtW * LtW, axis=0)
                 + n * eps * (sf2 + sn2 + np.sum(V * V, axis=0)))
    return mean_bound, var_bound


# -- the former rollout loop ------------------------------------------------------
# rollout_batch as it stepped before it resolved the policy once per rollout:
# one torque dispatch by family name per step, np.clip for both clips, and the
# gravity torque assembled with np.array([...]).T. Policies and the dynamics
# mode are duck typed (family/theta/fixed; tag/damping/gravity_gain).

FORMER_JOINT_LOW = np.array([0.0, 0.0, 0.0])
FORMER_JOINT_HIGH = np.array([np.pi, np.pi, 2.0 * np.pi])
FORMER_TORQUE_CAP = 5.0


def _former_torque_at(policy, step_index, t_seconds, angles, velocities, theta):
    theta = np.asarray(theta, dtype=float)
    if policy.family == "linear_openloop":
        return theta[..., :3] * t_seconds + theta[..., 3:]
    if policy.family == "sinusoidal":
        joints = tuple(int(j) for j in policy.fixed["joints"])
        theta = theta.reshape(theta.shape[:-1] + (len(joints), 2))
        u = np.zeros(theta.shape[:-2] + (3,))
        for k, j in enumerate(joints):
            u[..., j - 1] = theta[..., k, 0] * np.sin(theta[..., k, 1] * step_index)
        return u
    kp = theta[..., 0, None]
    kd = theta[..., 1, None] if theta.shape[-1] > 1 else 0.0
    err = np.asarray(policy.fixed["x_star"], dtype=float) - np.asarray(angles, dtype=float)
    return kp * err - kd * np.asarray(velocities, dtype=float)


def _former_step_arrays(angles, velocities, u, dt, mode):
    c = mode.damping
    if mode.tag == "linear":
        if c == 0.0:
            new_v = velocities + u * dt
            new_x = angles + velocities * dt + 0.5 * u * dt * dt
        else:
            decay = np.exp(-c * dt)
            drift = u / c
            new_v = velocities * decay + drift * (1.0 - decay)
            new_x = angles + drift * dt + (velocities - drift) * (1.0 - decay) / c
    else:
        s0, s1, s2 = np.sin(np.cumsum(angles, axis=-1)).T
        gravity = mode.gravity_gain * np.array([s0 + s1 + s2, s1 + s2, s2]).T
        acc = u - c * velocities - gravity
        new_v = velocities + dt * acc
        new_x = angles + dt * new_v
    clamped = np.clip(new_x, FORMER_JOINT_LOW, FORMER_JOINT_HIGH)
    hit = clamped != new_x
    if np.any(hit):
        new_v = np.where(hit, 0.0, new_v)
    return clamped, new_v


def former_rollout_batch(policies, x0_angles, x0_velocities, n_steps, dt, mode):
    """(angles, velocities, torques) of shapes (N, T+1, 3), (N, T+1, 3), (N, T, 3)."""
    lead = policies[0]
    thetas = np.stack([p.theta for p in policies])
    n = len(policies)
    x = np.tile(np.asarray(x0_angles, dtype=float), (n, 1))
    v = np.tile(np.asarray(x0_velocities, dtype=float), (n, 1))
    angles = np.empty((n, n_steps + 1, 3))
    velocities = np.empty((n, n_steps + 1, 3))
    torques = np.empty((n, n_steps, 3))
    angles[:, 0] = x
    velocities[:, 0] = v
    for k in range(n_steps):
        u = _former_torque_at(lead, k, k * dt, x, v, thetas)
        u = np.clip(u, -FORMER_TORQUE_CAP, FORMER_TORQUE_CAP)
        torques[:, k] = u
        x, v = _former_step_arrays(x, v, u, dt, mode)
        angles[:, k + 1] = x
        velocities[:, k + 1] = v
    return angles, velocities, torques


# -- exact pendulum3 sensitivities -------------------------------------------------
# Discrete forward sensitivity analysis (Serban & Hindmarsh, CVODES, 2005): the
# tangents X = dx/dtheta and V = dv/dtheta of a PD policy's rollout,
# theta = (kp, kd), each (3, 2), are carried through the semi-implicit Euler
# step of the pendulum3 mode alongside the state. The gravity torque is written
# with triangular matrices (g = G * U sin(L x), L lower and U upper triangular
# ones), a different route than the simulator's accumulate. Two points where
# the step is not smooth, each taken from the side the state is on:
# - a torque component clipped at +-TORQUE_CAP does not move with theta, so
#   its derivative is zero (a raw torque of exactly the cap counts as unclipped);
# - a joint that hits its stop sits at the constant bound with its velocity
#   zeroed, so both of its tangent rows are zero.
# Where a neighbouring theta would clip or clamp at another step, the rollout
# has a kink and no derivative; finite differences across it disagree.


def pendulum3_pd_sensitivities(x0_angles, x0_velocities, kp, kd, x_star, dt, n_steps,
                               damping, gravity_gain):
    """(angles, dx, dv, clipped, clamped): angles (T+1, 3); dx and dv, the
    (T+1, 3, 2) derivatives of the angles and velocities by (kp, kd); and the
    numbers of (step, joint) pairs whose torque clipped or whose angle hit a
    stop."""
    x = np.array(x0_angles, dtype=float)
    v = np.array(x0_velocities, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    lower = np.tril(np.ones((3, 3)))
    X, V = np.zeros((3, 2)), np.zeros((3, 2))
    angles, dx, dv = [x], [X], [V]
    clipped = clamped = 0
    for _ in range(n_steps):
        raw = kp * (x_star - x) - kd * v
        dU = -kp * X - kd * V + np.column_stack([x_star - x, -v])
        clip = np.abs(raw) > FORMER_TORQUE_CAP
        u = np.where(clip, np.sign(raw) * FORMER_TORQUE_CAP, raw)
        dU[clip] = 0.0
        cum = lower @ x
        gravity = gravity_gain * lower.T @ np.sin(cum)
        d_gravity = gravity_gain * lower.T @ (np.cos(cum)[:, None] * (lower @ X))
        v = v + dt * (u - damping * v - gravity)
        V = V + dt * (dU - damping * V - d_gravity)
        x, X = x + dt * v, X + dt * V
        hit = (x < FORMER_JOINT_LOW) | (x > FORMER_JOINT_HIGH)
        x = np.minimum(np.maximum(x, FORMER_JOINT_LOW), FORMER_JOINT_HIGH)
        v[hit], X[hit], V[hit] = 0.0, 0.0, 0.0
        clipped += int(clip.sum())
        clamped += int(hit.sum())
        angles.append(x)
        dx.append(X)
        dv.append(V)
    return np.array(angles), np.array(dx), np.array(dv), clipped, clamped


# -- full-horizon verification ------------------------------------------------------
# plan_and_verify as it was before its verifying rollout stopped at the
# constraint time: the solved gain is rolled out over all n_steps. The solver
# and the simulator are passed in, so no trajsense import is needed; the
# report comes back as a dict of PlanReport's fields.


def full_horizon_plan_and_verify(problem, model, policy, x0, dt, mode, n_steps,
                                 solve_kp, rollout):
    result = solve_kp(model, problem)
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
    return {"kp_star": result.kp_star, "achieved": achieved, "miss": miss,
            "source_miss": source_miss, "improved": bool(miss < source_miss),
            "improvement": improvement, "n_roots": result.n_roots,
            "extrapolated": result.extrapolated}


# -- the former planner solvers -------------------------------------------------------
# The root search's bracket scan as it was, one grid point per Python step,
# and the fixed-point iteration the planner used to offer as a cross-check.
# Models and problems are duck typed (SensitivityModel, PlanningProblem).


def former_root_scan(resid, deltas, f, bisect):
    """The roots the former scan found, in its order: an exact zero at a grid
    point is taken as it is, a sign change to the next point is bisected with
    bisect(f, lo, hi, f_lo), and the last point counts only as an exact zero."""
    roots = []
    for i in range(deltas.size - 1):
        if resid[i] == 0.0:
            roots.append(deltas[i])
        elif (resid[i] < 0) != (resid[i + 1] < 0):
            roots.append(bisect(f, deltas[i], deltas[i + 1], resid[i]))
    if resid[-1] == 0.0:
        roots.append(deltas[-1])
    return roots


def fixed_point_kp(model, problem, tol=1e-6, max_iter=100):
    """The gain that meets a single-dimension target, by iterating the slope
    reading delta <- required * delta / g(delta) from the middle of the
    trained range, clipped to it; g is one per-point model query."""
    (dim,) = problem.dims()
    source_x = np.asarray(model.source_angles_at(problem.t_constraint), dtype=float)
    required = problem.x_target_t[dim] - source_x[dim]
    lo, hi = float(model.delta_low[0]), float(model.delta_high[0])
    dq = np.zeros(model.delta_low.size)
    delta = 0.5 * (lo + hi) or 0.25 * (hi - lo)
    for _ in range(max_iter):
        dq[0] = delta
        g = model.model_at(problem.t_constraint).predict(dq)[0][0, dim]
        if abs(g) < 1e-30:
            raise ZeroDivisionError("flat sensitivity at the iterate")
        new_delta = float(np.clip(required * delta / g, lo, hi))
        converged = abs(new_delta - delta) < tol
        delta = new_delta
        if converged:
            break
    return problem.source_kp + delta


# -- the former perturbation draws ---------------------------------------------------
# sample_gaussian, sample_uniform and ExperimentConfig.perturbation_deltas as
# they drew before the deltas became one (N, m) array: a list of (m,) arrays,
# one scalar uniform draw per live parameter. The samplers take the arguments
# of the current ones; a config is duck typed (scheme, policy.theta, ranges,
# lambda_sweep, count, seed).


def former_sample_gaussian(nominal, count, rate, seed):
    rng = np.random.default_rng(seed)
    norm = float(np.linalg.norm(nominal))
    out = []
    for _ in range(count):
        scale = rng.exponential(1.0 / rate)
        out.append(rng.normal(0.0, 1.0, size=nominal.size) * (scale * norm))
    return out


def former_sample_uniform(nominal, ranges, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        theta = nominal.copy()
        for i, r in enumerate(ranges):
            if r is None:
                continue
            low, high = r
            theta[i] = rng.uniform(low, high)
        out.append(theta - nominal)
    return out


def former_perturbation_deltas(cfg):
    # one uniform plan with seed + 1, or one gaussian plan per rate k with
    # seed + 1 + k drawing count // len(lambda_sweep) (at least 1)
    theta = cfg.policy.theta
    if cfg.scheme == "uniform":
        return former_sample_uniform(theta, cfg.ranges, cfg.count, cfg.seed + 1)
    n = max(1, cfg.count // len(cfg.lambda_sweep))
    deltas = []
    for k, lam in enumerate(cfg.lambda_sweep):
        deltas.extend(former_sample_gaussian(theta, n, lam, cfg.seed + 1 + k))
    return deltas[: cfg.count]


# -- hand-written metrics and plot tables --------------------------------------------
# The metrics and plot CSVs as the evaluate stage and emit-plots wrote them
# before every table went through one writer: row by row, with the csv module
# or with f-strings. Rows, models and histograms are duck typed (MetricsRow and
# TimestepMetrics fields; model_at(t).predict, timesteps, delta_low and
# delta_high); voxelize(angles, gamma) stands in for the voxel grid.


def csv_write_per_timestep(per_t, path_per_t):
    with open(path_per_t, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "nmse", "score", "cos_mean", "n_test"])
        for r in per_t:
            w.writerow([str(r.t), f"{r.nmse:.10g}", f"{r.score:.10g}",
                        f"{r.cos_mean:.10g}", str(r.n_test)])


def former_write_cos_hist(hists, edges, path):
    with open(path, "w") as fh:
        fh.write("t,bin_lo,bin_hi,count\n")
        for t in sorted(hists):
            for lo, hi, count in zip(edges, edges[1:], hists[t]):
                fh.write(f"{t},{lo:.2f},{hi:.2f},{count}\n")


def former_write_metrics_summary(results, path):
    """results: (gamma, row) pairs; the first best score_avg is selected."""
    best_gamma = max(results, key=lambda r: r[1].score_avg)[0]
    with open(path, "w") as fh:
        fh.write("task,gamma,mse_avg,score_avg,cos_avg,n_timesteps,selected\n")
        for gamma, row in results:
            sel = 1 if gamma == best_gamma else 0
            fh.write(f"{row.label},{gamma:g},{row.mse_avg:.10g},{row.score_avg:.10g},"
                     f"{row.cos_avg:.10g},{row.n_timesteps},{sel}\n")


def former_plot_gp_evolution(model, path):
    dim = int(np.argmax(model.delta_high - model.delta_low))
    grid = np.linspace(model.delta_low[dim], model.delta_high[dim], 41)
    queries = np.zeros((grid.size, model.delta_low.size))
    queries[:, dim] = grid
    with open(path, "w") as fh:
        fh.write("t,delta,mean_1,mean_2,mean_3,std_1,std_2,std_3\n")
        for t in model.timesteps:
            mean, std = model.model_at(t).predict(queries)
            for k, delta in enumerate(grid):
                cells = [delta, *mean[k], *std[k]]
                fh.write(f"{t}," + ",".join(f"{v:.9g}" for v in cells) + "\n")


def former_plot_quiver(source_angles, sample_angles, path):
    """sample_angles: the angles of the first (up to) three recordings."""
    n_steps = source_angles.shape[0] - 1
    steps = range(0, n_steps + 1, max(1, n_steps // 20))
    with open(path, "w") as fh:
        fh.write("sample_id,t,src_x1,src_x2,src_x3,pert_x1,pert_x2,pert_x3,"
                 "dx_1,dx_2,dx_3\n")
        for i, angles in enumerate(sample_angles[:3]):
            for t in steps:
                delta = angles[t] - source_angles[t]
                row = np.concatenate([source_angles[t], angles[t], delta])
                fh.write(f"{i},{t}," + ",".join(f"{v:.9g}" for v in row) + "\n")


def former_plot_voxel_overlap(a_angles, b_angles, voxelize, path):
    with open(path, "w") as fh:
        fh.write("gamma,l1_gap,same_cell_fraction\n")
        for gamma in (0.01, 0.04, 0.16, 0.2):
            va, vb = voxelize(a_angles, gamma), voxelize(b_angles, gamma)
            gap = float(np.mean(np.abs(va - vb)))
            same = float(np.mean(np.all(va == vb, axis=1)))
            fh.write(f"{gamma:g},{gap:.9g},{same:.9g}\n")


def former_plot_planning(report_path, keys, path):
    """keys: the report keys after target_kp, in column order."""
    parser = configparser.ConfigParser()
    parser.read(report_path)
    keys = ("target_kp",) + tuple(keys)
    with open(path, "w") as fh:
        fh.write(",".join(("scenario",) + keys) + "\n")
        for section in parser.sections():
            fh.write(",".join([section] + [parser[section][k] for k in keys]) + "\n")
