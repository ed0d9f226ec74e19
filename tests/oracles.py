"""Independent reference computations used to freeze expected test values.

Everything here is computed by a different route than the library code:
combinatorial closed-form sums instead of iterated stepping, one-shot
exponential solutions, homogeneous matrix powers for closed-loop maps,
exhaustive brute-force sweeps, one object per training sample,
row-by-row csv-module writers for the file formats, and one GP query per
point for the block queries. Keep this module
free of trajsense imports so the oracles cannot inherit a library bug.
"""

import csv
from collections import namedtuple

import numpy as np
from scipy.linalg import solve_triangular


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
# before both queried the GP maps in blocks: one model.predict(t, dq) per grid
# point. `model` and `problem` are duck typed (SensitivityModel, PlanningProblem).


def per_point_predict_curve(model, problem, deltas, dims):
    """(curve, m) with one single-row query per gain in `deltas`."""
    m = model.nominal_theta.size if model.nominal_theta is not None else \
        model.delta_low.size
    curve = np.empty((deltas.size, len(dims)))
    for i, d in enumerate(deltas):
        dq = np.zeros(m)
        dq[problem.gain_index] = d
        mean, _ = model.predict(problem.t_constraint, dq)
        curve[i] = mean[dims]
    return curve, m


def per_point_gp_evolution(model, dim, grid):
    """Rows (t, delta, mean_1..3, std_1..3) of the gp_evolution export, unformatted."""
    rows = []
    for t in model.timesteps:
        for dv in grid:
            q = np.zeros(model.delta_low.size)
            q[dim] = dv
            mean, std = model.predict(t, q)
            rows.append(np.concatenate([[t, dv], mean, std]))
    return np.array(rows)


def posterior_error_bounds(gp, Xq):
    """First-order rounding-error bounds (mean_bound, var_bound) of a fitted
    GP's posterior at the rows of Xq, from the float64 unit roundoff alone.

    mean = K* alpha is a length-n dot product per row: n*eps*(|K*| |alpha|).
    var = sf2 + sn2 - |L^-1 k*|^2: a triangular solve is backward stable,
    (L + dL) v = k* with |dL| <= n*eps*|L|, so the computed variance is exact
    for a kernel perturbed by |dK| <= 2n*eps*|L||L^T|, which moves it by at
    most 2n*eps*| |L^T| |w| |^2 with w = K^-1 k*; the final sum adds
    n*eps*(sf2 + sn2 + |v|^2). A block query and a single-row query evaluate
    the same formulas in different orders; the tests hold them to within one
    bound of each other.
    """
    Xqs = (np.atleast_2d(Xq) - gp._x_mean) / gp._x_scale
    Ks = gp._kernel(Xqs, gp._X, gp.log_ls, gp.log_sf2)
    n = gp._y.size
    eps = np.finfo(float).eps
    mean_bound = n * eps * (np.abs(Ks) @ np.abs(gp._alpha))
    V = solve_triangular(gp._L, Ks.T, lower=True)
    W = solve_triangular(gp._L, V, lower=True, trans="T")
    LtW = np.abs(gp._L).T @ np.abs(W)
    var_bound = (2 * n * eps * np.sum(LtW * LtW, axis=0)
                 + n * eps * (np.exp(gp.log_sf2) + np.exp(gp.log_sn2)
                              + np.sum(V * V, axis=0)))
    return mean_bound, var_bound
