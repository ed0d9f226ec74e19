"""Flat-file persistence: trajectory CSVs with meta sidecars, sample and
metrics CSVs.

Trajectory CSV schema: header t,x1,x2,x3,v1,v2,v3,u1,u2,u3, one row per
recorded step, floats printed with 9 significant digits. The final row is the
terminal state and carries empty torque cells. The sidecar (same path plus
'.meta') holds policy_id, seed, dt, mode, temporal_shift, spatial_std as
key = value lines.

CSV lines end with \r\n. Trajectory and perturbation CSVs are written as whole
numpy blocks; a sample CSV one recording at a time, its repeated t, dtheta_*
and dtheta_norm cells formatted once. All are read as whole numpy blocks. A
cell that is not a number, or a row with the wrong number of cells, is a
ConfigError naming the file and its line.
"""

import csv
import os
import re

import numpy as np

from .errors import ConfigError
from .sim import Trajectory

TRAJ_HEADER = ["t", "x1", "x2", "x3", "v1", "v2", "v3", "u1", "u2", "u3"]


def _fmt(x):
    return f"{x:.9g}"


def _row_template(n_floats, fmt="%.9g", end="\r\n"):
    """One CSV row: an integer index, then n_floats floats printed with fmt."""
    return "%d" + ("," + fmt) * n_floats + end


def _write_block(fh, template, block):
    """Write the rows of a 2-D float block through one % template per row.

    The first column holds integers stored as floats; `%d` prints them as
    `str(int)` would.
    """
    fh.write((template * block.shape[0]) % tuple(block.ravel().tolist()))


def write_trajectory(traj, path):
    T = traj.n_steps
    body = np.empty((T + 1, 10))
    body[:, 0] = np.arange(T + 1)
    body[:, 1:4] = traj.angles
    body[:, 4:7] = traj.velocities
    body[:T, 7:] = traj.torques
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJ_HEADER) + "\r\n")
        _write_block(fh, _row_template(9), body[:T])
        # the terminal state carries empty torque cells
        _write_block(fh, _row_template(6, end=",,,\r\n"), body[T:, :7])
    meta = traj.meta
    spatial = meta.get("spatial_std", (0.0, 0.0, 0.0))
    with open(path + ".meta", "w") as fh:
        fh.write(f"policy_id = {meta.get('policy_id', '')}\n")
        fh.write(f"seed = {meta.get('seed', 0)}\n")
        fh.write(f"dt = {_fmt(meta.get('dt', traj.dt))}\n")
        fh.write(f"mode = {meta.get('mode', '')}\n")
        fh.write(f"temporal_shift = {meta.get('temporal_shift', 0)}\n")
        fh.write(f"spatial_std = {','.join(_fmt(s) for s in spatial)}\n")


def _header(fh):
    return fh.readline().rstrip("\r\n").split(",")


# np.loadtxt's ValueError says where it stopped: a cell it cannot convert "at
# row R, column C" with R counted from 0, a row whose cell count differs from
# the first row's (or from usecols) "at row R" counted from 1
_LOADTXT_ROW = re.compile(r"(.*?) at row (\d+)(?:, column (\d+))?")


def _loadtxt(source, path, first_line, **kw):
    """np.loadtxt of comma-separated rows that start at line first_line of
    path; a row it cannot read is a ConfigError naming the file and the line."""
    try:
        return np.loadtxt(source, delimiter=",", ndmin=2, **kw)
    except ValueError as exc:
        found = _LOADTXT_ROW.match(str(exc))
        if found is None:
            raise ConfigError(f"{path}: {exc}") from exc
        what, row, column = found.groups()
        if column is None:
            raise ConfigError(f"{path}: line {first_line + int(row) - 1}: wrong number "
                              f"of cells") from exc
        raise ConfigError(f"{path}: line {first_line + int(row)}, column {column}: "
                          f"{what}") from exc


def _check_cells(path, number, line, width):
    """A ConfigError unless line, line number `number` of path, has width cells."""
    if line.count(",") + 1 != width:
        raise ConfigError(f"{path}: line {number}: wrong number of cells "
                          f"({line.count(',') + 1}, the header has {width})")


def _rows(fh, path, width, **kw):
    """The numeric rows after the header as one 2-D array, or None if there
    are none. The first must have width cells; without usecols, loadtxt holds
    every other row to the first one's count."""
    start = fh.tell()
    first = fh.readline()
    if not first:
        return None
    _check_cells(path, 2, first, width)
    fh.seek(start)
    return _loadtxt(fh, path, 2, **kw)


def read_trajectory(path):
    """A trajectory CSV and its sidecar. Every row must have the header's
    cells; else ConfigError names the first bad line."""
    with open(path, newline="") as fh:
        if _header(fh) != TRAJ_HEADER:
            raise ConfigError(f"{path}: not a trajectory CSV")
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise ConfigError(f"{path}: trajectory CSV has no step (fewer than two rows)")
    n = len(lines)
    # loadtxt holds every other row to the first one's cell count, but skips
    # a blank row
    blank = [lines.index("")] if "" in lines else []
    for i in sorted([0, n - 1] + blank):
        _check_cells(path, i + 2, lines[i], len(TRAJ_HEADER))
    angles = np.empty((n, 3))
    velocities = np.empty((n, 3))
    # every row but the terminal one carries torques
    body = _loadtxt(lines[:-1], path, 2)
    angles[:-1], velocities[:-1] = body[:, 1:4], body[:, 4:7]
    torques = np.ascontiguousarray(body[:, 7:10])
    last = _loadtxt(lines[-1:], path, n + 1, usecols=range(1, 7))[0]
    angles[-1], velocities[-1] = last[:3], last[3:]
    meta = {}
    meta_path = path + ".meta"
    dt = None
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            for line in fh:
                if "=" not in line:
                    continue
                key, val = (s.strip() for s in line.split("=", 1))
                meta[key] = val
        dt = float(meta.get("dt", "0") or 0) or None
        if dt is not None:
            meta["dt"] = dt
        meta["seed"] = int(meta.get("seed", 0))
        meta["temporal_shift"] = int(meta.get("temporal_shift", 0))
        if "spatial_std" in meta:
            meta["spatial_std"] = tuple(float(s) for s in meta["spatial_std"].split(","))
    if dt is None:
        raise ConfigError(f"{path}: missing dt in meta sidecar")
    return Trajectory(dt, angles, velocities, torques, meta)


def write_samples(samples, path):
    """A SampleSet as rows t, dtheta_*, dx_*, dtheta_norm (full precision),
    recording after recording, each with its timesteps 0..T in order. Only
    the dx_* cells are formatted per row."""
    if not len(samples):
        raise ConfigError("no samples to write")
    steps, d = samples.delta_x.shape[1:]
    m = samples.delta_theta.shape[1]
    header = (["t"] + [f"dtheta_{j+1}" for j in range(m)]
              + [f"dx_{i+1}" for i in range(d)] + ["dtheta_norm"])
    # one recording's t and dx cells, row by row: the % arguments of its rows
    cells = np.empty((steps, 1 + d), dtype=object)
    cells[:, 0] = [str(t) for t in range(steps)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for dtheta, dx in zip(samples.delta_theta, samples.delta_x):
            # the norm of the recording's own row vector, as a 1-D norm computes it
            template = ("%s," + "".join(f"{v:.17g}," for v in dtheta) + "%.17g," * d
                        + f"{np.linalg.norm(dtheta):.17g}\r\n")
            cells[:, 1:] = dx
            fh.write((template * steps) % tuple(cells.ravel().tolist()))


def _recordings(path, head):
    """(n, T+1, dtheta rows) of (t, dtheta_*) rows forming whole recordings."""
    t, dtheta = head[:, 0], head[:, 1:]
    # T is the largest t; one outside the file cannot end a recording
    steps = int(t.max()) + 1 if 0 <= t.max() < len(t) else len(t)
    rows = np.arange(len(t))
    first = rows - rows % steps  # the first row of each row's recording
    bad = np.flatnonzero((t != rows % steps) | np.any(dtheta != dtheta[first], axis=1))
    n, rest = divmod(len(t), steps)
    if bad.size or rest:
        raise ConfigError(f"{path}: line {(bad[0] if bad.size else n * steps) + 2}: not "
                          f"a whole recording of t = 0..{steps - 1} with one dtheta")
    return n, steps, dtheta[::steps].copy()


def read_samples(path):
    """A sample CSV as a SampleSet. The file must hold whole recordings,
    rows t = 0..T in order repeating one dtheta; else ConfigError names the
    first bad line. The dtheta_norm column is not read back."""
    from .sensitivity import SampleSet

    with open(path, newline="") as fh:
        header = _header(fh)
        m = sum(1 for h in header if h.startswith("dtheta_") and h != "dtheta_norm")
        d = sum(1 for h in header if h.startswith("dx_"))
        start = fh.tell()
        # t and dtheta first, dx in a second pass: no table wider than the result
        head = _rows(fh, path, len(header), usecols=range(1 + m))
        if head is None:
            return SampleSet(delta_theta=np.empty((0, m)), delta_x=np.empty((0, 0, d)))
        n, steps, delta_theta = _recordings(path, head)
        del head
        fh.seek(start)
        dx = _rows(fh, path, len(header), usecols=range(1 + m, 1 + m + d))
    return SampleSet(delta_theta=delta_theta, delta_x=dx.reshape(n, steps, d))


def write_perturbations(nominal, deltas, path):
    """Absolute parameter vectors, one row per sample: sample_id, theta_*."""
    m = len(nominal)
    thetas = np.asarray(nominal) + np.reshape(deltas, (-1, m))
    block = np.column_stack([np.arange(len(thetas)), thetas])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["sample_id"] + [f"theta_{j+1}" for j in range(m)]) + "\r\n")
        _write_block(fh, _row_template(m, fmt="%.17g"), block)


def read_perturbations(path, nominal):
    """The perturbation of each row of a perturbation CSV from nominal. Every
    row must have the header's cells; else ConfigError names the first bad line."""
    with open(path, newline="") as fh:
        data = _rows(fh, path, len(_header(fh)))
    if data is None:
        return []
    return list(data[:, 1:] - np.asarray(nominal, dtype=float))


def write_metrics(row, per_t, path_summary, path_per_t):
    with open(path_summary, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["task", "mse_avg", "score_avg", "cos_avg", "n_timesteps"])
        w.writerow([row.label, f"{row.mse_avg:.10g}", f"{row.score_avg:.10g}",
                    f"{row.cos_avg:.10g}", str(row.n_timesteps)])
    with open(path_per_t, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "nmse", "score", "cos_mean", "n_test"])
        for r in per_t:
            w.writerow([str(r.t), f"{r.nmse:.10g}", f"{r.score:.10g}",
                        f"{r.cos_mean:.10g}", str(r.n_test)])
