"""Flat-file persistence: trajectory CSVs with meta sidecars, sample and
perturbation CSVs, and the metrics and plot tables (write_table).

Trajectory CSV schema: header t,x1,x2,x3,v1,v2,v3,u1,u2,u3, one row per
recorded step, floats printed with 9 significant digits. The final row is the
terminal state and carries empty torque cells. The sidecar (same path plus
'.meta') holds policy_id, seed, dt, mode, temporal_shift, spatial_std as
key = value lines.

Lines end with \r\n, but in the pipeline's summary, histogram and plot
tables (\n). A trajectory is written as whole numpy blocks, a sample CSV one
recording at a time, and every other table by write_table: a header line,
then one % template per row. Every reader first counts the cells of each
line after the header in one pass over the bytes (_check_lines), then reads
the rows as whole numpy blocks. A row with the wrong number of cells, or a
cell that is not a number, is a ConfigError naming the file and its line.
"""

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


def _write_block(fh, template, rows):
    """Write rows, a 2-D float block or a list of tuples, through one %
    template per row. A `%d` cell of a block holds an integer stored as a
    float; `%d` prints it as `str(int)` would."""
    cells = rows.ravel().tolist() if isinstance(rows, np.ndarray) else \
        [cell for row in rows for cell in row]
    fh.write((template * len(rows)) % tuple(cells))


def write_table(path, header, template, rows, end="\n"):
    """A CSV table: the header line (comma-separated names) and end, then
    the rows through template (_write_block), which carries their line end."""
    with open(path, "w", newline="") as fh:
        fh.write(header + end)
        _write_block(fh, template, rows)


def write_trajectory(traj, path):
    """Write traj to path and its sidecar; returns the paths of both."""
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
        fh.write(f"dt = {_fmt(traj.dt)}\n")
        fh.write(f"mode = {meta.get('mode', '')}\n")
        fh.write(f"temporal_shift = {meta.get('temporal_shift', 0)}\n")
        fh.write(f"spatial_std = {','.join(_fmt(s) for s in spatial)}\n")
    return [path, path + ".meta"]


def _header(fh):
    return fh.readline().rstrip("\r\n").split(",")


# np.loadtxt's ValueError for a cell it cannot convert says where: "at row R,
# column C" with R counted from 0. _check_lines has held every row to the
# header's cell count before, so no other row error reaches it
_LOADTXT_CELL = re.compile(r"(.*?) at row (\d+), column (\d+)")


def _loadtxt(source, path, first_line, **kw):
    """np.loadtxt of comma-separated rows that start at line first_line of
    path; a cell it cannot read is a ConfigError naming the file and the line."""
    try:
        return np.loadtxt(source, delimiter=",", ndmin=2, **kw)
    except ValueError as exc:
        found = _LOADTXT_CELL.match(str(exc))
        if found is None:
            raise ConfigError(f"{path}: {exc}") from exc
        what, row, column = found.groups()
        raise ConfigError(f"{path}: line {first_line + int(row)}, column {column}: "
                          f"{what}") from exc


def _check_cells(path, number, cells, width):
    """A ConfigError unless line number `number` of path, which has `cells`
    cells, has width cells."""
    if cells != width:
        raise ConfigError(f"{path}: line {number}: wrong number of cells "
                          f"({cells}, the header has {width})")


def _blocks(path, size=1 << 16):
    """The bytes of path after its header line, in blocks of size bytes."""
    with open(path, "rb") as fh:
        fh.readline()
        yield from iter(lambda: fh.read(size), b"")


def _check_lines(path, width, blocks):
    """The number of lines in blocks, the bytes of path after its header (a
    trajectory's one buffer, or _blocks), each checked by _check_cells, which
    raises for the first bad one. No line is decoded."""
    number, commas = 2, 0  # the open line, its commas so far
    buf = np.empty(0, np.uint8)
    for block in blocks:
        buf = np.frombuffer(block, np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        at = np.flatnonzero(buf == ord(","))
        per_line = np.diff(at.searchsorted(ends), prepend=-commas)
        bad = np.flatnonzero(per_line != width - 1)
        if bad.size:
            _check_cells(path, number + bad[0], per_line[bad[0]] + 1, width)
        number += ends.size
        commas = at.size - at.searchsorted(ends[-1]) if ends.size else commas + at.size
    if buf.size and buf[-1] != ord("\n"):  # a last line without its line end
        _check_cells(path, number, commas + 1, width)
        number += 1
    return number - 2


# the numeric keys of a trajectory's .meta sidecar and how each is read
_META_NUMBERS = {"dt": float, "seed": int, "temporal_shift": int,
                 "spatial_std": lambda v: tuple(float(s) for s in v.split(","))}


def read_trajectory(path):
    """A trajectory CSV and its sidecar, named by path in its meta["path"].
    Every row must have the header's cells; else ConfigError names the first
    bad line; a missing file is a ConfigError naming it. The file is read
    once, and its text decoded once."""
    if not os.path.isfile(path):
        raise ConfigError(f"trajectory file not found: {path}")
    with open(path, "rb") as fh:
        buf = fh.read()
    lines = buf.decode().splitlines()
    if lines[:1] != [",".join(TRAJ_HEADER)]:
        raise ConfigError(f"{path}: not a trajectory CSV")
    n = _check_lines(path, len(TRAJ_HEADER),
                     [memoryview(buf)[buf.find(b"\n") + 1 or len(buf):]])
    if n < 2:
        raise ConfigError(f"{path}: trajectory CSV has no step (fewer than two rows)")
    angles = np.empty((n, 3))
    velocities = np.empty((n, 3))
    # every row but the terminal one carries torques
    body = _loadtxt(lines[1:-1], path, 2)
    angles[:-1], velocities[:-1] = body[:, 1:4], body[:, 4:7]
    torques = np.ascontiguousarray(body[:, 7:10])
    last = _loadtxt(lines[-1:], path, n + 1, usecols=range(1, 7))[0]
    angles[-1], velocities[-1] = last[:3], last[3:]
    meta = {}
    meta_path = path + ".meta"
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            for line in fh:
                if "=" not in line:
                    continue
                key, val = (s.strip() for s in line.split("=", 1))
                meta[key] = val
        for key, parse in _META_NUMBERS.items():
            if key in meta:
                try:
                    meta[key] = parse(meta[key])
                except ValueError as exc:
                    raise ConfigError(f"{meta_path}: {key} = {meta[key]!r} is not a "
                                      "number") from exc
        meta.setdefault("seed", 0)
        meta.setdefault("temporal_shift", 0)
    dt = meta.pop("dt", None)  # the Trajectory's own, kept out of meta
    if dt is None:
        raise ConfigError(f"{path}: missing dt in meta sidecar")
    if not 0 < dt < np.inf:  # NaN fails too
        raise ConfigError(f"{meta_path}: dt = {dt!r} is not a positive finite number")
    meta["path"] = path
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
    rows t = 0..T in order repeating one dtheta, each row with the header's
    cells; else ConfigError names the first bad line. The dtheta_norm column
    is not read back."""
    from .sensitivity import SampleSet

    with open(path, newline="") as fh:
        header = _header(fh)
        m = sum(1 for h in header if h.startswith("dtheta_") and h != "dtheta_norm")
        d = sum(1 for h in header if h.startswith("dx_"))
        if not _check_lines(path, len(header), _blocks(path)):
            return SampleSet(delta_theta=np.empty((0, m)), delta_x=np.empty((0, 0, d)))
        start = fh.tell()
        # t and dtheta first, dx in a second pass: no table wider than the result
        head = _loadtxt(fh, path, 2, usecols=range(1 + m))
        n, steps, delta_theta = _recordings(path, head)
        del head
        fh.seek(start)
        dx = _loadtxt(fh, path, 2, usecols=range(1 + m, 1 + m + d))
    return SampleSet(delta_theta=delta_theta, delta_x=dx.reshape(n, steps, d))


def read_columns(path, names):
    """The columns called names of a write_table table, as one (rows,
    len(names)) float array; the other columns are not read. A header without
    one of names, a row without the header's cells or a cell that is not a
    number is a ConfigError naming the file (and the line)."""
    with open(path, newline="") as fh:
        header = _header(fh)
        missing = [name for name in names if name not in header]
        if missing:
            raise ConfigError(f"{path}: no column {missing[0]!r} in the header")
        if not _check_lines(path, len(header), _blocks(path)):
            return np.empty((0, len(names)))
        # a text cell, such as a label, is written as it is: no comment character
        return _loadtxt(fh, path, 2, usecols=[header.index(name) for name in names],
                        comments=None)


def write_perturbations(nominal, deltas, path):
    """Absolute parameter vectors, one row per sample: sample_id, theta_*."""
    m = len(nominal)
    thetas = np.asarray(nominal) + np.reshape(deltas, (-1, m))
    write_table(path, ",".join(["sample_id"] + [f"theta_{j+1}" for j in range(m)]),
                _row_template(m, fmt="%.17g"),
                np.column_stack([np.arange(len(thetas)), thetas]), end="\r\n")


def read_perturbations(path, nominal):
    """The perturbation of each row of a perturbation CSV from nominal, as
    one (N, m) array. The header must have one theta column per entry of
    nominal, and every row the header's cells; else ConfigError names the
    file (and the first bad line)."""
    nominal = np.asarray(nominal, dtype=float)
    with open(path, newline="") as fh:
        width = len(_header(fh))
        if width != 1 + nominal.size:
            raise ConfigError(f"{path}: {width - 1} theta columns, the policy has "
                              f"{nominal.size} parameters")
        if not _check_lines(path, width, _blocks(path)):
            return np.empty((0, nominal.size))
        data = _loadtxt(fh, path, 2)
    return data[:, 1:] - nominal
