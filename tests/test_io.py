import builtins
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trajsense import DynamicsMode, JointState, PolicySpec, Trajectory, rollout
from trajsense import io as tio
from trajsense.errors import ConfigError
from trajsense.sensitivity import SampleSet, build_samples
from trajsense.sim import START_POSE

import oracles


def sample_traj():
    pol = PolicySpec("pd_feedback", [0.4, 0.01],
                     {"x_star": np.array([0.3, 2.3, 1.8])})
    return rollout(pol, JointState(START_POSE, np.zeros(3)), 50, 0.01,
                   DynamicsMode("linear", damping=0.5))


def test_trajectory_round_trip(tmp_path):
    traj = sample_traj()
    path = str(tmp_path / "traj.csv")
    tio.write_trajectory(traj, path)
    back = tio.read_trajectory(path)
    # 9 significant digits on disk
    assert np.allclose(back.angles, traj.angles, rtol=1e-8, atol=1e-12)
    assert np.allclose(back.velocities, traj.velocities, rtol=1e-8, atol=1e-12)
    assert np.allclose(back.torques, traj.torques, rtol=1e-8, atol=1e-12)
    assert back.dt == traj.dt
    assert back.meta["policy_id"].startswith("pd_feedback")
    assert back.meta["temporal_shift"] == 0


def test_the_sidecar_carries_the_trajectorys_own_dt(tmp_path):
    # dt has one owner, the Trajectory: a stale meta["dt"] is not written
    traj = sample_traj()
    traj.meta["dt"] = 0.5
    path = str(tmp_path / "traj.csv")
    tio.write_trajectory(traj, path)
    assert "dt = 0.01\n" in Path(path + ".meta").read_text().splitlines(keepends=True)
    back = tio.read_trajectory(path)
    assert back.dt == 0.01 and "dt" not in back.meta
    assert "dt" not in sample_traj().meta


def test_read_trajectory_opens_the_csv_once(tmp_path, monkeypatch):
    # the reader used to open the CSV twice: once in binary to count the
    # cells of each line, once as text for loadtxt
    traj = sample_traj()
    path = str(tmp_path / "traj.csv")
    tio.write_trajectory(traj, path)
    opened, real = [], builtins.open
    monkeypatch.setattr(builtins, "open", lambda file, *a, **kw: (
        opened.append(file) or real(file, *a, **kw)))
    back = tio.read_trajectory(path)
    assert opened.count(path) == 1
    assert back.meta["path"] == path
    assert np.array_equal(back.torques, tio.read_trajectory(path).torques)


def test_trajectory_header_schema(tmp_path):
    traj = sample_traj()
    path = str(tmp_path / "traj.csv")
    tio.write_trajectory(traj, path)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,v1,v2,v3,u1,u2,u3"
    assert len(lines) == 1 + traj.n_steps + 1
    assert lines[-1].endswith(",,,")  # terminal state carries no torque


def test_read_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        tio.read_trajectory(str(path))


def test_samples_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    samples = SampleSet(delta_theta=rng.normal(size=(2, 2)),
                        delta_x=rng.normal(size=(2, 5, 3)))
    path = str(tmp_path / "samples.csv")
    tio.write_samples(samples, path)
    back = tio.read_samples(path)
    assert np.array_equal(back.delta_theta, samples.delta_theta)
    assert np.array_equal(back.delta_x, samples.delta_x)
    assert len(back) == len(samples) == 10


def test_perturbations_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    nominal = np.array([1.0, 0.01])
    deltas = [rng.normal(size=2) * 0.1 for _ in range(7)]
    path = str(tmp_path / "pert.csv")
    tio.write_perturbations(nominal, deltas, path)
    back = tio.read_perturbations(path, nominal)
    assert all(np.allclose(a, b, atol=1e-15) for a, b in zip(deltas, back))


# -- byte-identity with the row-wise csv writers --------------------------------

# -0.0, subnormal and tiny magnitudes, values that need all 17 digits, huge
# exponents, and plain integers
AWKWARD = np.array([-0.0, 0.0, 1e-300, -5e-324, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0,
                    np.pi, 1e300, -1.7976931348623157e308, 123456789.0, 1.0,
                    -1e-7, 2.5e-5, 7.0])


def awkward_traj(n_steps=40):
    rng = np.random.default_rng(5)
    vals = np.concatenate([AWKWARD, rng.normal(size=9 * (n_steps + 1))])
    pick = lambda k, shape: vals[(np.arange(np.prod(shape)) * 7 + k) % vals.size].reshape(shape)
    return Trajectory(0.01, pick(0, (n_steps + 1, 3)), pick(1, (n_steps + 1, 3)),
                      pick(2, (n_steps, 3)), {"policy_id": "x", "dt": 0.01})


def test_trajectory_writer_matches_rowwise_csv_bytes(tmp_path):
    for traj in (awkward_traj(), awkward_traj(n_steps=1), sample_traj()):
        new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
        tio.write_trajectory(traj, new)
        oracles.csv_write_trajectory(traj, ref)
        data = Path(new).read_bytes()
        assert data == Path(ref).read_bytes()
        assert data.endswith(b",,,\r\n")
        assert data.count(b"\r\n") == data.count(b"\n") == traj.n_steps + 2
        back = tio.read_trajectory(new)
        # parsing is exact: every cell reads back as float() of its text
        cells = [line.split(",") for line in data.decode().splitlines()[1:]]
        assert np.array_equal(back.angles, [[float(v) for v in c[1:4]] for c in cells])
        assert np.array_equal(back.velocities, [[float(v) for v in c[4:7]] for c in cells])
        assert np.array_equal(back.torques, [[float(v) for v in c[7:10]] for c in cells[:-1]])


def awkward_samples(n, steps, m, seed):
    """A SampleSet whose arrays start with the AWKWARD values, then random ones."""
    rng = np.random.default_rng(seed)
    fill = lambda size: np.concatenate([AWKWARD, rng.normal(size=size)])[:size]  # noqa: E731
    return SampleSet(delta_theta=fill(n * m).reshape(n, m),
                     delta_x=fill(n * steps * 3).reshape(n, steps, 3))


# the dtheta rows holding +-1e300 have an infinite norm, printed as inf by both
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_sample_writer_matches_rowwise_csv_bytes(tmp_path):
    rng = np.random.default_rng(3)
    big = SampleSet(delta_theta=rng.normal(size=(4, 2)),
                    delta_x=rng.normal(size=(4, 1501, 3)) * 1e-6)
    # dtheta rows of -0.0, 17-digit values and norms that overflow to inf: the
    # cells each recording's row template carries, for m = 1, 2 and 3
    edge = np.array([[-0.0, 0.1 + 0.2, 1e300], [1.0 / 3.0, -0.0, -2.0 / 3.0],
                     [np.pi, -1.7976931348623157e308, 1e-300]])
    edge_dx = np.random.default_rng(4).normal(size=(3, 6, 3))
    sets = [awkward_samples(10, 5, 2, seed=1), awkward_samples(3, 17, 2, seed=2),
            awkward_samples(10, 5, 1, seed=7), awkward_samples(6, 9, 3, seed=8),
            SampleSet(np.array([[3.0, 4.0]]), np.array([[[-0.0, 0.0, 1e-300]]])),
            SampleSet(edge, edge_dx), SampleSet(edge[:, :1], edge_dx),
            SampleSet(edge[:, 1:2], edge_dx), SampleSet(edge[:, 1:], edge_dx),
            big]  # 6004 rows
    new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
    for samples in sets:
        tio.write_samples(samples, new)
        oracles.csv_write_samples(oracles.object_samples(samples.delta_theta,
                                                         samples.delta_x), ref)
        data = Path(new).read_bytes()
        assert data == Path(ref).read_bytes()
        if samples.delta_theta is edge:
            assert b",-0," in data and b",0.30000000000000004," in data
            assert data.count(b",inf\r\n") == 2 * 6
        back = tio.read_samples(new)
        assert np.array_equal(back.delta_theta, samples.delta_theta)
        assert np.array_equal(back.delta_x, samples.delta_x)
        assert np.array_equal(np.signbit(back.delta_x), np.signbit(samples.delta_x))


def _sample_lines(path):
    with open(path, newline="") as fh:
        return fh.read().split("\r\n")


@pytest.mark.parametrize("kind, line", [
    ("short last recording", 10),
    ("t out of order", 4),
    ("dtheta changes inside a recording", 8),
])
def test_read_samples_rejects_partial_recordings(tmp_path, kind, line):
    path = str(tmp_path / "samples.csv")
    tio.write_samples(awkward_samples(3, 4, 2, seed=4), path)
    lines = _sample_lines(path)  # header, 3 recordings x t = 0..3, trailing ""
    if kind == "short last recording":
        del lines[11:13]
    elif kind == "t out of order":
        lines[3], lines[4] = lines[4], lines[3]
    else:
        cells = lines[7].split(",")
        cells[2] = "0.5"
        lines[7] = ",".join(cells)
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
    with pytest.raises(ConfigError, match=f"samples.csv: line {line}:"):
        tio.read_samples(path)


@pytest.mark.parametrize("block", [1, 5, 64, 1 << 20])
def test_every_sample_line_has_its_cells_counted_across_blocks(tmp_path, block):
    # loadtxt with usecols read a later row with an extra cell, or without its
    # last one, as if it were whole
    path = str(tmp_path / "samples.csv")
    tio.write_samples(awkward_samples(3, 4, 2, seed=4), path)
    lines = _sample_lines(path)  # header, 3 recordings x t = 0..3, trailing ""
    width = lines[0].count(",") + 1
    cases = [(None, lines), (None, lines[:-1])]  # whole, and without the last line end
    for number in (2, 7, 13):
        for edit in (lambda cells: cells + ["0"], lambda cells: cells[:-1]):
            edited = list(lines)
            edited[number - 1] = ",".join(edit(edited[number - 1].split(",")))
            cells = edited[number - 1].count(",") + 1
            cases += [((number, cells), edited), ((number, cells), edited[:-1])]
    for bad, edited in cases:
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(edited))
        if bad is None:
            tio._check_lines(path, width, tio._blocks(path, block))
            continue
        with pytest.raises(ConfigError, match=rf"samples.csv: line {bad[0]}: wrong number "
                                              rf"of cells \({bad[1]}, the header has {width}\)"):
            tio._check_lines(path, width, tio._blocks(path, block))


def test_read_samples_of_an_empty_file_is_empty(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("t,dtheta_1,dtheta_2,dx_1,dx_2,dx_3,dtheta_norm\r\n")
    back = tio.read_samples(str(path))
    assert len(back) == 0 and not back
    assert back.delta_theta.shape == (0, 2)
    with pytest.raises(ConfigError):
        tio.write_samples(back, str(tmp_path / "again.csv"))


def test_sample_build_write_read_stays_near_the_dense_size(tmp_path):
    # 100 recordings x 1501 timesteps x 3 angles: 24 dense bytes per
    # (recording, timestep) pair, where one object per pair took about 425
    rng = np.random.default_rng(6)
    n, steps = 100, 1501
    source = Trajectory(0.01, rng.normal(size=(steps, 3)), np.zeros((steps, 3)),
                        np.zeros((steps - 1, 3)), {})
    pairs = [(rng.normal(size=2), Trajectory(0.01, rng.normal(size=(steps, 3)),
                                             np.zeros((steps, 3)), np.zeros((steps - 1, 3)),
                                             {}))
             for _ in range(n)]
    dense = n * steps * 3 * 8 + n * 2 * 8
    path = str(tmp_path / "samples.csv")
    tracemalloc.start()
    try:
        samples = build_samples(source, pairs)
        tio.write_samples(samples, path)
        back = tio.read_samples(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.delta_x, samples.delta_x)
    assert peak <= 4 * dense, f"peak {peak / 1e6:.1f} MB, dense {dense / 1e6:.1f} MB"


def test_perturbation_writer_matches_rowwise_csv_bytes(tmp_path):
    nominal = np.array([1.0, 0.01])
    deltas = [np.array([a, b]) for a, b in zip(AWKWARD, AWKWARD[::-1])]
    deltas.append(np.array([0.1, 0.2]))
    new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
    tio.write_perturbations(nominal, deltas, new)
    oracles.csv_write_perturbations(nominal, deltas, ref)
    assert Path(new).read_bytes() == Path(ref).read_bytes()
    back = tio.read_perturbations(new, nominal)
    assert len(back) == len(deltas)
    for d, b in zip(deltas, back):
        assert np.array_equal(b, np.array([float(f"{v:.17g}") for v in nominal + d]) - nominal)
    tio.write_perturbations(nominal, [], new)
    oracles.csv_write_perturbations(nominal, [], ref)
    assert Path(new).read_bytes() == Path(ref).read_bytes()
    assert tio.read_perturbations(new, nominal).shape == (0, 2)


def test_read_rejects_headerless_and_empty_trajectory(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigError):
        tio.read_trajectory(str(path))
    path.write_text("t,x1,x2,x3,v1,v2,v3,u1,u2,u3\r\n")
    with pytest.raises(ConfigError):
        tio.read_trajectory(str(path))
