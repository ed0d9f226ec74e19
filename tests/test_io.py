import numpy as np
import pytest

from trajsense import DynamicsMode, JointState, PolicySpec, Trajectory, rollout
from trajsense import io as tio
from trajsense.errors import ConfigError
from trajsense.sensitivity import DerivativeSample
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


def test_trajectory_header_schema(tmp_path):
    traj = sample_traj()
    path = str(tmp_path / "traj.csv")
    tio.write_trajectory(traj, path)
    lines = open(path).read().splitlines()
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
    samples = [DerivativeSample(t=t, delta_theta=rng.normal(size=2),
                                delta_x=rng.normal(size=3))
               for t in range(5)]
    path = str(tmp_path / "samples.csv")
    tio.write_samples(samples, path)
    back = tio.read_samples(path)
    for a, b in zip(samples, back):
        assert a.t == b.t
        assert np.array_equal(a.delta_theta, b.delta_theta)
        assert np.array_equal(a.delta_x, b.delta_x)
        assert a.magnitude == b.magnitude


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
        data = open(new, "rb").read()
        assert data == open(ref, "rb").read()
        assert data.endswith(b",,,\r\n")
        assert data.count(b"\r\n") == data.count(b"\n") == traj.n_steps + 2
        back = tio.read_trajectory(new)
        # parsing is exact: every cell reads back as float() of its text
        cells = [line.split(",") for line in data.decode().splitlines()[1:]]
        assert np.array_equal(back.angles, [[float(v) for v in c[1:4]] for c in cells])
        assert np.array_equal(back.velocities, [[float(v) for v in c[4:7]] for c in cells])
        assert np.array_equal(back.torques, [[float(v) for v in c[7:10]] for c in cells[:-1]])


def test_sample_writer_matches_rowwise_csv_bytes(tmp_path):
    rng = np.random.default_rng(3)
    samples = [DerivativeSample(t=t, delta_theta=AWKWARD[[t % 15, (t + 4) % 15]],
                                delta_x=np.r_[AWKWARD[(t + 9) % 15], rng.normal(size=2)],
                                magnitude=1.0 / (t + 3))
               for t in range(50)]
    samples.append(DerivativeSample(t=7, delta_theta=[3.0, 4.0], delta_x=[-0.0, 0.0, 1e-300]))
    # more rows than one formatting block
    samples += [DerivativeSample(t=t % 1501, delta_theta=rng.normal(size=2),
                                 delta_x=rng.normal(size=3) * 1e-6) for t in range(5000)]
    new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
    tio.write_samples(samples, new)
    oracles.csv_write_samples(samples, ref)
    assert open(new, "rb").read() == open(ref, "rb").read()
    back = tio.read_samples(new)
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert a.t == b.t and type(b.t) is int
        assert np.array_equal(a.delta_theta, b.delta_theta)
        assert np.array_equal(a.delta_x, b.delta_x)
        assert a.magnitude == b.magnitude


def test_perturbation_writer_matches_rowwise_csv_bytes(tmp_path):
    nominal = np.array([1.0, 0.01])
    deltas = [np.array([a, b]) for a, b in zip(AWKWARD, AWKWARD[::-1])]
    deltas.append(np.array([0.1, 0.2]))
    new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
    tio.write_perturbations(nominal, deltas, new)
    oracles.csv_write_perturbations(nominal, deltas, ref)
    assert open(new, "rb").read() == open(ref, "rb").read()
    back = tio.read_perturbations(new, nominal)
    assert len(back) == len(deltas)
    for d, b in zip(deltas, back):
        assert np.array_equal(b, np.array([float(f"{v:.17g}") for v in nominal + d]) - nominal)
    tio.write_perturbations(nominal, [], new)
    oracles.csv_write_perturbations(nominal, [], ref)
    assert open(new, "rb").read() == open(ref, "rb").read()
    assert tio.read_perturbations(new, nominal) == []


def test_read_rejects_headerless_and_empty_trajectory(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigError):
        tio.read_trajectory(str(path))
    path.write_text("t,x1,x2,x3,v1,v2,v3,u1,u2,u3\r\n")
    with pytest.raises(ConfigError):
        tio.read_trajectory(str(path))
