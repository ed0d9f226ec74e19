import numpy as np
import pytest

from trajsense import (
    DynamicsMode,
    JointState,
    PolicySpec,
    check_lemma_bound,
    inject_spatial_noise,
    rollout,
    voxel_center,
    voxelize_trajectory,
)
from trajsense.errors import ConfigError


def test_center_is_fixed_point():
    g = 0.25
    x = np.array([0.25, 0.75, 1.25])  # exact cell centers for width 0.5
    assert np.array_equal(voxel_center(x, g), x)


def test_center_worked_example():
    # x = 0.039 with gamma 0.02: cell k=0 covers [0, 0.04), center 0.02
    g = 0.02
    c = voxel_center(np.array([0.039, 0.039, 0.039]), g)
    assert np.allclose(c, 0.02)
    assert np.all(np.abs(0.039 - c) <= 0.02)


def test_center_within_gamma_for_random_points():
    rng = np.random.default_rng(0)
    for gamma in (0.01, 0.04, 0.16, 0.2):
        pts = rng.uniform(-10, 10, size=(500, 3))
        centers = voxel_center(pts, gamma)
        assert np.all(np.abs(pts - centers) <= gamma + 1e-12)


def test_center_idempotent():
    rng = np.random.default_rng(1)
    g = 0.04
    pts = rng.uniform(-5, 5, size=(200, 3))
    once = voxel_center(pts, g)
    assert np.array_equal(voxel_center(once, g), once)


def test_same_cell_same_center_far_points_differ():
    g = 0.1
    a, b = np.full(3, 0.01), np.full(3, 0.19)  # same cell [0, 0.2)
    assert np.array_equal(voxel_center(a, g), voxel_center(b, g))
    c = np.full(3, 0.45)  # more than one width away from a
    assert np.all(voxel_center(c, g) != voxel_center(a, g))


def test_gamma_must_be_positive():
    with pytest.raises(ConfigError):
        voxel_center(np.zeros(3), 0.0)
    with pytest.raises(ConfigError):
        voxel_center(np.zeros(3), -0.1)
    # a NaN or infinite gamma snapped every angle to NaN or inf
    for gamma in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            voxel_center(np.zeros(3), gamma)


def ramp_rollout():
    pol = PolicySpec("linear_openloop", [1e-5, 1e-4, -1e-5, -0.28, -0.15, -0.08])
    x0 = JointState([np.pi / 2, np.pi / 2, np.pi], np.zeros(3))
    return rollout(pol, x0, 300, 0.01, DynamicsMode("linear", damping=0.3))


def test_voxelize_vanishing_gamma_is_identity():
    traj = ramp_rollout()
    out = voxelize_trajectory(traj, 1e-9)
    assert np.allclose(out.angles, traj.angles, atol=1e-8)


def test_voxelize_idempotent_and_leaves_velocities():
    traj = ramp_rollout()
    g = 0.04
    once = voxelize_trajectory(traj, g)
    twice = voxelize_trajectory(once, g)
    assert np.array_equal(once.angles, twice.angles)
    assert np.array_equal(once.velocities, traj.velocities)


def test_voxelize_shares_velocities_and_torques_and_leaves_its_input():
    # velocities and torques were copied on every call, though its callers
    # read only the angles; sharing them must not write the input through
    traj = ramp_rollout()
    angles, meta = traj.angles.copy(), dict(traj.meta)
    out = voxelize_trajectory(traj, 0.04)
    assert out.velocities is traj.velocities and out.torques is traj.torques
    out.meta["path"] = "voxelized.csv"
    assert np.array_equal(traj.angles, angles) and traj.meta == meta
    assert not np.shares_memory(out.angles, traj.angles)


def test_larger_voxels_improve_noisy_overlap():
    traj = ramp_rollout()
    run1 = inject_spatial_noise(traj, np.full(3, 0.01), seed=4)
    run2 = inject_spatial_noise(traj, np.full(3, 0.01), seed=5)
    gaps = {}
    for gamma in (0.01, 0.16):
        a = voxelize_trajectory(run1, gamma)
        b = voxelize_trajectory(run2, gamma)
        gaps[gamma] = np.abs(a.angles - b.angles).mean()
    assert gaps[0.16] < gaps[0.01]


def test_lemma_bound_zero_noise_zero_error():
    # gamma -> 0 and no noise: quantized differences equal clean differences
    rng = np.random.default_rng(2)
    g = 1e-12
    pairs = []
    for _ in range(50):
        x1, x2 = rng.uniform(0, 3, size=(2, 3))
        vox_diff = voxel_center(x2, g) - voxel_center(x1, g)
        pairs.append((x2 - x1, vox_diff))
    report = check_lemma_bound(pairs, gamma=1e-12, raw_errors=np.zeros(50))
    assert report.mean_voxel_error <= 1e-9
    assert report.satisfied


@pytest.mark.parametrize("gamma", [0.01, 0.04, 0.16, 0.2])
def test_lemma_bound_monte_carlo(gamma):
    rng = np.random.default_rng(3)
    sigma = 0.01
    pairs, raw = [], []
    for _ in range(1000):
        x1, x2 = rng.uniform(0, 3, size=(2, 3))
        e1, e2 = rng.normal(0, sigma, size=(2, 3))
        clean_diff = x2 - x1
        vox_diff = voxel_center(x2 + e2, gamma) - voxel_center(x1 + e1, gamma)
        pairs.append((clean_diff, vox_diff))
        raw.append(np.max(np.abs(e2 - e1)))
    report = check_lemma_bound(pairs, gamma=gamma, raw_errors=raw)
    assert report.satisfied
    assert report.bound == pytest.approx(2 * gamma + np.mean(raw))


def test_quantization_only_error_capped_at_two_gamma():
    # adversarial placement: any two points inside two cells quantize with
    # pairwise-difference error at most 2*gamma
    gamma = 0.05
    offsets = np.linspace(-gamma + 1e-9, gamma - 1e-9, 21)
    worst = 0.0
    for o1 in offsets:
        for o2 in offsets:
            x1 = np.full(3, 0.05 + o1)   # inside cell centered at 0.05
            x2 = np.full(3, 0.25 + o2)   # inside cell centered at 0.25
            vox_diff = voxel_center(x2, gamma) - voxel_center(x1, gamma)
            err = np.max(np.abs(vox_diff - (x2 - x1)))
            worst = max(worst, err)
    assert worst <= 2 * gamma + 1e-12
    assert worst > 1.5 * gamma  # the bound is nearly attained


def test_lemma_bound_rejects_empty_input():
    with pytest.raises(ConfigError):
        check_lemma_bound([], gamma=0.01, raw_errors=[])
