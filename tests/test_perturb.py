import numpy as np
import pytest

from trajsense.errors import ConfigError
from trajsense.perturb import (
    DirectionBasis,
    basis_directions,
    sample_gaussian,
    sample_uniform,
)

from oracles import former_sample_gaussian, former_sample_uniform

NOMINAL = np.array([1e-5, 1e-4, -1e-5, -0.28, -0.15, -0.08])

SUPPORTED_LAMBDAS = (1, 5, 10, 50, 100, 500, 1000, 5000)


def gaussian_plan(lam, count=100, seed=0):
    return dict(nominal=NOMINAL, count=count, rate=lam, seed=seed)


def test_gaussian_supported_rate_sweep():
    for lam in SUPPORTED_LAMBDAS:
        out = sample_gaussian(**gaussian_plan(lam, count=5))
        assert len(out) == 5
        assert all(d.shape == NOMINAL.shape for d in out)


def test_gaussian_deterministic_under_seed():
    a = sample_gaussian(**gaussian_plan(100, count=50, seed=7))
    b = sample_gaussian(**gaussian_plan(100, count=50, seed=7))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = sample_gaussian(**gaussian_plan(100, count=50, seed=8))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_gaussian_vanishes_as_rate_grows():
    # mean scale is 1/lambda, so at lambda = 1e9 every draw is negligible
    out = sample_gaussian(**gaussian_plan(1e9, count=1000, seed=3))
    norm = np.linalg.norm(NOMINAL)
    assert max(np.max(np.abs(d)) for d in out) < 1e-6 * norm


def test_gaussian_scale_statistics():
    # per-draw scale e*||theta|| with e ~ Exp(lambda): mean |component| is
    # (1/lambda)*||theta||*sqrt(2/pi) and the std is sqrt(2)/lambda*||theta||
    lam = 10.0
    draws = np.stack(sample_gaussian(**gaussian_plan(lam, count=10_000, seed=5)))
    norm = np.linalg.norm(NOMINAL)
    assert np.mean(np.abs(draws)) == pytest.approx(norm / lam * np.sqrt(2 / np.pi), rel=0.10)
    assert np.std(draws) == pytest.approx(np.sqrt(2.0) / lam * norm, rel=0.10)


def test_gaussian_rejects_bad_rate():
    with pytest.raises(ConfigError):
        sample_gaussian(**gaussian_plan(0.0, count=5))
    with pytest.raises(ConfigError):
        sample_gaussian(**gaussian_plan(float("nan"), count=5))
    with pytest.raises(ConfigError):
        sample_gaussian(**gaussian_plan(1.0, count=0))


def uniform_plan(ranges, nominal, count=100, seed=0):
    return dict(nominal=nominal, ranges=ranges, count=count, seed=seed)


def test_uniform_respects_declared_ranges():
    # the feedback-gain setup: kp ~ U(-0.5, 1.5) around nominal 1, kd frozen
    plan = uniform_plan(((-0.5, 1.5), None), np.array([1.0, 0.01]), count=500)
    for d in sample_uniform(**plan):
        assert -1.5 <= d[0] <= 0.5
        assert d[1] == 0.0


def test_uniform_planning_range():
    plan = uniform_plan(((0.2, 0.6), None), np.array([0.4, 0.01]), count=200, seed=1)
    draws = np.stack(sample_uniform(**plan))
    assert np.all(draws[:, 0] >= -0.2) and np.all(draws[:, 0] <= 0.2)


def test_uniform_extremes_approach_endpoints():
    plan = uniform_plan(((0.0, 1.0),), np.array([0.0]), count=5000, seed=2)
    draws = np.stack(sample_uniform(**plan))[:, 0]
    assert draws.min() < 0.01 and draws.max() > 0.99


def test_uniform_rejects_empty_interval():
    with pytest.raises(ConfigError):
        sample_uniform(**uniform_plan(((0.5, 0.5), None), np.array([1.0, 0.01])))
    with pytest.raises(ConfigError):
        sample_uniform(**uniform_plan(((0.5,  0.2), None), np.array([1.0, 0.01])))
    with pytest.raises(ConfigError):
        sample_uniform(**uniform_plan(((0.0, 1.0), None), np.array([1.0, 0.01]), count=0))


def test_uniform_needs_range_per_parameter():
    with pytest.raises(ConfigError):
        sample_uniform(**uniform_plan(((0.0, 1.0),), np.array([1.0, 0.01])))


def test_uniform_deterministic_under_seed():
    plan = uniform_plan(((-0.5, 1.5), None), np.array([1.0, 0.01]), seed=11)
    a = sample_uniform(**plan)
    b = sample_uniform(**plan)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("ranges, nominal", [
    (((-0.5, 1.5), None), [1.0, 0.01]),
    ((None, (0.1, 0.3), None, (-2.0, 2.0), (0.0, 1.0), None), NOMINAL),
    ((None, None), [1.0, 2.0]),
], ids=["first-live", "mixed", "all-frozen"])
def test_uniform_stack_equals_the_former_scalar_draws(ranges, nominal):
    for seed in (0, 11, 42):
        plan = uniform_plan(ranges, np.array(nominal), count=37, seed=seed)
        draws = sample_uniform(**plan)
        assert draws.shape == (37, len(nominal))
        assert np.array_equal(draws, np.stack(former_sample_uniform(**plan)))


def test_gaussian_stack_equals_the_former_draws():
    for lam in (1, 100, 5000):
        plan = gaussian_plan(lam, count=40, seed=3)
        assert np.array_equal(sample_gaussian(**plan), np.stack(former_sample_gaussian(**plan)))


def test_basis_canonical_axes():
    basis = basis_directions(2, scale=0.1)
    assert np.array_equal(basis.Lambda, np.eye(2))
    assert np.array_equal(basis.steps, 0.1 * np.eye(2))


def test_basis_orthonormality_enforced():
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    DirectionBasis(Lambda=q, steps=0.01 * q)  # random orthonormal passes
    with pytest.raises(ConfigError):
        DirectionBasis(Lambda=np.array([[1.0, 1.0], [0.0, 1.0]]), steps=np.eye(2))


def test_basis_expansion_reconstructs_random_vectors():
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    basis = DirectionBasis(Lambda=q, steps=0.01 * q)
    for _ in range(100):
        delta = rng.normal(size=6)
        coords = basis.Lambda.T @ delta
        assert np.allclose(basis.Lambda @ coords, delta, atol=1e-10)


def test_basis_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        basis_directions(0, scale=0.1)
    with pytest.raises(ConfigError):
        basis_directions(3, scale=0.0)
