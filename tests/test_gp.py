import numpy as np
import pytest
from scipy.stats import multivariate_normal

from trajsense.errors import FitError, InsufficientDataError
from trajsense.gp import JITTER_START, ExactGP, GPConfig, _cholesky_with_jitter, _sq_dists_per_dim


def linear_data(n=40, m=2, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, m))
    w = np.array([0.7, -1.3])[:m]
    y = X @ w + noise * rng.normal(size=n)
    return X, y


def test_interpolates_noiseless_training_data():
    X, y = linear_data()
    gp = ExactGP().fit(X, y, seed=0)
    pred, _ = gp.predict(X)
    ss_res = np.sum((y - pred) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    assert 1 - ss_res / ss_tot >= 0.99


def test_generalizes_within_three_sigma():
    X, y = linear_data(n=60, seed=1)
    gp = ExactGP().fit(X, y, seed=1)
    rng = np.random.default_rng(2)
    Xq = rng.uniform(-0.9, 0.9, size=(30, 2))
    truth = Xq @ np.array([0.7, -1.3])
    mean, std = gp.predict(Xq)
    assert np.all(np.abs(mean - truth) <= 3 * std + 1e-9)


def test_reverts_to_prior_far_from_data():
    X, y = linear_data(n=30, seed=3)
    gp = ExactGP().fit(X, y, seed=3)
    far = 10 * np.max(np.linalg.norm(X, axis=1)) * np.ones((1, 2))
    mean, std = gp.predict(far)
    assert abs(mean[0]) < 0.05 * np.abs(y).max()
    assert std[0] ** 2 >= 0.5 * gp.signal_var


def test_variance_never_below_noise_floor():
    X, y = linear_data(n=30, noise=0.1, seed=4)
    gp = ExactGP().fit(X, y, seed=4)
    _, std = gp.predict(X)
    assert np.all(std ** 2 >= gp.noise_var - 1e-15)


def test_deterministic_under_seed():
    X, y = linear_data(n=30, noise=0.05, seed=5)
    g1 = ExactGP(GPConfig(n_restarts=3)).fit(X, y, seed=9)
    g2 = ExactGP(GPConfig(n_restarts=3)).fit(X, y, seed=9)
    assert np.array_equal(g1.lengthscales, g2.lengthscales)
    assert g1.signal_var == g2.signal_var


def test_rebuilt_from_state_predicts_exactly_as_fitted():
    X, y = linear_data(n=40, noise=0.01, seed=6)
    Xq = np.random.default_rng(7).uniform(-1.2, 1.2, size=(50, 2))
    gp = ExactGP().fit(X, y, seed=6)
    X_saved, _, _ = gp.state()
    assert np.array_equal(X_saved, X)
    for a, b in zip(gp.predict(Xq), ExactGP.from_state(*gp.state()).predict(Xq)):
        assert np.array_equal(a, b)


def test_fixed_hyperparameters_respected():
    X, y = linear_data(n=25, seed=6)
    cfg = GPConfig(optimize=False, lengthscale=2.0, signal_var=1.5, noise_var=1e-4)
    gp = ExactGP(cfg).fit(X, y)
    assert np.allclose(gp.lengthscales, 2.0)
    assert gp.signal_var == pytest.approx(1.5)
    assert gp.noise_var == pytest.approx(1e-4)


def test_degenerate_targets_predict_zero():
    X = np.random.default_rng(7).uniform(-1, 1, size=(10, 2))
    gp = ExactGP().fit(X, np.zeros(10))
    mean, _ = gp.predict(X)
    assert np.allclose(mean, 0.0, atol=1e-8)


def test_insufficient_data_rejected():
    with pytest.raises(InsufficientDataError):
        ExactGP().fit(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(InsufficientDataError):
        ExactGP().predict(np.zeros((1, 2)))


def test_jitter_escalation_and_failure():
    # one escalation step rescues a barely indefinite matrix
    K = np.eye(3)
    K[0, 0] = -1e-9
    L, jitter = _cholesky_with_jitter(K, scale=1.0)
    assert jitter >= 1e-8
    # hopeless matrices fail after the ladder is exhausted
    with pytest.raises(FitError):
        _cholesky_with_jitter(np.full((3, 3), -1.0), scale=1.0)


def test_constant_input_column_tolerated():
    # frozen parameters produce zero-variance input dimensions
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.uniform(-1, 1, 30), np.full(30, 0.01)])
    y = 2.0 * X[:, 0]
    gp = ExactGP().fit(X, y, seed=8)
    pred, _ = gp.predict(X)
    assert np.allclose(pred, y, atol=1e-3)


def _kernel_by_loops(X, phi):
    n, m = X.shape
    ls, sf2, sn2 = np.exp(phi[:m]), np.exp(phi[m]), np.exp(phi[m + 1])
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = sf2 * np.exp(-0.5 * np.sum(((X[i] - X[j]) / ls) ** 2))
    return K + (sn2 + JITTER_START * sf2) * np.eye(n)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_likelihood_matches_gaussian_logpdf_and_finite_differences(m):
    rng = np.random.default_rng(20 + m)
    gp = ExactGP()
    for _ in range(5):
        n = int(rng.integers(8, 30))
        X = rng.normal(size=(n, m))
        # an extra constant column stands in for a frozen parameter
        Xf = np.column_stack([X, np.full(n, 0.3)])
        y = rng.normal(size=n)
        phi = np.concatenate([rng.uniform(np.log(5e-2), np.log(3.0), m + 1),
                              [rng.uniform(-2.0, 2.0), rng.uniform(-9.0, -2.0)]])
        D = _sq_dists_per_dim(Xf, Xf)
        nll, grad = gp._nll_and_grad(phi, D, y)

        K = _kernel_by_loops(Xf, phi)
        ref = -multivariate_normal(mean=np.zeros(n), cov=K).logpdf(y)
        assert nll == pytest.approx(ref, rel=1e-9)

        h = 1e-6
        fd = np.array([(gp._nll_and_grad(phi + h * e, D, y)[0]
                        - gp._nll_and_grad(phi - h * e, D, y)[0]) / (2 * h)
                       for e in np.eye(phi.size)])
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-5 * np.max(np.abs(fd)))
        assert grad[m] == 0.0
