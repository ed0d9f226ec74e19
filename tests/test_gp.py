import numpy as np
import pytest
import scipy.optimize
from scipy.linalg import lapack
from scipy.stats import multivariate_normal

from trajsense import gp as gp_mod
from trajsense.errors import FitError, InsufficientDataError
from trajsense.gp import (JITTER_START, ExactGP, _cholesky_with_jitter, _kernel,
                          _sq_dist_stack)


def linear_data(n=40, m=2, noise=0.0, seed=0):
    """Inputs (n, m) and one target column (n, 1)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, m))
    w = np.array([0.7, -1.3])[:m]
    y = X @ w + noise * rng.normal(size=n)
    return X, y[:, None]


def test_interpolates_noiseless_training_data():
    X, y = linear_data()
    gp = ExactGP().fit(X, y, seed=0)
    pred, _ = gp.predict(X)
    assert pred.shape == y.shape
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
    assert np.all(np.abs(mean[:, 0] - truth) <= 3 * std[:, 0] + 1e-9)


def test_reverts_to_prior_far_from_data():
    X, y = linear_data(n=30, seed=3)
    gp = ExactGP().fit(X, y, seed=3)
    far = 10 * np.max(np.linalg.norm(X, axis=1)) * np.ones((1, 2))
    mean, std = gp.predict(far)
    assert abs(mean[0, 0]) < 0.05 * np.abs(y).max()
    assert std[0, 0] ** 2 >= 0.5 * gp.signal_var[0]


def test_variance_never_below_noise_floor():
    X, y = linear_data(n=30, noise=0.1, seed=4)
    gp = ExactGP().fit(X, y, seed=4)
    _, std = gp.predict(X)
    assert np.all(std[:, 0] ** 2 >= gp.noise_var[0] - 1e-15)


def test_deterministic_under_seed():
    X, y = linear_data(n=30, noise=0.05, seed=5)
    g1 = ExactGP(n_restarts=3).fit(X, y, seed=9)
    g2 = ExactGP(n_restarts=3).fit(X, y, seed=9)
    assert np.array_equal(g1.lengthscales, g2.lengthscales)
    assert np.array_equal(g1.signal_var, g2.signal_var)


def test_rebuilt_from_state_predicts_exactly_as_fitted():
    X, y = linear_data(n=40, noise=0.01, seed=6)
    Xq = np.random.default_rng(7).uniform(-1.2, 1.2, size=(50, 2))
    gp = ExactGP().fit(X, y, seed=6)
    X_saved, Y_saved, phi = gp.state()
    assert np.array_equal(X_saved, X)
    rebuilt = ExactGP.from_states(X_saved, [Y_saved], [phi])[0]
    for a, b in zip(gp.predict(Xq), rebuilt.predict(Xq)):
        assert np.array_equal(a, b)


def test_fixed_hyperparameters_respected():
    X, y = linear_data(n=25, seed=6)
    phi = np.log([[2.0, 2.0, 1.5, 1e-4]])
    gp = ExactGP.from_states(X, [y], [phi])[0]
    assert np.array_equal(gp.state()[2], phi)
    assert np.allclose(gp.lengthscales, 2.0)
    assert gp.signal_var[0] == pytest.approx(1.5)
    assert gp.noise_var[0] == pytest.approx(1e-4)


def test_degenerate_targets_predict_zero():
    X = np.random.default_rng(7).uniform(-1, 1, size=(10, 2))
    gp = ExactGP().fit(X, np.zeros((10, 1)))
    mean, _ = gp.predict(X)
    assert np.allclose(mean, 0.0, atol=1e-8)


def test_targets_must_be_columns():
    X, y = linear_data(n=10)
    for bad in (y[:, 0], y[None]):
        with pytest.raises(ValueError, match=r"\(n, k\) columns, got shape"):
            ExactGP().fit(X, bad)


def test_insufficient_data_rejected():
    with pytest.raises(InsufficientDataError):
        ExactGP().fit(np.zeros((1, 2)), np.zeros((1, 1)))
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


def _former_cholesky_with_jitter(K, scale=1.0):
    """The factorization as it was, with a full identity matrix per attempt."""
    jitter = 0.0
    while jitter <= gp_mod.JITTER_MAX:
        A = K + jitter * scale * np.eye(K.shape[0])
        L, info = lapack.dpotrf(A.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
    raise FitError("not positive definite")


@pytest.mark.parametrize("log_ls, jittered", [(np.log(0.7), False), (np.log(30.0), True)])
def test_factorization_without_identity_matrices_is_bit_identical(log_ls, jittered):
    # the noise and the jitter go onto the diagonal in place; adding the
    # identity's off-diagonal zeros to these non-negative kernels changed no bit
    X, y = linear_data(n=30)
    K = _kernel(_sq_dist_stack(X), np.full(2, log_ls), np.log(2.0))
    before = K.copy()
    L, jitter = _cholesky_with_jitter(K, scale=2.0)
    assert np.array_equal(K, before)  # K is not overwritten
    L_former, jitter_former = _former_cholesky_with_jitter(K, scale=2.0)
    assert np.array_equal(L, L_former) and jitter == jitter_former
    assert (jitter > 0) == jittered  # a long lengthscale needs a retry

    gp = ExactGP.from_states(X, [y], [[[log_ls, log_ls, np.log(2.0), np.log(1e-6)]]])[0]
    phi = gp.state()[2][0]
    K = _kernel(_sq_dist_stack(gp._X), phi[:2], phi[2])
    L_former, jitter_former = _former_cholesky_with_jitter(
        K + np.exp(phi[3]) * np.eye(30), scale=np.exp(phi[2]))
    # the factor a variance rebuilds, on the GP's own training stack
    L, jitter = gp_mod._cholesky(_sq_dist_stack(gp._X), phi)
    assert np.array_equal(L, L_former) and jitter == jitter_former
    assert np.array_equal(gp.jitter, [jitter_former])


def _cross_kernel(gp, Xq):
    """K* of a one-column GP at the rows of Xq, standardized as it standardizes."""
    phi = gp.state()[2][0]
    Xqs = (np.atleast_2d(Xq) - gp._x_mean) / gp._x_scale
    return _kernel(_sq_dist_stack(Xqs, gp._X), phi[:-2], phi[-2])


def _std_from_factor(gp, L, Xq):
    """The posterior std as `predict` computed it from a factor it kept."""
    phi = gp.state()[2][0]
    V, _ = lapack.dtrtrs(L, _cross_kernel(gp, Xq).T, lower=1, overwrite_b=1)
    sn2 = np.exp(phi[-1])
    return np.sqrt(np.maximum(np.exp(phi[-2]) + sn2 - np.sum(V * V, axis=0), sn2))


@pytest.mark.parametrize("log_ls, jittered", [(np.log(0.7), False), (np.log(30.0), True)])
def test_variance_from_a_rebuilt_factor_is_bit_identical(monkeypatch, log_ls, jittered):
    # a GP keeps alpha, not its factor: a variance rebuilds the factor that
    # from_state and fit made, and gets the std that factor gave, bit for bit
    X, y = linear_data(n=30)
    made = []
    real = gp_mod._cholesky_with_jitter
    monkeypatch.setattr(gp_mod, "_cholesky_with_jitter",
                        lambda K, scale=1.0: made.append(real(K, scale)) or made[-1])
    phi = np.array([log_ls, log_ls, np.log(2.0), np.log(1e-16)])
    gps = [ExactGP.from_states(X, [y], [phi[None]])[0], ExactGP().fit(X, y, seed=3)]
    (L_state, jitter_state), (L_fit, jitter_fit) = made[0], made[-1]
    made.clear()
    assert (jitter_state > 0) == jittered  # a long lengthscale needs a retry

    Xq = np.random.default_rng(4).uniform(-1.5, 1.5, size=(25, 2))
    for gp, L, jitter in zip(gps, (L_state, L_fit), (jitter_state, jitter_fit)):
        assert all(v.size < 30 * 30 for v in vars(gp).values() if isinstance(v, np.ndarray))
        mean, std = gp.predict(Xq)
        assert np.array_equal(std[:, 0], _std_from_factor(gp, L, Xq))
        assert np.array_equal(mean[:, 0], _cross_kernel(gp, Xq) @ gp.alpha[0])
        assert len(made) == 1 and np.array_equal(made[0][0], L) and made[0][1] == jitter
        assert np.array_equal(gp.jitter, [jitter])
        made.clear()
        # means alone rebuild nothing
        mean_only, none = gp.predict(Xq, std=False)
        assert none is None and np.array_equal(mean_only, mean) and made == []


def test_constant_input_column_tolerated():
    # frozen parameters produce zero-variance input dimensions
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.uniform(-1, 1, 30), np.full(30, 0.01)])
    y = 2.0 * X[:, 0]
    gp = ExactGP().fit(X, y[:, None], seed=8)
    pred, _ = gp.predict(X)
    assert np.allclose(pred[:, 0], y, atol=1e-3)


def _kernel_by_loops(A, phi, B=None):
    """The covariance of the targets at A (with the likelihood's noise and
    jitter on the diagonal) or, given B, the noise-free cross kernel."""
    cross = B is not None
    B = B if cross else A
    m = A.shape[1]
    ls, sf2, sn2 = np.exp(phi[:m]), np.exp(phi[m]), np.exp(phi[m + 1])
    K = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            K[i, j] = sf2 * np.exp(-0.5 * np.sum(((A[i] - B[j]) / ls) ** 2))
    return K if cross else K + (sn2 + JITTER_START * sf2) * np.eye(A.shape[0])


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
        D = _sq_dist_stack(Xf)
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


@pytest.mark.parametrize("at", [0, 1, 2])
def test_frozen_column_leaves_likelihood_bit_equal(at):
    # a constant column adds exact zeros to the exponent and its gradient
    rng = np.random.default_rng(30 + at)
    n, m = 25, 2
    X = rng.normal(size=(n, m))
    Xf = np.insert(X, at, 0.3, axis=1)
    y = rng.normal(size=n)
    phi = np.array([0.2, -0.4, 0.5, -6.0])
    phi_f = np.insert(phi, at, rng.uniform(np.log(5e-2), np.log(3.0)))
    gp = ExactGP()
    nll, grad = gp._nll_and_grad(phi, _sq_dist_stack(X), y)
    nll_f, grad_f = gp._nll_and_grad(phi_f, _sq_dist_stack(Xf), y)
    assert nll == nll_f
    assert np.array_equal(grad, np.delete(grad_f, at))
    assert grad_f[at] == 0.0


def test_fit_never_optimizes_a_frozen_column(monkeypatch):
    rng = np.random.default_rng(40)
    X = np.column_stack([rng.uniform(-1, 1, 30), np.zeros(30), rng.uniform(-1, 1, 30)])
    y = np.sin(2.0 * X[:, 0]) - X[:, 2]
    starts, calls = [], []
    # gp imports minimize from scipy.optimize when it optimizes: spy there
    real_starts, real_minimize = gp_mod._starts, scipy.optimize.minimize

    def spy_starts(*args):
        starts.extend(real_starts(*args))
        return starts

    def spy_minimize(fun, x0, **kwargs):
        res = real_minimize(fun, x0, **kwargs)
        calls.append((np.copy(x0), len(kwargs["bounds"]), res))
        return res

    monkeypatch.setattr(gp_mod, "_starts", spy_starts)
    monkeypatch.setattr(scipy.optimize, "minimize", spy_minimize)
    gp = ExactGP(n_restarts=4).fit(X, y[:, None], seed=3)
    assert len(calls) == len(starts) == 4
    for start, (x0, n_bounds, res) in zip(starts, calls):
        assert x0.size == n_bounds == res.x.size == 4  # 2 live columns, sf2, sn2
        assert np.array_equal(x0, np.delete(start, 1))
    win = int(np.argmin([res.fun for _, _, res in calls]))
    phi = gp.state()[2][0]
    assert phi[1] == starts[win][1]
    assert np.array_equal(np.delete(phi, 1), calls[win][2].x)
    assert len({s[1] for s in starts}) == 4  # the draws do differ in that entry


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_cross_kernel_matches_loops(m):
    rng = np.random.default_rng(50 + m)
    X = rng.normal(size=(23, m))
    Xq = rng.normal(size=(17, m))
    # an extra constant column stands in for a frozen parameter
    Xf, Xqf = (np.column_stack([Z, np.full(len(Z), 0.3)]) for Z in (X, Xq))
    phi = np.concatenate([rng.uniform(np.log(5e-2), np.log(3.0), m + 1),
                          [rng.uniform(-2.0, 2.0), rng.uniform(-9.0, -2.0)]])
    K = _kernel(_sq_dist_stack(Xqf, Xf), phi[:m + 1], phi[m + 1])
    assert K.shape == (17, 23)
    # the loops sum the exponent in another order and divide before squaring,
    # so entries agree to a few ulps of the exponent: rtol 1e-12
    assert np.allclose(K, _kernel_by_loops(Xqf, phi, Xf), rtol=1e-12, atol=0.0)
    # the frozen column's lengthscale adds exact zeros
    phi_f = phi.copy()
    phi_f[m] += 1.0
    assert np.array_equal(K, _kernel(_sq_dist_stack(Xqf, Xf), phi_f[:m + 1], phi[m + 1]))
    # the one-argument stack is the cross stack of a set with itself
    assert np.array_equal(_sq_dist_stack(Xf), _sq_dist_stack(Xf, Xf))


def test_warm_start_takes_the_place_of_the_first_random_draw():
    phi0 = np.zeros(4)
    bounds = [(-3.0, 1.0)] * 2 + [(-2.0, 2.0), (-20.0, 0.0)]
    warm = np.array([0.5, 4.0, -1.0, -30.0])
    cold = gp_mod._starts(phi0, bounds, 3, 7)
    starts = gp_mod._starts(phi0, bounds, 3, 7, warm)
    assert len(starts) == 3 and starts[0] is phi0
    assert np.array_equal(starts[1], [0.5, 1.0, -1.0, -20.0])  # clipped into the bounds
    assert np.array_equal(starts[2], cold[2])  # further draws are as without it
    # one restart: the default start alone, warm or not
    assert len(gp_mod._starts(phi0, bounds, 1, 7, warm)) == 1


def test_noise_floor_keeps_near_duplicate_inputs_from_a_singular_fit(monkeypatch):
    # 60 gains, two of them 5e-5 apart, plus the origin; the target spans
    # about 20 and steps steeply at 0, so a restart can win with a signal
    # variance hundreds of times var(y) and the noise variance at its bound
    def f(x):
        return np.expm1(2.0 * x) + np.tanh(30.0 * x)

    x = np.random.default_rng(4).uniform(-0.5, 1.5, 60)
    x[1] = x[0] + 5e-5
    X = np.vstack([np.zeros((1, 2)), np.column_stack([x, np.zeros(60)])])
    q = -0.3925  # inside the training range, where the singular fit swings
    errors = {}
    for floor in (1e-12, gp_mod.NOISE_FLOOR):  # the former bound, then the current one
        monkeypatch.setattr(gp_mod, "NOISE_FLOOR", floor)
        gp = ExactGP(n_restarts=2).fit(X, f(X[:, :1]), seed=4)
        assert gp.noise_var[0] >= 0.999 * floor * np.var(f(X[:, 0]))
        errors[floor] = abs(gp.predict([[q, 0.0]])[0][0, 0] - f(q))
    # with the former bound the fit predicts about -38.5 against a true -1.54
    assert errors[1e-12] > 10.0
    assert errors[gp_mod.NOISE_FLOOR] < 0.05
