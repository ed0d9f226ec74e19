"""Exact Gaussian process regression with a squared-exponential ARD kernel.

Scalar-output, zero prior mean. Inputs are standardized internally (constant
columns pass through untouched); targets are used raw so that a zero input
with a zero target anchors the prior meaningfully. Hyperparameters are
optimized by multi-restart marginal-likelihood ascent, or fixed via config.
Inference is a Cholesky factorization with an escalating jitter.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize

from .errors import FitError, InsufficientDataError

JITTER_START = 1e-8
JITTER_MAX = 1e-4

_TARGET_VAR_FLOOR = 1e-20


@dataclass
class GPConfig:
    optimize: bool = True
    n_restarts: int = 2
    max_opt_iter: int = 100
    # used when optimize=False; lengthscale is in standardized-input units,
    # variances default to data-derived values when left as None
    lengthscale: float = 1.0
    signal_var: float = None
    noise_var: float = None


def _cholesky_with_jitter(K, scale=1.0):
    """Factorize K, adding signal-scaled jitter only when the plain attempt fails.

    The fallback jitter escalates one decade at a time from JITTER_START to
    JITTER_MAX; relative scaling keeps conditioning independent of the units
    of the targets.
    """
    jitter = 0.0
    while jitter <= JITTER_MAX:
        try:
            L = np.linalg.cholesky(K + jitter * scale * np.eye(K.shape[0]))
            return L, jitter
        except np.linalg.LinAlgError:
            jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
    raise FitError(f"kernel matrix not positive definite up to jitter {JITTER_MAX:g}")


def _sq_dists_per_dim(A, B):
    # (n, p, m) tensor of per-dimension squared differences
    return (A[:, None, :] - B[None, :, :]) ** 2


class ExactGP:
    """One scalar GP: fit(X, y) then predict(Xq) -> (mean, std)."""

    def __init__(self, config=None):
        self.config = config or GPConfig()
        self.log_ls = None
        self.log_sf2 = None
        self.log_sn2 = None
        self._x_mean = None
        self._x_scale = None
        self._X = None
        self._X_raw = None
        self._y = None
        self._L = None
        self._alpha = None
        self.jitter = 0.0
        self.degenerate = False

    # -- kernel ------------------------------------------------------------

    def _kernel(self, A, B, log_ls, log_sf2):
        ls = np.exp(log_ls)
        d2 = _sq_dists_per_dim(A, B) / ls**2
        return np.exp(log_sf2) * np.exp(-0.5 * d2.sum(axis=2))

    def _nll_and_grad(self, phi, D, y):
        # D is the (n, n, m) tensor of squared input differences, fixed per fit
        n, _, m = D.shape
        inv_ls2 = np.exp(-2.0 * phi[:m])
        sf2, sn2 = np.exp(phi[m]), np.exp(phi[m + 1])
        sf2R = sf2 * np.exp(-0.5 * (D @ inv_ls2))
        K = sf2R + (sn2 + JITTER_START * sf2) * np.eye(n)
        try:
            c = cho_factor(K, lower=True)
        except np.linalg.LinAlgError:
            return np.inf, np.zeros_like(phi)
        alpha = cho_solve(c, y)
        nll = 0.5 * y @ alpha + np.sum(np.log(np.diag(c[0]))) + 0.5 * n * np.log(2 * np.pi)

        # dNLL/dphi_j = 0.5 tr(Q dK/dphi_j), Q = K^-1 - alpha alpha^T (GPML eq. 5.9)
        Q = cho_solve(c, np.eye(n)) - np.outer(alpha, alpha)
        QsR = Q * sf2R
        trQ = np.trace(Q)
        grad = np.empty_like(phi)
        grad[:m] = 0.5 * inv_ls2 * np.einsum("ij,ijk->k", QsR, D)
        grad[m] = 0.5 * (np.sum(QsR) + JITTER_START * sf2 * trQ)
        grad[m + 1] = 0.5 * sn2 * trQ
        return nll, grad

    # -- fitting -----------------------------------------------------------

    def _standardized(self, X, y):
        """Validate the training data, set the input scaling, return (Xs, y)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise InsufficientDataError("X and y lengths differ")
        if X.shape[0] < 2:
            raise InsufficientDataError("need at least 2 samples")

        self._X_raw = X
        self._x_mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self._x_scale = scale
        return (X - self._x_mean) / self._x_scale, y

    def fit(self, X, y, seed=0):
        Xs, y = self._standardized(X, y)
        vy = float(np.var(y))
        m = Xs.shape[1]
        if vy < _TARGET_VAR_FLOOR:
            # all-equal targets (e.g. the zero map at t=0): pin a flat prior
            self.degenerate = True
            self.log_ls = np.zeros(m)
            self.log_sf2 = np.log(_TARGET_VAR_FLOOR)
            self.log_sn2 = np.log(1e-12)
        else:
            self.degenerate = False
            phi0 = np.concatenate([np.zeros(m), [np.log(vy)], [np.log(max(1e-8 * vy, 1e-12))]])
            if self.config.optimize:
                phi = self._optimize(phi0, Xs, y, vy, seed)
            else:
                cfg = self.config
                sf2 = vy if cfg.signal_var is None else cfg.signal_var
                sn2 = max(1e-8 * vy, 1e-12) if cfg.noise_var is None else cfg.noise_var
                phi = np.concatenate([np.full(m, np.log(cfg.lengthscale)),
                                      [np.log(sf2)], [np.log(sn2)]])
            self._set_phi(phi)
        return self._factorize(Xs, y)

    @classmethod
    def from_state(cls, X, y, phi, config=None):
        """A fitted GP rebuilt from raw training inputs, targets and the
        log-hyperparameters [log lengthscales, log signal var, log noise var]
        of `state()`, with one factorization and no optimization."""
        gp = cls(config)
        Xs, y = gp._standardized(X, y)
        gp.degenerate = float(np.var(y)) < _TARGET_VAR_FLOOR
        gp._set_phi(np.asarray(phi, dtype=float))
        return gp._factorize(Xs, y)

    def state(self):
        """(raw X, y, phi): what `from_state` needs to rebuild this GP exactly."""
        return self._X_raw, self._y, np.concatenate([self.log_ls, [self.log_sf2, self.log_sn2]])

    def _set_phi(self, phi):
        m = phi.size - 2
        self.log_ls = phi[:m]
        self.log_sf2 = float(phi[m])
        self.log_sn2 = float(phi[m + 1])

    def _factorize(self, Xs, y):
        K = self._kernel(Xs, Xs, self.log_ls, self.log_sf2)
        K += np.exp(self.log_sn2) * np.eye(Xs.shape[0])
        self._L, self.jitter = _cholesky_with_jitter(K, scale=np.exp(self.log_sf2))
        self._alpha = cho_solve((self._L, True), y)
        self._X = Xs
        self._y = y
        return self

    def _optimize(self, phi0, Xs, y, vy, seed):
        m = Xs.shape[1]
        # lengthscales live in standardized-input units; capping them at a few
        # input standard deviations keeps the kernel well conditioned and the
        # prior mean-reverting outside the training support
        bounds = ([(np.log(5e-2), np.log(3.0))] * m
                  + [(np.log(1e-4 * vy), np.log(1e4 * vy))]
                  + [(np.log(1e-12 * max(vy, 1e-8)), np.log(10.0 * vy))])
        rng = np.random.default_rng(seed)
        starts = [phi0]
        for _ in range(max(0, self.config.n_restarts - 1)):
            draw = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            starts.append(draw)
        D = _sq_dists_per_dim(Xs, Xs)
        best_phi, best_nll = phi0, np.inf
        for start in starts:
            res = minimize(self._nll_and_grad, start, args=(D, y), jac=True,
                           method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": self.config.max_opt_iter})
            if res.fun < best_nll:
                best_nll, best_phi = res.fun, res.x
        return best_phi

    # -- prediction ----------------------------------------------------------

    def predict(self, Xq):
        """Posterior mean and standard deviation at query inputs.

        The variance includes the learned noise term, so it never drops below
        the noise floor.
        """
        if self._alpha is None:
            raise InsufficientDataError("predict before fit")
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        Xqs = (Xq - self._x_mean) / self._x_scale
        Ks = self._kernel(Xqs, self._X, self.log_ls, self.log_sf2)
        mean = Ks @ self._alpha
        V = solve_triangular(self._L, Ks.T, lower=True)
        sn2 = np.exp(self.log_sn2)
        var = np.exp(self.log_sf2) + sn2 - np.sum(V * V, axis=0)
        var = np.maximum(var, sn2)
        return mean, np.sqrt(var)

    # -- reporting -----------------------------------------------------------

    @property
    def lengthscales(self):
        return np.exp(self.log_ls)

    @property
    def signal_var(self):
        return float(np.exp(self.log_sf2))

    @property
    def noise_var(self):
        return float(np.exp(self.log_sn2))

    @property
    def n_train(self):
        return 0 if self._y is None else int(self._y.shape[0])
