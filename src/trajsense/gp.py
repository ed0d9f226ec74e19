"""Exact Gaussian process regression with a squared-exponential ARD kernel.

Scalar-output, zero prior mean. Inputs are standardized internally (constant
columns pass through untouched); targets are used raw so that a zero input
with a zero target anchors the prior meaningfully. Hyperparameters are
optimized by multi-restart marginal-likelihood ascent from n_restarts starts:
a default start, then a warm start when the caller passes one (the optimum of
a neighbouring fit, clipped into this fit's bounds), then uniform draws inside
the bounds; the lowest NLL wins. `from_state(s)` rebuilds GPs with given
hyperparameters. Inference is a Cholesky factorization with an escalating
jitter, on LAPACK directly (GPML alg. 2.1). One kernel builder serves the
likelihood, the factorization and prediction.

A fitted GP keeps alpha = K^-1 y, the targets and the jitter, not the n x n
factor: a posterior mean is K* alpha alone. A variance rebuilds the factor
the same way the fit made it, bit for bit, and drops it again, so a model of
many maps holds O(n) floats per map, not O(n^2).

A constant input column (a frozen parameter: its perturbation is zero in
every sample) adds nothing to any squared distance, so the likelihood does
not depend on its lengthscale. The optimizer sees only the live columns'
log-lengthscales plus log sf2 and log sn2; a frozen column's log-lengthscale
keeps the value it had in the winning start, so `state()` still returns one
entry per input column.
"""

import copy

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import minimize

from .errors import FitError, InsufficientDataError

JITTER_START = 1e-8
JITTER_MAX = 1e-4

N_RESTARTS = 2
MAX_OPT_ITER = 100

_TARGET_VAR_FLOOR = 1e-20
NOISE_FLOOR = 1e-10  # lower bound of the noise variance, relative to var(y)


def _cholesky_with_jitter(K, scale=1.0):
    """Factorize K, adding signal-scaled jitter only when the plain attempt fails.

    The fallback jitter escalates one decade at a time from JITTER_START to
    JITTER_MAX; relative scaling keeps conditioning independent of the units
    of the targets.
    """
    jitter, A = 0.0, K
    while jitter <= JITTER_MAX:
        # A is symmetric: potrf factorizes a copy of its Fortran-order transpose
        L, info = lapack.dpotrf(A.T, lower=1, clean=1)
        if info == 0:
            return L, jitter
        jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
        A = K.copy()
        A.flat[::A.shape[0] + 1] += jitter * scale
    raise FitError(f"kernel matrix not positive definite up to jitter {JITTER_MAX:g}")


def _sq_dist_stack(A, B=None):
    """Contiguous (m, p, q) stack: entry k holds the squared differences between
    column k of A (p rows) and of B (q rows; B defaults to A)."""
    At = np.ascontiguousarray(A.T)
    Bt = At if B is None else np.ascontiguousarray(B.T)
    return (At[:, :, None] - Bt[:, None, :]) ** 2


def _kernel(D, log_ls, log_sf2):
    """Squared-exponential ARD kernel from a squared-difference stack D (m, p, q)."""
    ls2 = np.exp(log_ls) ** 2
    K = np.zeros(D.shape[1:])
    for k in range(D.shape[0]):
        K += D[k] / ls2[k]
    K *= -0.5
    np.exp(K, out=K)
    K *= np.exp(log_sf2)
    return K


def _starts(phi0, bounds, n_restarts, seed, warm=None):
    """phi0, then n_restarts - 1 uniform draws inside the bounds; a warm start,
    clipped into the bounds, takes the place of the first draw."""
    rng = np.random.default_rng(seed)
    draws = [np.array([rng.uniform(lo, hi) for lo, hi in bounds])
             for _ in range(max(0, n_restarts - 1))]
    if warm is not None and draws:
        lo, hi = np.array(bounds).T
        draws[0] = np.clip(warm, lo, hi)
    return [phi0] + draws


class ExactGP:
    """One scalar GP: fit(X, y) then predict(Xq) -> (mean, std)."""

    def __init__(self, n_restarts=N_RESTARTS):
        self.n_restarts = n_restarts
        self.log_ls = self.log_sf2 = self.log_sn2 = None  # set by _set_phi
        self._X_raw = self._x_mean = self._x_scale = self._X = None  # by _set_inputs
        self._y = self._alpha = None  # by _factorize
        self.jitter = 0.0
        self.degenerate = False

    # -- likelihood ----------------------------------------------------------

    def _nll_and_grad(self, phi, D, y):
        # D is the (m, n, n) stack of squared input differences, fixed per fit;
        # phi holds m log-lengthscales, then log sf2 and log sn2
        m, n, _ = D.shape
        ls2 = np.exp(phi[:m]) ** 2
        sf2, sn2 = np.exp(phi[m]), np.exp(phi[m + 1])
        sf2R = _kernel(D, phi[:m], phi[m])
        K = sf2R.copy()
        K.flat[::n + 1] += sn2 + JITTER_START * sf2
        if not (np.isfinite(K).all() and np.isfinite(y).all()):
            raise ValueError("array must not contain infs or NaNs")
        # LAPACK directly: K is symmetric, so its transpose is a Fortran-order
        # view that potrf factorizes in place
        L, info = lapack.dpotrf(K.T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            return np.inf, np.zeros_like(phi)
        alpha, _ = lapack.dpotrs(L, y, lower=1)
        nll = 0.5 * y @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * n * np.log(2 * np.pi)

        # dNLL/dphi_j = 0.5 tr(Q dK/dphi_j), Q = K^-1 - alpha alpha^T (GPML eq. 5.9)
        Kinv, _ = lapack.dpotrs(L, np.eye(n, order="F"), lower=1, overwrite_b=1)
        Q = Kinv - np.outer(alpha, alpha)
        QsR = Q * sf2R
        trQ = np.trace(Q)
        grad = np.empty_like(phi)
        for k in range(m):
            grad[k] = 0.5 * np.sum(QsR * D[k]) / ls2[k]
        grad[m] = 0.5 * (np.sum(QsR) + JITTER_START * sf2 * trQ)
        grad[m + 1] = 0.5 * sn2 * trQ
        return nll, grad

    # -- fitting -----------------------------------------------------------

    def _set_inputs(self, X, Y):
        """Validate X (n, m) and Y (n,) or (n, k), standardize X once; return Y."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.asarray(Y, dtype=float)
        if X.shape[0] != Y.shape[0]:
            raise InsufficientDataError("X and y lengths differ")
        if X.shape[0] < 2:
            raise InsufficientDataError("need at least 2 samples")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise ValueError("training inputs and targets must be finite")
        scale = X.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self._X_raw, self._x_mean, self._x_scale = X, X.mean(axis=0), scale
        self._X = (X - self._x_mean) / scale
        return Y

    def fit(self, X, y, seed=0, warm=None):
        """Optimize the hyperparameters and factorize. warm: log-hyperparameters
        in the layout of `state()` to start one restart from, or None."""
        y = self._set_inputs(X, np.reshape(y, -1))
        vy = float(np.var(y))
        m = self._X.shape[1]
        if vy < _TARGET_VAR_FLOOR:
            # all-equal targets (e.g. the zero map at t=0): pin a flat prior
            self.degenerate = True
            self.log_ls = np.zeros(m)
            self.log_sf2 = np.log(_TARGET_VAR_FLOOR)
            self.log_sn2 = np.log(1e-12)
        else:
            self.degenerate = False
            phi0 = np.concatenate([np.zeros(m), [np.log(vy)], [np.log(max(1e-8 * vy, 1e-12))]])
            self._set_phi(self._optimize(phi0, self._X, y, vy, seed, warm))
        return self._factorize(_sq_dist_stack(self._X), y)

    @classmethod
    def from_state(cls, X, y, phi):
        """A fitted GP rebuilt from raw training inputs, targets and the
        log-hyperparameters [log lengthscales, log signal var, log noise var]
        of `state()`, with one factorization and no optimization."""
        return cls.from_states(X, np.reshape(y, (-1, 1)), np.reshape(phi, (1, -1)))[0]

    @classmethod
    def from_states(cls, X, Y, phis):
        """`from_state` for each Y[:, j...] with phis[j...], in C order, on one X stack."""
        base = cls()
        Y = base._set_inputs(X, Y)
        D = _sq_dist_stack(base._X)
        gps = [copy.copy(base) for _ in np.ndindex(Y.shape[1:])]
        for gp, j in zip(gps, np.ndindex(Y.shape[1:])):
            y = Y[(slice(None),) + j]
            gp.degenerate = float(np.var(y)) < _TARGET_VAR_FLOOR
            gp._set_phi(np.asarray(phis[j], dtype=float))
            gp._factorize(D, y)
        return gps

    def state(self):
        """(raw X, y, phi): what `from_state` needs to rebuild this GP exactly."""
        return self._X_raw, self._y, np.concatenate([self.log_ls, [self.log_sf2, self.log_sn2]])

    def _set_phi(self, phi):
        m = phi.size - 2
        self.log_ls = phi[:m]
        self.log_sf2 = float(phi[m])
        self.log_sn2 = float(phi[m + 1])

    def _factorize(self, D, y):
        """Weight the targets y by the kernel on the training stack D; the
        factor is dropped once alpha is solved."""
        L, self.jitter = self._cholesky(D)
        self._alpha, _ = lapack.dpotrs(L, y, lower=1)
        self._y = y
        return self

    def _cholesky(self, D):
        """(L, jitter) of the kernel on the training stack D plus the noise."""
        K = _kernel(D, self.log_ls, self.log_sf2)
        K.flat[::K.shape[0] + 1] += np.exp(self.log_sn2)
        return _cholesky_with_jitter(K, scale=np.exp(self.log_sf2))

    def _refactor(self):
        """The factor `_factorize` made and dropped, rebuilt bit for bit."""
        return self._cholesky(_sq_dist_stack(self._X))[0]

    def _optimize(self, phi0, Xs, y, vy, seed, warm=None):
        m = Xs.shape[1]
        # lengthscales live in standardized-input units; capping them at a few
        # input standard deviations keeps the kernel well conditioned and the
        # prior mean-reverting outside the training support. The noise floor
        # keeps near-duplicate inputs from interpolating to a numerically
        # singular kernel
        bounds = ([(np.log(5e-2), np.log(3.0))] * m
                  + [(np.log(1e-4 * vy), np.log(1e4 * vy))]
                  + [(np.log(NOISE_FLOOR * max(vy, 1e-8)), np.log(10.0 * vy))])
        starts = _starts(phi0, bounds, self.n_restarts, seed, warm)
        # frozen (constant) columns have no gradient: leave them out
        live = np.flatnonzero(np.ptp(Xs, axis=0) > 0)
        free = np.concatenate([live, [m, m + 1]])
        D = _sq_dist_stack(Xs[:, live])
        best_phi, best_nll = phi0, np.inf
        for start in starts:
            res = minimize(self._nll_and_grad, start[free], args=(D, y), jac=True,
                           method="L-BFGS-B", bounds=[bounds[k] for k in free],
                           options={"maxiter": MAX_OPT_ITER})
            if res.fun < best_nll:
                best_nll, best_phi = res.fun, start.copy()
                best_phi[free] = res.x
        return best_phi

    # -- prediction ----------------------------------------------------------

    def predict(self, Xq):
        """Posterior mean and standard deviation at query inputs; the variance
        includes the learned noise term, so it never drops below the noise floor."""
        return self.posterior(self.query_stack(Xq))

    def query_stack(self, Xq):
        """Distance stack of the standardized rows of Xq to the training inputs."""
        if self._alpha is None:
            raise InsufficientDataError("predict before fit")
        Xqs = (np.atleast_2d(np.asarray(Xq, dtype=float)) - self._x_mean) / self._x_scale
        return _sq_dist_stack(Xqs, self._X)

    def posterior(self, Dq, std=True):
        """Posterior (mean, std) at the query rows of a `query_stack`; with
        std False, (mean, None) from alpha alone."""
        Ks = _kernel(Dq, self.log_ls, self.log_sf2)
        mean = Ks @ self._alpha
        if not std:
            return mean, None
        # L's diagonal is positive, so trtrs cannot fail; Ks is not read again
        V, _ = lapack.dtrtrs(self._refactor(), Ks.T, lower=1, overwrite_b=1)
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
