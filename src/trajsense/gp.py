"""Exact Gaussian process regression with a squared-exponential ARD kernel.

Independent scalar GPs, one per target column, on one set of training inputs
(GPML sec. 2.2), zero prior mean. Inputs are standardized once (constant
columns pass through untouched); targets are used raw so that a zero input
with a zero target anchors the prior meaningfully. Each column's
hyperparameters are optimized by multi-restart marginal-likelihood ascent
from n_restarts starts: a default start, then a warm start when the caller
passes one (the optimum of a neighbouring fit, clipped into this fit's
bounds), then uniform draws inside the bounds; the lowest NLL wins.
`from_states` rebuilds GPs with given hyperparameters. Inference is a
Cholesky factorization with an escalating jitter, on LAPACK directly (GPML
alg. 2.1). One kernel builder serves the likelihood, the factorization and
prediction.

A fitted GP keeps alpha = K^-1 y per column, the targets and the jitters, not
the n x n factors: a posterior mean is K* alpha alone. A variance rebuilds the
column's factor the same way the fit made it, bit for bit, and drops it again,
so a model of many maps holds O(n) floats per column, not O(n^2).

A constant input column (a frozen parameter: its perturbation is zero in
every sample) adds nothing to any squared distance, so the likelihood does
not depend on its lengthscale. The optimizer sees only the live columns'
log-lengthscales plus log sf2 and log sn2; a frozen column's log-lengthscale
keeps the value it had in the winning start, so `state()` still returns one
entry per input column.

scipy (LAPACK and L-BFGS-B) is imported inside the functions that factorize,
solve or optimize, at their first call, not when this module loads: the
import takes about 0.6 s, three quarters of a command's cold start, and
commands that never fit or query a GP (simulate, build, voxelize, ...) need
none of it. A repeated import is a dictionary lookup, well under 1 us against
a likelihood evaluation of about 400 us at n = 101.
"""

import copy

import numpy as np

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
    from scipy.linalg import lapack

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


def _cholesky(D, phi):
    """(L, jitter) of the kernel with log-hyperparameters phi on the training
    stack D, plus the noise."""
    K = _kernel(D, phi[:-2], phi[-2])
    K.flat[::K.shape[0] + 1] += np.exp(phi[-1])
    return _cholesky_with_jitter(K, scale=np.exp(phi[-2]))


class ExactGP:
    """Scalar GPs, one per column of the targets Y (n, k), on one X: fit(X, Y)
    then predict(Xq) -> (mean, std), (q, k) each. Column i's state is row i of
    phi (k, m+2), alpha (k, n), jitter (k,) and degenerate (k,)."""

    def __init__(self, n_restarts=N_RESTARTS):
        self.n_restarts = n_restarts
        self.phi = self.alpha = self.jitter = self.degenerate = None  # by _factorize
        self._X_raw = self._x_mean = self._x_scale = self._X = self._y = None

    # -- likelihood ----------------------------------------------------------

    def _nll_and_grad(self, phi, D, y):
        # D is the (m, n, n) stack of squared input differences, fixed per fit;
        # phi holds m log-lengthscales, then log sf2 and log sn2
        from scipy.linalg import lapack

        m, n, _ = D.shape
        ls2 = np.exp(phi[:m]) ** 2
        sf2, sn2 = np.exp(phi[m]), np.exp(phi[m + 1])
        sf2R = _kernel(D, phi[:m], phi[m])
        K = sf2R.copy()
        K.flat[::n + 1] += sn2 + JITTER_START * sf2
        if not np.isfinite(K).all():  # fit has checked y
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

    def _set_inputs(self, X, n):
        """Validate X (n, m) and standardize it once."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] != n:
            raise InsufficientDataError("X and y lengths differ")
        if n < 2:
            raise InsufficientDataError("need at least 2 samples")
        if not np.isfinite(X).all():
            raise ValueError("training inputs must be finite")
        scale = X.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self._X_raw, self._x_mean, self._x_scale = X, X.mean(axis=0), scale
        self._X = (X - self._x_mean) / scale

    def fit(self, X, Y, seed=0, warm=None):
        """Optimize each column's hyperparameters and factorize. Y: (n, k),
        any other shape is a ValueError; seed: one int, or one per column;
        warm: an ExactGP fitted to the same columns, whose optimum starts one
        restart of each column it did not fit as degenerate. A column that
        cannot be fitted is a FitError naming it."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2:
            raise ValueError(f"targets must be (n, k) columns, got shape {Y.shape}")
        self._set_inputs(X, len(Y))
        cols = Y.T  # row i is the caller's column Y[:, i]
        m = self._X.shape[1]
        seeds = np.broadcast_to(seed, len(cols))
        # frozen (constant) columns have no gradient: the optimizer leaves them out
        live = np.flatnonzero(np.ptp(self._X, axis=0) > 0)
        D_live = _sq_dist_stack(self._X[:, live])
        phi = np.empty((len(cols), m + 2))
        for i, y in enumerate(cols):
            try:
                if not np.isfinite(y).all():
                    raise ValueError("training targets must be finite")
                vy = float(np.var(y))
                if vy < _TARGET_VAR_FLOOR:
                    # all-equal targets (e.g. the zero map at t=0): pin a flat prior
                    phi[i] = np.r_[np.zeros(m), np.log(_TARGET_VAR_FLOOR), np.log(1e-12)]
                else:
                    lend = warm is not None and not warm.degenerate[i]
                    phi[i] = self._optimize(D_live, live, y, vy, seeds[i],
                                            warm.phi[i] if lend else None)
            except (FitError, ValueError) as exc:
                raise FitError(f"dimension {i}: {exc}") from exc
        return self._factorize(_sq_dist_stack(self._X), Y, phi)

    @classmethod
    def from_states(cls, X, Ys, phis):
        """One fitted GP per Ys[j] (n, k) with phis[j] (k, m+2), each
        column's [log lengthscales, log signal var, log noise var] as `state()`
        gives them, all on one X stack: one factorization per column, no
        optimization."""
        Ys = np.asarray(Ys, dtype=float)
        if not np.isfinite(Ys).all():
            raise ValueError("training targets must be finite")
        base = cls()
        base._set_inputs(X, Ys.shape[1])
        D = _sq_dist_stack(base._X)
        return [copy.copy(base)._factorize(D, Y, phi) for Y, phi in zip(Ys, phis)]

    def state(self):
        """(raw X, Y, phi): what `from_states` needs to rebuild this GP exactly."""
        return self._X_raw, self._y, self.phi

    def _factorize(self, D, Y, phi):
        """Take the targets Y and each column's log-hyperparameters phi, and
        weight each column by its kernel on the training stack D; the factors
        are dropped once alpha is solved."""
        from scipy.linalg import lapack

        self._y, cols = Y, Y.T
        self.phi = np.asarray(phi, dtype=float)
        self.alpha, self.jitter = np.empty(cols.shape), np.empty(len(cols))
        self.degenerate = np.array([np.var(y) < _TARGET_VAR_FLOOR for y in cols])
        for i, y in enumerate(cols):
            try:
                L, self.jitter[i] = _cholesky(D, self.phi[i])
            except FitError as exc:
                raise FitError(f"dimension {i}: {exc}") from exc
            self.alpha[i] = lapack.dpotrs(L, y, lower=1)[0]
        return self

    def _optimize(self, D, live, y, vy, seed, warm=None):
        """The winning log-hyperparameters for the targets y; D is the
        distance stack of the live input columns."""
        from scipy.optimize import minimize

        m = self._X.shape[1]
        phi0 = np.concatenate([np.zeros(m), [np.log(vy)], [np.log(max(1e-8 * vy, 1e-12))]])
        # lengthscales live in standardized-input units; capping them at a few
        # input standard deviations keeps the kernel well conditioned and the
        # prior mean-reverting outside the training support. The noise floor
        # keeps near-duplicate inputs from interpolating to a numerically
        # singular kernel
        bounds = ([(np.log(5e-2), np.log(3.0))] * m
                  + [(np.log(1e-4 * vy), np.log(1e4 * vy))]
                  + [(np.log(NOISE_FLOOR * max(vy, 1e-8)), np.log(10.0 * vy))])
        starts = _starts(phi0, bounds, self.n_restarts, seed, warm)
        free = np.concatenate([live, [m, m + 1]])
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

    def predict(self, Xq, std=True):
        """Posterior means and standard deviations of the columns at the rows
        of Xq, (q, k) each. The rows' distance stack is
        built once for all columns. A mean is K* alpha alone; a variance
        rebuilds the column's factor and includes the learned noise term, so
        it never drops below the noise floor. With std False the stds are None."""
        if self.alpha is None:
            raise InsufficientDataError("predict before fit")
        Xqs = (np.atleast_2d(np.asarray(Xq, dtype=float)) - self._x_mean) / self._x_scale
        Dq = _sq_dist_stack(Xqs, self._X)
        D = _sq_dist_stack(self._X) if std else None
        means, stds = [], []
        for phi, alpha in zip(self.phi, self.alpha):
            Ks = _kernel(Dq, phi[:-2], phi[-2])
            means.append(Ks @ alpha)
            if std:
                from scipy.linalg import lapack

                # L's diagonal is positive, so trtrs cannot fail; Ks is not read again
                V, _ = lapack.dtrtrs(_cholesky(D, phi)[0], Ks.T, lower=1, overwrite_b=1)
                sn2 = np.exp(phi[-1])
                var = np.exp(phi[-2]) + sn2 - np.sum(V * V, axis=0)
                stds.append(np.sqrt(np.maximum(var, sn2)))
        return np.stack(means, axis=1), np.stack(stds, axis=1) if std else None

    # -- reporting: one row or entry per column ------------------------------

    @property
    def lengthscales(self):
        return np.exp(self.phi[:, :-2])

    @property
    def signal_var(self):
        return np.exp(self.phi[:, -2])

    @property
    def noise_var(self):
        return np.exp(self.phi[:, -1])

    @property
    def n_train(self):
        return 0 if self._y is None else int(self._y.shape[0])
