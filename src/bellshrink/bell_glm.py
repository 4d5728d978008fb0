"""Bell regression with a log link.

For responses y_i ~ Bell(theta_i) and covariate rows x_i, the model sets

    mu_i = exp(x_i' beta),    theta_i = W(mu_i),

with W the Lambert function.  Writing the log-likelihood kernel as
sum_i [ y_i log theta_i - exp(theta_i) + 1 ], the score, the expected
information and the observed information are

    S(beta) = sum_i x_i (y_i - mu_i) / (1 + theta_i),
    F(beta) = X' V X,   V = diag( mu_i / (1 + theta_i) ),
    J(beta) = X' W X,   W = diag( [mu_i (1 + theta_i + theta_i**2)
                                   + y_i theta_i] / (1 + theta_i)**3 ).

Every weight in W is positive for y >= 0, so J is positive definite
wherever X has full rank and the kernel is strictly concave in beta.  The
log link is not the Bell law's canonical link, so J differs from F and
Fisher scoring on F would converge only linearly (McCullagh and Nelder,
Generalized Linear Models, 2nd ed., 1989); fitting is Newton-Raphson on J,
which converges quadratically.  F is the total (not per-row) information
the estimators and Wald statistics downstream read, so they need no extra
sample-size factor.

There is one fitting engine, `fit_many`, which runs Newton-Raphson on a
stack of R datasets of one shape (X as (R, n, k), y as (R, n)) with batched
matrix products and one batched SPD solve (`linalg.spd_solve_stack`) per
iteration, so its Python cost does not grow with the number of members.
The start is the least-squares fit of log(y + 0.5), from the normal
equations through the same batched solve.  Members that converge leave the
stack, and step halving, clamp counting and the convergence test are
decided per member.  A member converges on the Newton decrement
S' J^-1 S at an unclamped iterate (Boyd and Vandenberghe, Convex
Optimization, 2004, sec. 9.5.1), which does not depend on the scale of the
covariates; the decrement is the solved step dotted with the score, so the
test costs nothing beyond the solve, and the fit never evaluates the
log-likelihood or its Bell-number constants.  Theta at each accepted
iterate is kept for the next iteration and for the fitted model, so an
iteration costs one Lambert W evaluation, and F is formed once per member,
at the point it returns.  The Newton step is solved for directly, not as
the next iterate less the current one, so designs with an ill-conditioned
covariate (a large offset against a small spread) still converge.  The
result is one `FittedModel` of arrays with a leading member axis, each
member's row written as it leaves the stack.  A member whose design is
rank deficient (numpy's matrix_rank rule) or whose observed information
`linalg.spd_solve_stack` flags keeps a NaN row without failing its
neighbours, and `fit`, the stack of one, raises SingularMatrixError for it.
Every operation, the batched solve included, acts on one member at a time
or element by element, so a member's result is the same to the last bit
whatever else shares its stack; outputs built on the engine therefore do
not depend on how replications are batched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bell_dist import _log_pmf
from .linalg import SingularMatrixError, spd_solve_stack
from .special_fn import lambert_w0

__all__ = [
    "Dataset",
    "FittedModel",
    "aic",
    "fit",
    "fit_many",
    "loglik",
]

logger = logging.getLogger(__name__)

# A step is halved only when it lowers the clamped kernel by more than this
# fraction of (1 + |kernel|), so roundoff near the optimum cannot shrink it.
_KERNEL_RTOL = 1e-11
# Converge once the Newton decrement S' (X'WX)^-1 S at an unclamped iterate is
# below _DECREMENT_TOL; give up after _MAX_ITER iterations; clamp the linear
# predictor to +-_ETA_BOUND; halve a step at most _MAX_HALVINGS times.
_DECREMENT_TOL = 1e-12
_MAX_ITER = 100
_ETA_BOUND = 30.0
_MAX_HALVINGS = 10


def _checked(X, y, *, stacked: bool) -> tuple[np.ndarray, np.ndarray]:
    """X as contiguous floats and y as int64 counts, after the checks every
    fit needs; with stacked=True, X is (R, n, k) and y is (R, n)."""
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 + stacked:
        raise ValueError(f"X must be {2 + stacked}-d, got ndim={X.ndim}")
    if y.shape != X.shape[:-1]:
        raise ValueError(f"y must have one entry per row of X, got {y.shape} for X {X.shape}")
    n, k = X.shape[-2:]
    if n <= k:
        raise ValueError(f"need more rows than parameters, got n={n} for {k} columns")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite entries")
    if not np.all(X[..., 0] == 1.0):
        raise ValueError("X must carry a leading intercept column of ones")
    if y.size and (np.any(y < 0) or not np.all(np.equal(np.mod(y, 1), 0))):
        raise ValueError("responses must be nonnegative integers")
    return X, y.astype(np.int64)


@dataclass(frozen=True)
class Dataset:
    """Design matrix with a leading intercept column, and count responses."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X, y = _checked(self.X, self.y, stacked=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    @property
    def n_params(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class FittedModel:
    """Fit output: coefficients, total expected (Fisher) information at the
    optimum, and iteration diagnostics.  The information is taken at the
    clamped linear predictor, which differs from the plain one only in fits
    that end with converged=False.  `loglik(model.beta, data)` gives the
    log-likelihood.  `fit` returns one model, with Python scalars;
    `fit_many` a stack, each field with a leading member axis."""

    beta: np.ndarray
    fisher_info: np.ndarray
    converged: bool | np.ndarray
    n_iter: int | np.ndarray
    n_clamped: int | np.ndarray


def _linear_predictor(beta: np.ndarray, data: Dataset) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.n_params,):
        raise ValueError(f"beta must have shape ({data.n_params},), got {beta.shape}")
    eta = data.X @ beta
    if not np.all(np.isfinite(eta)):
        raise ValueError("non-finite linear predictor")
    return eta


def loglik(beta, data: Dataset) -> float:
    """Full Bell log-likelihood at beta: `bell_dist`'s log pmf summed over
    the rows, -inf where exp(x_i' beta) overflows."""
    eta = _linear_predictor(beta, data)
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    if not np.all(np.isfinite(mu)):
        return float("-inf")
    return float(np.sum(_log_pmf(data.y, lambert_w0(mu))))


def _take(parts, rows):
    """The same named tuple of arrays restricted to the given stack rows."""
    return type(parts)(*(a[rows] for a in parts))


class _Members(NamedTuple):
    """The members still in a stack: design (m, n, k), responses as floats
    (m, n), positions in the caller's stack, clamp counts."""

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray
    n_clamped: np.ndarray


class _Point(NamedTuple):
    """Newton iterates of a stack: coefficients (m, k); clip(eta) - eta, which
    is nonzero only on clamped rows, mean and theta at the clamped linear
    predictor (m, n); the clamped kernel and the number of clamped linear
    predictors (m,)."""

    beta: np.ndarray
    excess: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    kern: np.ndarray
    clipped: np.ndarray


def _evaluate(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> _Point:
    """The clamped kernel and its ingredients at beta, one Lambert W call.
    theta e**theta = mu gives log theta = eta - theta and e**theta =
    mu / theta at the clamped eta, so the kernel needs no log or exp."""
    eta = np.matmul(X, beta[..., None])[..., 0]
    clamped = np.clip(eta, -_ETA_BOUND, _ETA_BOUND)
    excess = np.subtract(clamped, eta, out=eta)
    mu = np.exp(clamped)
    theta = lambert_w0(mu)
    # The kernel's terms y (clamped - theta) - mu / theta, in clamped's array.
    terms = np.subtract(clamped, theta, out=clamped)
    np.multiply(y, terms, out=terms)
    np.subtract(terms, np.divide(mu, theta), out=terms)
    kern = np.sum(terms, axis=-1) + y.shape[-1]
    return _Point(beta, excess, mu, theta, kern, np.count_nonzero(excess, axis=-1))


def _newton_terms(y: np.ndarray, cur: _Point) -> tuple[np.ndarray, np.ndarray]:
    """The observed-information weights w = [mu (1 + theta (1 + theta)) +
    y theta] / (1 + theta)**3 at cur and the working vector
    w (clip(eta) - eta) + s, with s = (y - mu) / (1 + theta) the score in
    eta, each (m, n), computed in place.

    The Newton target (X'WX)^-1 X'W (clip(eta) + s / w) less beta is
    (X'WX)^-1 X' times the working vector: beta cancels before the solve,
    so its roundoff cannot swamp a small step on a badly conditioned
    design, and rows of tiny weight stay finite."""
    one_plus = np.add(1.0, cur.theta)
    resid = np.subtract(y, cur.mu)
    np.divide(resid, one_plus, out=resid)
    w = np.multiply(cur.theta, one_plus)
    np.add(1.0, w, out=w)
    np.multiply(cur.mu, w, out=w)
    tmp = np.multiply(y, cur.theta)
    np.add(w, tmp, out=w)
    np.divide(w, np.power(one_plus, 3, out=tmp), out=w)
    np.multiply(w, cur.excess, out=tmp)
    return w, np.add(tmp, resid, out=tmp)


def _line_search(m: _Members, cur: _Point, step) -> _Point:
    """Take the Newton step, halving it (per member, up to _MAX_HALVINGS
    times) while it lowers the clamped kernel by more than roundoff."""
    new = _evaluate(m.X, m.y, cur.beta + step)
    floor = cur.kern - _KERNEL_RTOL * (1.0 + np.abs(cur.kern))
    pending = np.flatnonzero(new.kern < floor)
    for _ in range(_MAX_HALVINGS):
        if not pending.size:
            break
        step[pending] /= 2.0
        trial = _evaluate(m.X[pending], m.y[pending], cur.beta[pending] + step[pending])
        for a, b in zip(new, trial):
            a[pending] = b
        pending = pending[trial.kern < floor[pending]]
    return new


def fit_many(X: np.ndarray, y: np.ndarray) -> FittedModel:
    """Fit R datasets of one shape at once: X (R, n, k), y (R, n).

    Each (X[i], y[i]) must pass the checks of Dataset, else ValueError.
    Returns one FittedModel: beta (R, k), fisher_info (R, k, k) and
    converged, n_iter, n_clamped (R,).  Row i is, bit for bit, what `fit`
    returns for member i, whichever members share the stack.  A singular
    member keeps NaN beta and fisher_info, converged False and zero n_iter
    and n_clamped.  A member whose normal equations for the least-squares
    start are flagged by the solve starts from beta = 0 and fits as usual.
    """
    X, counts = _checked(X, y, stacked=True)
    R, n, k = X.shape
    out = FittedModel(
        beta=np.full((R, k), np.nan),
        fisher_info=np.full((R, k, k), np.nan),
        converged=np.zeros(R, dtype=bool),
        n_iter=np.zeros(R, dtype=int),
        n_clamped=np.zeros(R, dtype=int),
    )
    m = _Members(X, counts.astype(float), np.arange(R), np.zeros(R, dtype=int))
    # numpy's matrix_rank rule: the smallest singular value must exceed
    # max(n, k) * eps times the largest.
    sv = np.linalg.svd(X, compute_uv=False)
    keep = sv[:, -1] > sv[:, 0] * max(n, k) * np.finfo(float).eps
    if not keep.all():
        m = _take(m, keep)
    Xt = m.X.transpose(0, 2, 1)
    start, ok = spd_solve_stack(Xt @ m.X, (Xt @ np.log(m.y + 0.5)[..., None])[..., 0])
    cur = _evaluate(m.X, m.y, np.where(ok[:, None], start, 0.0))
    done = np.zeros(m.ids.size, dtype=bool)
    for n_iter in range(_MAX_ITER + 1):
        stop = done if n_iter < _MAX_ITER else np.ones_like(done)
        if stop.any():
            ids, Xs = m.ids[stop], m.X[stop]
            v = cur.mu[stop] / (1.0 + cur.theta[stop])
            out.beta[ids] = cur.beta[stop]
            out.fisher_info[ids] = Xs.transpose(0, 2, 1) @ (Xs * v[..., None])
            out.converged[ids] = (done & (cur.clipped == 0))[stop]
            out.n_iter[ids] = n_iter
            out.n_clamped[ids] = m.n_clamped[stop]
            m, cur = _take(m, ~stop), _take(cur, ~stop)
        if not m.ids.size:
            break
        if cur.clipped.any():
            m.n_clamped[:] += cur.clipped
            logger.debug("clamped %d linear predictors at |eta| = %g", cur.clipped.sum(), _ETA_BOUND)
        w, target = _newton_terms(m.y, cur)
        Xt = m.X.transpose(0, 2, 1)
        rhs = (Xt @ target[..., None])[..., 0]
        step, ok = spd_solve_stack(Xt @ (m.X * w[..., None]), rhs)
        if not ok.all():
            m, cur, rhs, step = _take(m, ok), _take(cur, ok), rhs[ok], step[ok]
            if not m.ids.size:
                break
        # With no clamped predictor the excess is zero and rhs is the score,
        # so rhs . step is the Newton decrement.  The step is still taken,
        # and the member finishes at the next pass.
        done = (cur.clipped == 0) & (np.sum(rhs * step, axis=-1) < _DECREMENT_TOL)
        cur = _line_search(m, cur, step)
    return out


def fit(data: Dataset) -> FittedModel:
    """Fit by Newton-Raphson from a least-squares start on log(y + 0.5):
    `fit_many` on a stack of one.

    The linear predictor is clamped to [-30, 30] inside iterations (clamp
    events are counted and logged); a step that lowers the clamped kernel
    by more than roundoff is halved up to 10 times.  Convergence takes a
    Newton decrement S' (X'WX)^-1 S below 1e-12 at an iterate with no
    clamped linear predictor, and no clamped linear predictor at the point
    that iterate's step reaches, which is the one returned; a fit still
    running after 100 iterations stops there.  Anything else, including
    data with no finite MLE, returns converged=False rather than raising.
    The returned fisher_info is the expected information X'VX at the
    returned beta.  A rank-deficient design, or an observed information
    that fails the Cholesky test or the LU solve, raises
    SingularMatrixError.
    """
    fits = fit_many(data.X[None], data.y[None])
    if np.isnan(fits.beta[0]).any():
        raise SingularMatrixError("design is rank deficient or information is singular")
    scalars = (fits.converged.item(), fits.n_iter.item(), fits.n_clamped.item())
    return FittedModel(fits.beta[0], fits.fisher_info[0], *scalars)


def aic(model: FittedModel, data: Dataset) -> float:
    """2k - 2 loglik(beta, data) with k = len(beta), for a model fitted to data."""
    return 2.0 * model.beta.size - 2.0 * loglik(model.beta, data)
