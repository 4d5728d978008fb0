"""Bell regression with a log link.

For responses y_i ~ Bell(theta_i) and covariate rows x_i, the model sets

    mu_i = exp(x_i' beta),    theta_i = W(mu_i),

with W the Lambert function.  Writing the log-likelihood kernel as
sum_i [ y_i log theta_i - exp(theta_i) + 1 ], the score and expected
information are

    S(beta) = sum_i x_i (y_i - mu_i) / (1 + theta_i),
    F(beta) = X' V X,   V = diag( mu_i / (1 + theta_i) ),

and fitting is iteratively reweighted least squares on the working
response eta_i + (y_i - mu_i) / mu_i.  F is the total (not per-row)
information, so Wald statistics downstream need no extra sample-size
factor.

There is one fitting engine, `fit_many`, which runs this IRLS on a stack
of R datasets of one shape (X as (R, n, k), y as (R, n)) with batched
matrix products and one batched SPD solve (`linalg.spd_solve_stack`) per
iteration, so its Python cost does not grow with the number of members.
Members that converge leave the stack, and step halving, clamp counting,
the convergence test and the final score check are decided per member.
Theta at each accepted iterate is kept for the next iteration and for the
fitted model, so an iteration costs one Lambert W evaluation.  The Newton
step is solved for directly, not as the next iterate less the current one,
so designs with an ill-conditioned covariate (a large offset against a
small spread) still converge.  A member whose design is rank deficient
(numpy's matrix_rank rule) or whose information matrix
`linalg.spd_solve_stack` flags is returned as None without failing its
neighbours, and `fit`, the stack of one, raises SingularMatrixError for
it.  Every operation, the batched solve included, acts on one member at a
time or element by element, so a member's result is the same to the last
bit whatever else shares its stack; outputs built on the engine therefore
do not depend on how replications are batched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .linalg import SingularMatrixError, spd_solve_stack
from .special_fn import lambert_w0, log_bell_many

__all__ = [
    "Dataset",
    "FittedModel",
    "aic",
    "fisher_information",
    "fit",
    "fit_many",
    "loglik",
    "score",
]

logger = logging.getLogger(__name__)

# A step is halved only when it lowers the clamped kernel by more than this
# fraction of (1 + |kernel|), so roundoff near the optimum cannot shrink it.
_KERNEL_RTOL = 1e-11
# Stop when every entry of the full Newton step is below _TOL; give up after
# _MAX_ITER iterations; clamp the linear predictor to +-_ETA_BOUND; halve a
# step at most _MAX_HALVINGS times.
_TOL = 1e-8
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
    """IRLS output: coefficients, total Fisher information at the optimum,
    the full log-likelihood there, and iteration diagnostics.  Information
    and log-likelihood are taken at the clamped linear predictor, which
    differs from the plain one only in fits that end with converged=False."""

    beta: np.ndarray
    fisher_info: np.ndarray
    loglik: float
    converged: bool
    n_iter: int
    n_clamped: int


def _linear_predictor(beta: np.ndarray, data: Dataset) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.n_params,):
        raise ValueError(f"beta must have shape ({data.n_params},), got {beta.shape}")
    eta = data.X @ beta
    if not np.all(np.isfinite(eta)):
        raise ValueError("non-finite linear predictor")
    return eta


def _kernel(eta: np.ndarray, y: np.ndarray) -> float:
    """sum_i [ y_i log theta_i - exp(theta_i) + 1 ] at theta = W(exp(eta))."""
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    if not np.all(np.isfinite(mu)):
        return float("-inf")
    theta = lambert_w0(mu)
    with np.errstate(divide="ignore"):
        log_theta = np.log(theta)
    contrib = np.where(y > 0, y * log_theta, 0.0)
    return float(np.sum(contrib) - np.sum(np.exp(theta)) + y.size)


def _bell_constants(counts: np.ndarray) -> np.ndarray:
    """sum_i log(B_{y_i} / y_i!) for each row of counts (m, n).

    One table of Bell logs serves the whole stack.  Each row sums its
    distinct counts in ascending order, each term weighted by how often
    its count occurs, so a row's value does not depend on the others."""
    s = np.sort(counts, axis=1)
    first = np.ones(s.shape, dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    starts = np.flatnonzero(first)  # flat position of each row's distinct counts
    vals, inv = np.unique(s.ravel()[starts], return_inverse=True)
    terms = np.diff(starts, append=s.size) * (log_bell_many(vals) - gammaln(vals + 1.0))[inv]
    ends = np.cumsum(np.count_nonzero(first, axis=1)).tolist()
    return np.array([terms[a:b].sum() for a, b in zip([0, *ends], ends)])


def _bell_constant(y: np.ndarray) -> float:
    return float(_bell_constants(y[None])[0])


def loglik(beta, data: Dataset) -> float:
    """Full Bell log-likelihood at beta (Bell-number constants included)."""
    eta = _linear_predictor(beta, data)
    return _kernel(eta, data.y) + _bell_constant(data.y)


def score(beta, data: Dataset) -> np.ndarray:
    eta = _linear_predictor(beta, data)
    mu = np.exp(eta)
    theta = lambert_w0(mu)
    return data.X.T @ ((data.y - mu) / (1.0 + theta))


def fisher_information(beta, data: Dataset) -> np.ndarray:
    """Total expected information X' diag(mu/(1+theta)) X at beta."""
    eta = _linear_predictor(beta, data)
    mu = np.exp(eta)
    theta = lambert_w0(mu)
    v = mu / (1.0 + theta)
    return data.X.T @ (data.X * v[:, None])


def _take(parts, rows):
    """The same named tuple of arrays restricted to the given stack rows."""
    return type(parts)(*(a[rows] for a in parts))


class _Members(NamedTuple):
    """The members still in a stack: design (m, n, k), responses as floats
    and as counts (m, n), positions in the caller's stack, clamp counts."""

    X: np.ndarray
    y: np.ndarray
    counts: np.ndarray
    ids: np.ndarray
    n_clamped: np.ndarray


class _Point(NamedTuple):
    """IRLS iterates of a stack: coefficients (m, k); clip(eta) - eta, which
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
    """The clamped kernel and its ingredients at beta, one Lambert W call."""
    eta = np.matmul(X, beta[..., None])[..., 0]
    clamped = np.clip(eta, -_ETA_BOUND, _ETA_BOUND)
    excess = clamped - eta
    mu = np.exp(clamped)
    theta = lambert_w0(mu)
    kern = np.sum(y * np.log(theta) - np.exp(theta), axis=-1) + y.shape[-1]
    return _Point(beta, excess, mu, theta, kern, np.count_nonzero(excess, axis=-1))


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


def fit_many(X: np.ndarray, y: np.ndarray) -> list[FittedModel | None]:
    """Fit R datasets of one shape at once: X (R, n, k), y (R, n).

    Each (X[i], y[i]) must pass the checks of Dataset, else ValueError.
    Returns one FittedModel per member, or None for a singular member: one
    whose design is rank deficient, or whose information matrix
    `linalg.spd_solve_stack` flags.  Members run the IRLS of `fit` side by
    side, with its fixed tolerance (1e-8), iteration cap (100), clamp
    (|eta| <= 30) and halving count (10) and one batched solve per
    iteration, and leave the stack as they converge; a member's result does
    not depend on which others share it.
    """
    X, counts = _checked(X, y, stacked=True)
    models: list[FittedModel | None] = [None] * X.shape[0]
    m = _Members(X, counts.astype(float), counts, np.arange(X.shape[0]), np.zeros(X.shape[0], int))
    # One SVD per member gives both numpy's matrix_rank test (the smallest
    # singular value above max(n, k) * eps times the largest) and the
    # least-squares start on log(y + 0.5), as lstsq computes it.
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    keep = sv[:, -1] > sv[:, 0] * max(X.shape[1:]) * np.finfo(float).eps
    if not keep.all():
        m, U, sv, Vt = _take(m, keep), U[keep], sv[keep], Vt[keep]
    coef = (np.log(m.y + 0.5)[:, None, :] @ U)[:, 0] / sv
    cur = _evaluate(m.X, m.y, (coef[:, None, :] @ Vt)[:, 0])
    done = np.zeros(m.ids.size, dtype=bool)
    for n_iter in range(_MAX_ITER + 1):
        Xt = m.X.transpose(0, 2, 1)
        one_plus = 1.0 + cur.theta
        v = cur.mu / one_plus
        resid = (m.y - cur.mu) / one_plus
        info = Xt @ (m.X * v[..., None])
        stop = done if n_iter < _MAX_ITER else np.ones_like(done)
        if stop.any():
            fin = np.flatnonzero(stop)
            ll = cur.kern[fin] + _bell_constants(m.counts[fin])
            score = np.linalg.norm((Xt[fin] @ resid[fin][..., None])[..., 0], axis=-1)
            converged = (
                done[fin]
                & (cur.clipped[fin] == 0)
                & np.isfinite(ll)
                & (score <= 1e-6 * (1.0 + np.abs(ll)))
            )
            for j, i in enumerate(fin):
                models[m.ids[i]] = FittedModel(
                    beta=cur.beta[i].copy(),
                    fisher_info=info[i].copy(),
                    loglik=float(ll[j]),
                    converged=bool(converged[j]),
                    n_iter=n_iter,
                    n_clamped=int(m.n_clamped[i]),
                )
            keep = ~stop
            m, cur = _take(m, keep), _take(cur, keep)
            v, resid, info = v[keep], resid[keep], info[keep]
            Xt = m.X.transpose(0, 2, 1)
        if not m.ids.size:
            break
        if cur.clipped.any():
            m.n_clamped[:] += cur.clipped
            logger.debug("clamped %d linear predictors at |eta| = %g", cur.clipped.sum(), _ETA_BOUND)
        # The IRLS target F^-1 X'V (clip(eta) + (y - mu)/mu) less beta, as
        # F^-1 X'(V (clip(eta) - eta) + (y - mu)/(1 + theta)): beta cancels
        # before the solve, so its roundoff cannot swamp a small step on a
        # badly conditioned design, and zero-weight rows stay finite.
        rhs = (Xt @ (v * cur.excess + resid)[..., None])[..., 0]
        step, ok = spd_solve_stack(info, rhs)
        if not ok.all():
            m, cur, step = _take(m, ok), _take(cur, ok), step[ok]
            if not m.ids.size:
                break
        done = np.max(np.abs(step), axis=-1) < _TOL
        cur = _line_search(m, cur, step)
    return models


def fit(data: Dataset) -> FittedModel:
    """Fit by IRLS from a least-squares start on log(y + 0.5): `fit_many`
    on a stack of one.

    The linear predictor is clamped to [-30, 30] inside iterations (clamp
    events are counted and logged); a step that lowers the clamped kernel
    by more than roundoff is halved up to 10 times.  Convergence takes
    max|step| < 1e-8 on the full Newton step, a fitted point with no
    clamped linear predictor, and a score norm below 1e-6 * (1 + |loglik|);
    a fit still running after 100 iterations stops there.  Anything else,
    including data with no finite MLE, returns converged=False rather than
    raising.  A rank-deficient design or an information matrix that fails
    the Cholesky solve raises SingularMatrixError.
    """
    model = fit_many(data.X[None], data.y[None])[0]
    if model is None:
        raise SingularMatrixError("design is rank deficient or information is singular")
    return model


def aic(model: FittedModel) -> float:
    """2k - 2 loglik with k = len(beta)."""
    return 2.0 * model.beta.size - 2.0 * model.loglik
