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
matrix products.  Members that converge leave the stack, and step
halving, clamp counting, the convergence test and the final score check
are decided per member.  Theta at each accepted iterate is kept for the
next iteration and for the fitted model, so an iteration costs one Lambert
W evaluation.  The Newton step is solved for directly, not as the next
iterate less the current one, so designs with an ill-conditioned
covariate (a large offset against a small spread) still converge.  A
member whose design is rank deficient (numpy's matrix_rank rule) or whose
information matrix fails the Cholesky solve of `linalg` is returned as
None without failing its neighbours, and `fit`, the stack of one, raises
SingularMatrixError for it.  Every operation either acts on one member at
a time or element by element, so a member's result is the same to the
last bit whatever else shares its stack; outputs built on the engine
therefore do not depend on how replications are batched.
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


def _bell_constant(y: np.ndarray) -> float:
    vals, counts = np.unique(y, return_counts=True)
    lb = log_bell_many(vals)
    return float(np.sum(counts * (lb - gammaln(vals + 1.0))))


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


def _evaluate(X: np.ndarray, y: np.ndarray, beta: np.ndarray, eta_bound: float) -> _Point:
    """The clamped kernel and its ingredients at beta, one Lambert W call."""
    eta = np.matmul(X, beta[..., None])[..., 0]
    clamped = np.clip(eta, -eta_bound, eta_bound)
    excess = clamped - eta
    mu = np.exp(clamped)
    theta = lambert_w0(mu)
    kern = np.sum(y * np.log(theta) - np.exp(theta), axis=-1) + y.shape[-1]
    return _Point(beta, excess, mu, theta, kern, np.count_nonzero(excess, axis=-1))


def _line_search(m: _Members, cur: _Point, step, eta_bound: float, max_halvings: int) -> _Point:
    """Take the Newton step, halving it (per member, up to max_halvings
    times) while it lowers the clamped kernel by more than roundoff."""
    new = _evaluate(m.X, m.y, cur.beta + step, eta_bound)
    floor = cur.kern - _KERNEL_RTOL * (1.0 + np.abs(cur.kern))
    pending = np.flatnonzero(new.kern < floor)
    for _ in range(max_halvings):
        if not pending.size:
            break
        step[pending] /= 2.0
        trial = _evaluate(m.X[pending], m.y[pending], cur.beta[pending] + step[pending], eta_bound)
        for a, b in zip(new, trial):
            a[pending] = b
        pending = pending[trial.kern < floor[pending]]
    return new


def fit_many(
    X: np.ndarray,
    y: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iter: int = 100,
    eta_bound: float = 30.0,
    max_halvings: int = 10,
) -> list[FittedModel | None]:
    """Fit R datasets of one shape at once: X (R, n, k), y (R, n).

    Each (X[i], y[i]) must pass the checks of Dataset, else ValueError.
    Returns one FittedModel per member, or None for a singular member: one
    whose design is rank deficient, or whose information matrix fails the
    Cholesky solve of `linalg.spd_solve_stack`.  Members run the IRLS of
    `fit` side by side and leave the stack as they converge; a member's
    result does not depend on which other members share its stack.
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
    cur = _evaluate(m.X, m.y, (coef[:, None, :] @ Vt)[:, 0], eta_bound)
    done = np.zeros(m.ids.size, dtype=bool)
    for n_iter in range(max_iter + 1):
        Xt = m.X.transpose(0, 2, 1)
        one_plus = 1.0 + cur.theta
        v = cur.mu / one_plus
        resid = (m.y - cur.mu) / one_plus
        info = Xt @ (m.X * v[..., None])
        stop = done if n_iter < max_iter else np.ones_like(done)
        for i in np.flatnonzero(stop):
            ll = float(cur.kern[i]) + _bell_constant(m.counts[i])
            converged = bool(
                done[i]
                and cur.clipped[i] == 0
                and np.isfinite(ll)
                and np.linalg.norm(Xt[i] @ resid[i]) <= 1e-6 * (1.0 + abs(ll))
            )
            models[m.ids[i]] = FittedModel(
                beta=cur.beta[i].copy(),
                fisher_info=info[i].copy(),
                loglik=ll,
                converged=converged,
                n_iter=n_iter,
                n_clamped=int(m.n_clamped[i]),
            )
        if stop.any():
            keep = ~stop
            m, cur = _take(m, keep), _take(cur, keep)
            v, resid, info = v[keep], resid[keep], info[keep]
            Xt = m.X.transpose(0, 2, 1)
        if not m.ids.size:
            break
        if cur.clipped.any():
            m.n_clamped[:] += cur.clipped
            logger.debug("clamped %d linear predictors at |eta| = %g", cur.clipped.sum(), eta_bound)
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
        done = np.max(np.abs(step), axis=-1) < tol
        cur = _line_search(m, cur, step, eta_bound, max_halvings)
    return models


def fit(
    data: Dataset,
    *,
    tol: float = 1e-8,
    max_iter: int = 100,
    eta_bound: float = 30.0,
    max_halvings: int = 10,
) -> FittedModel:
    """Fit by IRLS from a least-squares start on log(y + 0.5): `fit_many`
    on a stack of one.

    The linear predictor is clamped to [-eta_bound, eta_bound] inside
    iterations (clamp events are counted and logged); a step that lowers
    the clamped kernel by more than roundoff is halved up to max_halvings
    times.  Convergence takes max|step| < tol on the full Newton step, a
    fitted point with no clamped linear predictor, and a score norm below
    1e-6 * (1 + |loglik|); anything else, including data with no finite
    MLE, returns converged=False rather than raising.  A rank-deficient
    design or an information matrix that fails the Cholesky solve raises
    SingularMatrixError.
    """
    model = fit_many(
        data.X[None],
        data.y[None],
        tol=tol,
        max_iter=max_iter,
        eta_bound=eta_bound,
        max_halvings=max_halvings,
    )[0]
    if model is None:
        raise SingularMatrixError("design is rank deficient or information is singular")
    return model


def aic(model: FittedModel) -> float:
    """2k - 2 loglik with k = len(beta)."""
    return 2.0 * model.beta.size - 2.0 * model.loglik
