"""Restricted, pretest, and James-Stein estimation on top of a fitted model.

Given an unrestricted fit with coefficients b and total information F, and
a linear restriction H beta = h with H of full row rank r, the restricted
estimator is the information-metric projection

    b_RE = b - F**-1 H' (H F**-1 H')**-1 (H b - h),

and the Wald statistic for the restriction is

    f = (H b - h)' (H F**-1 H')**-1 (H b - h).

The pretest estimator keeps b_RE when f falls below the chi-square(r)
critical value and b otherwise.  The James-Stein estimator moves from
b_RE toward b by the data-driven factor 1 - (r-2)/f (requiring r >= 3),
and its positive part clamps that factor at zero so the combination never
overshoots past b_RE.

`estimate_many` computes all five estimators for a stack of fits in one
pass, and `compute_all` is its stack of one.  This module also decides
which estimators exist: `ESTIMATOR_ORDER`, and r >= 3 for the James-Stein
pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .bell_glm import FittedModel
from .linalg import SingularMatrixError, spd_solve_stack

__all__ = [
    "ESTIMATOR_ORDER",
    "EstimatorSet",
    "LinearRestriction",
    "compute_all",
    "estimate_many",
    "estimator_names",
    "load_restriction",
]

ESTIMATOR_ORDER = ("UN", "RE", "JSE", "PJSE", "PTE")
_MIN_JS_RESTRICTIONS = 3


def estimator_names(r: int) -> tuple[str, ...]:
    """The estimators defined under r restrictions, in ESTIMATOR_ORDER:
    all five from r = 3 on, without the James-Stein pair below."""
    if r >= _MIN_JS_RESTRICTIONS:
        return ESTIMATOR_ORDER
    return tuple(name for name in ESTIMATOR_ORDER if name not in ("JSE", "PJSE"))


@dataclass(frozen=True)
class LinearRestriction:
    """Linear constraint H beta = h with H full row rank, r <= k."""

    H: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        H = np.ascontiguousarray(self.H, dtype=float)
        h = np.asarray(self.h, dtype=float).reshape(-1)
        if H.ndim != 2:
            raise ValueError(f"H must be 2-d, got ndim={H.ndim}")
        r, k = H.shape
        if not (1 <= r <= k):
            raise ValueError(f"need 1 <= rows <= columns, got H shape {H.shape}")
        if h.shape != (r,):
            raise ValueError(f"h must have one entry per row of H, got shape {h.shape}")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(h))):
            raise ValueError("restriction contains non-finite entries")
        if np.linalg.matrix_rank(H) != r:
            raise ValueError(f"H must have full row rank {r}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "h", h)

    @property
    def n_restrictions(self) -> int:
        return self.H.shape[0]


def load_restriction(path) -> LinearRestriction:
    """Parse a plain-text restriction file.

    One row per line: the entries of that row of H, whitespace-separated,
    then a '|', then the corresponding entry of h.  Blank lines and lines
    starting with '#' are skipped.  A malformed file raises ValueError
    naming the path, and the line where one line is at fault.
    """
    rows = []
    rhs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.count("|") != 1:
                raise ValueError(f"{path}:{lineno}: expected exactly one '|' separator")
            left, right = line.split("|")
            try:
                row = [float(tok) for tok in left.split()]
                val = float(right)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric entry") from exc
            if not row:
                raise ValueError(f"{path}:{lineno}: empty restriction row")
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: row has {len(row)} entries, expected {len(rows[0])}"
                )
            rows.append(row)
            rhs.append(val)
    if not rows:
        raise ValueError(f"{path}: no restriction rows found")
    try:
        return LinearRestriction(np.array(rows), np.array(rhs))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class EstimatorSet:
    """The five estimators for one fit; jse/pjse are None when r < 3."""

    un: np.ndarray
    re: np.ndarray
    pte: np.ndarray
    jse: np.ndarray | None
    pjse: np.ndarray | None
    f_stat: float


@functools.lru_cache(maxsize=64)
def _critical_value(alpha: float, r: int) -> float:
    """The chi-square(r) upper-alpha critical value of the pretest, computed
    once per (alpha, r); the errors are raised on every call."""
    if alpha is None:
        raise ValueError("the pretest estimator needs a test level alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    return float(2.0 * gammaincinv(r / 2.0, 1.0 - alpha))


def estimate_many(
    beta: np.ndarray, fisher: np.ndarray, rest: LinearRestriction, alpha: float = 0.05
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All five estimators for a stack of fits: beta (m, k), fisher (m, k, k).

    Returns (est, f_stat, ok): est (m, 5, k) in ESTIMATOR_ORDER, the Wald
    statistics (m,), and ok (m,), False for a member whose information
    matrix or H F^-1 H' fails the solve; its rows are NaN.  JSE and PJSE
    are NaN when r < 3.  An exactly-satisfied restriction (f_stat = 0)
    makes both the restricted estimator, and a tie at the pretest's
    critical value keeps UN.  Each member's values are bit for bit those
    of `compute_all` on it alone.
    """
    H, h = rest.H, rest.h
    beta = np.asarray(beta, dtype=float)
    m, k = beta.shape
    if H.shape[1] != k:
        raise ValueError(
            f"restriction has {H.shape[1]} columns but the model has {k} parameters"
        )
    r = rest.n_restrictions
    crit = _critical_value(alpha, r)
    # F^-1 H' and y = (H F^-1 H')^-1 (H b - h), one batched solve each
    finv_ht, ok = spd_solve_stack(fisher, np.broadcast_to(H.T, (m, k, r)))
    gap = (H @ beta[..., None])[..., 0] - h
    y, solved = spd_solve_stack(H @ finv_ht, gap)
    ok &= solved
    re = np.where(ok[:, None], beta - (finv_ht @ y[..., None])[..., 0], np.nan)
    f_stat = np.where(ok, np.maximum(0.0, (gap[:, None, :] @ y[..., None])[:, 0, 0]), np.nan)
    un = np.where(ok[:, None], beta, np.nan)
    pte = np.where((f_stat < crit)[:, None], re, un)
    if r >= _MIN_JS_RESTRICTIONS:
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = 1.0 - (r - 2.0) / f_stat
            jse = re + factor[:, None] * (un - re)
        exact = (f_stat == 0.0)[:, None]
        pjse = np.where(exact | (factor <= 0.0)[:, None], re, jse)
        jse = np.where(exact, re, jse)
    else:
        jse = pjse = np.full_like(re, np.nan)
    return np.stack([un, re, jse, pjse, pte], axis=1), f_stat, ok


def compute_all(model: FittedModel, rest: LinearRestriction, alpha: float = 0.05) -> EstimatorSet:
    """All five estimators of one fit: `estimate_many` on a stack of one.

    jse/pjse are None when r < 3, and an exactly-satisfied restriction
    (f_stat = 0) short-circuits both to the restricted estimator.  Raises
    SingularMatrixError where `estimate_many` flags the member."""
    est, f_stat, ok = estimate_many(model.beta[None], model.fisher_info[None], rest, alpha)
    if not ok[0]:
        raise SingularMatrixError(
            "information matrix or H F^-1 H' is singular; the restriction may be "
            "rank-deficient under this fit"
        )
    un, re, jse, pjse, pte = est[0]
    if rest.n_restrictions < _MIN_JS_RESTRICTIONS:
        jse = pjse = None
    return EstimatorSet(un=un, re=re, pte=pte, jse=jse, pjse=pjse, f_stat=float(f_stat[0]))
