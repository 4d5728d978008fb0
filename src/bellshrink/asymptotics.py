"""Asymptotic bias and mean-square error of the shrinkage estimators.

Under a local alternative H beta = h + gamma / sqrt(n), the scaled
estimation errors converge jointly to Gaussians built from

    kappa  = F**-1 H' (H F**-1 H')**-1          (k x r),
    kappa0 = kappa (H F**-1 H') kappa'          (k x k, rank r),
    delta  = gamma' (H F**-1 H')**-1 gamma      (noncentrality),

with F the per-observation information limit.  The unrestricted error is
Z1 ~ N(0, F**-1); the projection component Z3 = kappa (H Z1 + gamma) has
mean kappa gamma and covariance kappa0, is independent of Z2 = Z1 - Z3,
and the Wald statistic converges to |U|^2-type quadratic form
U' (H F**-1 H')**-1 U ~ chi-square(r, delta).

Every bias and risk expression below follows from two moment identities
for U ~ N_r(gamma, Sigma) and q = U' Sigma**-1 U:

    E[ phi(q) U ]    = gamma * E[ phi(chi2_{r+2}(delta)) ],
    E[ phi(q) U U' ] = Sigma * E[ phi(chi2_{r+2}(delta)) ]
                       + gamma gamma' * E[ phi(chi2_{r+4}(delta)) ],

applied with phi a power of 1/q, an indicator, or their products.  The
resulting closed forms only need the noncentral chi-square distribution
function and (truncated) inverse moments from `special_fn`.

AMSE here means the second-moment matrix of the limiting scaled error,
i.e. squared-bias plus variance; traces of these matrices are the scalar
risks plotted against delta.

A `LocalAlternative` may hold a stack of D drifts, gamma of shape (D, r),
sharing F and H: delta is then a (D,) array, bias vectors come back as
(D, k) and AMSE matrices as (D, k, k), and every member equals, bit for
bit, what its drift alone gives.  A single drift of shape (r,) is the
stack of one and keeps the scalar delta, (k,) and (k, k) returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import spd_inverse, spd_solve, spd_solve_stack
from .shrinkage import _MIN_JS_RESTRICTIONS, ESTIMATOR_ORDER, LinearRestriction, _critical_value

__all__ = [
    "LocalAlternative",
    "asymptotic_amse",
    "asymptotic_bias",
]

from .special_fn import NoncentralChiSq, inv_moment, noncentral_chisq_cdf, truncated_inv_moment


@dataclass
class LocalAlternative:
    """A restriction drift direction gamma together with the information
    limit F; derived projection quantities are computed once on creation.

    gamma is one drift (r,) or a stack of drifts (D, r); a sweep over many
    drifts is one alternative built with the stack.  Each noncentral
    chi-square quantity the estimators need is evaluated once per
    alternative, for the whole stack, and shared by every
    `asymptotic_bias`/`asymptotic_amse` call.
    """

    gamma: np.ndarray
    fisher: np.ndarray
    restriction: LinearRestriction
    f_inv: np.ndarray = field(init=False, repr=False)
    kappa: np.ndarray = field(init=False, repr=False)
    kappa0: np.ndarray = field(init=False, repr=False)
    delta: float | np.ndarray = field(init=False)
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        H = self.restriction.H
        r, k = H.shape
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.ndim < 2:
            gamma = gamma.reshape(-1)
        if gamma.shape[-1:] != (r,) or gamma.ndim > 2:
            raise ValueError(f"gamma must have shape ({r},) or (D, {r}), got {gamma.shape}")
        if not np.all(np.isfinite(gamma)):
            raise ValueError("gamma contains non-finite entries")
        fisher = np.ascontiguousarray(self.fisher, dtype=float)
        if fisher.shape != (k, k):
            raise ValueError(f"fisher must have shape ({k}, {k}), got {fisher.shape}")
        self.gamma = gamma
        self.fisher = fisher
        self.f_inv = spd_inverse(fisher)
        finv_ht = self.f_inv @ H.T
        hfh = H @ finv_ht  # SPD because H has full row rank
        self.kappa = spd_solve(hfh, finv_ht.T).T
        self.kappa0 = self.kappa @ finv_ht.T
        self.kappa0 = (self.kappa0 + self.kappa0.T) / 2.0
        self.delta = _noncentrality(hfh, gamma)

    @property
    def n_restrictions(self) -> int:
        return self.restriction.n_restrictions

    @property
    def n_params(self) -> int:
        return self.fisher.shape[0]


def _stacked(la: LocalAlternative, values: np.ndarray) -> np.ndarray:
    """Per-member values (D, ...) as the alternative's shape: member 0 alone
    for a single drift."""
    return values if la.gamma.ndim == 2 else values[0]


def _noncentrality(hfh: np.ndarray, gamma: np.ndarray) -> float | np.ndarray:
    """gamma' (H F^-1 H')^-1 gamma per drift, from one batched solve."""
    g = np.atleast_2d(gamma)
    # hfh passed the kappa solve and gamma is finite, so every member solves.
    x, _ = spd_solve_stack(np.broadcast_to(hfh, (len(g), *hfh.shape)), g)
    q = (g[:, None, :] @ x[:, :, None])[:, 0, 0]
    delta = np.where(q > 0.0, q, 0.0)
    return delta if gamma.ndim == 2 else float(delta[0])


def _ncx2(la: LocalAlternative, fn, dof: int, **kwargs) -> np.ndarray:
    """fn(dist=chi2_dof(delta), **kwargs) for one of the noncentral
    chi-square functions, one value per drift of the stack, evaluated once
    per alternative."""
    memo = la._memo
    key = (fn, dof, *sorted(kwargs.items()))
    if key not in memo:
        if dof not in memo:
            memo[dof] = NoncentralChiSq(dof, np.atleast_1d(la.delta))
        memo[key] = fn(dist=memo[dof], **kwargs)
    return memo[key]


def _require(estimator: str) -> str:
    est = str(estimator).upper()
    if est not in ESTIMATOR_ORDER:
        raise ValueError(f"estimator must be one of {ESTIMATOR_ORDER}, got {estimator!r}")
    return est


def _js_shrinkage(la: LocalAlternative) -> float:
    """The James-Stein constant c = r - 2."""
    r = la.n_restrictions
    if r < _MIN_JS_RESTRICTIONS:
        raise ValueError(f"James-Stein asymptotics need r >= 3 restrictions, got r={r}")
    return r - 2.0


def asymptotic_bias(estimator: str, la: LocalAlternative, alpha=None) -> np.ndarray:
    """Limiting bias vector of sqrt(n) * (estimator - beta), (k,) or (D, k).

    UN is unbiased: its bias is zero.  The other four shrink along
    kappa gamma; the scalar factor is 1 for RE, a noncentral inverse moment
    for JSE, that same factor with the clamp correction for PJSE, and the
    probability of accepting the restriction for PTE.
    """
    est = _require(estimator)
    kg = _kappa_gamma(la)
    r = la.n_restrictions
    if est == "UN":
        return _stacked(la, np.zeros_like(kg))
    if est == "RE":
        return _stacked(la, -kg)
    if est == "PTE":
        cutoff = _critical_value(alpha, r)
        return _stacked(la, -kg * _ncx2(la, noncentral_chisq_cdf, r + 2, x=cutoff)[:, None])
    c = _js_shrinkage(la)
    jse = -c * _ncx2(la, inv_moment, r + 2, order=1)[:, None] * kg
    if est == "JSE":
        return _stacked(la, jse)
    # PJSE: clamping to the positive part adds E[(1 - c/q) 1{q < c}] along kg.
    correction = (
        c * _ncx2(la, truncated_inv_moment, r + 2, cutoff=c, order=1)
        - _ncx2(la, noncentral_chisq_cdf, r + 2, x=c)
    )
    return _stacked(la, jse + correction[:, None] * kg)


def asymptotic_amse(estimator: str, la: LocalAlternative, alpha=None) -> np.ndarray:
    """Limiting second-moment matrix of sqrt(n) * (estimator - beta),
    (k, k) or (D, k, k).

    UN gives F**-1; the others trade the rank-r block kappa0 against a
    rank-one drift term along kappa gamma with delta-dependent weights.
    """
    est = _require(estimator)
    finv = la.f_inv
    kg = _kappa_gamma(la)
    if est == "UN":
        return _stacked(la, np.repeat(finv[None], len(kg), axis=0))
    drift = kg[:, :, None] * kg[:, None, :]
    r = la.n_restrictions
    if est == "RE":
        return _stacked(la, finv - la.kappa0 + drift)

    def ncx2(fn, dof, **kwargs):  # one weight per member, shaped to scale (k, k) blocks
        return _ncx2(la, fn, dof, **kwargs)[:, None, None]

    if est == "PTE":
        cutoff = _critical_value(alpha, r)
        p2 = ncx2(noncentral_chisq_cdf, r + 2, x=cutoff)
        p4 = ncx2(noncentral_chisq_cdf, r + 4, x=cutoff)
        return _stacked(la, finv - la.kappa0 * p2 + drift * (2.0 * p2 - p4))
    c = _js_shrinkage(la)
    e1_2 = ncx2(inv_moment, r + 2, order=1)
    e2_2 = ncx2(inv_moment, r + 2, order=2)
    e1_4 = ncx2(inv_moment, r + 4, order=1)
    e2_4 = ncx2(inv_moment, r + 4, order=2)
    jse = (
        finv
        + la.kappa0 * (c * (c * e2_2 - 2.0 * e1_2))
        + drift * (c * (2.0 * e1_2 - 2.0 * e1_4 + c * e2_4))
    )
    if est == "JSE":
        return _stacked(la, jse)
    # PJSE: the clamp replaces the negative-factor region {q < c} of the
    # James-Stein risk; both corrections are expectations of
    # (1 - c/q)**2-type terms truncated to that region.
    p2 = ncx2(noncentral_chisq_cdf, r + 2, x=c)
    p4 = ncx2(noncentral_chisq_cdf, r + 4, x=c)
    t1_2 = ncx2(truncated_inv_moment, r + 2, cutoff=c, order=1)
    t2_2 = ncx2(truncated_inv_moment, r + 2, cutoff=c, order=2)
    t1_4 = ncx2(truncated_inv_moment, r + 4, cutoff=c, order=1)
    t2_4 = ncx2(truncated_inv_moment, r + 4, cutoff=c, order=2)
    core = -p2 + 2.0 * c * t1_2 - c * c * t2_2
    drift_corr = 2.0 * p2 - 2.0 * c * t1_2 - p4 + 2.0 * c * t1_4 - c * c * t2_4
    return _stacked(la, jse + la.kappa0 * core + drift * drift_corr)


def _kappa_gamma(la: LocalAlternative) -> np.ndarray:
    """kappa gamma per drift, (D, k): one matrix-vector product per member."""
    return (la.kappa @ np.atleast_2d(la.gamma)[:, :, None])[:, :, 0]
