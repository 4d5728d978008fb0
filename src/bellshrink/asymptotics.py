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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2

from .linalg import spd_inverse, spd_solve
from .shrinkage import _MIN_JS_RESTRICTIONS, ESTIMATOR_ORDER, LinearRestriction

__all__ = [
    "LimitMoments",
    "LocalAlternative",
    "asymptotic_amse",
    "asymptotic_bias",
    "limiting_moments",
]

from .special_fn import NoncentralChiSq, inv_moment, noncentral_chisq_cdf, truncated_inv_moment

_BIAS_ESTIMATORS = ESTIMATOR_ORDER[1:]  # UN is unbiased
_AMSE_ESTIMATORS = ESTIMATOR_ORDER


@dataclass
class LocalAlternative:
    """A restriction drift direction gamma together with the information
    limit F; derived projection quantities are computed once on creation."""

    gamma: np.ndarray
    fisher: np.ndarray
    restriction: LinearRestriction
    f_inv: np.ndarray = field(init=False, repr=False)
    kappa: np.ndarray = field(init=False, repr=False)
    kappa0: np.ndarray = field(init=False, repr=False)
    delta: float = field(init=False)

    def __post_init__(self):
        H = self.restriction.H
        r, k = H.shape
        gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        fisher = np.ascontiguousarray(self.fisher, dtype=float)
        if gamma.shape != (r,):
            raise ValueError(f"gamma must have shape ({r},), got {gamma.shape}")
        if fisher.shape != (k, k):
            raise ValueError(f"fisher must have shape ({k}, {k}), got {fisher.shape}")
        if not np.all(np.isfinite(gamma)):
            raise ValueError("gamma contains non-finite entries")
        self.gamma = gamma
        self.fisher = fisher
        self.f_inv = spd_inverse(fisher)
        finv_ht = self.f_inv @ H.T
        m = H @ finv_ht  # H F^-1 H', SPD because H has full row rank
        self.kappa = spd_solve(m, finv_ht.T).T
        self.kappa0 = self.kappa @ finv_ht.T
        self.kappa0 = (self.kappa0 + self.kappa0.T) / 2.0
        self.delta = max(0.0, float(gamma @ spd_solve(m, gamma)))

    @property
    def n_restrictions(self) -> int:
        return self.restriction.n_restrictions

    @property
    def n_params(self) -> int:
        return self.fisher.shape[0]


@dataclass(frozen=True)
class LimitMoments:
    """Means and 3x3 covariance blocks of (Z1, Z2, Z3): the limiting scaled
    errors of the unrestricted fit, its projection residual, and the
    projection component itself."""

    means: tuple[np.ndarray, np.ndarray, np.ndarray]
    cov_blocks: np.ndarray  # shape (3, 3, k, k)


def limiting_moments(la: LocalAlternative) -> LimitMoments:
    """Joint Gaussian limit of (Z1, Z2, Z3); Z2 and Z3 are uncorrelated and
    their covariances split F**-1 into (F**-1 - kappa0) + kappa0."""
    k = la.n_params
    kg = la.kappa @ la.gamma
    means = (np.zeros(k), -kg, kg.copy())
    blocks = np.zeros((3, 3, k, k))
    blocks[0, 0] = la.f_inv
    blocks[1, 1] = la.f_inv - la.kappa0
    blocks[2, 2] = la.kappa0
    blocks[0, 1] = blocks[1, 0] = la.f_inv - la.kappa0
    blocks[0, 2] = blocks[2, 0] = la.kappa0
    # blocks[1, 2] and blocks[2, 1] stay zero: the split is orthogonal.
    return LimitMoments(means=means, cov_blocks=blocks)


def _require(estimator: str, allowed: tuple[str, ...]) -> str:
    est = str(estimator).upper()
    if est not in allowed:
        raise ValueError(f"estimator must be one of {allowed}, got {estimator!r}")
    return est


def _js_pieces(la: LocalAlternative):
    r = la.n_restrictions
    if r < _MIN_JS_RESTRICTIONS:
        raise ValueError(f"James-Stein asymptotics need r >= 3 restrictions, got r={r}")
    return r - 2.0, NoncentralChiSq(r + 2, la.delta), NoncentralChiSq(r + 4, la.delta)


def _pte_cutoff(r: int, alpha) -> float:
    if alpha is None:
        raise ValueError("the pretest estimator needs a test level alpha")
    if not 0.0 < float(alpha) < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    return float(chi2.ppf(1.0 - float(alpha), r))


def asymptotic_bias(estimator: str, la: LocalAlternative, alpha=None) -> np.ndarray:
    """Limiting bias vector of sqrt(n) * (estimator - beta).

    All four biased estimators shrink along kappa gamma; the scalar factor
    is 1 for RE, a noncentral inverse moment for JSE, that same factor with
    the clamp correction for PJSE, and the probability of accepting the
    restriction for PTE.
    """
    est = _require(estimator, _BIAS_ESTIMATORS)
    kg = la.kappa @ la.gamma
    if est == "RE":
        return -kg
    if est == "PTE":
        cutoff = _pte_cutoff(la.n_restrictions, alpha)
        return -kg * noncentral_chisq_cdf(cutoff, NoncentralChiSq(la.n_restrictions + 2, la.delta))
    c, d2, _ = _js_pieces(la)
    jse = -c * inv_moment(d2) * kg
    if est == "JSE":
        return jse
    # PJSE: clamping to the positive part adds E[(1 - c/q) 1{q < c}] along kg.
    correction = c * truncated_inv_moment(d2, c) - noncentral_chisq_cdf(c, d2)
    return jse + correction * kg


def asymptotic_amse(estimator: str, la: LocalAlternative, alpha=None) -> np.ndarray:
    """Limiting second-moment matrix of sqrt(n) * (estimator - beta).

    UN gives F**-1; the others trade the rank-r block kappa0 against a
    rank-one drift term along kappa gamma with delta-dependent weights.
    """
    est = _require(estimator, _AMSE_ESTIMATORS)
    finv = la.f_inv
    if est == "UN":
        return finv.copy()
    kg = la.kappa @ la.gamma
    drift = np.outer(kg, kg)
    if est == "RE":
        return finv - la.kappa0 + drift
    if est == "PTE":
        cutoff = _pte_cutoff(la.n_restrictions, alpha)
        r = la.n_restrictions
        p2 = noncentral_chisq_cdf(cutoff, NoncentralChiSq(r + 2, la.delta))
        p4 = noncentral_chisq_cdf(cutoff, NoncentralChiSq(r + 4, la.delta))
        return finv - la.kappa0 * p2 + drift * (2.0 * p2 - p4)
    c, d2, d4 = _js_pieces(la)
    e1_2 = inv_moment(d2, order=1)
    e2_2 = inv_moment(d2, order=2)
    e1_4 = inv_moment(d4, order=1)
    e2_4 = inv_moment(d4, order=2)
    jse = (
        finv
        + la.kappa0 * (c * (c * e2_2 - 2.0 * e1_2))
        + drift * (c * (2.0 * e1_2 - 2.0 * e1_4 + c * e2_4))
    )
    if est == "JSE":
        return jse
    # PJSE: the clamp replaces the negative-factor region {q < c} of the
    # James-Stein risk; both corrections are expectations of
    # (1 - c/q)**2-type terms truncated to that region.
    p2 = noncentral_chisq_cdf(c, d2)
    p4 = noncentral_chisq_cdf(c, d4)
    t1_2 = truncated_inv_moment(d2, c, order=1)
    t2_2 = truncated_inv_moment(d2, c, order=2)
    t1_4 = truncated_inv_moment(d4, c, order=1)
    t2_4 = truncated_inv_moment(d4, c, order=2)
    core = -p2 + 2.0 * c * t1_2 - c * c * t2_2
    drift_corr = 2.0 * p2 - 2.0 * c * t1_2 - p4 + 2.0 * c * t1_4 - c * c * t2_4
    return jse + la.kappa0 * core + drift * drift_corr
