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
U' (H F**-1 H')**-1 U ~ chi-square(r, delta).  Since kappa' F kappa is
(H F**-1 H')**-1, delta is computed as (kappa gamma)' F (kappa gamma).

Every bias and risk expression below follows from two moment identities
for U ~ N_r(gamma, Sigma) and q = U' Sigma**-1 U:

    E[ phi(q) U ]    = gamma * E[ phi(chi2_{r+2}(delta)) ],
    E[ phi(q) U U' ] = Sigma * E[ phi(chi2_{r+2}(delta)) ]
                       + gamma gamma' * E[ phi(chi2_{r+4}(delta)) ],

applied with phi a power of 1/q, an indicator, or their products.  So
every estimator's limit is a weight triple (b, w0, w1) of noncentral
chi-square quantities, one value per drift, defined in `_weights`:

    bias = b * kappa gamma,
    AMSE = F**-1 + w0 * kappa0 + w1 * (kappa gamma)(kappa gamma)'.

The weights only need the noncentral chi-square distribution function and
(truncated) inverse moments, which `special_fn._mixtures` evaluates in one
pass; it takes delta up to 1e9.

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

from .linalg import spd_inverse, spd_solve
from .shrinkage import _MIN_JS_RESTRICTIONS, ESTIMATOR_ORDER, LinearRestriction, _critical_value

__all__ = [
    "LocalAlternative",
    "asymptotic_amse",
    "asymptotic_bias",
]

from .special_fn import _mixtures


@dataclass
class LocalAlternative:
    """A restriction drift direction gamma together with the information
    limit F; derived projection quantities are computed once on creation.

    gamma is one drift (r,) or a stack of drifts (D, r); a sweep over many
    drifts is one alternative built with the stack.  The noncentral
    chi-square quantities the estimators need are evaluated together, in
    one mixture pass per alternative and test level alpha for the whole
    stack, and shared by every `asymptotic_bias`/`asymptotic_amse` call.
    """

    gamma: np.ndarray
    fisher: np.ndarray
    restriction: LinearRestriction
    f_inv: np.ndarray = field(init=False, repr=False)
    kappa: np.ndarray = field(init=False, repr=False)
    kappa0: np.ndarray = field(init=False, repr=False)
    kappa_gamma: np.ndarray = field(init=False, repr=False)
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
        # kappa gamma and delta = (kappa gamma)' F (kappa gamma) as one product
        # per member (D, ...), so a member's bits do not depend on its stack
        kg = (self.kappa @ np.atleast_2d(gamma)[:, :, None])[:, :, 0]
        q = ((kg[:, None, :] @ fisher) @ kg[:, :, None])[:, 0, 0]
        delta = np.where(q > 0.0, q, 0.0)
        self.kappa_gamma = kg
        self.delta = delta if gamma.ndim == 2 else float(delta[0])

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


def _chisq_values(la: LocalAlternative, alpha) -> np.ndarray:
    """The noncentral chi-square quantities of `_weights` at level alpha,
    one row per quantity, from one `_mixtures` call per alternative and
    alpha: PTE's two cdfs at c_alpha if alpha is given, then, if r >= 3,
    the ten of JSE and PJSE."""
    if alpha not in la._memo:
        r = la.n_restrictions
        specs = [] if alpha is None else [(r + 2, 0, c := _critical_value(alpha, r)), (r + 4, 0, c)]
        if r >= _MIN_JS_RESTRICTIONS:
            specs += [(r + j, order, np.inf) for j in (2, 4) for order in (1, 2)]
            specs += [(r + j, order, r - 2.0) for j in (2, 4) for order in (0, 1, 2)]
        la._memo[alpha] = _mixtures(la.delta, specs)
    return la._memo[alpha]


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


def _weights(est: str, la: LocalAlternative, alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The limit of one estimator as (b, w0, w1), each (D,): bias
    b * kappa gamma and AMSE F**-1 + w0 * kappa0 + w1 * (kappa gamma)(kappa gamma)'.

    UN is (0, 0, 0) and RE (-1, -1, 1).  PTE weighs RE's terms by the
    probabilities p_j = P(chi2_{r+j}(delta) <= c_alpha) of accepting the
    restriction.  JSE uses the inverse moments of chi2_{r+2}(delta) and
    chi2_{r+4}(delta) with c = r - 2, and PJSE adds to JSE's triple the
    expectations of the clamp over {q < c}.
    """
    d = len(la.kappa_gamma)
    if est == "UN":
        return np.zeros(d), np.zeros(d), np.zeros(d)
    if est == "RE":
        return -np.ones(d), -np.ones(d), np.ones(d)
    if est == "PTE":
        if alpha is None:
            raise ValueError("the pretest estimator needs a test level alpha")
        p2, p4 = _chisq_values(la, alpha)[:2]
        return -p2, -p2, 2.0 * p2 - p4
    c = _js_shrinkage(la)
    e1_2, e2_2, e1_4, e2_4, p2, t1_2, t2_2, p4, t1_4, t2_4 = _chisq_values(la, alpha)[-10:]
    b = -c * e1_2
    w0 = c * (c * e2_2 - 2.0 * e1_2)
    w1 = c * (2.0 * e1_2 - 2.0 * e1_4 + c * e2_4)
    if est == "JSE":
        return b, w0, w1
    # PJSE: clamping to the positive part replaces the negative-factor region
    # {q < c}: the bias gains E[(1 - c/q) 1{q < c}], the risk the matching
    # truncated (1 - c/q)**2-type terms.
    return (
        b + (c * t1_2 - p2),
        w0 + (-p2 + 2.0 * c * t1_2 - c * c * t2_2),
        w1 + (2.0 * p2 - 2.0 * c * t1_2 - p4 + 2.0 * c * t1_4 - c * c * t2_4),
    )


def asymptotic_bias(estimator: str, la: LocalAlternative, alpha=None) -> np.ndarray:
    """Limiting bias vector of sqrt(n) * (estimator - beta), (k,) or (D, k):
    the weight b of `_weights` times kappa gamma.  A zero component is +0:
    UN's are exactly +0, and adding +0.0 clears the sign that a negative
    weight gives a zero drift."""
    est = _require(estimator)
    kg = la.kappa_gamma
    if est == "UN":
        return _stacked(la, np.zeros_like(kg))
    b = _weights(est, la, alpha)[0]
    return _stacked(la, b[:, None] * kg + 0.0)


def asymptotic_amse(estimator: str, la: LocalAlternative, alpha=None) -> np.ndarray:
    """Limiting second-moment matrix of sqrt(n) * (estimator - beta),
    (k, k) or (D, k, k): F**-1 plus the weights w0 and w1 of `_weights`
    times the rank-r block kappa0 and the rank-one drift term along
    kappa gamma."""
    _, w0, w1 = _weights(_require(estimator), la, alpha)
    kg = la.kappa_gamma
    drift = kg[:, :, None] * kg[:, None, :]
    return _stacked(la, la.f_inv + w0[:, None, None] * la.kappa0 + w1[:, None, None] * drift)
