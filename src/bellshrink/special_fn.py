"""Deterministic special functions used throughout the package.

Three families live here:

* the principal branch of the Lambert W function, which maps a Bell mean
  back to its canonical parameter,
* logarithms of the Bell numbers, which enter the count log-likelihood as
  observation constants,
* the noncentral chi-square distribution function together with the plain
  and truncated inverse moments ``E[X**-1]``, ``E[X**-2]``,
  ``E[X**-k 1{X < c}]`` that drive the analytic risk formulas.

The noncentral chi-square quantities are all evaluated through the Poisson
mixture representation

    X ~ chi2(dof + 2 J),  J ~ Poisson(noncentrality / 2),

summing the mixture terms over one window around the modal Poisson index
that holds all but 1e-12 of the Poisson mass.  One private routine does
that sum for all three: with m = dof + 2j and order k in {0, 1, 2}, it adds

    w_j * P(chi2_{m - 2k} <= c) / prod_{i=1..k} (m - 2i),

where c is the argument of the cdf (k = 0), the cutoff of a truncated
moment, or infinity for a plain moment, whose terms need no incomplete
gamma.  Each public function checks its own arguments and calls it once.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

__all__ = [
    "NoncentralChiSq",
    "inv_moment",
    "lambert_w0",
    "log_bell",
    "log_bell_many",
    "noncentral_chisq_cdf",
    "truncated_inv_moment",
]

_POISSON_TAIL = 1e-12
_HALLEY_TOL = 1e-14
_HALLEY_MAX_ITER = 50


def lambert_w0(x):
    """Principal Lambert W branch on [0, inf): the w >= 0 solving w*e**w = x.

    Seeded with Winitzki's (2003) approximation w = l (1 - log1p(l)/(2 + l)),
    l = log1p(x), then refined by Halley's iteration on
    g(w) = w - x e**-w, which is f(w) = w e**w - x divided by e**w, so no
    term overflows anywhere in the domain, the largest float included.
    Every input in the domain takes at most three passes.  Each entry
    stops updating once its own step is at most 1e-14 * max(1, w), so an
    entry's value does not depend on the other entries of the array:
    lambert_w0(x)[i] == lambert_w0(x[i]) bit for bit.

    Parameters
    ----------
    x : float or ndarray
        Nonnegative and finite: every float in [0, 1.7976931348623157e308].

    Returns
    -------
    float or ndarray, matching the input kind.
    """
    scalar = np.isscalar(x)
    z = np.asarray(x, dtype=float)
    if z.size and (np.any(z < 0.0) or not np.all(np.isfinite(z))):
        raise ValueError("lambert_w0 requires finite input >= 0")
    lz = np.log1p(z)
    w = lz * (1.0 - np.log1p(lz) / (2.0 + lz))
    active = np.ones(z.shape, dtype=bool)
    for _ in range(_HALLEY_MAX_ITER):
        g = w - z * np.exp(-w)
        wp1 = w + 1.0
        dw = g / (wp1 - (w + 2.0) * g / (2.0 * wp1))
        w = np.where(active, w - dw, w)
        active &= np.abs(dw) > _HALLEY_TOL * np.maximum(1.0, w)
        if not active.any():
            break
    if scalar:
        return float(w)
    return w


# --- Bell numbers ---------------------------------------------------------
#
# Exact integer arithmetic (the Bell triangle) up to _EXACT_LIMIT, then a
# saddle-point window of the series  B_n = e**-1 * sum_l l**n / l!  summed
# in log space.  The triangle is quadratic in n, so the exact path is kept
# for the range where it is both cheap and bit-reproducible; the series
# window covers the long counts that large-mean regressions generate.

_EXACT_LIMIT = 512

_bell_lock = threading.Lock()
_bell_logs: list[float] = [0.0]  # log B_0
_bell_row: list[int] = [1]  # latest Bell-triangle row
_bell_large: dict[int, float] = {}


def _extend_exact(n: int) -> None:
    global _bell_row
    while len(_bell_logs) <= n:
        prev = _bell_row
        row = [prev[-1]]
        for a in prev:
            row.append(row[-1] + a)
        _bell_row = row
        _bell_logs.append(math.log(row[0]))


def _log_bell_series(n: int) -> float:
    # Series maximizer solves l*log(l) = n, i.e. l* = n / W(n).
    u = lambert_w0(float(n))
    center = n / u
    sigma = math.sqrt(center / (u + 1.0))
    lo = max(1, int(center - 14.0 * sigma) - 20)
    hi = int(center + 14.0 * sigma) + 20
    ls = np.arange(lo, hi + 1, dtype=float)
    t = n * np.log(ls) - gammaln(ls + 1.0)
    m = float(t.max())
    return m + math.log(float(np.sum(np.exp(t - m)))) - 1.0


def log_bell(n) -> float:
    """log of the n-th Bell number, exact-integer below 512, series above.

    Values are cached; the cache may be read concurrently while a single
    writer extends it.
    """
    if not float(n).is_integer() or n < 0:
        raise ValueError(f"Bell numbers need integer n >= 0, got {n!r}")
    n = int(n)
    if n <= _EXACT_LIMIT:
        if n < len(_bell_logs):
            return _bell_logs[n]
        with _bell_lock:
            _extend_exact(n)
            return _bell_logs[n]
    cached = _bell_large.get(n)
    if cached is not None:
        return cached
    with _bell_lock:
        cached = _bell_large.get(n)
        if cached is None:
            cached = _log_bell_series(n)
            _bell_large[n] = cached
        return cached


def log_bell_many(n: np.ndarray) -> np.ndarray:
    """`log_bell` of every entry of an integer array, to the same bits:
    entries up to 512 in one lookup in the exact cache, larger ones one
    call each."""
    n = np.asarray(n)
    if n.size and (n.dtype.kind not in "iu" or n.min() < 0):
        raise ValueError("Bell numbers need integer n >= 0")
    out = np.empty(n.shape)
    exact = n <= _EXACT_LIMIT
    if exact.any():
        top = int(n[exact].max())
        if top >= len(_bell_logs):
            with _bell_lock:
                _extend_exact(top)
        out[exact] = np.array(_bell_logs[: top + 1])[n[exact]]
    for i in np.flatnonzero(~exact):
        out.flat[i] = log_bell(int(n.flat[i]))
    return out


# --- noncentral chi-square -------------------------------------------------


@dataclass(frozen=True)
class NoncentralChiSq:
    """Noncentral chi-square law with integer dof and noncentrality >= 0."""

    dof: int
    noncentrality: float

    def __post_init__(self):
        if not float(self.dof).is_integer() or self.dof < 1:
            raise ValueError(f"dof must be an integer >= 1, got {self.dof!r}")
        if not np.isfinite(self.noncentrality) or self.noncentrality < 0.0:
            raise ValueError(f"noncentrality must be finite and >= 0, got {self.noncentrality!r}")
        object.__setattr__(self, "dof", int(self.dof))
        object.__setattr__(self, "noncentrality", float(self.noncentrality))


@functools.lru_cache(maxsize=256)
def _poisson_weights(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(lam) pmf terms over a window holding all but < 1e-12 of the mass.

    The window is [lam - t, lam + t] around the mode, with t from the
    Bernstein tail bound P(|J - lam| >= t) <= 2 exp(-t**2 / (2 (lam + t/3))).
    Terms are built from the mode outward as running products of the
    ratios w(j+1)/w(j) = lam/(j+1), then normalised to sum to one, so no
    large exponent cancels and the cost is one vectorised pass.  Results
    are cached per lam and shared by the cdf and both inverse moments.
    """
    if lam <= 0.0:
        return _frozen(np.array([0])), _frozen(np.array([1.0]))
    c = -math.log(_POISSON_TAIL / 2.0)
    t = c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * c * lam)
    j0 = int(lam)
    lo = max(0, int(math.floor(lam - t)))
    hi = int(math.ceil(lam + t))
    up = np.cumsum(np.log(lam / np.arange(j0 + 1, hi + 1, dtype=float)))
    down = np.cumsum(np.log(np.arange(j0, lo, -1, dtype=float) / lam))
    log_w = np.concatenate([down[::-1], [0.0], up])
    ws = np.exp(log_w)
    ws /= ws.sum()
    return _frozen(np.arange(lo, hi + 1)), _frozen(ws)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_order(dist: NoncentralChiSq, order: int, name: str) -> None:
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    least = 3 if order == 1 else 5
    if dist.dof < least:
        raise ValueError(f"{name} of order {order} needs dof >= {least}, got {dist.dof}")


def _mixture_sum(dist: NoncentralChiSq, order: int, cutoff: float = math.inf) -> float:
    """sum_j w_j P(chi2_{m - 2 order} <= cutoff) / prod_{i=1..order} (m - 2i)
    over the Poisson window of `dist`, with m = dof + 2j.

    An infinite cutoff skips the incomplete gamma, whose value there is 1.
    """
    js, ws = _poisson_weights(dist.noncentrality / 2.0)
    m = dist.dof + 2.0 * js
    terms = ws if cutoff == math.inf else ws * gammainc((m - 2.0 * order) / 2.0, cutoff / 2.0)
    denom = 1.0
    for i in range(1, order + 1):
        denom = denom * (m - 2.0 * i)
    return float(np.sum(terms / denom))


def noncentral_chisq_cdf(x: float, dist: NoncentralChiSq) -> float:
    """P(X <= x) for X ~ NoncentralChiSq, via the Poisson mixture of
    regularized incomplete gamma terms.  Monotone in x and in -noncentrality.
    """
    if x <= 0.0:
        return 0.0
    return min(max(_mixture_sum(dist, 0, x), 0.0), 1.0)


def inv_moment(dist: NoncentralChiSq, order: int = 1) -> float:
    """E[X**-order] for X ~ NoncentralChiSq and order in {1, 2}.

    Per mixture component with m = dof + 2j degrees of freedom,
    E[X**-1] = 1/(m-2) and E[X**-2] = 1/((m-2)(m-4)); the orders need
    dof >= 3 and dof >= 5 respectively for the moment to exist.
    """
    _check_order(dist, order, "inv_moment")
    return _mixture_sum(dist, order)


def truncated_inv_moment(dist: NoncentralChiSq, cutoff: float, order: int = 1) -> float:
    """E[X**-order * 1{X < cutoff}] for X ~ NoncentralChiSq.

    The indicator is on the chi-square variate itself.  Integrating the
    central-component density against x**-order shifts the dof down by
    2*order, so each term is a scaled incomplete gamma:

        E[X**-1 1{X<c}]  per component = P(chi2_{m-2} <= c) / (m - 2),
        E[X**-2 1{X<c}]  per component = P(chi2_{m-4} <= c) / ((m-2)(m-4)).

    Monotone nondecreasing in cutoff with limits 0 (cutoff -> 0) and the
    corresponding untruncated inverse moment (cutoff -> inf).
    """
    _check_order(dist, order, "truncated_inv_moment")
    if cutoff <= 0.0:
        return 0.0
    return _mixture_sum(dist, order, cutoff)
