"""Deterministic special functions used throughout the package.

Three families live here:

* the principal branch of the Lambert W function, which maps a Bell mean
  back to its canonical parameter,
* logarithms of the Bell numbers, which enter the count log-likelihood as
  observation constants, from Dobinski's series to double precision,
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

A law may hold a stack of D noncentralities (a 1-d array), and the three
functions then return one value per noncentrality.  The windows of a stack
are zero-padded into one table, built once per stack, and each window is
summed in index order, so a member's value is the same, bit for bit,
whatever else shares its stack; a scalar noncentrality is the stack of one
and gives a float.
"""

from __future__ import annotations

import functools
import math
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


def lambert_w0(x):
    """Principal Lambert W branch on [0, inf): the w >= 0 solving w*e**w = x.

    Seeded with Winitzki's (2003) approximation w = l (1 - log1p(l)/(2 + l)),
    l = log1p(x), then refined by exactly three passes of Halley's iteration
    on g(w) = w - x e**-w, which is f(w) = w e**w - x divided by e**w, so no
    term overflows anywhere in the domain, the largest float included.
    From that seed three passes reach double precision on every input in
    the domain (within 1 ulp of the true value).  Every entry gets the same
    operations and there is no stopping test, so an entry's value does not
    depend on the other entries of the array:
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
    # w = l (1 - log1p(l) / (2 + l)), then per pass g = w - z e**-w and
    # w -= g / (w + 1 - (w + 2) g / (2 (w + 1))): the same operations in the
    # same order in five work arrays; z itself is never written.
    lz = np.log1p(z, out=np.empty_like(z))  # out= keeps a 0-d input an array
    w, wp1, b, d = (np.empty_like(z) for _ in range(4))
    np.log1p(lz, out=w)
    np.divide(w, np.add(2.0, lz, out=wp1), out=w)
    np.subtract(1.0, w, out=w)
    np.multiply(lz, w, out=w)
    g = lz
    for _ in range(3):
        np.negative(w, out=g)
        np.exp(g, out=g)
        np.multiply(z, g, out=g)
        np.subtract(w, g, out=g)
        np.add(w, 1.0, out=wp1)
        np.add(w, 2.0, out=b)
        np.multiply(b, g, out=b)
        np.multiply(2.0, wp1, out=d)
        np.divide(b, d, out=b)
        np.subtract(wp1, b, out=b)
        np.divide(g, b, out=g)
        np.subtract(w, g, out=w)
    if scalar:
        return float(w)
    return w


# --- Bell numbers ---------------------------------------------------------
#
# Dobinski's series  B_n = e**-1 * sum_l l**n / l!,  summed in log space over
# a window around its largest term, for every n >= 1; B_0 = 1.  The terms
# peak at l* = n / W(n), where l log l = n, with spread
# sigma = sqrt(l* / (W(n) + 1)), and the window runs from 14 sigma + 20
# below l* to as far above, so it holds the sum to double precision.

# Cap on the entries of one table of Dobinski windows; bounds the working
# memory of `log_bell_many` at a few arrays of this size.
_BELL_TABLE_ELEMENTS = 1 << 18


def log_bell(n) -> float:
    """log of the n-th Bell number, by Dobinski's series: `log_bell_many`
    of the one value."""
    if not float(n).is_integer() or n < 0:
        raise ValueError(f"Bell numbers need integer n >= 0, got {n!r}")
    return float(log_bell_many(np.array([int(n)]))[0])


def log_bell_many(n: np.ndarray) -> np.ndarray:
    """log B_n of every entry of an integer array.  The distinct values
    share one Lambert W call for their saddle points.  Their windows are
    zero-padded into one table, one column per value plus an all-zero last
    column as in `_weight_table`, so numpy adds every column in index
    order and an entry's bits do not depend on the other entries.  A table
    holds at most _BELL_TABLE_ELEMENTS entries; more values take more
    tables."""
    n = np.asarray(n)
    if n.size and (n.dtype.kind not in "iu" or n.min() < 0):
        raise ValueError("Bell numbers need integer n >= 0")
    vals, inverse = np.unique(n, return_inverse=True)
    saddles = lambert_w0(vals.astype(float))
    logs = np.zeros(vals.shape)  # log B_0 = 0
    nz = np.flatnonzero(vals)
    v, u = vals[nz].astype(float), saddles[nz]
    center = v / u
    sigma = np.sqrt(center / (u + 1.0))
    lo = np.maximum(1, (center - 14.0 * sigma).astype(np.int64) - 20)
    hi = (center + 14.0 * sigma).astype(np.int64) + 20
    step = max(1, _BELL_TABLE_ELEMENTS // int(np.max(hi - lo + 1, initial=1)))
    for start in range(0, nz.size, step):
        cols = slice(start, start + step)
        offsets = np.arange(int(np.max(hi[cols] - lo[cols])) + 1)[:, None]
        ls = (lo[cols] + offsets).astype(float)
        inside = ls <= hi[cols]
        t = v[cols] * np.log(ls) - gammaln(ls + 1.0)
        m = np.max(t, axis=0, where=inside, initial=-np.inf)
        terms = np.zeros((ls.shape[0], ls.shape[1] + 1))
        np.exp(t - m, out=terms[:, :-1], where=inside)
        logs[nz[cols]] = m + np.log(np.add.reduce(terms, axis=0)[:-1]) - 1.0
    return logs[inverse].reshape(n.shape)


# --- noncentral chi-square -------------------------------------------------


@dataclass(frozen=True)
class NoncentralChiSq:
    """Noncentral chi-square law with integer dof and noncentrality >= 0,
    or a stack of such laws sharing the dof: noncentrality a 1-d array."""

    dof: int
    noncentrality: float | np.ndarray

    def __post_init__(self):
        if not float(self.dof).is_integer() or self.dof < 1:
            raise ValueError(f"dof must be an integer >= 1, got {self.dof!r}")
        nc = np.array(self.noncentrality, dtype=float)
        if nc.ndim > 1:
            raise ValueError(f"noncentrality must be a scalar or 1-d, got shape {nc.shape}")
        if not np.all(np.isfinite(nc)) or np.any(nc < 0.0):
            raise ValueError(f"noncentrality must be finite and >= 0, got {self.noncentrality!r}")
        object.__setattr__(self, "dof", int(self.dof))
        object.__setattr__(self, "noncentrality", float(nc) if nc.ndim == 0 else _frozen(nc))


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


@functools.lru_cache(maxsize=1)
def _weight_table(lams: tuple[float, ...]) -> tuple[int, np.ndarray, np.ndarray]:
    """The `_poisson_weights` windows of a stack of D means as one table.

    Returns (base, idx, ws) with idx and ws of shape (W, D + 1): column d
    of ws holds the weights of Poisson(lams[d]) down the rows, zero past the
    end of its window, and idx holds their indices j less base, the least
    index of any window.  The last column is all zero: numpy adds the rows
    of a 2-d array in order along axis 0 but sums a lone column pairwise,
    so the extra column keeps a stack of one on the in-order path.  The
    last stack's table is cached, so the cdf and the inverse moments of one
    stack share it even when the stack is longer than the per-mean cache;
    one entry bounds the memory a long grid keeps.
    """
    windows = [_poisson_weights(lam) for lam in lams]
    base = min((int(js[0]) for js, _ in windows), default=0)
    width = max((len(js) for js, _ in windows), default=1)
    idx = np.zeros((width, len(windows) + 1), dtype=np.intp)
    ws = np.zeros(idx.shape)
    for d, (js, w) in enumerate(windows):
        idx[: len(js), d] = js - base
        ws[: len(w), d] = w
    return base, _frozen(idx), _frozen(ws)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_order(dist: NoncentralChiSq, order: int, name: str) -> None:
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    least = 3 if order == 1 else 5
    if dist.dof < least:
        raise ValueError(f"{name} of order {order} needs dof >= {least}, got {dist.dof}")


def _per_law(dist: NoncentralChiSq, values: np.ndarray) -> float | np.ndarray:
    """One value per noncentrality of `dist`: a float for a scalar law."""
    return float(values[0]) if np.ndim(dist.noncentrality) == 0 else values


def _mixture_sum(dist: NoncentralChiSq, order: int, cutoff: float = math.inf) -> np.ndarray:
    """sum_j w_j P(chi2_{m - 2 order} <= cutoff) / prod_{i=1..order} (m - 2i)
    over the Poisson window of each noncentrality of `dist`, with m = dof + 2j.

    The incomplete gamma and the denominator depend on j only, so they are
    evaluated once per index the stack's windows cover and gathered into the
    table; an infinite cutoff skips the incomplete gamma, whose value there
    is 1.  Each member's terms are added in index order, and the zero
    padding past its window leaves its sum unchanged.
    """
    lams = np.atleast_1d(dist.noncentrality) / 2.0
    base, idx, ws = _weight_table(tuple(lams.tolist()))
    m = dist.dof + 2.0 * np.arange(base, base + idx.max() + 1)
    terms = ws
    if cutoff != math.inf:
        terms = ws * gammainc((m - 2.0 * order) / 2.0, cutoff / 2.0).take(idx)
    denom = np.ones_like(m)
    for i in range(1, order + 1):
        denom = denom * (m - 2.0 * i)
    return np.add.reduce(terms / denom.take(idx), axis=0)[:-1]


def noncentral_chisq_cdf(x: float, dist: NoncentralChiSq) -> float | np.ndarray:
    """P(X <= x) for X ~ NoncentralChiSq, via the Poisson mixture of
    regularized incomplete gamma terms.  Monotone in x and in -noncentrality.
    """
    if x <= 0.0:
        return _per_law(dist, np.zeros(np.size(dist.noncentrality)))
    return _per_law(dist, np.clip(_mixture_sum(dist, 0, x), 0.0, 1.0))


def inv_moment(dist: NoncentralChiSq, order: int = 1) -> float | np.ndarray:
    """E[X**-order] for X ~ NoncentralChiSq and order in {1, 2}.

    Per mixture component with m = dof + 2j degrees of freedom,
    E[X**-1] = 1/(m-2) and E[X**-2] = 1/((m-2)(m-4)); the orders need
    dof >= 3 and dof >= 5 respectively for the moment to exist.
    """
    _check_order(dist, order, "inv_moment")
    return _per_law(dist, _mixture_sum(dist, order))


def truncated_inv_moment(
    dist: NoncentralChiSq, cutoff: float, order: int = 1
) -> float | np.ndarray:
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
        return _per_law(dist, np.zeros(np.size(dist.noncentrality)))
    return _per_law(dist, _mixture_sum(dist, order, cutoff))
