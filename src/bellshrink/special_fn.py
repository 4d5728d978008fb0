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
that holds all but 1e-12 of the Poisson mass.  One private routine,
`_mixtures`, sums any list of such quantities in one pass over the windows:
with m = dof + 2j and order k in {0, 1, 2}, each adds

    w_j * P(chi2_{m - 2k} <= c) / prod_{i=1..k} (m - 2i),

where c is the argument of the cdf (k = 0), the cutoff of a truncated
moment, or infinity for a plain moment, whose terms need no incomplete
gamma.  Each public function checks its own arguments and asks for one.

A law may hold a stack of D noncentralities (a 1-d array), and the three
functions then return one value per noncentrality, at most 1e9.  Each
window is summed on its own, so a member's value is the same, bit for bit,
whatever else shares its stack; a scalar noncentrality is the stack of one
and gives a float.
"""

from __future__ import annotations

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
_MAX_NONCENTRALITY = 1e9  # its Poisson window holds about 340,000 terms


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

# Cap on the entries of one table of windows, Dobinski's here and Poisson's
# in `_mixtures`; bounds their working memory at a few arrays of this size.
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
    column, so numpy adds every column in index order (a lone column it
    sums pairwise) and an entry's bits do not depend on the others.  A table
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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_order(dist: NoncentralChiSq, order: int, name: str) -> None:
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    least = 3 if order == 1 else 5
    if dist.dof < least:
        raise ValueError(f"{name} of order {order} needs dof >= {least}, got {dist.dof}")


def _one_spec(dist: NoncentralChiSq, order: int, cutoff: float) -> float | np.ndarray:
    """The `_mixtures` row of (dist.dof, order, cutoff); a float for a scalar law."""
    values = _mixtures(dist.noncentrality, [(dist.dof, order, cutoff)])[0]
    return float(values[0]) if np.ndim(dist.noncentrality) == 0 else values


def _poisson_windows(lam: np.ndarray):
    """The Poisson(lam) pmf of each mean of the 1-d `lam` on [lam - t, lam + t],
    t from the Bernstein bound P(|J - lam| >= t) <= 2 exp(-t**2 / (2 (lam + t/3)))
    so it holds all but < 1e-12 of the mass: running sums of the log ratios
    lam/(j+1) outward from the mode, normalised, so no large exponent cancels.
    Yields (b, starts, js, at, w) per block of means lam[b], built in one
    array pass, of at most _BELL_TABLE_ELEMENTS table entries or one window:
    the windows end to end from starts[d] on, term i of weight w[i] and
    index js[at[i]]."""
    c = -math.log(_POISSON_TAIL / 2.0)
    t = c / 3.0 + np.sqrt(c * c / 9.0 + 2.0 * c * lam)
    mode = lam.astype(np.int64)
    lo = np.maximum(0.0, np.floor(lam - t)).astype(np.int64)
    hi = np.where(lam > 0.0, np.ceil(lam + t), 0.0).astype(np.int64)  # lam 0: J = 0
    cols = int(np.max(mode - lo, initial=0) + np.max(hi - mode, initial=0)) + 1
    step = max(1, _BELL_TABLE_ELEMENTS // cols)
    for start in range(0, lam.size, step):
        b = slice(start, start + step)
        lam_b, mode_b, lo_b, hi_b = lam[b], mode[b], lo[b], hi[b]
        # log-weights along one row per window, the mode in column n_down;
        # entries past a window are never read, and a mean of 0 divides by 1
        n_down, n_up = int(np.max(mode_b - lo_b)), int(np.max(hi_b - mode_b))
        ratio_lam, from_mode = np.where(lam_b > 0.0, lam_b, 1.0)[:, None], mode_b[:, None]
        steps = np.arange(1, max(n_down, n_up) + 1)
        down = np.cumsum(np.log(np.maximum(from_mode + 1 - steps[:n_down], 1) / ratio_lam), axis=1)
        up = np.cumsum(np.log(ratio_lam / (from_mode + steps[:n_up])), axis=1)
        table = np.concatenate([down[:, ::-1], np.zeros((len(lam_b), 1)), up], axis=1)
        lengths = hi_b - lo_b + 1
        starts = np.cumsum(lengths) - lengths
        j = np.arange(starts[-1] + lengths[-1]) + np.repeat(lo_b - starts, lengths)
        row_at = np.arange(len(lam_b)) * table.shape[1] + n_down - mode_b
        w = table.ravel()[j + np.repeat(row_at, lengths)]
        del down, up, table  # not held while the caller sums
        np.exp(w, out=w)
        w /= np.repeat(np.add.reduceat(w, starts), lengths)
        # js skips the indices no window covers: the gaps below each window
        # between the windows taken in order of their lower ends
        by_lo = np.argsort(lo_b)
        gaps = np.maximum(lo_b[by_lo][1:] - np.maximum.accumulate(hi_b[by_lo])[:-1] - 1, 0)
        skipped = np.empty_like(lo_b)
        skipped[by_lo] = lo_b[by_lo][0] + np.cumsum(np.r_[0, gaps])
        at = j - np.repeat(skipped, lengths)
        js = np.empty(int(np.max(hi_b - skipped)) + 1, dtype=np.int64)
        js[at] = j
        yield b, starts, js, at, w


def _mixtures(noncentrality, specs) -> np.ndarray:
    """Per spec (dof, order, cutoff) and noncentrality, (len(specs), D),

        sum_j w_j P(chi2_{m - 2 order} <= cutoff) / prod_{i=1..order} (m - 2i),

    m = dof + 2j, over the `_poisson_windows` of noncentrality / 2, each
    window summed alone by `np.add.reduceat`, whose sum of a segment does not
    depend on where it lies.  The factors are evaluated once per covered j.
    A cutoff <= 0 gives 0; order 0, a probability, is clipped to [0, 1]."""
    lam = np.atleast_1d(np.asarray(noncentrality, dtype=float)) / 2.0
    if not np.all(lam <= _MAX_NONCENTRALITY / 2.0):
        raise ValueError(
            f"noncentrality must be at most {_MAX_NONCENTRALITY:g}, got {2 * lam.max():g}")
    out = np.zeros((len(specs), lam.size))
    for b, starts, js, at, w in _poisson_windows(lam):
        for row, (dof, order, cutoff) in enumerate(specs):
            if cutoff <= 0.0 or (order == 0 and cutoff == math.inf):
                out[row, b] = cutoff > 0.0  # P(X <= 0) = 0, P(X <= inf) = 1
                continue
            m = dof + 2.0 * js
            terms = w
            if cutoff != math.inf:
                terms = w * gammainc((m - 2.0 * order) / 2.0, cutoff / 2.0)[at]
            if order:
                terms = terms / np.prod([m - 2.0 * i for i in range(1, order + 1)], axis=0)[at]
            out[row, b] = np.add.reduceat(terms, starts)
            if order == 0:
                out[row, b] = np.clip(out[row, b], 0.0, 1.0)
    return out


def noncentral_chisq_cdf(x: float, dist: NoncentralChiSq) -> float | np.ndarray:
    """P(X <= x) for X ~ NoncentralChiSq, via the Poisson mixture of
    regularized incomplete gamma terms.  Monotone in x and in -noncentrality.
    """
    return _one_spec(dist, 0, x)


def inv_moment(dist: NoncentralChiSq, order: int = 1) -> float | np.ndarray:
    """E[X**-order] for X ~ NoncentralChiSq and order in {1, 2}.

    Per mixture component with m = dof + 2j degrees of freedom,
    E[X**-1] = 1/(m-2) and E[X**-2] = 1/((m-2)(m-4)); the orders need
    dof >= 3 and dof >= 5 respectively for the moment to exist.
    """
    _check_order(dist, order, "inv_moment")
    return _one_spec(dist, order, math.inf)


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
    return _one_spec(dist, order, cutoff)
