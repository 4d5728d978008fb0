"""The Bell count distribution.

A Bell variate with canonical parameter theta > 0 has pmf

    P(Y = y) = theta**y * exp(1 - e**theta) * B_y / y!,   y = 0, 1, 2, ...

where B_y is the y-th Bell number.  Mean and variance are

    mu = theta * e**theta,      var = mu * (1 + theta),

so the law is overdispersed for every theta and the mean determines theta
through the Lambert W function.

Sampling uses the compound-Poisson representation: Y is a sum of N i.i.d.
zero-truncated Poisson(theta) variates with N ~ Poisson(e**theta - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .special_fn import lambert_w0, log_bell_many

__all__ = [
    "BellParam",
    "log_pmf",
    "moments",
    "pmf",
    "sample",
    "sample_counts",
]

_PARAM_RTOL = 1e-8
_ZTP_INVERSION_BELOW = 0.1
_ARRAY_REDRAW_MIN = 16


@dataclass(frozen=True)
class BellParam:
    """Bell parameter pair (theta, mu) kept consistent: mu = theta * e**theta."""

    theta: float
    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be finite and > 0, got {self.theta!r}")
        if not (np.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be finite and > 0, got {self.mu!r}")
        implied = self.theta * np.exp(self.theta)
        if abs(implied - self.mu) > _PARAM_RTOL * max(1.0, abs(self.mu)):
            raise ValueError(
                f"inconsistent Bell parameters: theta={self.theta} implies mean "
                f"{implied}, got mu={self.mu}"
            )

    @classmethod
    def from_theta(cls, theta: float) -> "BellParam":
        theta = float(theta)
        if not (np.isfinite(theta) and theta > 0.0):
            raise ValueError(f"theta must be finite and > 0, got {theta!r}")
        return cls(theta, theta * np.exp(theta))

    @classmethod
    def from_mean(cls, mu: float) -> "BellParam":
        mu = float(mu)
        if not (np.isfinite(mu) and mu > 0.0):
            raise ValueError(f"mu must be finite and > 0, got {mu!r}")
        return cls(lambert_w0(mu), mu)


def log_pmf(y, param: BellParam):
    """Log pmf at y (scalar or integer array)."""
    ya = np.asarray(y)
    scalar = ya.ndim == 0
    if ya.size and (np.any(ya < 0) or not np.all(np.equal(np.mod(ya, 1), 0))):
        raise ValueError("Bell support is the nonnegative integers")
    ya = ya.astype(np.int64, copy=False)
    val = (
        ya * np.log(param.theta)
        + (1.0 - np.exp(param.theta))
        + log_bell_many(ya)
        - gammaln(ya + 1.0)
    )
    if scalar:
        return float(val)
    return val


def pmf(y, param: BellParam):
    return np.exp(log_pmf(y, param))


def moments(param: BellParam) -> tuple[float, float]:
    """(mean, variance) = (mu, mu * (1 + theta)); variance always exceeds mean."""
    return param.mu, param.mu * (1.0 + param.theta)


def _ztp(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero-truncated Poisson draws, one per entry of theta.

    Rejection from Poisson(theta) is efficient except near zero, where the
    acceptance rate collapses; below 0.1 the series inversion is used.
    """
    out = np.empty(theta.shape, dtype=np.int64)
    small = theta < _ZTP_INVERSION_BELOW
    if small.any():
        th = theta[small]
        # Unnormalized target: cumulative of theta**k / k! from k = 1.
        u = rng.random(th.shape) * np.expm1(th)
        k = np.ones(th.shape, dtype=np.int64)
        term = th.copy()
        csum = term.copy()
        active = csum < u
        while active.any():
            k[active] += 1
            term[active] *= th[active] / k[active]
            csum[active] += term[active]
            active = csum < u
        out[small] = k
    big = ~small
    if big.any():
        th = theta[big]
        draws = rng.poisson(th)
        # Each round redraws the still-zero parts in ascending order.  The
        # generator draws array entries one after another, so a round of
        # scalar calls takes the same numbers from the stream, and below
        # _ARRAY_REDRAW_MIN parts it costs less than one array call.
        pending = np.flatnonzero(draws == 0)
        while pending.size >= _ARRAY_REDRAW_MIN:
            redraw = rng.poisson(th[pending])
            draws[pending] = redraw
            pending = pending[redraw == 0]
        tail = [(int(i), float(th[i])) for i in pending]
        while tail:
            still = []
            for i, t in tail:
                draw = rng.poisson(t)
                if draw:
                    draws[i] = draw
                else:
                    still.append((i, t))
            tail = still
        out[big] = draws
    return out


def sample_counts(theta, rng: np.random.Generator) -> np.ndarray:
    """One Bell draw per entry of the theta vector (compound-Poisson form)."""
    theta = np.asarray(theta, dtype=float)
    if theta.size and (np.any(theta <= 0.0) or not np.all(np.isfinite(theta))):
        raise ValueError("sample_counts requires finite theta > 0")
    n_parts = rng.poisson(np.expm1(theta))
    total = int(n_parts.sum())
    if total == 0:
        return np.zeros(theta.shape, dtype=np.int64)
    reps = np.repeat(theta, n_parts)
    parts = _ztp(reps, rng)
    idx = np.repeat(np.arange(theta.size), n_parts)
    sums = np.bincount(idx, weights=parts, minlength=theta.size)
    return sums.astype(np.int64)


def sample(param: BellParam, rng: np.random.Generator, size: int | None = None):
    """Bell draws; a scalar when size is None, else an array of that length."""
    if size is None:
        return int(sample_counts(np.array([param.theta]), rng)[0])
    return sample_counts(np.full(int(size), param.theta), rng)

