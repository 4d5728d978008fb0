"""The Bell count distribution.

A Bell variate with canonical parameter theta > 0 has pmf

    P(Y = y) = theta**y * exp(1 - e**theta) * B_y / y!,   y = 0, 1, 2, ...

where B_y is the y-th Bell number.  Mean and variance are

    mu = theta * e**theta,      var = mu * (1 + theta),

so the law is overdispersed for every theta and the mean determines theta
through the Lambert W function.

Sampling uses Dobinski's formula, B_y = e**-1 * sum_k k**y / k!.  With
lam = e**theta it turns the pmf into

    P(Y = y) = e**-lam * sum_k (theta k)**y / (k! y!)
             = sum_k [e**-lam lam**k / k!] * [e**-(theta k) (theta k)**y / y!],

because lam**k = e**(theta k).  So Y is Poisson(theta * K) with
K ~ Poisson(e**theta): the Neyman Type A law with lam = e**theta and
phi = theta (Johnson, Kemp and Kotz, Univariate Discrete Distributions, 3rd
ed., 2005, ch. 9; Castellares, Ferrari and Lemonte, "On the Bell distribution
and its associated regression model for count data", Applied Mathematical
Modelling 56, 2018).  Two Poisson draws per count give an exact sampler whose
cost does not grow with theta.

`BellParam`, `log_pmf`, `pmf`, `moments` and `sample` are public API, as the
README documents them, alongside `sample_counts`, which the simulation engine
calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

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
    val = _log_pmf(ya.astype(np.int64, copy=False), param.theta)
    if scalar:
        return float(val)
    return val


def _log_pmf(y: np.ndarray, theta):
    """Log pmf of int64 counts y at theta, a scalar or one theta per count."""
    return xlogy(y, theta) + (1.0 - np.exp(theta)) + log_bell_many(y) - gammaln(y + 1.0)


def pmf(y, param: BellParam):
    return np.exp(log_pmf(y, param))


def moments(param: BellParam) -> tuple[float, float]:
    """(mean, variance) = (mu, mu * (1 + theta)); variance always exceeds mean."""
    return param.mu, param.mu * (1.0 + param.theta)


def sample_counts(theta, rng: np.random.Generator) -> np.ndarray:
    """One Bell draw per entry of the theta array: Poisson(theta * K) with
    K ~ Poisson(e**theta), as the module docstring derives."""
    theta = np.asarray(theta, dtype=float)
    if theta.size and not (np.isfinite(theta).all() and theta.min() > 0.0):
        raise ValueError("sample_counts requires finite theta > 0")
    return rng.poisson(theta * rng.poisson(np.exp(theta))).astype(np.int64, copy=False)


def sample(param: BellParam, rng: np.random.Generator, size: int | None = None):
    """Bell draws; a scalar when size is None, else an array of that length."""
    if size is None:
        return int(sample_counts(np.array([param.theta]), rng)[0])
    return sample_counts(np.full(int(size), param.theta), rng)

