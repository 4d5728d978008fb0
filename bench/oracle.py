"""Numerics computed apart from bellshrink, for generating inputs and checking outputs.

Nothing here imports bellshrink.  The Lambert W function comes from
``scipy.special.lambertw``, Bell counts from a compound-Poisson sampler
written here, the maximum-likelihood fit from ``scipy.optimize``, and the
noncentral chi-square quantities from ``scipy.stats.ncx2`` by distribution
function and quadrature.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize, special, stats


def lambert_w(x) -> np.ndarray:
    return special.lambertw(np.asarray(x, dtype=float)).real


def bell_counts(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Bell(theta) draw per entry: a Poisson(e**theta - 1) number of
    zero-truncated Poisson(theta) parts, summed."""
    theta = np.asarray(theta, dtype=float)
    n_parts = rng.poisson(np.expm1(theta))
    owner = np.repeat(np.arange(theta.size), n_parts)
    lam = theta[owner]
    parts = rng.poisson(lam)
    zero = parts == 0
    while zero.any():
        parts[zero] = rng.poisson(lam[zero])
        zero = parts == 0
    return np.bincount(owner, weights=parts, minlength=theta.size).astype(np.int64)


def score_and_info(X: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """Bell-regression score X'(y - mu)/(1 + theta) and expected information
    X' diag(mu / (1 + theta)) X at beta, with theta = W(mu)."""
    mu = np.exp(X @ beta)
    theta = lambert_w(mu)
    score = X.T @ ((y - mu) / (1.0 + theta))
    info = X.T @ (X * (mu / (1.0 + theta))[:, None])
    return score, info


def bell_mle(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Maximise the Bell log-likelihood kernel sum[y log theta - e**theta]
    by BFGS from beta = (log mean y, 0, ..., 0), then polish with Newton
    steps on the observed score so the result is accurate to roundoff."""

    def neg_kernel(beta):
        theta = lambert_w(np.exp(X @ beta))
        return -float(np.sum(y * np.log(theta) - np.exp(theta)))

    def neg_score(beta):
        return -score_and_info(X, y, beta)[0]

    start = np.zeros(X.shape[1])
    start[0] = np.log(max(float(np.mean(y)), 0.5))
    res = optimize.minimize(neg_kernel, start, jac=neg_score, method="BFGS",
                            options={"gtol": 1e-9, "maxiter": 1000})
    beta = res.x
    for _ in range(5):
        score, info = score_and_info(X, y, beta)
        beta = beta + np.linalg.solve(info, score)
    return beta


def wald(beta: np.ndarray, info: np.ndarray, H: np.ndarray, h: np.ndarray) -> float:
    gap = H @ beta - h
    m = H @ np.linalg.inv(info) @ H.T
    return float(gap @ np.linalg.solve(m, gap))


def mean_inverse_info_trace(n: int, p: int, draws: int, seed: int, chunk: int = 200) -> float:
    """E[tr((X'VX)**-1)] over fresh designs X = [1, Z], Z ~ N(0, I_p), at the
    simulation truth beta = (0, 1, ..., 1): the first-order SMSE of the
    unrestricted fit averaged over the random designs."""
    rng = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        Z = rng.standard_normal((m, n, p))
        X = np.concatenate([np.ones((m, n, 1)), Z], axis=2)
        mu = np.exp(Z.sum(axis=2))
        v = mu / (1.0 + lambert_w(mu))
        info = np.einsum("dni,dn,dnj->dij", X, v, X)
        total += float(np.trace(np.linalg.inv(info), axis1=1, axis2=2).sum())
        done += m
    return total / draws


def ncx2_inv_mean(dof: int, nc: float) -> float:
    """E[1/X] for X ~ chi2(dof, nc) by quadrature of the scipy density."""
    mean = dof + nc
    sd = np.sqrt(2.0 * (dof + 2.0 * nc))
    upper = mean + 40.0 * sd
    lower = max(0.0, mean - 40.0 * sd)
    value, _ = integrate.quad(lambda x: stats.ncx2.pdf(x, dof, nc) / x, lower, upper,
                              points=[mean], limit=500, epsabs=0.0, epsrel=1e-11)
    return value


def ncx2_cdf(x: float, dof: int, nc: float) -> float:
    return float(stats.ncx2.cdf(x, dof, nc))


def chi2_crit(alpha: float, dof: int) -> float:
    return float(stats.chi2.ppf(1.0 - alpha, dof))
