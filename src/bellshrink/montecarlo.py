"""Simulated relative efficiency of the estimator suite.

For a grid point (n, p, tau) the generating truth is fixed at
beta = (0, 1, ..., 1) with i.i.d. standard normal covariates and Bell
responses through the log link.  The restriction under test pins the
intercept at tau and equates adjacent slopes,

    H = [ e0' ; (0 1 -1 0 ...) ; ... ],   h = (tau, 0, ..., 0),

so tau = 0 makes the restriction exactly true and larger tau moves the
hypothesis away from the truth without changing the data law.  Each
replication of a design (n, p) draws a dataset and fits it once, then
computes all five estimators under the restriction of every tau and
accumulates squared errors against the truth; relative efficiency is

    SRE(est) = SMSE(UN) / SMSE(est),

with delta-method Monte Carlo standard errors on the ratio.  The grid
points of one design therefore share their datasets, their failed fits
and their retry count.

Reproducibility: every replication attempt owns a PCG64 substream keyed by
(seed; n, p, 0, replication, attempt).  The third entry is always 0: tau
keys no stream, and the zero keeps the streams that tau = 0 drew when it
did.  Any design or single replication can be regenerated in isolation,
and results do not depend on thread count, stack size, or which taus
share the grid.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bell_dist import sample_counts
# fit is no longer called here but stays bound: bench/tracer.py wraps the
# binding of fit in each module that holds one, this one included.
from .bell_glm import Dataset, fit, fit_many  # noqa: F401
from .shrinkage import _MIN_JS_RESTRICTIONS, ESTIMATOR_ORDER, LinearRestriction, estimate_many
from .special_fn import lambert_w0

__all__ = [
    "ConvergenceError",
    "GridPointResult",
    "SimConfig",
    "SimResult",
    "build_restriction",
    "generate_dataset",
    "run_simulation",
]

_MAX_ATTEMPTS_PER_REP = 20
_MAX_FAILURE_RATE = 0.05
# Cap on the entries of X (members * n * k) fitted as one stack; bounds the
# engine's working memory at a few arrays of this size.
_STACK_ELEMENTS = 1 << 18


class ConvergenceError(RuntimeError):
    """Too many replications failed to produce a usable fit."""


@dataclass(frozen=True)
class SimConfig:
    """One (n, p) experiment across a grid of restriction offsets tau."""

    n: int
    p: int
    tau_grid: tuple[float, ...]
    replications: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.p < _MIN_JS_RESTRICTIONS:
            raise ValueError(
                f"need p >= {_MIN_JS_RESTRICTIONS} so the restriction count supports JSE, "
                f"got p={self.p}"
            )
        if self.n <= self.p + 1:
            raise ValueError(f"need n > p + 1, got n={self.n}, p={self.p}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        taus = tuple(float(t) for t in self.tau_grid)
        if not taus or not all(np.isfinite(t) for t in taus):
            raise ValueError("tau_grid must be a nonempty list of finite values")
        negative = [t for t in taus if t < 0]
        if negative:
            raise ValueError(f"tau_grid entries must be >= 0, got {negative}")
        repeated = sorted({t for t in taus if taus.count(t) > 1})
        if repeated:
            raise ValueError(f"tau_grid repeats {repeated}; each tau runs once")
        object.__setattr__(self, "tau_grid", taus)

    @property
    def true_beta(self) -> np.ndarray:
        """The generating truth (0, 1, ..., 1)."""
        return np.concatenate([[0.0], np.ones(self.p)])


@dataclass(frozen=True)
class GridPointResult:
    n: int
    p: int
    tau: float
    smse: dict[str, float]
    sre: dict[str, float]
    sre_se: dict[str, float]
    n_retry: int


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    grid: tuple[GridPointResult, ...] = field(default_factory=tuple)


def build_restriction(p: int, tau) -> LinearRestriction:
    """The p x (p+1) restriction: intercept = tau, adjacent slopes equal.
    A sequence of taus gives the family of these restrictions, h (T, p)."""
    if p < _MIN_JS_RESTRICTIONS:
        raise ValueError(f"build_restriction needs p >= {_MIN_JS_RESTRICTIONS}, got {p}")
    H = np.zeros((p, p + 1))
    H[0, 0] = 1.0
    for i in range(1, p):
        H[i, i] = 1.0
        H[i, i + 1] = -1.0
    tau = np.asarray(tau, dtype=float)
    h = np.zeros(tau.shape + (p,))
    h[..., 0] = tau
    return LinearRestriction(H, h)


def generate_dataset(n: int, p: int, true_beta, rng: np.random.Generator) -> Dataset:
    """Fresh standard normal covariates, Bell counts through the log link."""
    X, y = _draw([rng], n, p, np.asarray(true_beta, dtype=float))
    return Dataset(X[0], y[0])


def _draw(rngs, n: int, p: int, true_beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One dataset per generator as X (m, n, p + 1) and y (m, n): each
    generator draws its covariates and then its counts, and theta comes
    from one Lambert W call, which is element-wise, so a dataset's bits do
    not depend on the others drawn with it."""
    X = np.empty((len(rngs), n, p + 1))
    X[..., 0] = 1.0
    for x, rng in zip(X, rngs):
        x[:, 1:] = rng.standard_normal((n, p))
    theta = lambert_w0(np.exp(X @ true_beta))
    y = np.stack([sample_counts(t, rng) for t, rng in zip(theta, rngs)])
    return X, y


def _substream(seed: int, n: int, p: int, rep: int, attempt: int):
    key = (n, p, 0, rep, attempt)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class _SimDraw:
    """Draws the datasets of a design's replications."""

    seed: int
    n_obs: int
    p: int
    true_beta: np.ndarray

    @property
    def where(self) -> str:
        return f" at (n={self.n_obs}, p={self.p})"

    def stack(self, reps, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        """The datasets of reps on one attempt, each drawn from its
        replication's (rep, attempt) substream."""
        n, p = self.n_obs, self.p
        rngs = [_substream(self.seed, n, p, rep, attempt) for rep in reps]
        return _draw(rngs, n, p, self.true_beta)


def _replicate(job) -> tuple[np.ndarray, int]:
    """Fit every replication in reps once and compute its estimators under
    rest, one restriction or a family sharing H.

    job = (draw, reps, rest, alpha, budget).  draw.stack(reps, attempt)
    gives the datasets of that attempt as arrays.  Each attempt round
    draws and fits every pending replication in stacks of at most
    _STACK_ELEMENTS entries of X, and makes one `estimate_many` call on the
    converged rows of each stacked fit.  A replication whose fit fails (no
    convergence, or a singular member's NaN row) or whose estimators fail
    stays pending for attempt + 1.  The round stops early once the
    failures exceed budget; the caller reports that.

    Returns (estimates, retries): estimates has the shape
    (len(reps), 5, k), or (len(reps), T, 5, k) for a family of T, in
    ESTIMATOR_ORDER, NaN where r < 3 rules out the Stein estimators or a
    replication was left pending.
    """
    draw, reps, rest, alpha, budget = job
    k = rest.H.shape[1]
    est = np.full((len(reps), *rest.h.shape[:-1], len(ESTIMATOR_ORDER), k), np.nan)
    cap = max(1, _STACK_ELEMENTS // (draw.n_obs * k))
    pending = np.arange(len(reps))
    retries = 0
    for attempt in range(_MAX_ATTEMPTS_PER_REP):
        failed = []
        for start in range(0, len(pending), cap):
            rows = pending[start : start + cap]
            fits = fit_many(*draw.stack([reps[row] for row in rows], attempt))
            fitted = np.flatnonzero(fits.converged)
            stack_est, _, solved = estimate_many(
                fits.beta[fitted], fits.fisher_info[fitted], rest, alpha
            )
            est[rows[fitted]] = stack_est
            ok = fits.converged.copy()
            ok[fitted] = solved
            failed.append(rows[~ok])
        pending = np.concatenate(failed)
        retries += len(pending)
        if not len(pending) or retries > budget:
            return est, retries
    raise ConvergenceError(
        f"replication {reps[pending[0]]}{draw.where} failed "
        f"{_MAX_ATTEMPTS_PER_REP} consecutive attempts"
    )


def _efficiency(est: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, dict, dict]:
    """Squared errors (reps, 5) of estimates (reps, 5, k) against truth, and
    per estimator its SMSE and SMSE(UN) over it (1.0 if equal, inf if the
    SMSE is 0).  Each column is averaged alone: errs.mean(axis=0) adds in
    another order, which would move the tables' last bits."""
    diff = est - truth
    errs = np.sum(diff * diff, axis=-1)
    smse = {name: float(errs[:, i].mean()) for i, name in enumerate(ESTIMATOR_ORDER)}
    un = smse["UN"]
    ratio = {name: 1.0 if s == un else un / s if s > 0 else np.inf for name, s in smse.items()}
    return errs, smse, ratio


def _grid_point(cfg: SimConfig, tau: float, est: np.ndarray, retries: int) -> GridPointResult:
    """The relative efficiencies at one tau from its estimates (reps, 5, k),
    with delta-method standard errors of each SMSE(UN)/SMSE(est) from the
    paired squared errors, all five from one covariance matrix.  An
    estimator that equals UN on every replication has a ratio of 1 on every
    draw and an SE of exactly 0; one replication leaves the others NaN."""
    errs, smse, sre = _efficiency(est, cfg.true_beta)
    reps = errs.shape[0]
    mean = errs.mean(axis=0)
    dev = errs - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        cov = dev.T @ dev / (reps - 1)
        un = mean[0]
        var = (
            cov[0, 0] / mean**2 - 2.0 * un * cov[0] / mean**3 + un**2 * np.diag(cov) / mean**4
        ) / reps
    se = np.where((errs == errs[:, :1]).all(axis=0), 0.0, np.sqrt(np.maximum(var, 0.0)))
    sre_se = {name: float(value) for name, value in zip(ESTIMATOR_ORDER, se)}
    return GridPointResult(
        n=cfg.n, p=cfg.p, tau=tau, smse=smse, sre=sre, sre_se=sre_se, n_retry=retries
    )


def run_simulation(cfg: SimConfig, threads: int = 1) -> SimResult:
    """All grid points of cfg, in tau order, from one draw and one fit per
    replication; raises ConvergenceError if the design exceeds the
    failed-fit budget.  With threads > 1 a process pool runs the
    replications in chunks."""
    rest = build_restriction(cfg.p, cfg.tau_grid)
    draw = _SimDraw(cfg.seed, cfg.n, cfg.p, cfg.true_beta)
    budget = _MAX_FAILURE_RATE * cfg.replications
    reps = list(range(cfg.replications))
    if threads <= 1 or cfg.replications < 2 * threads:
        blocks = [_replicate((draw, reps, rest, cfg.alpha, budget))]
    else:
        chunks = [list(c) for c in np.array_split(reps, 4 * threads) if len(c)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            jobs = [(draw, c, rest, cfg.alpha, budget) for c in chunks]
            blocks = list(pool.map(_replicate, jobs))
    # The chunks are consecutive and map keeps their order.
    est = np.concatenate([block_est for block_est, _ in blocks])
    total_retries = sum(retries for _, retries in blocks)
    if total_retries > budget:
        raise ConvergenceError(
            f"design (n={cfg.n}, p={cfg.p}): {total_retries} failed fits "
            f"over {cfg.replications} replications exceeds the "
            f"{_MAX_FAILURE_RATE:.0%} budget"
        )
    grid = tuple(
        _grid_point(cfg, tau, est[:, t], total_retries) for t, tau in enumerate(cfg.tau_grid)
    )
    return SimResult(config=cfg, grid=grid)

