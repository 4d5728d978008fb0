"""Simulated relative efficiency of the estimator suite.

For a grid point (n, p, tau) the generating truth is fixed at
beta = (0, 1, ..., 1) with i.i.d. standard normal covariates and Bell
responses through the log link.  The restriction under test pins the
intercept at tau and equates adjacent slopes,

    H = [ e0' ; (0 1 -1 0 ...) ; ... ],   h = (tau, 0, ..., 0),

so tau = 0 makes the restriction exactly true and larger tau moves the
hypothesis away from the truth without changing the data law.  Each
replication draws a dataset, fits, computes all five estimators, and
accumulates squared errors against the truth; relative efficiency is

    SRE(est) = SMSE(UN) / SMSE(est),

with delta-method Monte Carlo standard errors on the ratio.

Reproducibility: every replication attempt owns a PCG64 substream keyed by
(seed; n, p, tau, replication, attempt), so any grid point or single
replication can be regenerated in isolation and results do not depend on
thread count or grid subsetting.
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
    "write_curves_csv",
    "write_lines",
    "write_table_csv",
]

_RATIO_ESTIMATORS = ESTIMATOR_ORDER[1:]
_MAX_ATTEMPTS_PER_REP = 20
_MAX_FAILURE_RATE = 0.05
_DESIGN_STREAM = 0x5EED_DE51  # substream reserved for a shared fixed design
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
    fixed_design: bool = False

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
        first: dict[int, float] = {}
        for t in taus:
            key = _tau_key(t)
            if key in first:
                raise ValueError(
                    f"tau_grid entries {first[key]!r} and {t!r} share one random "
                    "stream (taus are keyed to 1e-6)"
                )
            first[key] = t
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


def build_restriction(p: int, tau: float) -> LinearRestriction:
    """The p x (p+1) restriction: intercept = tau, adjacent slopes equal."""
    if p < _MIN_JS_RESTRICTIONS:
        raise ValueError(f"build_restriction needs p >= {_MIN_JS_RESTRICTIONS}, got {p}")
    H = np.zeros((p, p + 1))
    H[0, 0] = 1.0
    for i in range(1, p):
        H[i, i] = 1.0
        H[i, i + 1] = -1.0
    h = np.zeros(p)
    h[0] = float(tau)
    return LinearRestriction(H, h)


def generate_dataset(n: int, p: int, true_beta, rng: np.random.Generator) -> Dataset:
    """Fresh standard normal covariates, Bell counts through the log link."""
    true_beta = np.asarray(true_beta, dtype=float)
    X = np.empty((n, p + 1))
    X[:, 0] = 1.0
    X[:, 1:] = rng.standard_normal((n, p))
    return _dataset_for_design(X, true_beta, rng)


def _dataset_for_design(X: np.ndarray, true_beta: np.ndarray, rng) -> Dataset:
    mu = np.exp(X @ true_beta)
    theta = lambert_w0(mu)
    y = sample_counts(theta, rng)
    return Dataset(X, y)


def _tau_key(tau: float) -> int:
    """The entry of a substream key that stands for tau."""
    return int(round(tau * 1_000_000))


def _substream(seed: int, n: int, p: int, tau: float, rep: int, attempt: int):
    key = (n, p, _tau_key(tau), rep, attempt)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class _SimDraw:
    """Draws the dataset of one (replication, attempt) of a grid point."""

    seed: int
    n_obs: int
    p: int
    tau: float
    true_beta: np.ndarray
    fixed_X: np.ndarray | None

    @property
    def where(self) -> str:
        return f" at (n={self.n_obs}, p={self.p}, tau={self.tau})"

    def __call__(self, rep: int, attempt: int) -> Dataset:
        rng = _substream(self.seed, self.n_obs, self.p, self.tau, rep, attempt)
        if self.fixed_X is None:
            return generate_dataset(self.n_obs, self.p, self.true_beta, rng)
        return _dataset_for_design(self.fixed_X, self.true_beta, rng)

    def stack(self, reps, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        """The datasets of reps on one attempt as X (m, n, k) and y (m, n),
        bit for bit those of self(rep, attempt): each substream draws its
        covariates and then its counts, and theta comes from one Lambert W
        call, which is element-wise."""
        n, p = self.n_obs, self.p
        rngs = [_substream(self.seed, n, p, self.tau, rep, attempt) for rep in reps]
        X = np.empty((len(rngs), n, p + 1))
        if self.fixed_X is None:
            X[..., 0] = 1.0
            eta = np.empty((len(rngs), n))
            for x, e, rng in zip(X, eta, rngs):
                x[:, 1:] = rng.standard_normal((n, p))
                e[:] = x @ self.true_beta
        else:
            X[:] = self.fixed_X
            eta = self.fixed_X @ self.true_beta
        theta = np.broadcast_to(lambert_w0(np.exp(eta)), (len(rngs), n))
        y = np.stack([sample_counts(t, rng) for t, rng in zip(theta, rngs)])
        return X, y


def _replicate(job) -> tuple[list[int], np.ndarray, int]:
    """Fit every replication in reps and compute its estimators.

    job = (draw, reps, rest, alpha, budget).  draw.stack(reps, attempt)
    gives the datasets of that attempt as arrays.  Each attempt round
    draws, fits and estimates every pending replication in stacks of at
    most _STACK_ELEMENTS entries of X, and leaves the failed ones (no
    convergence, singular fit or singular projection) pending for
    attempt + 1.  The round stops early once the failures exceed budget;
    the caller reports that.

    Returns (reps, estimates, retries): estimates has shape
    (len(reps), 5, k) in ESTIMATOR_ORDER, NaN where r < 3 rules out the
    Stein estimators or a replication was left pending.
    """
    draw, reps, rest, alpha, budget = job
    k = rest.H.shape[1]
    est = np.full((len(reps), len(ESTIMATOR_ORDER), k), np.nan)
    cap = max(1, _STACK_ELEMENTS // (draw.n_obs * k))
    pending = np.arange(len(reps))
    retries = 0
    for attempt in range(_MAX_ATTEMPTS_PER_REP):
        failed = []
        for start in range(0, len(pending), cap):
            rows = pending[start : start + cap]
            models = fit_many(*draw.stack([reps[row] for row in rows], attempt))
            fitted = [i for i, model in enumerate(models) if model is not None and model.converged]
            ok = np.zeros(len(rows), dtype=bool)
            if fitted:
                stack_est, _, ok[fitted] = estimate_many(
                    np.stack([models[i].beta for i in fitted]),
                    np.stack([models[i].fisher_info for i in fitted]),
                    rest,
                    alpha,
                )
                est[rows[fitted]] = stack_est
            failed.append(rows[~ok])
        pending = np.concatenate(failed)
        retries += len(pending)
        if not len(pending) or retries > budget:
            return list(reps), est, retries
    raise ConvergenceError(
        f"replication {reps[pending[0]]}{draw.where} failed "
        f"{_MAX_ATTEMPTS_PER_REP} consecutive attempts"
    )


def _ratio_se(a: np.ndarray, b: np.ndarray) -> float:
    """Delta-method standard error of mean(a)/mean(b) from paired samples."""
    reps = a.size
    if reps < 2:
        return float("nan")
    abar = float(a.mean())
    bbar = float(b.mean())
    cov = np.cov(a, b, ddof=1)
    var = (
        cov[0, 0] / bbar**2
        - 2.0 * abar * cov[0, 1] / bbar**3
        + abar**2 * cov[1, 1] / bbar**4
    ) / reps
    return float(np.sqrt(max(var, 0.0)))


def _grid_point(cfg: SimConfig, tau: float, threads: int) -> GridPointResult:
    rest = build_restriction(cfg.p, tau)
    fixed_X = None
    if cfg.fixed_design:
        rng = _substream(cfg.seed, cfg.n, cfg.p, tau, _DESIGN_STREAM, 0)
        fixed_X = np.empty((cfg.n, cfg.p + 1))
        fixed_X[:, 0] = 1.0
        fixed_X[:, 1:] = rng.standard_normal((cfg.n, cfg.p))
    draw = _SimDraw(cfg.seed, cfg.n, cfg.p, tau, cfg.true_beta, fixed_X)
    budget = _MAX_FAILURE_RATE * cfg.replications
    reps = list(range(cfg.replications))
    if threads <= 1 or cfg.replications < 2 * threads:
        blocks = [_replicate((draw, reps, rest, cfg.alpha, budget))]
    else:
        chunks = [list(c) for c in np.array_split(reps, 4 * threads) if len(c)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            jobs = [(draw, c, rest, cfg.alpha, budget) for c in chunks]
            blocks = list(pool.map(_replicate, jobs))
    est = np.empty((cfg.replications, len(ESTIMATOR_ORDER), cfg.p + 1))
    total_retries = 0
    for rep_ids, block_est, retries in blocks:
        est[rep_ids] = block_est
        total_retries += retries
    if total_retries > budget:
        raise ConvergenceError(
            f"grid point (n={cfg.n}, p={cfg.p}, tau={tau}): {total_retries} failed fits "
            f"over {cfg.replications} replications exceeds the "
            f"{_MAX_FAILURE_RATE:.0%} budget"
        )
    diff = est - cfg.true_beta
    errs = np.sum(diff * diff, axis=-1)
    smse = {name: float(errs[:, i].mean()) for i, name in enumerate(ESTIMATOR_ORDER)}
    sre = {"UN": 1.0}
    sre_se = {"UN": 0.0}
    for i, name in enumerate(ESTIMATOR_ORDER):
        if name == "UN":
            continue
        sre[name] = smse["UN"] / smse[name]
        sre_se[name] = _ratio_se(errs[:, 0], errs[:, i])
    return GridPointResult(
        n=cfg.n, p=cfg.p, tau=tau, smse=smse, sre=sre, sre_se=sre_se, n_retry=total_retries
    )


def run_simulation(cfg: SimConfig, threads: int = 1) -> SimResult:
    """All grid points of cfg, in tau order; raises ConvergenceError if any
    grid point exceeds the failed-fit budget."""
    grid = tuple(_grid_point(cfg, tau, threads) for tau in cfg.tau_grid)
    return SimResult(config=cfg, grid=grid)


def _fmt(x: float) -> str:
    """A number as every CSV and table of the package prints it."""
    return format(float(x), ".12g")


def write_lines(path, lines) -> None:
    """Write lines as UTF-8 text, each ended by one LF, so output files
    have the same bytes on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_table_csv(grid, path) -> None:
    """One row per ratio estimator per grid point, Table-1 layout."""
    lines = ["n,p,tau,estimator,smse,sre,sre_se,n_retry"]
    for gp in grid:
        for name in _RATIO_ESTIMATORS:
            lines.append(
                f"{gp.n},{gp.p},{_fmt(gp.tau)},{name},{_fmt(gp.smse[name])},"
                f"{_fmt(gp.sre[name])},{_fmt(gp.sre_se[name])},{gp.n_retry}"
            )
    write_lines(path, lines)


def write_curves_csv(grid, path) -> None:
    """Long-format SRE-vs-tau curves, one row per estimator per grid point."""
    lines = ["n,p,tau,estimator,sre"]
    for gp in grid:
        for name in _RATIO_ESTIMATORS:
            lines.append(f"{gp.n},{gp.p},{_fmt(gp.tau)},{name},{_fmt(gp.sre[name])}")
    write_lines(path, lines)
