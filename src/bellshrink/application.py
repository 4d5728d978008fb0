"""Real-data pipeline: CSV ingestion and bootstrap relative efficiency of
the estimator suite, with the full-vs-restricted AIC comparison.

The bootstrap is a pairs bootstrap: each replication draws `resample_size`
rows with replacement, refits, recomputes every estimator, and accumulates
squared errors against a pseudo-truth vector.  The rows of replication rep
are its own block of `resample_size` words in one random stream per
attempt (see `_ResampleDraw`), so they do not depend on how replications
are stacked.  The bootstrapped relative efficiency is

    BRE(est) = bootSMSE(UN) / bootSMSE(est),

with BRE(UN) = 1 by construction.  The pseudo-truth is the full-sample
unrestricted estimate, the only data-driven stand-in for the unknown
coefficient vector.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .bell_glm import Dataset, aic, fit, loglik
from .montecarlo import ConvergenceError, _efficiency, _replicate
from .shrinkage import ESTIMATOR_ORDER, LinearRestriction, _numpy_float, compute_all, estimator_names

__all__ = [
    "BootstrapConfig",
    "BREReport",
    "DataFormatError",
    "DataSummary",
    "EstimatorRow",
    "bootstrap_bre",
    "load_dataset",
]

_MAX_FAILURE_RATE = 0.10


class DataFormatError(ValueError):
    """The input CSV cannot be interpreted as count-regression data."""


@dataclass(frozen=True)
class DataSummary:
    n_rows: int
    response_column: str
    covariate_columns: tuple[str, ...]
    response_mean: float
    response_variance: float
    overdispersion: float  # sample variance / sample mean


@dataclass(frozen=True)
class BootstrapConfig:
    restriction: LinearRestriction
    resample_size: int = 40
    replications: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.resample_size < 1:
            raise ValueError(f"resample_size must be >= 1, got {self.resample_size}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EstimatorRow:
    name: str
    coefficients: np.ndarray  # full-sample estimates
    se: np.ndarray  # bootstrap per-coefficient standard deviations
    bre: float


@dataclass(frozen=True)
class BREReport:
    rows: tuple[EstimatorRow, ...]
    f_stat: float
    aic_full: float
    aic_restricted: float  # the restricted estimate's AIC, k - r free parameters
    n_retry: int
    replications: int


def _parse_count(token: str, where: str) -> None:
    try:
        val = _numpy_float(token)
    except ValueError:
        raise DataFormatError(f"{where}: response {token!r} is not a number") from None
    if not val.is_integer() or not np.isfinite(val):
        raise DataFormatError(f"{where}: response {token!r} is not an integer count")
    if val < 0:
        raise DataFormatError(f"{where}: response {token!r} is negative")
    if val >= 2.0**63:
        raise DataFormatError(f"{where}: response {token!r} is not below 2**63")


def _raise_first_bad_cell(path, response_column: str, covariate_columns) -> None:
    """Walk the rows of a file whose header is known to be good and raise
    the DataFormatError of the first cell that numpy's float syntax, the
    count rules or finite covariates reject, naming path:line; return if
    there is none.  Runs only after the one-pass read has failed, to say
    where."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        for record in reader:
            where = f"{path}:{reader.line_num}"
            raw_y = record.get(response_column)
            if raw_y is None or raw_y == "":
                raise DataFormatError(f"{where}: missing response value")
            _parse_count(raw_y, where)
            for col in covariate_columns:
                raw = record.get(col)
                try:
                    val = _numpy_float(raw or "")
                except ValueError:
                    raise DataFormatError(
                        f"{where}: covariate {col!r} value {raw!r} is not a number"
                    ) from None
                if not np.isfinite(val):
                    raise DataFormatError(f"{where}: covariate {col!r} value {raw!r} is not finite")


def load_dataset(path, response_column: str, covariate_columns) -> tuple[Dataset, DataSummary]:
    """Read a CSV file into a Dataset (intercept column prepended) plus a
    summary with the overdispersion ratio.

    The file is UTF-8, a leading byte-order mark skipped, and
    comma-separated, with a header row naming the
    columns.  A field may be quoted with `"`.  Blank lines are skipped,
    columns not asked for are ignored, and a name that appears twice in
    the header refers to its last column.  Cells are read in numpy's float
    syntax: what `float()` reads except digit separators (`1_0`) and
    non-ASCII digits.  The response must hold non-negative integer counts,
    and the covariates finite numbers.  A bad cell raises DataFormatError
    naming `path:line` of its row, and a file that is not UTF-8 one naming
    the path.

    The numbers come from one `np.loadtxt` pass; only when it, the count
    check or the finiteness check fails is the file walked row by row to
    find the line to report.
    """
    covariate_columns = tuple(covariate_columns)
    if not covariate_columns:
        raise DataFormatError(f"{path}: no covariate columns requested")
    columns = (response_column, *covariate_columns)
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataFormatError(f"{path}: empty file, expected a header row")
            missing = [c for c in columns if c not in header]
            if missing:
                raise DataFormatError(f"{path}: missing columns {missing}; header has {header}")
            index = {name: i for i, name in enumerate(header)}  # the last occurrence wins
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # no data rows; checked below
                    table = np.loadtxt(
                        fh,
                        delimiter=",",
                        usecols=[index[c] for c in columns],
                        ndmin=2,
                        comments=None,
                        quotechar='"',
                    )
            except ValueError as exc:
                _raise_first_bad_cell(path, response_column, covariate_columns)
                raise DataFormatError(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: not UTF-8 text") from None
    if not table.shape[0]:
        raise DataFormatError(f"{path}: no data rows")
    y = table[:, 0]
    counts = np.isfinite(y) & (y >= 0) & (np.floor(y) == y) & (y < 2.0**63)
    if not (counts.all() and np.isfinite(table[:, 1:]).all()):
        _raise_first_bad_cell(path, response_column, covariate_columns)
        raise DataFormatError(f"{path}: response counts must be integers in [0, 2**63)")
    y = y.astype(np.int64)
    table[:, 0] = 1.0  # the response column's place becomes the intercept
    data = Dataset(table, y)
    mean = float(y.mean())
    var = float(y.var(ddof=1)) if y.size > 1 else 0.0
    summary = DataSummary(
        n_rows=y.size,
        response_column=response_column,
        covariate_columns=covariate_columns,
        response_mean=mean,
        response_variance=var,
        overdispersion=var / mean if mean > 0 else float("nan"),
    )
    return data, summary


@dataclass(frozen=True)
class _ResampleDraw:
    """Draws the resampled rows of a bootstrap from one random stream per
    attempt.

    Attempt a reads the raw 64-bit words of
    PCG64(SeedSequence(seed, spawn_key=(a,))), and replication rep takes
    words rep * n_obs to (rep + 1) * n_obs - 1 of it, each modulo the
    number of rows N, as its n_obs row indices.  A replication's rows are
    thus a function of (seed, attempt, rep) alone, whatever else shares
    its stack; with stock numpy they are

        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(attempt,)))
        bits.advance(rep * n_obs)
        rows = bits.random_raw(n_obs) % N

    The modulo leaves each row's probability within a factor 1 +- N / 2**64
    of 1 / N."""

    X: np.ndarray
    y: np.ndarray
    seed: int
    n_obs: int

    where = " of the bootstrap"

    def rows(self, reps, attempt: int) -> np.ndarray:
        """The row indices (m, n_obs) of reps on one attempt.  Each run of
        consecutive reps is one `random_raw` call from its place in the
        stream, so only the words of reps are drawn, in any order."""
        bits = np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(attempt,)))
        origin = bits.state
        reps = np.asarray(reps, dtype=np.int64)
        words = np.empty((reps.size, self.n_obs), dtype=np.uint64)
        starts = np.flatnonzero(np.diff(reps, prepend=-2) != 1)  # reps are >= 0
        for lo, hi in zip(starts, [*starts[1:], reps.size]):
            bits.state = origin
            bits.advance(int(reps[lo]) * self.n_obs)
            words[lo:hi] = bits.random_raw((hi - lo, self.n_obs))
        return words % np.uint64(self.y.size)

    def stack(self, reps, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        """The resamples of reps on one attempt as X (m, n_obs, k) and
        y (m, n_obs), gathered with the one index array of `rows`."""
        idx = self.rows(reps, attempt)
        return self.X[idx], self.y[idx]


def bootstrap_bre(data: Dataset, cfg: BootstrapConfig) -> BREReport:
    """Pairs-bootstrap relative efficiencies; bit-reproducible given seed.

    The resamples come from `_ResampleDraw`, and the refits run in stacks
    through `montecarlo._replicate`; one whose fit fails is redrawn from
    the next attempt's stream and counted, and more than 10% failures
    aborts.  Restricted refits are checked against the restriction on
    every replication.  The BREs come from `montecarlo._efficiency`
    against `full.beta`, as the simulated SREs do.  The report also carries
    the full-sample Wald statistic and the AIC of the full and restricted
    fits."""
    if cfg.resample_size > data.n_obs:
        raise ValueError(
            f"resample_size {cfg.resample_size} exceeds the {data.n_obs} available rows"
        )
    full = fit(data)
    if not full.converged:
        raise ConvergenceError("the full-sample fit did not converge")
    full_set = compute_all(full, cfg.restriction, cfg.alpha)
    names = estimator_names(cfg.restriction.n_restrictions)
    draw = _ResampleDraw(data.X, data.y, cfg.seed, cfg.resample_size)
    budget = int(_MAX_FAILURE_RATE * cfg.replications)
    est, retries = _replicate(
        (draw, list(range(cfg.replications)), cfg.restriction, cfg.alpha, budget)
    )
    if retries > budget:
        raise ConvergenceError(
            f"{retries} failed bootstrap refits exceed the {_MAX_FAILURE_RATE:.0%} "
            f"budget over {cfg.replications} replications"
        )
    H, h = cfg.restriction.H, cfg.restriction.h
    gap = np.max(np.abs(est[:, ESTIMATOR_ORDER.index("RE")] @ H.T - h), axis=1)
    bad = np.flatnonzero(gap > 1e-8 * max(1.0, float(np.max(np.abs(h)))))
    if bad.size:
        raise RuntimeError(
            f"replication {bad[0]}: restricted refit violates the restriction "
            f"(max gap {gap[bad[0]]:.3e})"
        )
    _, _, bre = _efficiency(est, full.beta)
    se = est.std(axis=0, ddof=1) if cfg.replications > 1 else np.zeros(est.shape[1:])
    rows = tuple(
        EstimatorRow(name, np.asarray(getattr(full_set, name.lower())), se[i], bre[name])
        for i, name in enumerate(ESTIMATOR_ORDER)
        if name in names
    )
    return BREReport(
        rows=rows,
        f_stat=full_set.f_stat,
        aic_full=aic(full, data),
        aic_restricted=2.0 * (data.n_params - cfg.restriction.n_restrictions)
        - 2.0 * loglik(full_set.re, data),
        n_retry=retries,
        replications=cfg.replications,
    )

