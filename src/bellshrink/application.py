"""Real-data pipeline: CSV ingestion and bootstrap relative efficiency of
the estimator suite, with the full-vs-restricted AIC comparison.

The bootstrap is a pairs bootstrap: each replication draws `resample_size`
rows with replacement, refits, recomputes every estimator, and accumulates
squared errors against a pseudo-truth vector.  The bootstrapped relative
efficiency is

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
from .montecarlo import ConvergenceError, _fmt, _replicate, write_lines
from .shrinkage import ESTIMATOR_ORDER, LinearRestriction, compute_all, estimator_names

__all__ = [
    "BootstrapConfig",
    "BREReport",
    "DataFormatError",
    "DataSummary",
    "EstimatorRow",
    "bootstrap_bre",
    "load_dataset",
    "write_bre_csv",
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
    coef_names: tuple[str, ...]


def _numpy_float(token: str) -> float:
    """float(token) under numpy's float syntax, which `np.loadtxt` applies:
    surrounding whitespace, then an ASCII number without digit separators."""
    core = token.strip()
    if "_" in core or not core.isascii():
        raise ValueError(f"could not convert string {token!r} to float64")
    return float(core)


def _parse_count(token: str, where: str) -> None:
    try:
        val = _numpy_float(token)
    except ValueError:
        raise DataFormatError(f"{where}: response {token!r} is not a number") from None
    if not val.is_integer() or not np.isfinite(val):
        raise DataFormatError(f"{where}: response {token!r} is not an integer count")
    if val < 0:
        raise DataFormatError(f"{where}: response {token!r} is negative")


def _raise_first_bad_cell(path, response_column: str, covariate_columns) -> None:
    """Walk the rows of a file whose header is known to be good and raise
    the DataFormatError of the first cell that numpy's float syntax or the
    count rules reject, naming path:line; return if there is none.  Runs
    only after the one-pass read has failed, to say where."""
    with open(path, encoding="utf-8", newline="") as fh:
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
                    _numpy_float(raw or "")
                except ValueError:
                    raise DataFormatError(
                        f"{where}: covariate {col!r} value {raw!r} is not a number"
                    ) from None


def load_dataset(path, response_column: str, covariate_columns) -> tuple[Dataset, DataSummary]:
    """Read a CSV file into a Dataset (intercept column prepended) plus a
    summary with the overdispersion ratio.

    The file is UTF-8 and comma-separated, with a header row naming the
    columns.  A field may be quoted with `"`.  Blank lines are skipped,
    columns not asked for are ignored, and a name that appears twice in
    the header refers to its last column.  Cells are read in numpy's float
    syntax: what `float()` reads except digit separators (`1_0`) and
    non-ASCII digits.  The response must hold non-negative integer counts.
    A bad cell raises DataFormatError naming `path:line` of its row, and a
    file that is not UTF-8 one naming the path.

    The numbers come from one `np.loadtxt` pass; only when it or the count
    check fails is the file walked row by row to find the line to report.
    """
    covariate_columns = tuple(covariate_columns)
    if not covariate_columns:
        raise DataFormatError(f"{path}: no covariate columns requested")
    columns = (response_column, *covariate_columns)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
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
    if not np.all(np.isfinite(y) & (y >= 0) & (np.floor(y) == y) & (y < 2.0**63)):
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
    """Draws the resampled rows of one (replication, attempt) of a bootstrap."""

    X: np.ndarray
    y: np.ndarray
    seed: int
    n_obs: int

    where = " of the bootstrap"

    def _rows(self, rep: int, attempt: int) -> np.ndarray:
        seq = np.random.SeedSequence(self.seed, spawn_key=(rep, attempt))
        rng = np.random.Generator(np.random.PCG64(seq))
        return rng.integers(0, self.y.size, size=self.n_obs)

    def stack(self, reps, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        """The resamples of reps on one attempt as X (m, n_obs, k) and
        y (m, n_obs), gathered with one (m, n_obs) index array."""
        idx = np.stack([self._rows(rep, attempt) for rep in reps])
        return self.X[idx], self.y[idx]


def bootstrap_bre(data: Dataset, cfg: BootstrapConfig, coef_names=None) -> BREReport:
    """Pairs-bootstrap relative efficiencies; bit-reproducible given seed.

    Replications whose refit fails are redrawn from a fresh substream and
    counted; more than 10% failures aborts.  Restricted refits are checked
    against the restriction itself on every replication.  The report also
    carries the full-sample Wald statistic and the AIC of the full and
    restricted fits."""
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
    _, est, retries = _replicate(
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
    draws = {name: est[:, ESTIMATOR_ORDER.index(name)] for name in names}
    smse = {
        name: float(np.mean(np.sum((draws[name] - full.beta) ** 2, axis=1))) for name in names
    }
    rows = []
    for name in names:
        if name == "UN":
            bre = 1.0
        elif smse[name] == smse["UN"]:
            bre = 1.0
        else:
            bre = smse["UN"] / smse[name] if smse[name] > 0 else float("inf")
        rows.append(
            EstimatorRow(
                name=name,
                coefficients=np.asarray(getattr(full_set, name.lower())),
                se=draws[name].std(axis=0, ddof=1) if cfg.replications > 1 else np.zeros(data.n_params),
                bre=bre,
            )
        )
    if coef_names is None:
        coef_names = tuple(f"b{i}" for i in range(data.n_params))
    else:
        coef_names = tuple(coef_names)
        if len(coef_names) != data.n_params:
            raise ValueError(f"expected {data.n_params} coefficient names, got {len(coef_names)}")
    return BREReport(
        rows=tuple(rows),
        f_stat=full_set.f_stat,
        aic_full=aic(full),
        aic_restricted=2.0 * (data.n_params - cfg.restriction.n_restrictions)
        - 2.0 * loglik(full_set.re, data),
        n_retry=retries,
        replications=cfg.replications,
        coef_names=coef_names,
    )


def write_bre_csv(report: BREReport, path) -> None:
    """Table-2-shaped output: one row per estimator per coefficient."""
    lines = ["estimator,coefficient,estimate,se,bre"]
    for row in report.rows:
        for name, est, se in zip(report.coef_names, row.coefficients, row.se):
            lines.append(f"{row.name},{name},{_fmt(est)},{_fmt(se)},{_fmt(row.bre)}")
    write_lines(path, lines)
