"""Restricted, pretest, and James-Stein estimation on top of a fitted model.

Given an unrestricted fit with coefficients b and total information F, and
a linear restriction H beta = h with H of full row rank r, the restricted
estimator minimises (beta - b)' F (beta - b) over H beta = h.  By
elimination, every such beta is P h + N u for u the k - r free coordinates
(`_elimination_basis`).  With gap = H b - h and z = (N' F N)**-1 N' F P,

    b_RE = P h + N (b_free + z gap),   b - b_RE = kappa gap,   kappa = P - N z,

so a coefficient that the restriction pins gets exactly the pinned value,
and the Wald statistic for the restriction is

    f = (kappa gap)' F (kappa gap) = (H b - h)' (H F**-1 H')**-1 (H b - h).

The pretest estimator keeps b_RE when f falls below the chi-square(r)
critical value and b otherwise.  The James-Stein estimator moves from
b_RE toward b by the data-driven factor 1 - (r-2)/f (requiring r >= 3),
and its positive part clamps that factor at zero so the combination never
overshoots past b_RE.

`estimate_many` computes all five estimators for a stack of fits in one
pass, under one restriction or under every member of a family that shares
H (the simulation's tau grid), and `compute_all` is its stack of one fit
under one restriction.  This module also decides which estimators exist:
`ESTIMATOR_ORDER`, and r >= 3 for the James-Stein pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv

from .bell_glm import FittedModel
from .linalg import SingularMatrixError, spd_solve_stack

__all__ = [
    "ESTIMATOR_ORDER",
    "EstimatorSet",
    "LinearRestriction",
    "compute_all",
    "estimate_many",
    "estimator_names",
    "load_restriction",
]

ESTIMATOR_ORDER = ("UN", "RE", "JSE", "PJSE", "PTE")
_MIN_JS_RESTRICTIONS = 3


def estimator_names(r: int) -> tuple[str, ...]:
    """The estimators defined under r restrictions, in ESTIMATOR_ORDER:
    all five from r = 3 on, without the James-Stein pair below."""
    if r >= _MIN_JS_RESTRICTIONS:
        return ESTIMATOR_ORDER
    return tuple(name for name in ESTIMATOR_ORDER if name not in ("JSE", "PJSE"))


def _numpy_float(token: str) -> float:
    """float(token) under numpy's float syntax, which `np.loadtxt` applies to
    data: surrounding whitespace, then an ASCII number without digit
    separators.  Every other float the package reads goes through it."""
    core = token.strip()
    if "_" in core or not core.isascii():
        raise ValueError(f"could not convert string {token!r} to float64")
    return float(core)


def content_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line of a restriction, Fisher
    or config file that is not blank once its '#' comment is cut.  A
    leading byte-order mark is skipped; a file that is not UTF-8 raises
    ValueError naming the path."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [raw.split("#", 1)[0].strip() for raw in fh]
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line]


def _elimination_basis(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, P, free) for H (r, k) of full row rank.  Gauss-Jordan elimination
    of [H I] with complete pivoting picks r pivot columns, H1 = H[:, pivots],
    turns [H1 H2 I] into [I H1**-1 H2 H1**-1] up to row order, and leaves the
    other columns free; N = [-H1**-1 H2; I] (k, k - r) and P = [H1**-1; 0]
    (k, r) are in H's column order, so H (P h + N u) = h for every u."""
    r, k = H.shape
    a, rows, pivots = np.hstack([H, np.eye(r)]), [], []
    for _ in range(r):
        left = np.abs(a[:, :k])
        left[rows] = 0.0  # eliminated columns are exactly 0 in the other rows
        i, j = divmod(int(left.argmax()), k)
        a[i] /= a[i, j]
        col = a[:, j].copy()
        col[i] = 0.0  # the pivot row keeps its 1
        a -= col[:, None] * a[i]
        rows.append(i)
        pivots.append(j)
    free = np.delete(np.arange(k), pivots)
    N, P = np.zeros((k, k - r)), np.zeros((k, r))
    N[pivots], N[free] = -a[np.ix_(rows, free)], np.eye(k - r)
    P[pivots] = a[rows, k:]
    return N, P, free


@dataclass(frozen=True)
class LinearRestriction:
    """Linear constraint H beta = h with H full row rank, r <= k, and its
    elimination basis (N, P, free).  An h of shape (T, r), T >= 1, makes a
    family of T restrictions that share H, one per row, which
    `estimate_many` serves in one pass; `compute_all` takes one."""

    H: np.ndarray
    h: np.ndarray
    basis: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = np.ascontiguousarray(self.H, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if h.ndim < 2:
            h = h.reshape(-1)
        if H.ndim != 2:
            raise ValueError(f"H must be 2-d, got ndim={H.ndim}")
        r, k = H.shape
        if not (1 <= r <= k):
            raise ValueError(f"need 1 <= rows <= columns, got H shape {H.shape}")
        if h.ndim > 2 or h.shape[-1:] != (r,) or not h.size:
            raise ValueError(
                f"h must have one entry per row of H, or one such row per member of "
                f"a nonempty family, got shape {h.shape}"
            )
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(h))):
            raise ValueError("restriction contains non-finite entries")
        if np.linalg.matrix_rank(H) != r:
            raise ValueError(f"H must have full row rank {r}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "basis", _elimination_basis(H))

    @property
    def n_restrictions(self) -> int:
        return self.H.shape[0]

    def _projection(self, fisher: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z, P - N z, ok) of the reduced solve z = (N' F N)**-1 N' F P, for F (m, k, k)."""
        N, P, _ = self.basis
        nf = N.T @ fisher
        z, ok = spd_solve_stack(nf @ N, nf @ P)
        return z, P - N @ z, ok


def load_restriction(path) -> LinearRestriction:
    """Parse a plain-text restriction file.

    One row per line: the entries of that row of H, whitespace-separated,
    then a '|', then the corresponding entry of h, all in numpy's float
    syntax.  '#' starts a comment, and blank lines are skipped
    (`content_lines`).  A malformed file raises ValueError naming the
    path, and the line where one line is at fault.
    """
    rows, rhs = [], []
    for lineno, line in content_lines(path):
        if line.count("|") != 1:
            raise ValueError(f"{path}:{lineno}: expected exactly one '|' separator")
        left, right = line.split("|")
        try:
            row = [_numpy_float(tok) for tok in left.split()]
            val = _numpy_float(right)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric entry") from exc
        if not row:
            raise ValueError(f"{path}:{lineno}: empty restriction row")
        if rows and len(row) != len(rows[0]):
            raise ValueError(
                f"{path}:{lineno}: row has {len(row)} entries, expected {len(rows[0])}"
            )
        rows.append(row)
        rhs.append(val)
    if not rows:
        raise ValueError(f"{path}: no restriction rows found")
    try:
        return LinearRestriction(np.array(rows), np.array(rhs))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class EstimatorSet:
    """The five estimators for one fit; jse/pjse are None when r < 3."""

    un: np.ndarray
    re: np.ndarray
    pte: np.ndarray
    jse: np.ndarray | None
    pjse: np.ndarray | None
    f_stat: float


def _critical_value(alpha: float, r: int) -> float:
    """The chi-square(r) upper-alpha critical value of the pretest."""
    if alpha is None:
        raise ValueError("the pretest estimator needs a test level alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    return float(2.0 * gammaincinv(r / 2.0, 1.0 - alpha))


def estimate_many(
    beta: np.ndarray, fisher: np.ndarray, rest: LinearRestriction, alpha: float = 0.05
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All five estimators for a stack of fits, beta (m, k) and fisher
    (m, k, k), under one restriction (h of shape (r,)) or under each of a
    family sharing H (h of shape (T, r)).

    Returns (est, f_stat, ok): est (m, 5, k), or (m, T, 5, k) for a family,
    in ESTIMATOR_ORDER; the Wald statistics (m,) or (m, T); and ok (m,),
    False for a member whose information matrix F fails the Cholesky test
    or whose reduced system N' F N fails the solve; its rows are NaN.  JSE
    and PJSE are NaN when r < 3.  An exactly-satisfied restriction (f_stat
    = 0) makes JSE and PJSE both RE, and a tie at the pretest's critical
    value keeps UN.  z is one solve per member, and each (member, h) pair
    then costs only matrix-vector products of its own, so its values are
    bit for bit those of `compute_all` on that member and h alone.
    """
    H, h = rest.H, rest.h
    N, P, free = rest.basis
    beta, fisher = np.asarray(beta, dtype=float), np.asarray(fisher, dtype=float)
    if beta.ndim != 2 or fisher.shape != beta.shape + beta.shape[-1:]:
        shapes = f"got fisher {fisher.shape} and beta {beta.shape}"
        raise ValueError(f"fisher must have shape (m, k, k) for beta (m, k), {shapes}")
    m, k = beta.shape
    if H.shape[1] != k:
        raise ValueError(f"restriction has {H.shape[1]} columns but the model has {k} parameters")
    r = rest.n_restrictions
    crit = _critical_value(alpha, r)
    family, T = h.shape[:-1], h.size // r
    # the reduced solve, then F's own Cholesky test (no right-hand side)
    z, kappa, ok = rest._projection(fisher)
    ok &= spd_solve_stack(fisher, np.empty((m, k, 0)))[1]
    # (m, T, ., 1) stacks: each (member, h) product is its own matrix-vector
    # product, whatever T is; b - RE = kappa gap
    gap = (H @ beta[..., None])[:, None] - h.reshape(T, r, 1)
    u = beta[:, None, free, None] + z[:, None] @ gap
    re = (P @ h.reshape(T, r, 1) + N @ u)[..., 0]
    diff = kappa[:, None] @ gap
    f_stat = np.maximum(0.0, (diff.swapaxes(-2, -1) @ fisher[:, None] @ diff)[..., 0, 0])
    re[~ok] = f_stat[~ok] = np.nan
    un = np.broadcast_to(np.where(ok[:, None, None], beta[:, None], np.nan), re.shape)
    pte = np.where((f_stat < crit)[..., None], re, un)
    if r >= _MIN_JS_RESTRICTIONS:
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = 1.0 - (r - 2.0) / f_stat
            jse = re + factor[..., None] * (un - re)
        exact = (f_stat == 0.0)[..., None]
        pjse = np.where(exact | (factor <= 0.0)[..., None], re, jse)
        jse = np.where(exact, re, jse)
    else:
        jse = pjse = np.full_like(re, np.nan)
    est = np.stack([un, re, jse, pjse, pte], axis=2)
    return est.reshape(m, *family, len(ESTIMATOR_ORDER), k), f_stat.reshape(m, *family), ok


def compute_all(model: FittedModel, rest: LinearRestriction, alpha: float = 0.05) -> EstimatorSet:
    """All five estimators of one fit: `estimate_many` on a stack of one.

    jse/pjse are None when r < 3, and an exactly-satisfied restriction
    (f_stat = 0) short-circuits both to the restricted estimator.  Raises
    SingularMatrixError where `estimate_many` flags the member, and
    ValueError for a family of restrictions."""
    if rest.h.ndim != 1:
        raise ValueError("compute_all takes one restriction; estimate_many serves a family")
    est, f_stat, ok = estimate_many(model.beta[None], model.fisher_info[None], rest, alpha)
    if not ok[0]:
        raise SingularMatrixError("information matrix F or its reduced form N' F N is singular")
    un, re, jse, pjse, pte = est[0]
    if rest.n_restrictions < _MIN_JS_RESTRICTIONS:
        jse = pjse = None
    return EstimatorSet(un=un, re=re, pte=pte, jse=jse, pjse=pjse, f_stat=float(f_stat[0]))
