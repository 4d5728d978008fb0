"""Thin SPD solve helpers shared by the fitting and shrinkage code.

All solves go through a Cholesky factorization (LAPACK dposv).  A failed
factorization gets one retry with a jitter of 1e-10 * trace/dim added to
the diagonal; a matrix that fails both, or that is non-finite or not
symmetric, is not positive definite.  `spd_solve` and `spd_inverse` raise
SingularMatrixError for it; `spd_solve_each` and `spd_solve_stack`, which
solve a stack of small systems one member at a time, flag the member
instead, so one singular member cannot fail the others.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dposv

__all__ = [
    "SingularMatrixError",
    "spd_inverse",
    "spd_solve",
    "spd_solve_each",
    "spd_solve_stack",
]

_JITTER_SCALE = 1e-10
_SYM_RTOL = 1e-8


class SingularMatrixError(ValueError):
    """A matrix required to be symmetric positive definite is not."""


def _symmetric_finite(a: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (..., k, k): finite and symmetric up to _SYM_RTOL."""
    finite = np.all(np.isfinite(a), axis=(-2, -1))
    a = np.where(finite[..., None, None], a, 0.0)
    scale = np.max(np.abs(a), axis=(-2, -1), initial=0.0)
    asym = np.max(np.abs(a - np.swapaxes(a, -2, -1)), axis=(-2, -1), initial=0.0)
    return finite & (asym <= _SYM_RTOL * np.maximum(1.0, scale))


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """x with a x = b from the lower Cholesky factor of a, retried once with
    diagonal jitter; None when both factorizations fail."""
    _, x, info = dposv(a, b, lower=1)
    if info != 0:
        jitter = _JITTER_SCALE * np.trace(a) / a.shape[0]
        _, x, info = dposv(a + jitter * np.eye(a.shape[0]), b, lower=1)
    return x if info == 0 else None


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise SingularMatrixError("matrix contains non-finite entries")
    if not _symmetric_finite(a):
        raise SingularMatrixError("matrix is not symmetric")
    x = _cholesky_solve(a, np.asarray(b, dtype=float))
    if x is None:
        raise SingularMatrixError("matrix is not positive definite")
    return x


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite a."""
    return _solve(a, b)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Explicit inverse of an SPD matrix, symmetrized against roundoff."""
    a = np.asarray(a, dtype=float)
    inv = _solve(a, np.eye(a.shape[0]))
    return (inv + inv.T) / 2.0


def spd_solve_each(a: np.ndarray, b: np.ndarray) -> list[np.ndarray | None]:
    """Solve a[i] x[i] = b[i] for a stack of matrices (m, k, k) and
    right-hand sides (m, k) or (m, k, r) under the rules of `spd_solve`.

    Returns one solution per member, as `spd_solve` returns it for that
    member alone (same bits, same memory layout), or None where
    `spd_solve` would raise or b[i] is not finite.  Members never affect
    each other, neither in their bits nor in their failure.
    """
    ok = _symmetric_finite(a) & np.all(np.isfinite(b), axis=tuple(range(1, b.ndim)))
    return [_cholesky_solve(a[i], b[i]) if ok[i] else None for i in range(len(a))]


def spd_solve_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`spd_solve_each` packed into arrays: returns (x, ok), where ok[i] is
    False for a member without a solution and x[i] is then meaningless."""
    x = np.empty_like(b)
    xs = spd_solve_each(a, b)
    ok = np.array([xi is not None for xi in xs], dtype=bool)
    for i in np.flatnonzero(ok):
        x[i] = xs[i]
    return x, ok
