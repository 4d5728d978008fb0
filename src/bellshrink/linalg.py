"""Thin SPD solve helpers shared by the fitting and shrinkage code.

`spd_solve_stack` solves a stack of small systems with one Cholesky over
the stack, which tests definiteness, and one LU solve (np.linalg.solve).
Only if a member is non-finite or not symmetric, or either call raises,
are the members walked: each is solved alone by the same two calls, which
run the same LAPACK routines on it and so give the same bits, or flagged
with a NaN solution.  So a member's bits never depend on its neighbours,
and LinAlgError never leaves this module.  `spd_solve` and `spd_inverse`,
the stack of one, raise SingularMatrixError for a flagged member.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrixError",
    "spd_inverse",
    "spd_solve",
    "spd_solve_stack",
]

_SYM_RTOL = 1e-8


class SingularMatrixError(ValueError):
    """A matrix required to be symmetric positive definite is not."""


def _symmetric_finite(a: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (..., k, k): finite and symmetric up to _SYM_RTOL."""
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)  # NaN or inf if a is not finite
    with np.errstate(invalid="ignore"):
        asym = np.abs(a - np.swapaxes(a, -2, -1)).max(axis=(-2, -1), initial=0.0)
    return np.isfinite(scale) & (asym <= _SYM_RTOL * np.maximum(1.0, scale))


def _solution(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One member's solution by the batched pass's two calls, the Cholesky
    test and the LU solve (none for an empty b), or None if either raises."""
    try:
        np.linalg.cholesky(a)
        return np.linalg.solve(a, b) if b.size else b
    except np.linalg.LinAlgError:
        return None


def spd_solve_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a[i] x[i] = b[i] for a stack of SPD matrices (m, k, k) and
    right-hand sides (m, k) or (m, k, r).

    Returns (x, ok): ok[i] is False, and x[i] NaN, for a member that fails
    the Cholesky test or the LU solve, or whose a[i] is not finite and
    symmetric or whose b[i] is not finite.  A member's solution and its
    flag are the same, bit for bit, whatever else shares its stack.  A b
    of shape (m, k, 0) makes ok the Cholesky test alone.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    vector = b.ndim == a.ndim - 1
    rhs = b[..., None] if vector else b
    ok = _symmetric_finite(a) & np.isfinite(rhs).all(axis=(-2, -1))
    x = _solution(a, rhs) if ok.all() else None
    if x is None:
        x = np.full(rhs.shape, np.nan)
        for i in np.flatnonzero(ok):
            xi = _solution(a[i], rhs[i])
            ok[i] = xi is not None
            if ok[i]:
                x[i] = xi
    return (x[..., 0] if vector else x), ok


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    x, ok = spd_solve_stack(a[None], np.asarray(b, dtype=float)[None])
    if ok[0]:
        return x[0]
    if not np.all(np.isfinite(a)):
        raise SingularMatrixError("matrix contains non-finite entries")
    if not _symmetric_finite(a):
        raise SingularMatrixError("matrix is not symmetric")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    raise SingularMatrixError("matrix is not positive definite")


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite a."""
    return _solve(a, b)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Explicit inverse of an SPD matrix, symmetrized against roundoff."""
    a = np.asarray(a, dtype=float)
    inv = _solve(a, np.eye(a.shape[0]))
    return (inv + inv.T) / 2.0
