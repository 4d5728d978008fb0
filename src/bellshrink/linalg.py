"""Thin SPD solve helpers shared by the fitting and shrinkage code.

`spd_solve_stack` solves a stack of small systems with one Cholesky over
the stack, which tests definiteness, and one LU solve (np.linalg.solve).
Only if either raises are the members walked, to find the failing ones:
each gets one retry with 1e-10 * trace/dim added to its diagonal, and one
that fails both, or is non-finite or not symmetric, is flagged and replaced
by the identity before the one batched solve.  So a member's bits never
depend on its neighbours, and LinAlgError never leaves this module.
`spd_solve` and `spd_inverse`, the stack of one, raise SingularMatrixError
for a flagged member.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrixError",
    "spd_inverse",
    "spd_solve",
    "spd_solve_stack",
]

_JITTER_SCALE = 1e-10
_SYM_RTOL = 1e-8


class SingularMatrixError(ValueError):
    """A matrix required to be symmetric positive definite is not."""


def _symmetric_finite(a: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (..., k, k): finite and symmetric up to _SYM_RTOL."""
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)  # NaN or inf if a is not finite
    with np.errstate(invalid="ignore"):
        asym = np.abs(a - np.swapaxes(a, -2, -1)).max(axis=(-2, -1), initial=0.0)
    return np.isfinite(scale) & (asym <= _SYM_RTOL * np.maximum(1.0, scale))


def _solvable(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether one member passes the Cholesky test and the LU solve."""
    try:
        np.linalg.cholesky(a)
        np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return False
    return True


def spd_solve_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a[i] x[i] = b[i] for a stack of SPD matrices (m, k, k) and
    right-hand sides (m, k) or (m, k, r).

    Returns (x, ok): ok[i] is False for a member that is not symmetric
    positive definite after the jitter retry, or whose a[i] or b[i] is not
    finite, and x[i] is then meaningless.  A member's solution and its
    flag are the same, bit for bit, whatever else shares its stack.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    vector = b.ndim == a.ndim - 1
    rhs = b[..., None] if vector else b
    ok = _symmetric_finite(a) & np.isfinite(rhs).all(axis=(-2, -1))
    eye = np.eye(a.shape[-1])
    if not ok.all():
        a = np.where(ok[:, None, None], a, eye)
    try:
        np.linalg.cholesky(a)
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        a = a.copy()
        for i in np.flatnonzero(ok):
            if _solvable(a[i], rhs[i]):
                continue
            jittered = a[i] + _JITTER_SCALE * np.trace(a[i]) / len(eye) * eye
            ok[i] = _solvable(jittered, rhs[i])
            a[i] = jittered if ok[i] else eye
        x = np.linalg.solve(a, rhs)
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
