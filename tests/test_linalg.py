"""Dense SPD kernel checks against numpy reference solves."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellshrink.linalg import (
    SingularMatrixError,
    spd_inverse,
    spd_solve,
    spd_solve_stack,
)
from oracles import quad_form


def random_spd(k, rng, conditioning=1.0):
    B = rng.standard_normal((k, k))
    return B @ B.T + conditioning * np.eye(k)


def test_identity_solve_returns_rhs():
    rhs = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_almost_equal(spd_solve(np.eye(3), rhs), rhs, decimal=14)


def test_diagonal_solve_divides_elementwise():
    d = np.array([2.0, 5.0, 0.25])
    b = np.array([4.0, 10.0, 1.0])
    np.testing.assert_allclose(spd_solve(np.diag(d), b), b / d, rtol=1e-14)


def test_random_spd_solve_residual():
    rng = np.random.default_rng(3021)
    for k in [2, 4, 6, 11]:
        A = random_spd(k, rng)
        B = rng.standard_normal((k, 3))
        X = spd_solve(A, B)
        residual = np.abs(A @ X - B).max()
        assert residual <= 1e-8 * max(np.abs(B).max(), 1.0)


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(3022)
    A = random_spd(6, rng)
    inv = spd_inverse(A)
    np.testing.assert_allclose(A @ inv, np.eye(6), atol=1e-8)
    np.testing.assert_allclose(inv, inv.T, atol=0)  # symmetrized output


def test_quad_form_properties():
    rng = np.random.default_rng(3023)
    A = random_spd(5, rng)
    assert quad_form(np.zeros(5), A) == 0.0
    v = rng.standard_normal(5)
    assert quad_form(v, np.eye(5)) == pytest.approx(v @ v, rel=1e-12)
    expected = v @ np.linalg.inv(A) @ v
    assert quad_form(v, A) == pytest.approx(expected, rel=1e-10)
    assert quad_form(v, A) > 0.0


def test_indefinite_matrix_raises_singularity_error():
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SingularMatrixError):
        spd_solve(A, np.eye(2))


def test_asymmetric_matrix_rejected():
    A = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(SingularMatrixError):
        spd_solve(A, np.eye(2))


def test_error_message_names_failure():
    A = -np.eye(3)
    with pytest.raises(SingularMatrixError, match="(?i)minor|positive"):
        spd_solve(A, np.eye(3))


def test_jitter_rescues_marginally_singular_matrix():
    # trace-scaled jitter makes the second factorization attempt succeed
    A = np.diag([1.0, 1e-18])
    X = spd_solve(A, np.eye(2))
    assert np.all(np.isfinite(X))


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_solve_residual_property(k, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(k, rng, conditioning=0.5)
    b = rng.standard_normal(k)
    x = spd_solve(A, b)
    assert np.abs(A @ x - b).max() <= 1e-8 * max(np.abs(b).max(), 1.0)


def test_stack_follows_spd_solve_member_by_member():
    # Each member is solved, rescued by jitter, or flagged exactly where
    # spd_solve returns the same bits, rescues, or raises.
    rng = np.random.default_rng(3024)
    psd_singular = np.zeros((3, 3))
    psd_singular[:2, :2] = 1.0
    psd_singular[2, 2] = 1.0
    a = np.stack([
        random_spd(3, rng),
        np.diag([1.0, -1.0, 1.0]),
        psd_singular,
        np.array([[1.0, 0.5, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.full((3, 3), np.nan),
        random_spd(3, rng, conditioning=1e-6),
    ])
    b = rng.standard_normal((6, 3))
    x, ok = spd_solve_stack(a, b)
    assert ok.tolist() == [True, False, True, False, False, True]
    for i in np.flatnonzero(ok):
        np.testing.assert_array_equal(x[i], spd_solve(a[i], b[i]))
    for i in np.flatnonzero(~ok):
        with pytest.raises(SingularMatrixError):
            spd_solve(a[i], b[i])
