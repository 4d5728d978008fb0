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


def test_tiny_positive_pivot_solves():
    # 1e-18 is a positive pivot: Cholesky passes and the solve is finite
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
    # Each member is solved, or flagged with a NaN solution, exactly where
    # spd_solve returns the same bits or raises.
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
    assert ok.tolist() == [True, False, False, False, False, True]
    assert np.isnan(x[~ok]).all()
    for i in np.flatnonzero(ok):
        np.testing.assert_array_equal(x[i], spd_solve(a[i], b[i]))
    for i in np.flatnonzero(~ok):
        with pytest.raises(SingularMatrixError):
            spd_solve(a[i], b[i])


# Passes Cholesky, but LU with partial pivoting swaps its rows and meets an
# exact zero pivot, d * c == 1 in floating point: np.linalg.solve raises.
_LU_ZERO_PIVOT = np.array([[0.31559482297027575, 1.0], [1.0, 3.168619784660361]])


@pytest.mark.parametrize("rhs_cols", [None, 2])
def test_stack_members_keep_their_bits_beside_failing_members(rhs_cols):
    # Good members give the same bits in an all-good stack (one batched
    # Cholesky and solve) as beside members that need the per-member walk:
    # a singular PSD one that fails Cholesky, one that fails the LU solve,
    # an indefinite one, a NaN one, a singular one that is not symmetric
    # and one with an infinite entry.  Each is flagged with a NaN solution,
    # and no LinAlgError escapes.
    rng = np.random.default_rng(3025)
    k = 4
    good = np.stack([random_spd(k, rng) for _ in range(5)])
    shape = (k,) if rhs_cols is None else (k, rhs_cols)
    b_good = rng.standard_normal((5, *shape))
    x_good, ok_good = spd_solve_stack(good, b_good)
    assert ok_good.all()
    psd_singular = np.eye(k)
    psd_singular[:2, :2] = 1.0
    lu_zero_pivot = np.eye(k)
    lu_zero_pivot[:2, :2] = _LU_ZERO_PIVOT
    asym_singular = np.eye(k)
    asym_singular[:2, :2] = [[1.0, 4.0], [0.5, 2.0]]  # its lower triangle is SPD
    inf_entry = np.eye(k)
    inf_entry[0, 1] = np.inf
    bad = [
        psd_singular,
        lu_zero_pivot,
        np.diag([1.0, -1.0, 1.0, 1.0]),
        np.full((k, k), np.nan),
        asym_singular,
        inf_entry,
    ]
    interleaved = [good[0], bad[0], good[1], bad[1], good[2], bad[2], good[3], bad[3], good[4]]
    a = np.stack(interleaved + bad[4:])
    b_bad = rng.standard_normal((6, *shape))
    b = np.concatenate([b_good, b_bad])[[0, 5, 1, 6, 2, 7, 3, 8, 4, 9, 10]]
    x, ok = spd_solve_stack(a, b)
    assert ok.tolist() == [True, False, True, False, True, False, True, False, True, False, False]
    assert np.isnan(x[~ok]).all()
    np.testing.assert_array_equal(x[[0, 2, 4, 6, 8]], x_good)
    # the LU failure alone, after a Cholesky of the whole stack that passed
    x, ok = spd_solve_stack(np.stack([good[0], lu_zero_pivot]), b[[0, 3]])
    assert ok.tolist() == [True, False]
    assert np.isnan(x[1]).all()
    np.testing.assert_array_equal(x[0], x_good[0])
    # a stack of failures only, and the unsymmetric singular member beside a
    # good one: its lower triangle passes Cholesky, so only the symmetry
    # check flags it
    x, ok = spd_solve_stack(np.stack(bad), b[[1, 3, 5, 7, 9, 10]])
    assert not ok.any()
    assert np.isnan(x).all()
    x, ok = spd_solve_stack(np.stack([good[0], asym_singular]), b[[0, 9]])
    assert ok.tolist() == [True, False]
    np.testing.assert_array_equal(x[0], x_good[0])


def test_stack_flags_non_finite_right_hand_side():
    rng = np.random.default_rng(3026)
    a = np.stack([random_spd(3, rng), random_spd(3, rng)])
    b = rng.standard_normal((2, 3))
    b[1, 2] = np.inf
    x, ok = spd_solve_stack(a, b)
    assert ok.tolist() == [True, False]
    np.testing.assert_array_equal(x[0], spd_solve(a[0], b[0]))
    with pytest.raises(ValueError, match="right-hand side"):
        spd_solve(a[1], b[1])


def _bad_member(kind, k, rng):
    """A k x k matrix that spd_solve_stack must flag ("asymmetric" needs
    k >= 2).  The singular PSD ones meet an exact zero Cholesky pivot."""
    a = random_spd(k, rng)
    i, j = rng.choice(k, size=2, replace=k < 2)
    if kind == "singular PSD" and k > 1 and rng.integers(2):
        # the identity with an all-c block, c a power of 4
        a = np.eye(k)
        block = rng.choice(k, size=rng.integers(2, k + 1), replace=False)
        a[np.ix_(block, block)] = 4.0 ** rng.integers(-3, 4)
    elif kind == "singular PSD":
        a[i, :] = a[:, i] = 0.0
    elif kind == "indefinite":
        a[i, i] = -a[i, i]
    elif kind == "asymmetric":
        a[i, j] += 1.0
    else:
        a[i, j] = np.nan if kind == "NaN" else np.inf
    return a


_BAD_KINDS = ["indefinite", "singular PSD", "asymmetric", "NaN", "inf"]


@given(
    k=st.integers(1, 13),
    cols=st.sampled_from([None, 1, 3]),
    kinds=st.lists(st.sampled_from([None, *_BAD_KINDS]), min_size=1, max_size=8),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=80, deadline=None)
def test_flagged_members_are_nan_and_good_members_keep_their_bits(k, cols, kinds, seed):
    # None marks a good member.  The bad ones are flagged with a NaN
    # solution, and the good ones equal an all-good stack of them alone,
    # bit for bit.
    if k == 1:
        kinds = [kind for kind in kinds if kind != "asymmetric"] or [None]
    rng = np.random.default_rng(seed)
    a = np.stack([random_spd(k, rng) if kind is None else _bad_member(kind, k, rng)
                  for kind in kinds])
    b = rng.standard_normal((len(kinds), k) if cols is None else (len(kinds), k, cols))
    good = np.array([kind is None for kind in kinds])
    x, ok = spd_solve_stack(a, b)
    assert ok.tolist() == good.tolist()
    assert np.isnan(x[~good]).all()
    x_good, ok_good = spd_solve_stack(a[good], b[good])
    assert ok_good.all()
    np.testing.assert_array_equal(x[good], x_good)
