"""Checks for the Lambert W, log Bell number, and noncentral chi-square kernels.

Reference values come from scipy.special / scipy.stats, adaptive quadrature,
mpmath high-precision arithmetic, and exact integer recurrences.
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import lambertw as scipy_lambertw
from scipy.stats import chi2 as scipy_chi2
from scipy.stats import ncx2 as scipy_ncx2
from scipy.stats import poisson as scipy_poisson

from bellshrink import special_fn
from bellshrink.asymptotics import LocalAlternative, asymptotic_amse
from bellshrink.shrinkage import LinearRestriction

from bellshrink.special_fn import (
    NoncentralChiSq,
    inv_moment,
    lambert_w0,
    log_bell,
    log_bell_many,
    noncentral_chisq_cdf,
    truncated_inv_moment,
)
from oracles import quad_inv_moment

# B_0 .. B_10
BELL_INTEGERS = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


# ---------------------------------------------------------------- lambert_w0


def test_lambert_w0_defining_identity_on_log_grid():
    x = np.logspace(-8, 12, 10_000)
    w = lambert_w0(x)
    residual = np.abs(w * np.exp(w) - x)
    assert np.all(residual <= 1e-12 * np.maximum(1.0, x))


def test_lambert_w0_matches_scipy():
    x = np.logspace(-6, 9, 500)
    expected = scipy_lambertw(x).real
    np.testing.assert_allclose(lambert_w0(x), expected, rtol=1e-13, atol=1e-15)


def test_lambert_w0_at_zero_and_scalars():
    assert lambert_w0(0.0) == 0.0
    w = lambert_w0(math.e)
    assert isinstance(w, float)
    assert abs(w - 1.0) < 1e-14


def test_lambert_w0_preserves_array_shape():
    x = np.array([[0.5, 1.0], [2.0, 10.0]])
    w = lambert_w0(x)
    assert w.shape == x.shape


def test_lambert_w0_rejects_negative():
    with pytest.raises(ValueError):
        lambert_w0(-0.5)
    with pytest.raises(ValueError):
        lambert_w0(np.array([1.0, -1e-3]))


def test_lambert_w0_monotone():
    x = np.logspace(-5, 6, 400)
    w = lambert_w0(x)
    assert np.all(np.diff(w) > 0)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_lambert_w0_inverts_w_exp_w(x):
    w = lambert_w0(x)
    assert math.isclose(w * math.exp(w), x, rel_tol=1e-10)


@given(st.lists(st.floats(min_value=0.0, max_value=1e15), min_size=1, max_size=40))
@example(list(np.exp(np.random.default_rng(0).normal(0.0, 3.0, 5000))))
@settings(max_examples=200, deadline=None)
def test_lambert_w0_entry_does_not_depend_on_its_neighbours(xs):
    w = lambert_w0(np.array(xs))
    for i, x in enumerate(xs):
        assert w[i] == lambert_w0(x)


# 0, the smallest subnormal, a subnormal, a tiny normal, e, and the top of
# the range, where the unscaled Halley residual w e**w - x overflowed
W_DOMAIN_EDGES = [0.0, 5e-324, 1e-310, 1e-300, math.e, 1e100, 1e200, 1e308, np.finfo(float).max]


@pytest.mark.filterwarnings("error")
def test_lambert_w0_matches_scipy_over_the_whole_domain():
    x = np.array(W_DOMAIN_EDGES)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        w = lambert_w0(x)
        scalars = [lambert_w0(v) for v in W_DOMAIN_EDGES]
    np.testing.assert_allclose(w, scipy_lambertw(x).real, rtol=1e-15, atol=0)
    assert scalars == w.tolist()


def test_lambert_w0_within_one_ulp_of_mpmath():
    # Three Halley passes from the Winitzki seed: within 1 ulp of W at 40
    # digits from the smallest subnormal to the largest float.
    rng = np.random.default_rng(0)
    x = np.concatenate(
        [
            np.logspace(-320, 308, 10_000),
            W_DOMAIN_EDGES,
            np.linspace(0.0, 50.0, 2001),
            rng.lognormal(0.0, 3.0, 5000),
        ]
    )
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.lambertw(mpmath.mpf(v)).real) for v in x.tolist()])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        w = lambert_w0(x)
    ulps = np.abs(w - ref) / np.spacing(ref)
    assert ulps.max() <= 1.0, (x[ulps.argmax()], ulps.max())


# ------------------------------------------------------------------ log_bell


def test_log_bell_exact_small_integers():
    for n, b in enumerate(BELL_INTEGERS):
        assert math.isclose(log_bell(n), math.log(b), rel_tol=0, abs_tol=1e-13)


def test_log_bell_matches_triangle_recurrence_to_n_600():
    # independent Bell-triangle recomputation with Python integers; the
    # series is within double-precision roundoff of every exact value
    row = [1]
    bell = [1]
    for _ in range(600):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        bell.append(row[0])
    for n, b in enumerate(bell):
        assert math.isclose(log_bell(n), math.log(b), rel_tol=1e-15)


def test_log_bell_matches_mpmath_for_large_n():
    mpmath.mp.dps = 40
    for n in [600, 1500, 4000]:
        expected = float(mpmath.log(mpmath.bell(n)))
        assert math.isclose(log_bell(n), expected, rel_tol=1e-11)


def test_log_bell_monotone_and_integral_floats_accepted():
    values = np.array([log_bell(int(v)) for v in range(120)])
    assert np.all(np.diff(values[1:]) > 0)
    assert log_bell(12.0) == log_bell(12)


def test_log_bell_rejects_bad_input():
    with pytest.raises(ValueError):
        log_bell(-1)
    with pytest.raises(ValueError):
        log_bell(2.5)


def test_log_bell_many_bits_do_not_depend_on_the_table_size(monkeypatch):
    # One table, one column per value, or a few columns per table: every
    # window is summed in index order, so each entry keeps its bits.
    n = np.array([0, 1, 2, 3, 50, 700, 1664, 100_000, 3, 0])
    whole = log_bell_many(n)
    for cap in (1, 60, 300):
        monkeypatch.setattr(special_fn, "_BELL_TABLE_ELEMENTS", cap)
        np.testing.assert_array_equal(log_bell_many(n), whole)


# ------------------------------------------------------- noncentral chi-square


NCX2_GRID = [
    (1, 0.0),
    (2, 0.4),
    (3, 0.0),
    (3, 2.0),
    (5, 0.5),
    (5, 8.0),
    (8, 25.0),
    (12, 3.0),
]


def test_noncentral_cdf_matches_scipy_on_grid():
    xs = np.linspace(0.05, 60.0, 25)
    for dof, nc in NCX2_GRID:
        dist = NoncentralChiSq(dof, nc)
        for x in xs:
            ours = noncentral_chisq_cdf(x, dist)
            ref = (
                scipy_chi2.cdf(x, dof) if nc == 0.0 else scipy_ncx2.cdf(x, dof, nc)
            )
            assert abs(ours - ref) < 1e-10


def test_noncentral_cdf_edge_behavior():
    dist = NoncentralChiSq(4, 1.5)
    assert noncentral_chisq_cdf(0.0, dist) == 0.0
    assert noncentral_chisq_cdf(-3.0, dist) == 0.0
    assert noncentral_chisq_cdf(1e4, dist) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0.1, 40, 80)
    values = [noncentral_chisq_cdf(x, dist) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert np.all(np.diff(values) >= 0)


def test_noncentral_cdf_decreasing_in_noncentrality():
    x = 6.0
    values = [
        noncentral_chisq_cdf(x, NoncentralChiSq(5, nc)) for nc in [0.0, 1.0, 4.0, 16.0]
    ]
    assert np.all(np.diff(values) < 0)


def test_noncentral_chisq_validation():
    with pytest.raises(ValueError):
        NoncentralChiSq(0, 1.0)
    with pytest.raises(ValueError):
        NoncentralChiSq(3, -0.1)


# -------------------------------------------------------------- inverse moments


def test_central_inverse_moments_closed_form():
    for dof in [3, 5, 9, 14]:
        dist = NoncentralChiSq(dof, 0.0)
        assert inv_moment(dist) == pytest.approx(1.0 / (dof - 2), rel=1e-12)
    for dof in [5, 9, 14]:
        dist = NoncentralChiSq(dof, 0.0)
        expected = 1.0 / ((dof - 2) * (dof - 4))
        assert inv_moment(dist, order=2) == pytest.approx(expected, rel=1e-12)


def test_inverse_moments_match_quadrature():
    for dof, nc in [(3, 0.7), (5, 2.0), (5, 8.0), (7, 0.1), (9, 30.0)]:
        dist = NoncentralChiSq(dof, nc)
        assert inv_moment(dist) == pytest.approx(
            quad_inv_moment(dof, nc, order=1), rel=1e-9
        )
    for dof, nc in [(5, 2.0), (7, 0.1), (9, 30.0)]:
        dist = NoncentralChiSq(dof, nc)
        assert inv_moment(dist, order=2) == pytest.approx(
            quad_inv_moment(dof, nc, order=2), rel=1e-9
        )


def test_inverse_moment_dof_domain():
    with pytest.raises(ValueError):
        inv_moment(NoncentralChiSq(2, 1.0))
    with pytest.raises(ValueError):
        inv_moment(NoncentralChiSq(4, 1.0), order=2)


def test_truncated_inverse_moments_match_quadrature():
    cases = [
        (3, 0.0, 1.0),
        (3, 2.0, 3.8),
        (5, 0.5, 1.0),
        (5, 8.0, 11.1),
        (7, 4.0, 2.0),
        (9, 1.0, 16.9),
    ]
    for dof, nc, cutoff in cases:
        dist = NoncentralChiSq(dof, nc)
        ours = truncated_inv_moment(dist, cutoff)
        assert ours == pytest.approx(quad_inv_moment(dof, nc, 1, cutoff), abs=1e-8)
    for dof, nc, cutoff in [(5, 2.0, 3.0), (7, 0.5, 9.0), (9, 12.0, 7.7)]:
        dist = NoncentralChiSq(dof, nc)
        ours = truncated_inv_moment(dist, cutoff, order=2)
        assert ours == pytest.approx(quad_inv_moment(dof, nc, 2, cutoff), abs=1e-8)


def test_truncated_inverse_moment_limits():
    dist = NoncentralChiSq(6, 3.0)
    assert truncated_inv_moment(dist, 0.0) == 0.0
    assert truncated_inv_moment(dist, -2.0) == 0.0
    assert truncated_inv_moment(dist, 1e6) == pytest.approx(inv_moment(dist), rel=1e-10)
    cutoffs = [0.5, 1.0, 2.0, 8.0, 50.0]
    vals = [truncated_inv_moment(dist, c) for c in cutoffs]
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] <= inv_moment(dist) + 1e-15
    for order in (1, 2):
        assert truncated_inv_moment(dist, math.inf, order) == inv_moment(dist, order)


@given(
    st.integers(min_value=3, max_value=10),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.1, max_value=40.0),
)
@settings(max_examples=60, deadline=None)
def test_truncated_never_exceeds_full_moment(dof, nc, cutoff):
    dist = NoncentralChiSq(dof, nc)
    assert truncated_inv_moment(dist, cutoff) <= inv_moment(dist) + 1e-12


# ------------------------------------------------------- Poisson mixture weights


@pytest.mark.parametrize("lam", [1e-3, 0.5, 7.0, 300.0, 2489.898212957748, 2500.0, 1e5])
def test_poisson_weights_cover_the_mass(lam):
    js, ws = special_fn._poisson_weights(lam)
    assert np.all(np.diff(js) == 1)
    assert ws.sum() == pytest.approx(1.0, abs=1e-14)
    outside = scipy_poisson.cdf(js[0] - 1, lam) + scipy_poisson.sf(js[-1], lam)
    assert outside < 1e-12
    np.testing.assert_allclose(ws, scipy_poisson.pmf(js, lam), rtol=0, atol=1e-12)


def test_noncentral_cdf_at_noncentrality_where_accumulation_stalled():
    # Accumulating terms until their sum reached 1 - 1e-12 never stopped here.
    dist = NoncentralChiSq(3, 4979.796425915495)
    value = noncentral_chisq_cdf(5000.0, dist)
    assert value == pytest.approx(scipy_ncx2.cdf(5000.0, 3, dist.noncentrality), abs=1e-10)
    nc = dist.noncentrality
    sd = math.sqrt(2.0 * (5 + 2.0 * nc))
    lo, hi = 5 + nc - 40.0 * sd, 5 + nc + 40.0 * sd  # all but a negligible mass
    for order in (1, 2):
        oracle, _ = integrate.quad(
            lambda x: scipy_ncx2.pdf(x, 5, nc) / x**order, lo, hi,
            points=[5 + nc], epsabs=0.0, epsrel=1e-12, limit=200,
        )
        assert inv_moment(NoncentralChiSq(5, nc), order) == pytest.approx(oracle, rel=1e-8)


def test_one_pjse_amse_computes_the_mixture_weights_once():
    k, r = 6, 4
    H = np.zeros((r, k))
    H[:, 1 : r + 1] = np.eye(r)
    la = LocalAlternative(np.full(r, 1.7), np.eye(k), LinearRestriction(H, np.zeros(r)))
    special_fn._poisson_weights.cache_clear()
    special_fn._weight_table.cache_clear()
    asymptotic_amse("PJSE", la, alpha=0.05)
    assert special_fn._poisson_weights.cache_info().misses == 1
    # the ten mixture sums share one weight table, built on the first
    table = special_fn._weight_table.cache_info()
    assert table.misses == 1 and table.hits >= 9


STACK_NCS = (0.0, 0.5, 40.0, 700.0, 5000.0)  # windows of 1 to about 750 terms


@pytest.mark.parametrize("dof", [1, 3, 4, 6, 9])
def test_stacked_law_equals_each_member_alone_bitwise(dof):
    law = NoncentralChiSq(dof, np.array(STACK_NCS))
    for x in (0.0, 2.5, 41.0, 5000.0):
        values = noncentral_chisq_cdf(x, law)
        assert values.shape == (len(STACK_NCS),)
        for nc, value in zip(STACK_NCS, values):
            alone = noncentral_chisq_cdf(x, NoncentralChiSq(dof, nc))
            assert isinstance(alone, float) and value == alone
    for order in [o for o in (1, 2) if dof >= 2 * o + 1]:  # the moment exists
        stacked = [inv_moment(law, order)]
        stacked += [truncated_inv_moment(law, c, order) for c in (-1.0, 1.0, 30.0, 5200.0)]
        for nc_i, nc in enumerate(STACK_NCS):
            dist = NoncentralChiSq(dof, nc)
            alone = [inv_moment(dist, order)]
            alone += [truncated_inv_moment(dist, c, order) for c in (-1.0, 1.0, 30.0, 5200.0)]
            assert [v[nc_i] for v in stacked] == alone


def test_stacked_law_validation():
    with pytest.raises(ValueError):
        NoncentralChiSq(3, np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        NoncentralChiSq(3, np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        NoncentralChiSq(3, np.ones((2, 2)))
    empty = NoncentralChiSq(3, np.array([]))
    assert inv_moment(empty).shape == (0,)
    assert noncentral_chisq_cdf(1.0, empty).shape == (0,)
