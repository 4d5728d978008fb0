"""Distribution-level checks: normalization, moments, and sampler agreement."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellshrink.bell_dist import (
    BellParam,
    log_pmf,
    moments,
    pmf,
    sample,
    sample_counts,
)
from bellshrink.special_fn import lambert_w0
from oracles import inversion_sample, pooled_gof

SEED = 61409


def pmf_table(theta, tail=1e-12, cap=400):
    """pmf values until the remaining mass drops below tail."""
    param = BellParam.from_theta(theta)
    values = []
    total = 0.0
    for y in range(cap):
        p = pmf(y, param)
        values.append(p)
        total += p
        if 1.0 - total < tail and y > 5:
            break
    return np.array(values)


# ----------------------------------------------------------------- parameters


def test_param_roundtrip_and_validation():
    p = BellParam.from_theta(0.8)
    assert p.mu == pytest.approx(0.8 * math.exp(0.8), rel=1e-14)
    q = BellParam.from_mean(p.mu)
    assert q.theta == pytest.approx(0.8, rel=1e-12)
    assert lambert_w0(p.mu) == pytest.approx(p.theta, rel=1e-12)
    with pytest.raises(ValueError):
        BellParam(theta=-0.1, mu=1.0)
    with pytest.raises(ValueError):
        BellParam(theta=1.0, mu=5.0)  # inconsistent pair


# ------------------------------------------------------------------- log_pmf


def test_log_pmf_at_zero_is_one_minus_exp_theta():
    for theta in [0.1, 0.5, 1.0, 2.0]:
        param = BellParam.from_theta(theta)
        assert log_pmf(0, param) == pytest.approx(1.0 - math.exp(theta), rel=1e-14)


def test_pmf_normalizes_to_one():
    for theta in [0.1, 0.5, 1.0, 2.0]:
        table = pmf_table(theta)
        assert abs(table.sum() - 1.0) < 1e-10


def test_pmf_mean_matches_theta_exp_theta():
    for theta in [0.3, 0.8, 1.6]:
        table = pmf_table(theta)
        y = np.arange(len(table))
        assert (y * table).sum() == pytest.approx(theta * math.exp(theta), abs=1e-8)


def test_pmf_second_moment_matches_variance_formula():
    theta = 0.9
    table = pmf_table(theta)
    y = np.arange(len(table))
    mean = (y * table).sum()
    var = ((y - mean) ** 2 * table).sum()
    assert var == pytest.approx(theta * math.exp(theta) * (1.0 + theta), rel=1e-8)


def test_log_pmf_finite_and_pmf_in_unit_interval():
    param = BellParam.from_theta(1.4)
    for y in range(0, 200, 7):
        lp = log_pmf(y, param)
        assert math.isfinite(lp)
        assert 0.0 < math.exp(lp) <= 1.0


def test_log_pmf_vector_input_matches_scalars():
    param = BellParam.from_theta(0.6)
    ys = np.array([0, 1, 2, 5, 11])
    vec = log_pmf(ys, param)
    np.testing.assert_allclose(vec, [log_pmf(int(y), param) for y in ys], rtol=0)


def test_log_pmf_rejects_invalid_counts():
    param = BellParam.from_theta(0.6)
    with pytest.raises(ValueError):
        log_pmf(-1, param)
    with pytest.raises(ValueError):
        log_pmf(1.5, param)


# ------------------------------------------------------------------- moments


def test_moments_at_theta_one():
    mean, var = moments(BellParam.from_theta(1.0))
    assert mean == pytest.approx(math.e, rel=1e-14)
    assert var == pytest.approx(2.0 * math.e, rel=1e-14)


@given(st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_overdispersion_ratio(theta):
    mean, var = moments(BellParam.from_theta(theta))
    assert var > mean
    assert var / mean == pytest.approx(1.0 + theta, rel=1e-12)


# ------------------------------------------------------------------ samplers


def test_sampler_mean_within_four_standard_errors():
    theta = 0.8
    param = BellParam.from_theta(theta)
    rng = np.random.default_rng(SEED)
    draws = sample(param, rng, size=1_000_000)
    mean, var = moments(param)
    se = math.sqrt(var / draws.size)
    assert abs(draws.mean() - mean) < 4.0 * se


def test_sampler_dispersion_ratio():
    param = BellParam.from_theta(1.0)
    rng = np.random.default_rng(SEED + 1)
    draws = sample(param, rng, size=1_000_000)
    ratio = draws.var(ddof=1) / draws.mean()
    assert abs(ratio - 2.0) / 2.0 < 0.05


def test_sampler_goodness_of_fit_against_pmf():
    theta = 0.7
    param = BellParam.from_theta(theta)
    rng = np.random.default_rng(SEED + 2)
    n = 100_000
    draws = sample(param, rng, size=n)
    table = pmf_table(theta)
    counts = np.bincount(draws, minlength=len(table))[: len(table)]
    counts[-1] += (draws >= len(table)).sum()
    _, pvalue, _ = pooled_gof(counts, table, n)
    assert pvalue > 0.01


def test_compound_and_inversion_samplers_agree():
    param = BellParam.from_theta(1.2)
    rng = np.random.default_rng(SEED + 3)
    n = 100_000
    a = sample(param, rng, size=n)
    b = inversion_sample(param, rng, size=n)
    top = max(a.max(), b.max()) + 1
    ca = np.bincount(a, minlength=top).astype(float)
    cb = np.bincount(b, minlength=top).astype(float)
    # two-sample chi-square on pooled bins
    keep = (ca + cb) >= 10
    ca_k = np.concatenate([ca[keep][:-1], [ca[~keep].sum() + ca[keep][-1]]])
    cb_k = np.concatenate([cb[keep][:-1], [cb[~keep].sum() + cb[keep][-1]]])
    na, nb = ca_k.sum(), cb_k.sum()
    pooled = (ca_k + cb_k) / (na + nb)
    stat = ((ca_k - na * pooled) ** 2 / (na * pooled)).sum()
    stat += ((cb_k - nb * pooled) ** 2 / (nb * pooled)).sum()
    from scipy.stats import chi2

    assert chi2.sf(stat, len(ca_k) - 1) > 0.01


def test_small_theta_truncated_branch_matches_pmf():
    # theta below the inversion switch exercises the small-parameter path
    theta = 0.05
    param = BellParam.from_theta(theta)
    rng = np.random.default_rng(SEED + 4)
    n = 200_000
    draws = sample(param, rng, size=n)
    table = pmf_table(theta)
    counts = np.bincount(draws, minlength=len(table))[: len(table)]
    counts[-1] += (draws >= len(table)).sum()
    _, pvalue, _ = pooled_gof(counts, table, n)
    assert pvalue > 0.01


def test_sample_counts_heterogeneous_rates():
    rng = np.random.default_rng(SEED + 5)
    theta = np.array([0.2, 0.7, 1.5])
    reps = 200_000
    thetas = np.tile(theta, reps)
    draws = sample_counts(thetas, rng)
    by_rate = draws.reshape(reps, 3)
    for j, t in enumerate(theta):
        mean, var = moments(BellParam.from_theta(t))
        se = math.sqrt(var / reps)
        assert abs(by_rate[:, j].mean() - mean) < 4.0 * se


def test_sample_counts_deterministic_under_fixed_seed():
    theta = np.full(1000, 0.9)
    a = sample_counts(theta, np.random.default_rng(77))
    b = sample_counts(theta, np.random.default_rng(77))
    np.testing.assert_array_equal(a, b)
