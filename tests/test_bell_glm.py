"""Regression-fitting checks: likelihood algebra, Newton convergence, recovery."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellshrink import bell_dist, bell_glm, special_fn
from bellshrink.bell_dist import BellParam, log_pmf
from bellshrink.bell_glm import (
    Dataset,
    FittedModel,
    aic,
    fit,
    fit_many,
    loglik,
)
from bellshrink.linalg import SingularMatrixError, spd_solve
from bellshrink.application import _ResampleDraw
from bellshrink.montecarlo import _SimDraw, generate_dataset
from bellshrink.special_fn import log_bell_many
from oracles import (
    build_design,
    evaluate_expressions,
    fisher_information,
    newton_mle,
    newton_terms_expressions,
    score,
    simulate_dataset,
)

SEED = 90210


def test_dataset_validation():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    y = np.array([1, 0, 2, 3, 1])
    Dataset(X=X, y=y)
    with pytest.raises(ValueError):
        Dataset(X=X * 2.0, y=y)  # intercept column not all ones
    with pytest.raises(ValueError):
        Dataset(X=X, y=np.array([1, 0, 2, -1, 1]))
    with pytest.raises(ValueError):
        Dataset(X=X[:2], y=y[:2])  # n must exceed p+1


def test_log_bell_many_rejects_negative_or_fractional_input():
    with pytest.raises(ValueError):
        log_bell_many(np.array([3, -1]))
    with pytest.raises(ValueError):
        log_bell_many(np.array([3.0, 1.5]))


def test_loglik_matches_hand_value_for_zero_counts():
    # two identical observations, each contributing 1 - e at theta = 1
    X = np.ones((2, 1))
    data = Dataset(X=X, y=np.zeros(2, dtype=int))
    value = loglik(np.array([1.0]), data)
    assert value == pytest.approx(2.0 * (1.0 - math.e), rel=1e-14)


def test_loglik_equals_sum_of_log_pmfs():
    data = simulate_dataset(40, [0.4, 0.3, -0.2], SEED)
    beta = np.array([0.35, 0.25, -0.15])
    mu = np.exp(data.X @ beta)
    direct = sum(
        log_pmf(int(yi), BellParam.from_mean(mi)) for yi, mi in zip(data.y, mu)
    )
    assert loglik(beta, data) == pytest.approx(direct, rel=1e-12)


def test_score_matches_central_differences():
    data = simulate_dataset(60, [0.5, 0.2, -0.3], SEED + 1)
    beta = np.array([0.45, 0.15, -0.25])
    analytic = score(beta, data)
    h = 1e-6
    numeric = np.empty_like(analytic)
    for j in range(beta.size):
        up, down = beta.copy(), beta.copy()
        up[j] += h
        down[j] -= h
        numeric[j] = (loglik(up, data) - loglik(down, data)) / (2 * h)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5)


def test_fit_is_local_optimum():
    data = simulate_dataset(120, [0.6, 0.3, 0.0], SEED + 2)
    model = fit(data)
    assert model.converged
    rng = np.random.default_rng(SEED + 3)
    for _ in range(20):
        direction = rng.standard_normal(model.beta.size)
        direction *= 0.1 / np.linalg.norm(direction)
        assert loglik(model.beta + direction, data) <= loglik(model.beta, data)


def test_fit_score_norm_small_at_convergence():
    data = simulate_dataset(200, [0.5, 0.25, -0.2, 0.1], SEED + 4)
    model = fit(data)
    assert model.converged
    s = score(model.beta, data)
    assert np.linalg.norm(s) <= 1e-6 * (1.0 + abs(loglik(model.beta, data)))


def test_null_model_recovery():
    rng = np.random.default_rng(SEED + 5)
    n, p = 10_000, 2
    X = build_design(n, p, rng)
    beta = np.zeros(p + 1)
    data = simulate_dataset(n, beta, SEED + 6, scale=1.0)
    model = fit(data)
    cov = np.linalg.inv(model.fisher_info)
    for j in range(p + 1):
        assert abs(model.beta[j]) < 4.0 * math.sqrt(cov[j, j])


def test_consistency_on_unit_coefficients():
    rng = np.random.default_rng(SEED + 7)
    beta = np.array([0.0, 1.0, 1.0, 1.0])
    data = generate_dataset(5000, 3, beta, rng)
    model = fit(data)
    assert model.converged
    cov = np.linalg.inv(model.fisher_info)
    for j in range(4):
        assert abs(model.beta[j] - beta[j]) < 4.0 * math.sqrt(cov[j, j])


def test_sampling_covariance_tracks_inverse_information():
    # fixed design, repeated responses: cov(beta_hat) ~ F^{-1}
    from bellshrink.bell_dist import sample_counts
    from bellshrink.special_fn import lambert_w0

    rng = np.random.default_rng(SEED + 8)
    n, p = 200, 2
    X = build_design(n, p, rng)
    X[:, 1:] *= 0.5
    beta = np.array([0.6, 0.3, -0.2])
    mu = np.exp(X @ beta)
    theta = lambert_w0(mu)
    fits = []
    for _ in range(1000):
        y = sample_counts(theta, rng)
        fits.append(fit(Dataset(X=X, y=y)).beta)
    emp_cov = np.cov(np.array(fits), rowvar=False)
    f_inv = np.linalg.inv(fisher_information(beta, Dataset(X=X, y=sample_counts(theta, rng))))
    scale = np.sqrt(np.outer(np.diag(f_inv), np.diag(f_inv)))
    assert np.all(np.abs(emp_cov - f_inv) <= 0.15 * scale)


def test_fit_invariant_to_row_permutation():
    data = simulate_dataset(150, [0.4, 0.2, -0.1], SEED + 9)
    rng = np.random.default_rng(SEED + 10)
    perm = rng.permutation(150)
    permuted = Dataset(X=data.X[perm], y=data.y[perm])
    np.testing.assert_allclose(fit(data).beta, fit(permuted).beta, atol=1e-10)


def test_intercept_only_fit_matches_sample_mean():
    X = np.ones((6, 1))
    y = np.full(6, 3, dtype=int)
    model = fit(Dataset(X=X, y=y))
    assert math.exp(model.beta[0]) == pytest.approx(3.0, abs=1e-8)
    # heterogeneous counts: fitted mean equals the sample mean as well
    y2 = np.array([0, 1, 3, 7, 2, 2])
    model2 = fit(Dataset(X=X, y=y2))
    assert math.exp(model2.beta[0]) == pytest.approx(y2.mean(), abs=1e-8)


def test_fisher_info_symmetric_positive_definite():
    data = simulate_dataset(80, [0.5, 0.3, -0.4], SEED + 11)
    model = fit(data)
    F = model.fisher_info
    np.testing.assert_allclose(F, F.T, atol=1e-12)
    eigvals = np.linalg.eigvalsh(F)
    assert np.all(eigvals > 0)


def test_nonconvergence_is_flagged_not_raised(monkeypatch):
    data = simulate_dataset(100, [0.5, 0.3, -0.2], SEED + 12)
    monkeypatch.setattr(bell_glm, "_MAX_ITER", 1)
    model = fit(data)
    assert not model.converged
    assert np.all(np.isfinite(model.beta))


def test_duplicate_column_raises_singularity_error():
    data = simulate_dataset(50, [0.4, 0.2], SEED + 13)
    X = np.column_stack([data.X, data.X[:, 1]])
    with pytest.raises(SingularMatrixError):
        fit(Dataset(X=X, y=data.y))


def test_aic_definition():
    # three zero counts at theta = W(e) = 1, each contributing 1 - e, and
    # k = 2 parameters
    data = Dataset(X=np.column_stack([np.ones(3), np.zeros(3)]), y=np.zeros(3, dtype=int))
    model = FittedModel(
        beta=np.array([1.0, 0.0]),
        fisher_info=np.eye(2),
        converged=True,
        n_iter=1,
        n_clamped=0,
    )
    assert aic(model, data) == 4.0 - 2.0 * loglik(model.beta, data)
    assert aic(model, data) == pytest.approx(4.0 - 6.0 * (1.0 - math.e), rel=1e-14)


def test_aic_noise_covariate_delta():
    data = simulate_dataset(300, [0.5, 0.3], SEED + 14)
    rng = np.random.default_rng(SEED + 15)
    X_wide = np.column_stack([data.X, 0.3 * rng.standard_normal(300)])
    wide_data = Dataset(X=X_wide, y=data.y)
    narrow = fit(data)
    wide = fit(wide_data)
    ll_narrow, ll_wide = loglik(narrow.beta, data), loglik(wide.beta, wide_data)
    delta = aic(wide, wide_data) - aic(narrow, data)
    assert delta == pytest.approx(2.0 - 2.0 * (ll_wide - ll_narrow), abs=1e-10)
    # the noise covariate cannot help by more than its parameter penalty often;
    # at minimum the likelihood cannot decrease when a column is added
    assert ll_wide >= ll_narrow - 1e-9


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(15, 200),
    p=st.integers(0, 5),
    scale=st.floats(0.1, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_converged_fit_has_negligible_newton_decrement(seed, n, p, scale):
    # A fit converges once the decrement S' F^-1 S of an unclamped iterate
    # is below 1e-12, and returns the point that iterate's Newton step
    # reaches, whose decrement is smaller still.  Score and information are
    # recomputed here apart from the engine, so this catches a fit that
    # stops on a halved step short of the optimum or misreads its decrement.
    beta = np.random.default_rng(seed).normal(0.0, 1.0, p + 1)
    data = simulate_dataset(n, beta, seed, scale=scale)
    model = fit(data)
    if model.converged:
        s = score(model.beta, data)
        assert float(s @ spd_solve(fisher_information(model.beta, data), s)) <= 1e-12


def test_heavy_tailed_fits_stop_at_the_optimum():
    # At p = 12 with unit slopes the Bell weights span several decades;
    # deciding convergence on a halved step used to stop such fits with a
    # decrement of several 1e-12.
    rng = np.random.default_rng(SEED + 18)
    beta = np.concatenate([[0.0], np.ones(12)])
    datasets = [generate_dataset(200, 12, beta, rng) for _ in range(30)]
    fits = fit_many(np.stack([d.X for d in datasets]), np.stack([d.y for d in datasets]))
    assert fits.converged.all()
    for beta, data in zip(fits.beta, datasets):
        s = score(beta, data)
        assert float(s @ spd_solve(fisher_information(beta, data), s)) <= 1e-12


def newton_stacks():
    """Bootstrap-style stacks, 300 resamples of 50 rows from a 2000-row
    dataset, and simulation-style stacks of three paper designs."""
    data = simulate_dataset(2000, [0.3, 0.0, 0.4, 0.0, 0.25], SEED + 40, scale=0.8)
    yield _ResampleDraw(data.X, data.y, SEED + 41, 50).stack(range(300), 0)
    for n, p in ((50, 3), (100, 6), (200, 12)):
        truth = np.concatenate([[0.0], np.ones(p)])
        yield _SimDraw(SEED + 42, n, p, truth).stack(range(40), 0)


def test_fits_land_on_the_newton_optimum():
    # Fisher scoring converges only linearly under the log link, so a fit
    # that stopped on its decrement could sit 1e-8 from the optimum; Newton
    # on the observed information stops within roundoff of it.
    for X, y in newton_stacks():
        fits = fit_many(X, y)
        assert fits.converged.all()
        assert np.max(np.abs(fits.beta - newton_mle(X, y))) <= 1e-12


def test_fisher_info_is_the_expected_information_at_the_returned_beta():
    # The estimators and the Wald pretest read X'VX, not the observed X'WX
    # that the engine solves with.
    for X, y in newton_stacks():
        fits = fit_many(X, y)
        for i, (beta, F) in enumerate(zip(fits.beta, fits.fisher_info)):
            data = Dataset(X[i], y[i])
            expected = fisher_information(beta, data)
            np.testing.assert_allclose(F, expected, rtol=1e-12, atol=0)
            mu = np.exp(X[i] @ beta)
            theta = special_fn.lambert_w0(mu)
            w = (mu * (1.0 + theta + theta**2) + y[i] * theta) / (1.0 + theta) ** 3
            observed = X[i].T @ (X[i] * w[:, None])
            assert np.max(np.abs(F - observed)) > 1e-6 * np.max(np.abs(observed))


def test_all_zero_response_is_not_reported_as_converged():
    # No finite MLE exists: the intercept runs off to -inf into the clamp.
    X = build_design(50, 2, np.random.default_rng(SEED + 16))
    model = fit(Dataset(X=X, y=np.zeros(50, dtype=int)))
    assert not model.converged
    assert model.n_clamped > 0


def test_stack_members_match_their_own_fits_bitwise():
    # Heavy-tailed designs (p = 6 at unit slopes) give members that need
    # different numbers of iterations and step halvings.
    rng = np.random.default_rng(SEED + 17)
    beta = np.concatenate([[0.0], np.ones(6)])
    datasets = [generate_dataset(100, 6, beta, rng) for _ in range(12)]
    X = np.stack([d.X for d in datasets])
    y = np.stack([d.y for d in datasets])
    X[5, :, 4] = X[5, :, 2]  # one rank-deficient member
    fits = fit_many(X, y)
    assert fits.beta.shape == (12, 7) and fits.fisher_info.shape == (12, 7, 7)
    assert fits.converged.shape == fits.n_iter.shape == fits.n_clamped.shape == (12,)
    # the singular member keeps its initial row
    assert np.isnan(fits.beta[5]).all() and np.isnan(fits.fisher_info[5]).all()
    assert (fits.converged[5], fits.n_iter[5], fits.n_clamped[5]) == (False, 0, 0)
    with pytest.raises(SingularMatrixError):
        fit(Dataset(X=X[5], y=y[5]))
    others = [i for i in range(12) if i != 5]
    assert len(set(fits.n_iter[others])) > 1
    for i in others:
        model = fit(Dataset(X=X[i], y=y[i]))
        assert type(model.converged) is bool and type(model.n_iter) is int
        np.testing.assert_array_equal(fits.beta[i], model.beta)
        np.testing.assert_array_equal(fits.fisher_info[i], model.fisher_info)
        assert (fits.converged[i], fits.n_iter[i], fits.n_clamped[i]) == (
            model.converged, model.n_iter, model.n_clamped
        )
    order = [11, 0, 5, 7, 3]
    reordered = fit_many(X[order], y[order])
    for field in dataclasses.fields(FittedModel):
        np.testing.assert_array_equal(
            getattr(reordered, field.name), getattr(fits, field.name)[order]
        )


def test_a_member_flagged_mid_fit_keeps_its_steps_and_clamps(monkeypatch):
    # Steep slopes give members whose first iterates clamp; member 7 clamps
    # 14 linear predictors over its first three iterates.  The engine's
    # first solve is the start, so its fourth is the step solve of Newton
    # pass 2; flag member 7 there, after two steps.
    rng = np.random.default_rng(SEED + 23)
    datasets = [generate_dataset(50, 2, np.array([0.0, 10.0, -5.0]), rng) for _ in range(8)]
    X = np.stack([d.X for d in datasets])
    y = np.stack([d.y for d in datasets])
    solve = bell_glm.spd_solve_stack
    sizes = []

    def flag_member_7_on_pass_2(a, b):
        x, ok = solve(a, b)
        sizes.append(len(ok))
        if len(sizes) == 4:
            x[7], ok[7] = np.nan, False
        return x, ok

    with monkeypatch.context() as patched:
        patched.setattr(bell_glm, "spd_solve_stack", flag_member_7_on_pass_2)
        fits = fit_many(X, y)
    assert sizes[3] == 8  # no member left before pass 2
    # Stopped at pass 3, a lone fit has counted the clamps of the same three
    # iterates.
    with monkeypatch.context() as patched:
        patched.setattr(bell_glm, "_MAX_ITER", 3)
        clamps = fit(datasets[7]).n_clamped
    assert clamps == 14
    assert np.isnan(fits.beta[7]).all() and np.isnan(fits.fisher_info[7]).all()
    assert (fits.converged[7], fits.n_iter[7], fits.n_clamped[7]) == (False, 2, clamps)
    for i in range(7):
        model = fit(datasets[i])
        np.testing.assert_array_equal(fits.beta[i], model.beta)
        np.testing.assert_array_equal(fits.fisher_info[i], model.fisher_info)
        assert (fits.converged[i], fits.n_iter[i], fits.n_clamped[i]) == (
            model.converged, model.n_iter, model.n_clamped
        )


def test_fit_many_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        fit_many(np.ones((2, 10, 3)), np.zeros((2, 9), dtype=int))


@pytest.mark.parametrize("defect", ["negative", "fractional", "non_finite", "no_intercept"])
def test_fit_many_applies_the_dataset_checks(defect):
    rng = np.random.default_rng(SEED + 19)
    X = np.stack([build_design(30, 2, rng) for _ in range(3)])
    y = rng.poisson(1.0, (3, 30)).astype(float)
    if defect == "negative":
        y[1, 4] = -1.0
    elif defect == "fractional":
        y[2, 0] = 1.5
    elif defect == "non_finite":
        X[0, 3, 1] = np.nan
    else:
        X[1, :, 0] = 2.0
    with pytest.raises(ValueError):
        fit_many(X, y)


@pytest.mark.parametrize("offset, converges", [(1e4, True), (1e6, True)])
def test_large_offset_covariate_reaches_the_centred_optimum(offset, converges):
    # A covariate offset + N(0, 1) (timestamps over a short span, say) is full
    # rank but badly conditioned against the intercept.  The fit must match
    # the centred fit, mapped back by b0 -> b0 + offset * b1.  At 1e6 the
    # intercept is only determined to about 1e-6 by the roundoff of X beta,
    # so no test on the size of the step could pass there; the Newton
    # decrement does not depend on the scale of the covariates, and the fit
    # converges at both offsets.
    rng = np.random.default_rng(SEED + 20)
    z = rng.standard_normal((200, 2))
    centred = np.column_stack([np.ones(200), z])
    y = simulate_dataset(200, [0.5, 0.3, -0.2], SEED + 21).y
    ref = fit(Dataset(X=centred, y=y))
    shifted = centred.copy()
    shifted[:, 1] += offset
    model = fit(Dataset(X=shifted, y=y))
    assert model.converged == converges
    mapped = model.beta.copy()
    mapped[0] += offset * mapped[1]
    np.testing.assert_allclose(mapped, ref.beta, rtol=0, atol=1e-7)


def test_fit_many_evaluates_no_bell_number(monkeypatch):
    # Convergence needs only the score and the information, so fitting
    # never reaches the Bell-number constants of the log-likelihood, which
    # are costly for counts above 512.
    def refuse(*args):
        raise AssertionError("the fit evaluated a Bell number")

    monkeypatch.setattr(bell_dist, "log_bell_many", refuse)
    monkeypatch.setattr(special_fn, "log_bell", refuse)
    rng = np.random.default_rng(SEED + 22)
    X = np.stack([build_design(80, 2, rng) for _ in range(4)])
    y = rng.poisson(np.exp(X @ np.array([6.5, 0.2, -0.1])))
    assert y.max() > 512
    assert fit_many(X, y).converged.all()


@given(
    st.integers(1, 4), st.integers(3, 30), st.integers(1, 5), st.integers(0, 2**32 - 1),
    st.floats(0.01, 40.0),
)
@settings(max_examples=80, deadline=None)
def test_in_place_newton_kernels_keep_the_bits_of_the_expression_forms(m, n, k, seed, scale):
    # _evaluate and _newton_terms work in place; their bits are those of the
    # whole-array expressions, clamped predictors (large scale) included.
    rng = np.random.default_rng(seed)
    X = np.concatenate([np.ones((m, n, 1)), scale * rng.standard_normal((m, n, k - 1))], axis=2)
    y = rng.integers(0, 60, size=(m, n)).astype(float)
    beta = rng.standard_normal((m, k))
    point = bell_glm._evaluate(X, y, beta)
    want = evaluate_expressions(X, y, beta, bell_glm._ETA_BOUND)
    got = (point.excess, point.mu, point.theta, point.kern, point.clipped)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    excess, mu, theta = want[:3]
    for a, b in zip(bell_glm._newton_terms(y, point), newton_terms_expressions(y, mu, theta, excess)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
