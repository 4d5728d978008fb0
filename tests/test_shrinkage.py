"""Constrained and shrinkage estimator checks against a KKT oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from bellshrink import shrinkage
from bellshrink.bell_glm import FittedModel, fit
from bellshrink.linalg import SingularMatrixError
from bellshrink.shrinkage import (
    ESTIMATOR_ORDER,
    LinearRestriction,
    compute_all,
    estimate_many,
    load_restriction,
)
from oracles import kkt_restricted, lr_statistic, per_member_estimators, simulate_dataset

SEED = 445566


def synthetic_model(beta, fisher):
    return FittedModel(
        beta=np.asarray(beta, dtype=float),
        fisher_info=np.asarray(fisher, dtype=float),
        converged=True,
        n_iter=1,
        n_clamped=0,
    )


def random_problem(k, r, rng):
    B = rng.standard_normal((k, k))
    fisher = B @ B.T + k * np.eye(k)
    H = rng.standard_normal((r, k))
    h = rng.standard_normal(r)
    un = rng.standard_normal(k)
    return synthetic_model(un, fisher), LinearRestriction(H=H, h=h)


def pinned_fits(heads, r, direction=None):
    """A stack of fits with k = r + 2 and F = I under H beta = 0, H the
    first r rows of the identity: beta is head * direction (default the
    first axis) in its first r entries and ones in the last two.  UN - RE
    is then head * direction and the Wald statistic |head * direction|**2,
    exactly head**2 along the first axis."""
    if direction is None:
        direction = np.eye(r)[0]
    k = r + 2
    beta = np.ones((len(heads), k))
    beta[:, :r] = np.outer(heads, direction)
    fisher = np.repeat(np.eye(k)[None], len(heads), axis=0)
    return beta, fisher, LinearRestriction(H=np.eye(k)[:r], h=np.zeros(r))


def columns(est, *names):
    """The (m, k) rows of the named estimators in an estimate_many stack."""
    return tuple(est[:, ESTIMATOR_ORDER.index(name)] for name in names)


# -------------------------------------------------------------- restricted


def test_restricted_is_identity_when_already_satisfied():
    rng = np.random.default_rng(SEED)
    model, _ = random_problem(5, 2, rng)
    H = rng.standard_normal((2, 5))
    rest = LinearRestriction(H=H, h=H @ model.beta)
    np.testing.assert_allclose(compute_all(model, rest).re, model.beta, atol=1e-12)


def test_full_restriction_to_zero():
    rng = np.random.default_rng(SEED + 1)
    model, _ = random_problem(4, 2, rng)
    rest = LinearRestriction(H=np.eye(4), h=np.zeros(4))
    np.testing.assert_allclose(compute_all(model, rest).re, np.zeros(4), atol=1e-12)


def test_restricted_matches_kkt_oracle():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(200):
        k = int(rng.integers(3, 9))
        r = int(rng.integers(1, k))
        model, rest = random_problem(k, r, rng)
        ours = compute_all(model, rest).re
        oracle = kkt_restricted(model.beta, model.fisher_info, rest.H, rest.h)
        np.testing.assert_allclose(ours, oracle, atol=1e-8)
        np.testing.assert_allclose(rest.H @ ours, rest.h, atol=1e-8)


def test_restricted_rank_error():
    rng = np.random.default_rng(SEED + 3)
    model, _ = random_problem(4, 1, rng)
    with pytest.raises(ValueError):
        # duplicated row: H not full row rank
        LinearRestriction(H=np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]), h=np.zeros(2))


# ---------------------------------------------------------- test statistic


def test_statistic_zero_when_restriction_holds():
    rng = np.random.default_rng(SEED + 4)
    model, _ = random_problem(5, 2, rng)
    H = rng.standard_normal((2, 5))
    rest = LinearRestriction(H=H, h=H @ model.beta)
    assert compute_all(model, rest).f_stat == pytest.approx(0.0, abs=1e-20)


def test_statistic_scalar_reduction():
    rng = np.random.default_rng(SEED + 5)
    model, _ = random_problem(4, 1, rng)
    H = rng.standard_normal((1, 4))
    h = np.array([0.3])
    rest = LinearRestriction(H=H, h=h)
    f_inv = np.linalg.inv(model.fisher_info)
    gap = (H @ model.beta - h).item()
    expected = gap**2 / (H @ f_inv @ H.T).item()
    assert compute_all(model, rest).f_stat == pytest.approx(expected, rel=1e-10)


def test_wald_and_lr_forms_converge_with_sample_size():
    # under a true restriction the two forms coincide asymptotically
    beta = np.array([0.4, 0.0, 0.3, 0.0])
    H = np.array([[0, 1.0, 0, 0], [0, 0, 0, 1.0]])
    rest = LinearRestriction(H=H, h=np.zeros(2))
    medians = []
    for i, n in enumerate([200, 1000, 5000]):
        gaps = []
        for rep in range(60):
            data = simulate_dataset(n, beta, SEED + 100 * i + rep)
            model = fit(data)
            wald = compute_all(model, rest).f_stat
            lr = lr_statistic(model, data, rest)
            gaps.append(abs(wald - lr))
        medians.append(np.median(gaps))
    assert medians[2] < medians[1] < medians[0]
    assert all(np.isfinite(medians))


# ------------------------------------------------------------------ pretest


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_pretest_selection_rule():
    # sqrt(crit)**2 rounds to crit exactly at r = 3, alpha = 0.05, so the
    # second member ties at the critical value; 1e200**2 overflows to inf
    crit = float(chi2.ppf(0.95, 3))
    heads = [0.5, np.sqrt(crit), np.nextafter(np.sqrt(crit), 0.0), 1e200]
    est, f_stat, ok = estimate_many(*pinned_fits(heads, 3), alpha=0.05)
    assert ok.all()
    assert f_stat[1] == crit and f_stat[2] < crit and f_stat[3] == np.inf
    un, re, pte = columns(est, "UN", "RE", "PTE")
    assert (un[:, 0] != re[:, 0]).all()
    # below the critical value keeps RE; a tie keeps the unrestricted estimator
    for i, keep in enumerate((re, un, re, un)):
        np.testing.assert_array_equal(pte[i], keep[i])


# -------------------------------------------------------------- James-Stein


def test_james_stein_factor_algebra():
    # r = 4 and f_stat = head**2: the factor 1 - 2/f_stat is about 1 at
    # f_stat = 1e12, 0 at f_stat = 2 and -1 at f_stat = 1
    est, f_stat, _ = estimate_many(*pinned_fits([1e6, np.sqrt(2.0), 1.0], 4))
    np.testing.assert_allclose(f_stat, [1e12, 2.0, 1.0], rtol=1e-15)
    un, re, jse = columns(est, "UN", "RE", "JSE")
    np.testing.assert_allclose(jse[0], un[0], rtol=1e-10)
    np.testing.assert_allclose(jse[1], re[1], atol=1e-14)
    # over-shrinkage past the restricted point
    np.testing.assert_allclose(jse[2], 2 * re[2] - un[2], atol=1e-14)


def test_positive_part_clamps():
    # r = 4 at f_stat = 1 (factor -1) and f_stat = 4 (factor 1/2)
    est = estimate_many(*pinned_fits([1.0, 2.0], 4))[0]
    un, re, pjse = columns(est, "UN", "RE", "PJSE")
    np.testing.assert_array_equal(pjse[0], re[0])
    np.testing.assert_allclose(pjse[1], re[1] + 0.5 * (un[1] - re[1]), rtol=1e-14)


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.integers(min_value=3, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_positive_part_stays_on_segment(f_stat, r):
    direction = np.zeros(r)
    direction[:3] = [2.0 / 3.0, -2.0 / 3.0, 1.0 / 3.0]
    est = estimate_many(*pinned_fits([np.sqrt(f_stat)], r, direction))[0]
    un, re, pjse = (row[0, :3] for row in columns(est, "UN", "RE", "PJSE"))
    # pjse = re + t (un - re) for a single t in [0, 1)
    t = (pjse - re) / (un - re)
    assert np.allclose(t, t[0], atol=1e-12)
    assert -1e-12 <= t[0] < 1.0


# --------------------------------------------------------------- compute_all


def test_compute_all_cross_consistency():
    rng = np.random.default_rng(SEED + 6)
    model, rest = random_problem(6, 3, rng)
    est = compute_all(model, rest, alpha=0.05)
    want, want_f = per_member_estimators(model, rest, 0.05)
    assert est.f_stat == want_f
    for name, row in zip(ESTIMATOR_ORDER, want):
        np.testing.assert_array_equal(getattr(est, name.lower()), row)
    assert np.array_equal(est.pte, est.un) or np.array_equal(est.pte, est.re)
    np.testing.assert_allclose(rest.H @ est.re, rest.h, atol=1e-8)


def test_compute_all_small_r_has_no_shrinkage_estimators():
    rng = np.random.default_rng(SEED + 7)
    model, rest = random_problem(5, 2, rng)
    est = compute_all(model, rest)
    assert est.jse is None and est.pjse is None
    assert est.pte is not None


def test_compute_all_exact_satisfaction_short_circuits():
    rng = np.random.default_rng(SEED + 8)
    model, _ = random_problem(6, 3, rng)
    H = rng.standard_normal((3, 6))
    rest = LinearRestriction(H=H, h=H @ model.beta)
    est = compute_all(model, rest)
    assert est.f_stat == 0.0
    np.testing.assert_allclose(est.jse, est.re, atol=0)
    np.testing.assert_allclose(est.pjse, est.re, atol=0)
    np.testing.assert_allclose(est.pte, est.re, atol=0)


def assert_stack_matches_members(models, rest, alpha=0.05):
    est, f_stat, ok = estimate_many(
        np.stack([m.beta for m in models]), np.stack([m.fisher_info for m in models]), rest, alpha
    )
    assert est.shape == (len(models), len(ESTIMATOR_ORDER), rest.H.shape[1])
    for i, model in enumerate(models):
        try:
            want, want_f = per_member_estimators(model, rest, alpha)
        except SingularMatrixError:
            assert not ok[i]
            assert np.all(np.isnan(est[i])) and np.isnan(f_stat[i])
            with pytest.raises(SingularMatrixError):
                compute_all(model, rest, alpha)
            continue
        assert ok[i]
        np.testing.assert_array_equal(est[i], want)
        assert f_stat[i] == want_f
        one = compute_all(model, rest, alpha)
        assert one.f_stat == want_f
        for j, name in enumerate(ESTIMATOR_ORDER):
            vec = getattr(one, name.lower())
            if vec is None:
                assert rest.n_restrictions < 3 and np.all(np.isnan(want[j]))
            else:
                np.testing.assert_array_equal(vec, want[j])
    return ok


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_estimate_many_equals_per_member_estimators_bitwise(r):
    rng = np.random.default_rng(SEED + 20 + r)
    k = 6
    rest = LinearRestriction(H=rng.standard_normal((r, k)), h=rng.standard_normal(r))
    exact = np.linalg.lstsq(rest.H, rest.h, rcond=None)[0]
    models = []
    for scale in (0.0, 0.01, 0.1, 0.3, 1.0, 3.0) * 5:
        model, _ = random_problem(k, r, rng)
        models.append(synthetic_model(exact + scale * model.beta, model.fisher_info))
    assert assert_stack_matches_members(models, rest).all()
    # the stack holds members on both sides of the pretest's critical value
    # and, for r >= 3, of the positive-part clamp at f_stat = r - 2
    f_stat = estimate_many(
        np.stack([m.beta for m in models]), np.stack([m.fisher_info for m in models]), rest
    )[1]
    crit = chi2.ppf(0.95, r)
    assert (f_stat < crit).any() and (f_stat >= crit).any()
    assert (f_stat <= max(r - 2, 0)).any() or r < 3


def test_estimate_many_short_circuits_exact_restriction():
    rng = np.random.default_rng(SEED + 30)
    model, _ = random_problem(6, 3, rng)
    H = rng.standard_normal((3, 6))
    rest = LinearRestriction(H=H, h=H @ model.beta)
    est, f_stat, ok = estimate_many(model.beta[None], model.fisher_info[None], rest)
    assert ok[0] and f_stat[0] == 0.0
    for name in ("JSE", "PJSE", "PTE"):
        np.testing.assert_array_equal(est[0, ESTIMATOR_ORDER.index(name)], est[0, 1])
    assert_stack_matches_members([model, model], rest)


def test_estimate_many_pretest_tie_keeps_unrestricted(monkeypatch):
    rng = np.random.default_rng(SEED + 33)
    models = [random_problem(5, 3, rng)[0] for _ in range(3)]
    rest = LinearRestriction(H=rng.standard_normal((3, 5)), h=rng.standard_normal(3))
    beta = np.stack([m.beta for m in models])
    fisher = np.stack([m.fisher_info for m in models])
    f_stat = estimate_many(beta, fisher, rest)[1]
    tie = float(np.median(f_stat))
    monkeypatch.setattr(shrinkage, "_critical_value", lambda alpha, r: tie)
    est = estimate_many(beta, fisher, rest)[0]
    pte = ESTIMATOR_ORDER.index("PTE")
    for i in range(3):
        pick = ESTIMATOR_ORDER.index("RE" if f_stat[i] < tie else "UN")
        np.testing.assert_array_equal(est[i, pte], est[i, pick])
    assert (f_stat == tie).sum() == 1


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_estimate_many_flags_singular_members_without_failing_neighbours():
    rng = np.random.default_rng(SEED + 31)
    k, r = 5, 3
    rest = LinearRestriction(H=np.eye(k)[:r], h=np.zeros(r))
    good = [random_problem(k, r, rng)[0] for _ in range(4)]
    # F^-1 H' overflows, so H F^-1 H' is not finite: the second solve fails
    tiny = np.diag([1e-310, 1.0, 1.0, 1.0, 1.0])
    bad_projection = synthetic_model(good[0].beta, tiny)
    # an indefinite information matrix fails the first solve
    bad_information = synthetic_model(good[1].beta, -np.eye(k))
    models = [good[0], bad_projection, good[1], good[2], bad_information, good[3]]
    ok = assert_stack_matches_members(models, rest)
    np.testing.assert_array_equal(ok, [True, False, True, True, False, True])


def test_estimate_many_checks_alpha_and_shape():
    rng = np.random.default_rng(SEED + 32)
    model, rest = random_problem(5, 3, rng)
    with pytest.raises(ValueError):
        estimate_many(model.beta[None], model.fisher_info[None], rest, alpha=1.0)
    with pytest.raises(ValueError):
        estimate_many(model.beta[None, :4], model.fisher_info[None, :4, :4], rest)


def test_critical_value_is_scipy_chi2_quantile():
    for r in range(1, 13):
        for alpha in np.concatenate([np.geomspace(1e-6, 0.5, 60), np.linspace(0.5, 0.999, 40)]):
            shrinkage._critical_value.cache_clear()
            assert shrinkage._critical_value(float(alpha), r) == chi2.ppf(1.0 - alpha, r)


def test_pretest_critical_value_cached_and_errors_raised_on_every_call():
    crit = float(chi2.ppf(0.95, 3))
    fits = pinned_fits([np.nextafter(np.sqrt(crit), 0.0), np.sqrt(crit)], 3)
    for _ in range(2):  # a cached value must not swallow the checks
        with pytest.raises(ValueError, match="needs a test level"):
            estimate_many(*fits, alpha=None)
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="alpha must be in"):
                estimate_many(*fits, alpha=alpha)
        un, re, pte = columns(estimate_many(*fits, alpha=0.05)[0], "UN", "RE", "PTE")
        np.testing.assert_array_equal(pte, [re[0], un[1]])


def test_estimators_agree_under_true_restriction_at_large_n():
    beta = np.array([0.4, 0.2, 0.2, 0.2])
    H = np.array([[0, 1.0, -1.0, 0], [0, 0, 1.0, -1.0], [1.0, 0, 0, 0]])
    rest = LinearRestriction(H=H, h=np.array([0.0, 0.0, 0.4]))
    data = simulate_dataset(20_000, beta, SEED + 9)
    est = compute_all(fit(data), rest)
    spread = max(
        np.abs(est.un - est.re).max(),
        np.abs(est.un - est.jse).max(),
        np.abs(est.un - est.pjse).max(),
        np.abs(est.un - est.pte).max(),
    )
    assert spread < 5.0 / np.sqrt(20_000)


def test_pretest_rejects_grossly_false_restriction():
    beta = np.array([0.4, 0.8, -0.6])
    H = np.array([[0, 1.0, 0], [0, 0, 1.0]])
    rest = LinearRestriction(H=H, h=np.zeros(2))
    data = simulate_dataset(5000, beta, SEED + 10)
    est = compute_all(fit(data), rest)
    assert np.array_equal(est.pte, est.un)
    assert est.f_stat > float(chi2.ppf(0.95, 2))


def test_restriction_row_scaling_invariance():
    rng = np.random.default_rng(SEED + 11)
    model, rest = random_problem(6, 4, rng)
    scaled = LinearRestriction(H=3.7 * rest.H, h=3.7 * rest.h)
    a = compute_all(model, rest)
    b = compute_all(model, scaled)
    np.testing.assert_allclose(a.re, b.re, atol=1e-10)
    assert a.f_stat == pytest.approx(b.f_stat, rel=1e-10)
    np.testing.assert_allclose(a.jse, b.jse, atol=1e-10)
    np.testing.assert_allclose(a.pjse, b.pjse, atol=1e-10)
    np.testing.assert_allclose(a.pte, b.pte, atol=1e-10)


@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 3),
    shift=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    scale=st.lists(st.floats(0.2, 5.0), min_size=3, max_size=3),
    flip=st.lists(st.booleans(), min_size=3, max_size=3),
    mix=st.floats(-0.5, 0.5),
)
@settings(max_examples=30, deadline=None)
def test_restricted_estimator_equivariant_under_affine_covariates(
    seed, r, shift, scale, flip, mix
):
    # X -> X A with A invertible and A e1 = e1, so X A keeps the intercept
    # column and shifts, rescales and mixes the covariates.  The MLE maps to
    # A^-1 beta and the restriction H beta = h to (H A) beta' = h, so the
    # restricted estimator is A^-1 RE and the Wald statistic is unchanged.
    data = simulate_dataset(200, [0.4, 0.3, -0.5, 0.2], seed)
    rng = np.random.default_rng(seed)
    rest = LinearRestriction(H=rng.standard_normal((r, 4)), h=0.1 * rng.standard_normal(r))
    B = np.diag(np.where(flip, -1.0, 1.0) * scale)
    B[0, 1] = mix * scale[1]
    A = np.eye(4)
    A[0, 1:] = shift
    A[1:, 1:] = B
    moved = fit(type(data)(X=data.X @ A, y=data.y))
    est = compute_all(fit(data), rest)
    est_moved = compute_all(moved, LinearRestriction(H=rest.H @ A, h=rest.h))
    # both fits stop on a Newton decrement below 1e-12, which does not
    # depend on the parametrisation, and then take one more full step, so
    # they agree to roundoff amplified by the conditioning of A
    np.testing.assert_allclose(A @ est_moved.re, est.re, rtol=1e-9, atol=1e-10)
    assert est_moved.f_stat == pytest.approx(est.f_stat, rel=1e-9, abs=1e-10)


# ---------------------------------------------------------- restriction files


def test_load_restriction_roundtrip(tmp_path):
    path = tmp_path / "rest.txt"
    path.write_text(
        "# pin the intercept and equate adjacent slopes\n"
        "1 0 0 0 | 0.5\n"
        "0 1 -1 0 | 0\n"
        "\n"
        "0 0 1 -1 | 0\n"
    )
    rest = load_restriction(path)
    np.testing.assert_allclose(
        rest.H,
        [[1, 0, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]],
    )
    np.testing.assert_allclose(rest.h, [0.5, 0.0, 0.0])


def test_load_restriction_ignores_trailing_comment(tmp_path):
    path = tmp_path / "rest.txt"
    path.write_text("0 1 0 | 0  # pin slope 1\n0 0 1 | 0.5#no space\n")
    rest = load_restriction(path)
    np.testing.assert_array_equal(rest.H, [[0, 1, 0], [0, 0, 1]])
    np.testing.assert_array_equal(rest.h, [0.0, 0.5])


@pytest.mark.parametrize("line", ["0 1_0 0 | 0", "0 1 0 | 1_0"], ids=["H", "h"])
def test_load_restriction_rejects_digit_separators(tmp_path, line):
    # numpy's float syntax, as in the data CSV and the Fisher file
    path = tmp_path / "rest.txt"
    path.write_text(f"1 0 0 | 0\n{line}\n")
    with pytest.raises(ValueError, match=f"{path}:2: non-numeric entry"):
        load_restriction(path)


def test_load_restriction_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0 | 0\n0 1 0 | 0\n")
    with pytest.raises(ValueError, match=":2:"):
        load_restriction(path)
    path2 = tmp_path / "nopipe.txt"
    path2.write_text("1 0 0\n")
    with pytest.raises(ValueError, match=":1:"):
        load_restriction(path2)
    path3 = tmp_path / "empty.txt"
    path3.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="no restriction rows"):
        load_restriction(path3)
