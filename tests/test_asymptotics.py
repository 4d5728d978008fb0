"""Closed-form bias/AMSE evaluators against brute-force sampling oracles.

Two oracles are used.  The cheap one draws directly from the limiting
Gaussian experiment and checks every closed form.  The expensive one runs
the full count-regression pipeline under a drifting restriction and checks
that the shrinkage bias formula describes what fitted estimators actually do.
"""
import collections
import functools

import numpy as np
import pytest

from bellshrink import asymptotics, cli, linalg, shrinkage
from bellshrink.asymptotics import LocalAlternative, asymptotic_amse, asymptotic_bias
from bellshrink.shrinkage import ESTIMATOR_ORDER, LinearRestriction, load_restriction
from bellshrink.special_fn import NoncentralChiSq, inv_moment, noncentral_chisq_cdf
from oracles import (
    fisher_information,
    max_z_score,
    normal_theory_moments,
    quad_form,
    theory_sweep_lines,
)

SEED = 771239
ALPHA = 0.05


def toy_alternative(k=7, r=5, delta=2.0, fisher=None, seed=SEED):
    H = np.hstack([np.eye(r), np.zeros((r, k - r))])
    if fisher is None:
        fisher = np.eye(k)
    direction = np.arange(1.0, r + 1)
    m = H @ np.linalg.inv(fisher) @ H.T
    scale = np.sqrt(delta / (direction @ np.linalg.inv(m) @ direction)) if delta > 0 else 0.0
    gamma = scale * direction
    rest = LinearRestriction(H=H, h=np.zeros(r))
    return LocalAlternative(gamma=gamma, fisher=fisher, restriction=rest)


def random_alternative(k, r, delta, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((k, k))
    fisher = B @ B.T + k * np.eye(k)
    H = rng.standard_normal((r, k))
    rest = LinearRestriction(H=H, h=np.zeros(r))
    direction = rng.standard_normal(r)
    m = H @ np.linalg.inv(fisher) @ H.T
    scale = np.sqrt(delta / (direction @ np.linalg.inv(m) @ direction)) if delta > 0 else 0.0
    return LocalAlternative(gamma=scale * direction, fisher=fisher, restriction=rest)


# ------------------------------------------------------------ derived pieces


def test_local_alternative_projection_identities():
    la = random_alternative(6, 3, 2.5, SEED)
    H = la.restriction.H
    f_inv = la.f_inv
    m = H @ f_inv @ H.T
    np.testing.assert_allclose(la.kappa, f_inv @ H.T @ np.linalg.inv(m), atol=1e-10)
    np.testing.assert_allclose(la.kappa0, la.kappa @ H @ f_inv, atol=1e-10)
    np.testing.assert_allclose(la.kappa @ m @ la.kappa.T, la.kappa0, atol=1e-10)
    np.testing.assert_allclose(la.kappa0, la.kappa0.T, atol=0)
    eigvals = np.linalg.eigvalsh(la.kappa0)
    assert np.all(eigvals > -1e-12)
    assert np.sum(eigvals > 1e-10) == 3  # rank equals the restriction count
    # F^-1 splits into the projection block kappa0 and the residual block,
    # both covariances: the residual is symmetric PSD of rank k - r.
    residual = f_inv - la.kappa0
    np.testing.assert_allclose(residual + la.kappa0, f_inv, atol=1e-12)
    np.testing.assert_allclose(residual, residual.T, atol=1e-12)
    eigvals = np.linalg.eigvalsh(residual)
    assert np.all(eigvals > -1e-10)
    assert np.sum(eigvals > 1e-10) == 3
    assert la.delta == pytest.approx(2.5, rel=1e-10)


def test_delta_zero_iff_gamma_zero():
    la = toy_alternative(delta=0.0)
    assert la.delta == 0.0
    assert np.all(la.gamma == 0.0)
    la2 = toy_alternative(delta=1e-8)
    assert la2.delta > 0.0


def test_local_alternative_validation():
    rest = LinearRestriction(H=np.eye(3, 5), h=np.zeros(3))
    with pytest.raises(ValueError):
        LocalAlternative(gamma=np.zeros(2), fisher=np.eye(5), restriction=rest)
    with pytest.raises(ValueError):
        LocalAlternative(gamma=np.zeros(3), fisher=np.eye(4), restriction=rest)
    with pytest.raises(ValueError):
        LocalAlternative(gamma=np.full(3, np.nan), fisher=np.eye(5), restriction=rest)


# -------------------------------------------------------------------- biases


def test_bias_zero_at_gamma_zero():
    la = toy_alternative(delta=0.0)
    for est in ["RE", "JSE", "PJSE", "PTE"]:
        bias = asymptotic_bias(est, la, alpha=ALPHA)
        np.testing.assert_allclose(bias, np.zeros(la.n_params), atol=0)


def test_restricted_bias_closed_form():
    la = random_alternative(6, 3, 4.0, SEED + 2)
    np.testing.assert_allclose(
        asymptotic_bias("RE", la), -(la.kappa @ la.gamma), atol=1e-14
    )


def test_positive_part_bias_approaches_plain_shrinkage_at_large_delta():
    gaps = []
    for delta in [1.0, 10.0, 60.0]:
        la = toy_alternative(delta=delta)
        gap = np.linalg.norm(
            asymptotic_bias("PJSE", la) - asymptotic_bias("JSE", la)
        )
        gaps.append(gap)
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-6


def test_pretest_bias_interpolates_between_un_and_re():
    la = toy_alternative(delta=3.0)
    kg = la.kappa @ la.gamma
    near_always_reject = asymptotic_bias("PTE", la, alpha=0.999999)
    near_never_reject = asymptotic_bias("PTE", la, alpha=1e-12)
    np.testing.assert_allclose(near_always_reject, np.zeros_like(kg), atol=1e-5)
    np.testing.assert_allclose(near_never_reject, -kg, atol=1e-5)


def test_unrestricted_bias_is_zero():
    one = random_alternative(6, 3, 2.0, SEED + 6)
    stack = LocalAlternative(np.outer([0.0, 1.0, 30.0], one.gamma), one.fisher, one.restriction)
    for la, shape in ((one, (6,)), (stack, (3, 6))):
        bias = asymptotic_bias("UN", la)
        assert bias.shape == shape
        assert np.array_equal(bias, np.zeros(shape))
        assert not np.signbit(bias).any()  # +0.0, as the theory CSVs print it
    assert np.array_equal(asymptotic_bias("un", one, alpha=ALPHA), np.zeros(6))


def test_estimator_name_and_argument_validation():
    la = toy_alternative(delta=1.0)
    with pytest.raises(ValueError):
        asymptotic_bias("XX", la)
    with pytest.raises(ValueError):
        asymptotic_bias("PTE", la)  # alpha required
    la_r2 = random_alternative(5, 2, 1.0, SEED + 3)
    with pytest.raises(ValueError):
        asymptotic_bias("JSE", la_r2)  # needs at least 3 restrictions


# --------------------------------------------------------------------- AMSE


def test_unrestricted_amse_is_inverse_information():
    la = random_alternative(5, 3, 2.0, SEED + 4)
    np.testing.assert_allclose(asymptotic_amse("UN", la), la.f_inv, atol=0)


def test_restricted_amse_at_gamma_zero_dominates():
    la = toy_alternative(delta=0.0)
    amse_re = asymptotic_amse("RE", la)
    np.testing.assert_allclose(amse_re, la.f_inv - la.kappa0, atol=1e-14)
    gap_eigs = np.linalg.eigvalsh(la.f_inv - amse_re)
    assert np.all(gap_eigs > -1e-12)


def test_trace_ordering_at_gamma_zero():
    for k, r, seed in [(7, 5, 1), (8, 3, 2), (10, 6, 3)]:
        la = random_alternative(k, r, 0.0, SEED + seed)
        traces = {
            est: np.trace(asymptotic_amse(est, la, alpha=ALPHA))
            for est in ["UN", "RE", "JSE", "PJSE", "PTE"]
        }
        assert traces["RE"] <= traces["PJSE"] <= traces["JSE"] <= traces["UN"]
        assert traces["RE"] <= traces["PTE"] <= traces["UN"]


def test_plain_shrinkage_trace_identity_at_gamma_zero():
    # with F = I and coordinate restrictions the trace saving is exactly r - 2
    for r in [3, 5, 9]:
        la = toy_alternative(k=r + 3, r=r, delta=0.0)
        trace = np.trace(asymptotic_amse("JSE", la))
        assert trace == pytest.approx(la.n_params - (r - 2.0), rel=1e-12)


def test_pretest_amse_limits():
    la = toy_alternative(delta=2.0)
    amse_re = asymptotic_amse("RE", la)
    near_never_reject = asymptotic_amse("PTE", la, alpha=1e-13)
    near_always_reject = asymptotic_amse("PTE", la, alpha=0.9999999)
    np.testing.assert_allclose(near_never_reject, amse_re, atol=1e-6)
    np.testing.assert_allclose(near_always_reject, la.f_inv, atol=1e-6)


def test_amse_matrices_symmetric():
    la = random_alternative(7, 4, 1.7, SEED + 5)
    for est in ["UN", "RE", "JSE", "PJSE", "PTE"]:
        A = asymptotic_amse(est, la, alpha=ALPHA)
        np.testing.assert_allclose(A, A.T, atol=1e-12)


# -------------------------------------------------------------- theory sweep


SWEEP_DELTAS = (0.0, 0.5, 3.0, 40.0, 700.0)
SWEEP_ALPHA = 0.1


def _theory_sweep(tmp_path, k, r, seed, name="curves.csv", deltas=SWEEP_DELTAS):
    """Run `theory --delta-grid` on a random restriction geometry with a
    non-identity information limit; returns (restriction, F, direction, out)."""
    rng = np.random.default_rng(seed)
    while True:
        H = rng.integers(-2, 3, size=(r, k)).astype(float)
        if np.linalg.matrix_rank(H) == r:
            break
    A = rng.standard_normal((k, k))
    fisher = A @ A.T / k + 0.5 * np.eye(k)
    direction = rng.standard_normal(r)
    rest_path, fisher_path = tmp_path / "rest.txt", tmp_path / "fisher.csv"
    rest_path.write_text(
        "".join(" ".join(format(v, ".17g") for v in row) + " | 0\n" for row in H)
    )
    fisher_path.write_text(
        "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in fisher)
    )
    out = tmp_path / name
    code = cli.main([
        "theory", "--restriction", str(rest_path), "--fisher", str(fisher_path),
        "--alpha", str(SWEEP_ALPHA), "--delta-grid", ",".join(format(d, "g") for d in deltas),
        "--direction=" + ",".join(format(v, ".17g") for v in direction), "--out", str(out),
    ])
    assert code == 0
    return load_restriction(rest_path), np.loadtxt(fisher_path, delimiter=",", ndmin=2), direction, out


@pytest.mark.parametrize("k, r", [(4, 2), (5, 3), (7, 5)])
def test_theory_sweep_matches_fresh_alternative_per_delta(tmp_path, capsys, k, r):
    rest, fisher, direction, out = _theory_sweep(tmp_path, k, r, SEED + r)
    want = theory_sweep_lines(rest, fisher, SWEEP_DELTAS, direction, SWEEP_ALPHA)
    assert out.read_bytes() == ("\n".join(want) + "\n").encode()


@pytest.mark.parametrize("scale", [2.0**532, 2.0**-532, 2.0**665, 2.0**-665, 1e160, 1e-160, 1e-200])
def test_theory_sweep_bytes_do_not_depend_on_the_direction_scale(tmp_path, capsys, scale):
    # A direction's own noncentrality once overflowed (scale 1e160: the
    # zero-drift curve) or underflowed (1e-160: wrong PTE biases; 1e-200:
    # a non-finite gamma).  Under a non-identity information limit every
    # direction has its own curve, and a scaled direction must print it.
    rest, fisher, direction, out = _theory_sweep(tmp_path, 5, 3, SEED + 3)
    scaled = tmp_path / "scaled.csv"
    code = cli.main([
        "theory", "--restriction", str(tmp_path / "rest.txt"),
        "--fisher", str(tmp_path / "fisher.csv"), "--alpha", str(SWEEP_ALPHA),
        "--delta-grid", ",".join(format(d, "g") for d in SWEEP_DELTAS),
        "--direction=" + ",".join(format(v * scale, ".17g") for v in direction),
        "--out", str(scaled),
    ])
    assert code == 0
    assert scaled.read_bytes() == out.read_bytes()
    want = theory_sweep_lines(rest, fisher, SWEEP_DELTAS, direction * scale, SWEEP_ALPHA)
    assert scaled.read_bytes() == ("\n".join(want) + "\n").encode()


def test_theory_zero_gamma_prints_unsigned_zero_biases(tmp_path, capsys):
    # b times a +0 drift is -0 for a negative weight b; the bias column
    # must print 0 for every estimator, as UN's does.
    _theory_sweep(tmp_path, 5, 3, SEED + 3)
    out = tmp_path / "point.csv"
    code = cli.main([
        "theory", "--restriction", str(tmp_path / "rest.txt"),
        "--fisher", str(tmp_path / "fisher.csv"), "--gamma=0,0,0", "--out", str(out),
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert {row[0] for row in rows} == {"UN", "RE", "JSE", "PJSE", "PTE"}
    assert {row[2] for row in rows} == {"0"}


def test_theory_sweep_evaluates_each_quantity_once(tmp_path, capsys, monkeypatch):
    calls = collections.Counter()  # wrapped calls
    evaluated = collections.Counter()  # noncentralities they evaluate

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "_mixtures":
                noncentrality, specs = args
                evaluated[len(specs)] += np.size(noncentrality)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("_mixtures", "spd_inverse", "spd_solve"):
        monkeypatch.setattr(asymptotics, name, counting(name, getattr(asymptotics, name)))
    monkeypatch.setattr(shrinkage, "gammaincinv", counting("ppf", shrinkage.gammaincinv))
    solve_stack = linalg.spd_solve_stack

    def counting_members(a, b):  # every linalg entry ends in a stack solve
        calls["factorized"] += len(a)
        return solve_stack(a, b)

    monkeypatch.setattr(linalg, "spd_solve_stack", counting_members)
    # two calls at the same (alpha, r), on grids of different lengths
    grids = {"a.csv": SWEEP_DELTAS, "b.csv": SWEEP_DELTAS[:2]}
    for sweep, deltas in grids.items():
        _theory_sweep(tmp_path, 6, 4, SEED, name=sweep, deltas=deltas)
    # one mixture pass per sweep, for the whole grid, of 12 quantities per
    # delta: two cdfs at each of the critical value and r - 2, and both
    # plain and truncated inverse moments of orders 1 and 2
    assert calls["_mixtures"] == 2
    assert evaluated == {12: sum(len(deltas) for deltas in grids.values())}
    assert calls["ppf"] == 2  # the critical value, once in each sweep's pass
    # one geometry per alternative, F^-1 and the kappa solve, whatever the
    # grid's length: the unit drift's and the grid's; delta needs no solve
    assert calls["spd_inverse"] == calls["spd_solve"] == 2 * 2
    # those four factorizations per sweep, plus the CLI's SPD check of the
    # --fisher file
    assert calls["factorized"] == 2 * (4 + 1)


STACK_DELTAS = (0.0, 0.5, 40.0, 700.0, 5000.0)  # Poisson windows of 1 to about 750 terms


@pytest.mark.parametrize("k, r", [(4, 2), (6, 4)])
def test_stack_of_drifts_equals_each_drift_alone_bitwise(k, r):
    one = random_alternative(k, r, 1.0, SEED + k)
    gammas = np.sqrt(STACK_DELTAS)[:, None] * one.gamma
    stack = LocalAlternative(gammas, one.fisher, one.restriction)
    fresh = LocalAlternative(gammas, one.fisher, one.restriction)
    assert stack.delta.shape == (len(STACK_DELTAS),)
    assert np.array_equal(stack.delta, fresh.delta)
    assert stack.delta[-1] == pytest.approx(5000.0, rel=1e-10)
    ests = shrinkage.estimator_names(r)
    amse = {est: asymptotic_amse(est, stack, alpha=ALPHA) for est in ests}
    bias = {est: asymptotic_bias(est, stack, alpha=ALPHA) for est in ests}
    assert all(a.shape == (len(STACK_DELTAS), k, k) for a in amse.values())
    assert all(b.shape == (len(STACK_DELTAS), k) for b in bias.values())
    for i, gamma in enumerate(gammas):
        alone = LocalAlternative(gamma, one.fisher, one.restriction)
        assert isinstance(alone.delta, float) and stack.delta[i] == alone.delta
        for est in ests:
            assert np.array_equal(amse[est][i], asymptotic_amse(est, alone, alpha=ALPHA))
            assert np.array_equal(bias[est][i], asymptotic_bias(est, alone, alpha=ALPHA))
    assert np.array_equal(asymptotic_amse("PTE", fresh, alpha=ALPHA), amse["PTE"])
    with pytest.raises(ValueError):
        LocalAlternative(np.zeros((2, r + 1)), one.fisher, one.restriction)
    with pytest.raises(ValueError):
        LocalAlternative(np.zeros((2, 2, r)), one.fisher, one.restriction)


@pytest.mark.parametrize("deltas", [2.0, STACK_DELTAS])
def test_bias_and_amse_do_not_depend_on_call_order(deltas):
    # one weight triple serves both calls, so whichever call fills the
    # alternative's memo, the other reads the same bits
    one = random_alternative(6, 4, 1.0, SEED + 7)
    gamma = np.multiply.outer(np.sqrt(deltas), one.gamma)  # (r,) or (D, r)
    for est in ESTIMATOR_ORDER:
        bias_first = LocalAlternative(gamma, one.fisher, one.restriction)
        amse_first = LocalAlternative(gamma, one.fisher, one.restriction)
        bias = asymptotic_bias(est, bias_first, alpha=ALPHA)
        amse = asymptotic_amse(est, amse_first, alpha=ALPHA)
        assert np.array_equal(asymptotic_amse(est, bias_first, alpha=ALPHA), amse)
        assert np.array_equal(asymptotic_bias(est, amse_first, alpha=ALPHA), bias)


@pytest.mark.parametrize("seed", range(8))
def test_noncentrality_matches_quadratic_form(seed):
    # delta = (kappa gamma)' F (kappa gamma) against gamma' (H F^-1 H')^-1 gamma
    # to 1e-13, or to a few ulps times the condition number of H F^-1 H' when
    # that is larger: both sides carry a rounding error of that size
    rng = np.random.default_rng([SEED, seed])
    k = int(rng.integers(2, 9))
    r = int(rng.integers(1, k + 1))
    A = rng.standard_normal((k, k))
    fisher = A @ A.T / k + 0.2 * np.eye(k)
    H = rng.standard_normal((r, k))
    gammas = rng.standard_normal((4, r)) * np.array([[1e-3], [1.0], [10.0], [300.0]])
    la = LocalAlternative(gammas, fisher, LinearRestriction(H=H, h=np.zeros(r)))
    m = H @ np.linalg.inv(fisher) @ H.T
    want = [quad_form(gamma, m) for gamma in gammas]
    rtol = max(1e-13, 4 * np.finfo(float).eps * np.linalg.cond(m))
    np.testing.assert_allclose(la.delta, want, rtol=rtol, atol=0)


# ------------------------------------------------- normal-theory oracle checks


def test_all_closed_forms_match_limit_experiment():
    for delta, seed in [(0.0, 11), (0.5, 12), (2.0, 13), (8.0, 14)]:
        la = random_alternative(7, 4, delta, SEED + seed)
        mc = normal_theory_moments(la, ALPHA, n_draws=400_000, seed=seed)
        for est in ["UN", "RE", "JSE", "PJSE", "PTE"]:
            bias_mc, bias_se, amse_mc, amse_se = mc[est][:4]
            bias_th = asymptotic_bias(est, la, alpha=ALPHA)
            amse_th = asymptotic_amse(est, la, alpha=ALPHA)
            assert max_z_score(bias_th, bias_mc, bias_se) < 4.0, (est, delta)
            assert max_z_score(amse_th, amse_mc, amse_se) < 4.0, (est, delta)


@pytest.mark.slow
def test_shrinkage_trace_within_one_percent_of_limit_experiment():
    for delta, seed in [(0.0, 21), (1.0, 22), (4.0, 23)]:
        la = toy_alternative(k=7, r=5, delta=delta)
        mc = normal_theory_moments(la, ALPHA, n_draws=1_000_000, seed=seed)
        trace_mc = np.trace(mc["JSE"][2])
        trace_th = np.trace(asymptotic_amse("JSE", la))
        assert abs(trace_th - trace_mc) / trace_mc < 0.01


def test_dropping_truncated_moment_term_breaks_positive_part_bias():
    # regression guard: the positive-part correction needs the truncated
    # inverse moment, not just the CDF weight; the CDF-only variant is
    # rejected by the same oracle that validates the implemented form
    la = toy_alternative(k=7, r=5, delta=2.0)
    mc = normal_theory_moments(la, ALPHA, n_draws=1_000_000, seed=31)
    bias_mc, bias_se = mc["PJSE"][:2]
    r = la.n_restrictions
    kg = la.kappa @ la.gamma
    c = r - 2.0
    d2 = NoncentralChiSq(r + 2, la.delta)
    jse_bias = -c * inv_moment(d2) * kg
    cdf_only = jse_bias + kg * noncentral_chisq_cdf(c, d2)
    implemented = asymptotic_bias("PJSE", la)
    assert max_z_score(implemented, bias_mc, bias_se) < 4.0
    assert max_z_score(cdf_only, bias_mc, bias_se) > 6.0


def test_lower_dof_variant_of_shrinkage_bias_is_rejected():
    # regression guard: the shrinkage bias uses the (r+2)-dof inverse moment;
    # the r-dof variant disagrees with the limit experiment decisively
    la = toy_alternative(k=7, r=5, delta=2.0)
    mc = normal_theory_moments(la, ALPHA, n_draws=1_000_000, seed=32)
    bias_mc, bias_se = mc["JSE"][:2]
    kg = la.kappa @ la.gamma
    c = la.n_restrictions - 2.0
    dof_r = -c * inv_moment(NoncentralChiSq(la.n_restrictions, la.delta)) * kg
    implemented = asymptotic_bias("JSE", la)
    assert max_z_score(implemented, bias_mc, bias_se) < 4.0
    assert max_z_score(dof_r, bias_mc, bias_se) > 6.0


# ------------------------------------------------ full-pipeline bias oracle


@pytest.mark.slow
def test_shrinkage_bias_describes_fitted_estimators():
    # drifting-restriction experiment: fixed design, true coefficients at
    # distance gamma/sqrt(n) from the restriction, shrinkage bias compared
    # with the mean scaled error of the fitted estimator over 2e7 fitted
    # rows; the difference jse - un shares the same limit as jse - beta_n
    # and cancels the O(n^-1/2) fitting bias common to both estimators,
    # which would otherwise sit at the 3-standard-error resolution
    from bellshrink.bell_dist import sample_counts
    from bellshrink.bell_glm import Dataset, fit_many
    from bellshrink.montecarlo import build_restriction
    from bellshrink.shrinkage import ESTIMATOR_ORDER, estimate_many
    from bellshrink.special_fn import lambert_w0

    n, p = 2000, 3
    reps = 10_000
    rng = np.random.default_rng(SEED + 40)
    X = np.empty((n, p + 1))
    X[:, 0] = 1.0
    X[:, 1:] = rng.standard_normal((n, p))
    rest = build_restriction(p, 0.0)
    gamma = np.array([1.0, 0.7, -0.35])
    base = np.array([0.0, 1.0, 1.0, 1.0])
    delta_dir = rest.H.T @ np.linalg.solve(rest.H @ rest.H.T, gamma)
    beta_n = base + delta_dir / np.sqrt(n)
    theta = lambert_w0(np.exp(X @ beta_n))

    fisher_total = fisher_information(beta_n, Dataset(X=X, y=np.zeros(n, dtype=int)))
    la = LocalAlternative(
        gamma=gamma, fisher=fisher_total / n, restriction=rest
    )
    theory = asymptotic_bias("JSE", la)

    errors = np.empty((reps, p + 1))
    jse, un = ESTIMATOR_ORDER.index("JSE"), ESTIMATOR_ORDER.index("UN")
    stack = 25  # fits and estimators of a stack equal their one-by-one values bit for bit
    for start in range(0, reps, stack):
        ys = np.stack([sample_counts(theta, rng) for _ in range(stack)])
        fits = fit_many(np.broadcast_to(X, (stack, n, p + 1)), ys)
        est, _, ok = estimate_many(fits.beta, fits.fisher_info, rest)
        assert ok.all()
        errors[start : start + stack] = est[:, jse] - est[:, un]
    scaled = np.sqrt(n) * errors
    mc_mean = scaled.mean(axis=0)
    mc_se = scaled.std(axis=0, ddof=1) / np.sqrt(reps)
    z = np.abs(theory - mc_mean) / mc_se
    assert np.max(z) < 3.0
