"""Reference implementations and test-only helpers for checking the package.

The numerical references are deliberately written with a different
algorithm than the library code they check: constrained estimation via an
explicit KKT system, inverse moments via adaptive quadrature, the
limiting-distribution moments via brute-force normal sampling, CSV
ingestion via `csv.DictReader` and one `float()` per cell, and Bell draws
by inverting the cumulative pmf.  `quad_form` and `lr_statistic` are small
compositions of package functions that only the tests use.  `score` and
`fisher_information` write out the Bell score and expected information of
one dataset apart from the batched Newton engine of `fit_many`, so tests can
check the decrement S' F^-1 S at the points it returns, and `newton_mle`
runs a plain Newton-Raphson for a fixed number of iterations, so tests can
check that those points are the optimum.

Three references keep an earlier, plainer form of a package routine that
was rewritten for speed with the same arithmetic: `ztp_rejection_masked`,
the zero-truncated Poisson rejection loop that re-masks every part each
round, `theory_sweep_lines`, the `theory --delta-grid` rows from a fresh
`LocalAlternative` and fresh noncentral chi-square evaluations per delta,
and `per_member_estimators`, the five estimators of one fit from their
textbook formulas, one solve at a time.

`lambert_w0_expressions`, `evaluate_expressions` and
`newton_terms_expressions` keep the whole-array expression forms of
`special_fn.lambert_w0`, `bell_glm._evaluate` and `bell_glm._newton_terms`,
which now compute in place with the same operations in the same order, so
tests can pin the package's bits to them.

`compound_sample_counts` keeps the package's earlier Bell sampler, a sum
of zero-truncated Poisson parts, bit for bit: `simulate_dataset`
draws the fixture datasets with it, so they keep their bytes.

`build_design`, `simulate_dataset` and `subprocess_env` make the fixture
datasets and the environment of CLI child processes.  They live here, not
in `conftest.py`, because `bench/tests` has a `conftest.py` of its own, and
a test module's `from conftest import ...` reads whichever conftest pytest
loaded last when both directories run in one session.
"""
import csv
import os
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.stats import chi2, ncx2


def kkt_restricted(un, fisher, H, h):
    """Minimize (b-un)' F (b-un) subject to H b = h via the KKT system."""
    k = fisher.shape[0]
    r = H.shape[0]
    lhs = np.zeros((k + r, k + r))
    lhs[:k, :k] = fisher
    lhs[:k, k:] = H.T
    lhs[k:, :k] = H
    rhs = np.concatenate([fisher @ un, h])
    sol = np.linalg.solve(lhs, rhs)
    return sol[:k]


def quad_inv_moment(dof, noncentrality, order=1, cutoff=None):
    """E[X^{-order} 1(X <= cutoff)] for X ~ chi2(dof, noncentrality) by quadrature."""
    upper = np.inf if cutoff is None else float(cutoff)
    if upper <= 0.0:
        return 0.0

    def integrand(x):
        return ncx2.pdf(x, dof, noncentrality) / x**order

    value, _ = integrate.quad(integrand, 0.0, upper, limit=400, epsabs=1e-12, epsrel=1e-11)
    return value


def normal_theory_moments(la, alpha, n_draws, seed, chunk=200_000):
    """Empirical bias and AMSE of the five limiting estimators.

    Draws Z1 ~ N(0, F^{-1}), forms the limiting restricted/shrinkage/pretest
    errors directly from the definitions, and accumulates first and second
    moments in chunks so multi-million draw runs stay in modest memory.

    Returns {name: (bias, bias_se, amse, amse_se, trace, trace_se)} with AMSE
    taken about the origin (second moment of the scaled error, not the
    centered covariance) and trace the scalar sum of squared errors.
    """
    F = la.fisher
    H = la.restriction.H
    gamma = la.gamma
    k = F.shape[0]
    r = H.shape[0]
    f_inv = np.linalg.inv(F)
    L = np.linalg.cholesky(f_inv)
    m = H @ f_inv @ H.T
    m_inv = np.linalg.inv(m)
    kappa = f_inv @ H.T @ m_inv
    c = r - 2.0
    cutoff = chi2.ppf(1.0 - alpha, r)
    names = ("UN", "RE", "JSE", "PJSE", "PTE")

    sums = {n: np.zeros(k) for n in names}
    sq_sums = {n: np.zeros(k) for n in names}
    prod_sums = {n: np.zeros((k, k)) for n in names}
    prod_sq_sums = {n: np.zeros((k, k)) for n in names}
    trace_sums = {n: 0.0 for n in names}
    trace_sq_sums = {n: 0.0 for n in names}

    rng = np.random.default_rng(seed)
    remaining = n_draws
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        z1 = rng.standard_normal((size, k)) @ L.T
        u = z1 @ H.T + gamma
        q = np.einsum("ij,jk,ik->i", u, m_inv, u)
        z3 = u @ kappa.T
        z2 = z1 - z3
        factor = 1.0 - c / q
        errors = {
            "UN": z1,
            "RE": z2,
            "JSE": z2 + factor[:, None] * z3,
            "PJSE": z2 + np.maximum(factor, 0.0)[:, None] * z3,
            "PTE": np.where((q < cutoff)[:, None], z2, z1),
        }
        for name, e in errors.items():
            sums[name] += e.sum(axis=0)
            sq_sums[name] += (e**2).sum(axis=0)
            prods = np.einsum("ni,nj->nij", e, e)
            prod_sums[name] += prods.sum(axis=0)
            prod_sq_sums[name] += (prods**2).sum(axis=0)
            norms = (e**2).sum(axis=1)
            trace_sums[name] += norms.sum()
            trace_sq_sums[name] += (norms**2).sum()

    out = {}
    n = float(n_draws)
    for name in names:
        bias = sums[name] / n
        bias_var = np.maximum(sq_sums[name] / n - bias**2, 0.0)
        bias_se = np.sqrt(bias_var / n)
        amse = prod_sums[name] / n
        amse_var = np.maximum(prod_sq_sums[name] / n - amse**2, 0.0)
        amse_se = np.sqrt(amse_var / n)
        trace = trace_sums[name] / n
        trace_var = max(trace_sq_sums[name] / n - trace**2, 0.0)
        trace_se = float(np.sqrt(trace_var / n))
        out[name] = (bias, bias_se, amse, amse_se, trace, trace_se)
    return out


def max_z_score(theory, mc_value, mc_se, floor=1e-9):
    """Largest |theory - mc| / (se + floor); the floor guards exact-zero SEs."""
    z = np.abs(np.asarray(theory) - np.asarray(mc_value)) / (np.asarray(mc_se) + floor)
    return float(np.max(z))


def pooled_gof(observed_counts, probabilities, n_draws, min_expected=5.0):
    """Chi-square goodness-of-fit p-value, pooling sparse right-tail cells.

    observed_counts[i] counts draws equal to i; probabilities[i] is the model
    pmf at i, with any residual mass beyond the table folded into the last cell.
    """
    probs = np.asarray(probabilities, dtype=float)
    obs = np.asarray(observed_counts, dtype=float)
    expected = probs * n_draws
    # fold cells from the right until every retained cell is well populated
    keep = len(expected)
    while keep > 2 and expected[keep - 1] < min_expected:
        keep -= 1
    obs_pooled = np.concatenate([obs[: keep - 1], [obs[keep - 1 :].sum()]])
    exp_pooled = np.concatenate([expected[: keep - 1], [expected[keep - 1 :].sum()]])
    tail = n_draws - exp_pooled.sum()
    exp_pooled[-1] += tail
    stat = float(((obs_pooled - exp_pooled) ** 2 / exp_pooled).sum())
    dof = len(obs_pooled) - 1
    return stat, float(chi2.sf(stat, dof)), dof


def load_dataset_rowwise(path, response_column, covariate_columns):
    """`application.load_dataset` as a row-by-row DictReader walk with one
    float() per cell: the same Dataset, DataSummary and error messages on
    every file whose cells numpy's float syntax also accepts."""
    from bellshrink.application import DataFormatError, DataSummary
    from bellshrink.bell_glm import Dataset

    def parse_count(token, where):
        try:
            val = float(token)
        except ValueError:
            raise DataFormatError(f"{where}: response {token!r} is not a number") from None
        if not val.is_integer() or not np.isfinite(val):
            raise DataFormatError(f"{where}: response {token!r} is not an integer count")
        if val < 0:
            raise DataFormatError(f"{where}: response {token!r} is negative")
        if val >= 2**63:
            raise DataFormatError(f"{where}: response {token!r} is not below 2**63")
        return int(val)

    covariate_columns = tuple(covariate_columns)
    if not covariate_columns:
        raise DataFormatError(f"{path}: no covariate columns requested")
    ys, rows = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: empty file, expected a header row")
        missing = [c for c in (response_column, *covariate_columns) if c not in reader.fieldnames]
        if missing:
            raise DataFormatError(
                f"{path}: missing columns {missing}; header has {reader.fieldnames}"
            )
        for record in reader:
            where = f"{path}:{reader.line_num}"
            raw_y = record.get(response_column)
            if raw_y is None or raw_y == "":
                raise DataFormatError(f"{where}: missing response value")
            ys.append(parse_count(raw_y, where))
            vals = []
            for col in covariate_columns:
                raw = record.get(col)
                try:
                    vals.append(float(raw))
                except (TypeError, ValueError):
                    raise DataFormatError(
                        f"{where}: covariate {col!r} value {raw!r} is not a number"
                    ) from None
                if not np.isfinite(vals[-1]):
                    raise DataFormatError(f"{where}: covariate {col!r} value {raw!r} is not finite")
            rows.append(vals)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    y = np.array(ys, dtype=np.int64)
    X = np.hstack([np.ones((len(rows), 1)), np.array(rows, dtype=float)])
    data = Dataset(X, y)
    mean = float(y.mean())
    var = float(y.var(ddof=1)) if y.size > 1 else 0.0
    summary = DataSummary(
        n_rows=len(rows),
        response_column=response_column,
        covariate_columns=covariate_columns,
        response_mean=mean,
        response_variance=var,
        overdispersion=var / mean if mean > 0 else float("nan"),
    )
    return data, summary


def inversion_sample(param, rng, size):
    """Reference Bell sampler: invert the cumulative pmf by table lookup.

    The table is extended until the uncovered tail mass is below 1e-12,
    so it is exact for practical purposes but linear in the support it
    has to walk.
    """
    from bellshrink.bell_dist import pmf

    probs = [float(pmf(0, param))]
    total = probs[0]
    y = 0
    while total < 1.0 - 1e-12:
        y += 1
        probs.append(float(pmf(y, param)))
        total += probs[-1]
        if y > 100_000_000:
            raise RuntimeError("pmf table failed to accumulate mass")
    cum = np.cumsum(probs)
    u = rng.random(int(size))
    return np.searchsorted(cum, u, side="right").astype(np.int64)


def quad_form(v, a):
    """v' a**-1 v for SPD a; nonnegative up to roundoff."""
    from bellshrink.linalg import spd_solve

    v = np.asarray(v, dtype=float)
    return float(v @ spd_solve(a, v))


def lr_statistic(model, data, rest):
    """Likelihood-ratio form 2*[loglik(un) - loglik(re)] of the restriction.

    The restricted point is the information-metric projection rather than
    a constrained maximizer, so this tracks (and under the restriction,
    asymptotically matches) the Wald statistic without replacing it.
    """
    from bellshrink.bell_glm import loglik
    from bellshrink.shrinkage import compute_all

    return 2.0 * (loglik(model.beta, data) - loglik(compute_all(model, rest).re, data))


def score(beta, data):
    """Bell-regression score X'(y - mu)/(1 + theta) at beta."""
    from bellshrink.special_fn import lambert_w0

    mu = np.exp(data.X @ np.asarray(beta, dtype=float))
    theta = lambert_w0(mu)
    return data.X.T @ ((data.y - mu) / (1.0 + theta))


def fisher_information(beta, data):
    """Total expected information X' diag(mu/(1+theta)) X at beta."""
    from bellshrink.special_fn import lambert_w0

    mu = np.exp(data.X @ np.asarray(beta, dtype=float))
    theta = lambert_w0(mu)
    v = mu / (1.0 + theta)
    return data.X.T @ (data.X * v[:, None])


def newton_mle(X, y, n_iter=60):
    """Maximum-likelihood beta of each dataset of a stack, X (R, n, k) and
    y (R, n), by Newton-Raphson on the observed information X'WX, with

        w = [mu (1 + theta + theta**2) + y theta] / (1 + theta)**3,

    from the least-squares start on log(y + 0.5), for a fixed n_iter
    iterations and with no clamp on the linear predictor.  A step that
    lowers the log-likelihood kernel by more than 1e-9 (1 + |kernel|) is
    halved, up to 30 times."""
    from bellshrink.special_fn import lambert_w0

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)

    def at(beta):
        with np.errstate(over="ignore"):
            mu = np.exp(np.einsum("rnk,rk->rn", X, beta))
        theta = lambert_w0(mu)
        return np.sum(y * np.log(theta) - np.exp(theta), axis=-1), mu, theta

    beta = np.stack([np.linalg.lstsq(x, np.log(v + 0.5), rcond=None)[0] for x, v in zip(X, y)])
    kern, mu, theta = at(beta)
    for _ in range(n_iter):
        one_plus = 1.0 + theta
        w = (mu * (1.0 + theta + theta**2) + y * theta) / one_plus**3
        s = np.einsum("rnk,rn->rk", X, (y - mu) / one_plus)
        step = np.linalg.solve(np.einsum("rnk,rn,rnj->rkj", X, w, X), s[..., None])[..., 0]
        floor = kern - 1e-9 * (1.0 + np.abs(kern))
        for _ in range(30):
            new_kern, new_mu, new_theta = at(beta + step)
            worse = ~(new_kern >= floor)
            if not worse.any():
                break
            step[worse] /= 2.0
        beta, kern, mu, theta = beta + step, new_kern, new_mu, new_theta
    return beta


def per_member_estimators(model, rest, alpha):
    """The five estimators of one fit in ESTIMATOR_ORDER and its Wald
    statistic, from the textbook formulas with one spd_solve at a time:

        RE   = b - F^-1 H' (H F^-1 H')^-1 (H b - h),
        f    = (H b - h)' (H F^-1 H')^-1 (H b - h),
        JSE  = RE + (1 - (r - 2)/f) (b - RE),
        PJSE = JSE with the factor clamped at zero,
        PTE  = RE if f < chi-square(r) upper-alpha quantile, else b.

    JSE and PJSE are RE when f = 0 and NaN rows when r < 3.
    """
    from bellshrink.linalg import spd_solve

    H, h = rest.H, rest.h
    r = rest.n_restrictions
    finv_ht = spd_solve(model.fisher_info, H.T)
    gap = H @ model.beta - h
    m_inv_gap = spd_solve(H @ finv_ht, gap)
    un = model.beta.copy()
    re = model.beta - finv_ht @ m_inv_gap
    f_stat = max(0.0, float(gap @ m_inv_gap))
    jse = pjse = np.full_like(un, np.nan)
    if r >= 3:
        jse = pjse = re
        if f_stat > 0.0:
            factor = 1.0 - (r - 2.0) / f_stat
            jse = re + factor * (un - re)
            pjse = re if factor <= 0.0 else jse
    pte = re if f_stat < chi2.ppf(1.0 - alpha, r) else un
    return np.stack([un, re, jse, pjse, pte]), f_stat


def ztp_rejection_masked(theta, rng):
    """Zero-truncated Poisson(theta) draws by rejection, every entry >= 0.1:
    each round redraws all still-zero entries with one array call."""
    draws = rng.poisson(theta)
    reject = draws == 0
    while reject.any():
        draws[reject] = rng.poisson(theta[reject])
        reject = draws == 0
    return draws


def compound_sample_counts(theta, rng):
    """Bell draws in compound-Poisson form, one per entry of theta: a sum of
    N ~ Poisson(e**theta - 1) zero-truncated Poisson(theta) parts.

    Parts with theta >= 0.1 come from `ztp_rejection_masked`; below 0.1,
    where rejection rarely accepts, from inverting the truncated series
    with one uniform each.  The small parts are drawn first.  Test datasets
    are drawn with this sampler, so their bytes do not follow the package's.
    """
    theta = np.asarray(theta, dtype=float)
    n_parts = rng.poisson(np.expm1(theta))
    reps = np.repeat(theta, n_parts)
    parts = np.empty(reps.shape, dtype=np.int64)
    small = reps < 0.1
    if small.any():
        th = reps[small]
        # Unnormalized target: cumulative of theta**k / k! from k = 1.
        u = rng.random(th.shape) * np.expm1(th)
        k = np.ones(th.shape, dtype=np.int64)
        term = th.copy()
        csum = term.copy()
        active = csum < u
        while active.any():
            k[active] += 1
            term[active] *= th[active] / k[active]
            csum[active] += term[active]
            active = csum < u
        parts[small] = k
    if not small.all():
        parts[~small] = ztp_rejection_masked(reps[~small], rng)
    idx = np.repeat(np.arange(theta.size), n_parts)
    return np.bincount(idx, weights=parts, minlength=theta.size).astype(np.int64)


def lambert_w0_expressions(x):
    """`special_fn.lambert_w0` as whole-array expressions: Winitzki's seed
    and three Halley passes on g(w) = w - x e**-w, a float for a scalar."""
    scalar = np.isscalar(x)
    z = np.asarray(x, dtype=float)
    lz = np.log1p(z)
    w = lz * (1.0 - np.log1p(lz) / (2.0 + lz))
    for _ in range(3):
        g = w - z * np.exp(-w)
        wp1 = w + 1.0
        w = w - g / (wp1 - (w + 2.0) * g / (2.0 * wp1))
    if scalar:
        return float(w)
    return np.asarray(w)


def evaluate_expressions(X, y, beta, bound=30.0):
    """`bell_glm._evaluate` as whole-array expressions: (excess, mu, theta,
    kernel, clamp count) at beta for X (m, n, k), y (m, n), beta (m, k)."""
    eta = np.matmul(X, beta[..., None])[..., 0]
    clamped = np.clip(eta, -bound, bound)
    excess = clamped - eta
    mu = np.exp(clamped)
    theta = lambert_w0_expressions(mu)
    kern = np.sum(y * (clamped - theta) - mu / theta, axis=-1) + y.shape[-1]
    return excess, mu, theta, kern, np.count_nonzero(excess, axis=-1)


def newton_terms_expressions(y, mu, theta, excess):
    """`bell_glm._newton_terms` as whole-array expressions: the weights w
    and the working vector w excess + (y - mu) / (1 + theta)."""
    one_plus = 1.0 + theta
    resid = (y - mu) / one_plus
    w = (mu * (1.0 + theta * one_plus) + y * theta) / one_plus**3
    return w, w * excess + resid


def theory_sweep_lines(rest, fisher, deltas, direction, alpha):
    """The CSV lines of `theory --delta-grid`, one fresh LocalAlternative
    and one call of the public bias/AMSE functions per (delta, estimator)."""
    from bellshrink.asymptotics import LocalAlternative, asymptotic_amse, asymptotic_bias
    from bellshrink.cli import _fmt
    from bellshrink.shrinkage import estimator_names

    r = rest.n_restrictions
    direction = np.ldexp(direction, -np.frexp(np.max(np.abs(direction)))[1])
    unit = direction / np.sqrt(LocalAlternative(direction, fisher, rest).delta)
    lines = ["delta,estimator,bias_norm,amse_trace"]
    for d in deltas:
        for est in estimator_names(r):
            la = LocalAlternative(gamma=np.sqrt(d) * unit, fisher=fisher, restriction=rest)
            bias = asymptotic_bias(est, la, alpha=alpha)
            la = LocalAlternative(gamma=np.sqrt(d) * unit, fisher=fisher, restriction=rest)
            amse = asymptotic_amse(est, la, alpha=alpha)
            lines.append(
                f"{_fmt(d)},{est},{_fmt(float(np.sqrt(bias @ bias)))},"
                f"{_fmt(float(np.trace(amse)))}"
            )
    return lines


def build_design(n, p, rng):
    """Intercept column plus p standard-normal covariates."""
    X = np.empty((n, p + 1))
    X[:, 0] = 1.0
    X[:, 1:] = rng.standard_normal((n, p))
    return X


def simulate_dataset(n, beta, seed, scale=0.3):
    """Bell-distributed counts with log mean X @ beta; covariates ~ N(0, scale^2).

    The counts come from `compound_sample_counts`, so fixture datasets
    keep their bytes whatever the package's sampler draws."""
    from bellshrink.bell_glm import Dataset
    from bellshrink.special_fn import lambert_w0

    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    p = beta.size - 1
    X = build_design(n, p, rng)
    X[:, 1:] *= scale
    mu = np.exp(X @ beta)
    theta = lambert_w0(mu)
    y = compound_sample_counts(theta, rng)
    return Dataset(X=X, y=y)


def subprocess_env():
    """Environment for a child Python that must import this very bellshrink.

    Prepends the absolute directory holding the imported package to
    PYTHONPATH, so a child started with any working directory runs the same
    code as the test process (a relative ``PYTHONPATH=src`` would not).
    """
    import bellshrink

    env = os.environ.copy()
    root = str(Path(bellshrink.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + existing if existing else root
    return env
