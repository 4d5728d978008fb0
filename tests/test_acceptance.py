"""End-to-end release gate: eight checks covering the full feature surface.

Each test exercises one release criterion at its stated tolerance and time
budget, prints one summary line, and registers the outcome so the terminal
summary (see conftest.py) ends the run with a compact pass/fail table.
Module tests cover the same ground at finer grain; the point here is that
every headline behavior holds end to end in a single fresh process.
"""
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from bellshrink.application import BootstrapConfig, bootstrap_bre, load_dataset
from bellshrink.asymptotics import LocalAlternative, asymptotic_amse, asymptotic_bias
from bellshrink.bell_dist import BellParam, pmf, sample_counts
from bellshrink.bell_glm import Dataset, FittedModel, fit
from bellshrink.linalg import spd_inverse
from bellshrink.montecarlo import SimConfig, build_restriction, generate_dataset, run_simulation
from bellshrink.shrinkage import LinearRestriction, compute_all
from bellshrink.special_fn import (
    NoncentralChiSq,
    inv_moment,
    lambert_w0,
    log_bell,
    noncentral_chisq_cdf,
    truncated_inv_moment,
)
from oracles import (
    kkt_restricted,
    max_z_score,
    normal_theory_moments,
    pooled_gof,
    quad_inv_moment,
    subprocess_env,
)

RESULTS = {}


def _record(num, label, passed, detail):
    RESULTS[num] = (label, bool(passed), detail)
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{label}]: {status} - {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


def _synthetic_model(beta, fisher):
    return FittedModel(
        beta=np.asarray(beta, dtype=float),
        fisher_info=np.asarray(fisher, dtype=float),
        converged=True,
        n_iter=1,
        n_clamped=0,
    )


def test_criterion_1_constraint_satisfaction():
    # 1000 random restricted problems: the minimizer must satisfy its
    # constraint exactly (to 1e-8) and agree with an explicit KKT solve.
    start = time.perf_counter()
    rng = np.random.default_rng(18251)
    worst_gap = 0.0
    worst_match = 0.0
    for _ in range(1000):
        k = int(rng.integers(3, 11))
        r = int(rng.integers(1, k))
        a = rng.standard_normal((k, k))
        fisher = a @ a.T + k * np.eye(k)
        H = rng.standard_normal((r, k))
        h = rng.standard_normal(r)
        un = 2.0 * rng.standard_normal(k)
        rest = LinearRestriction(H, h)
        re = compute_all(_synthetic_model(un, fisher), rest).re
        worst_gap = max(worst_gap, float(np.max(np.abs(H @ re - h))))
        oracle = kkt_restricted(un, fisher, H, h)
        worst_match = max(worst_match, float(np.max(np.abs(re - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-8 and worst_match <= 1e-8 and elapsed < 10.0
    _record(
        1,
        "constraint satisfaction",
        ok,
        f"max constraint gap {worst_gap:.2e}, max KKT mismatch {worst_match:.2e}, "
        f"{elapsed:.1f}s over 1000 problems",
    )


def test_criterion_2_null_distribution():
    # Under a true restriction the test statistic is asymptotically
    # chi-square with one degree of freedom per restriction row.
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    rest = build_restriction(3, 0.0)
    beta = np.concatenate([[0.0], np.ones(3)])
    draws = []
    for _ in range(2000):
        model = fit(generate_dataset(500, 3, beta, rng))
        if model.converged:
            draws.append(compute_all(model, rest).f_stat)
    draws = np.asarray(draws)
    ks = stats.kstest(draws, stats.chi2(3).cdf)
    elapsed = time.perf_counter() - start
    ok = draws.size == 2000 and ks.pvalue > 0.01 and elapsed < 300.0
    _record(
        2,
        "null distribution",
        ok,
        f"KS p-value {ks.pvalue:.4f} over {draws.size} statistics vs chi2(3), {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_3_efficiency_grid():
    # Simulated relative efficiencies across the full (n, p) grid: the
    # shrinkage ordering must hold under the true restriction, the
    # restricted estimator must collapse under a strongly false one, and
    # the (n=50, p=3) / (n=100, p=6) corners must land in their envelopes.
    start = time.perf_counter()
    sre0 = {}
    sre1 = {}
    chain_ok = True
    collapse_ok = True
    details = []
    for n in (50, 100, 200):
        for p in (3, 6, 12):
            cfg = SimConfig(
                n=n, p=p, tau_grid=(0.0, 1.0), replications=1000, alpha=0.05, seed=0
            )
            point0, point1 = run_simulation(cfg).grid
            sre0[(n, p)] = point0.sre
            sre1[(n, p)] = point1.sre
            s = point0.sre
            if (n, p) == (200, 12):
                # PTE and PJSE tie here to Monte Carlo precision: at 10,000
                # replications SRE(PTE) - SRE(PJSE) ran from -0.32 to +0.44
                # over seeds 0-11 (mean +0.08, 5 of 12 negative), with
                # SRE(PTE) 8.9-10.1 (delta-method SE about 0.45) and
                # SRE(PJSE) 9.3-9.8, so the pair is not ordered.
                ordered = (
                    s["RE"] > s["PTE"] > s["JSE"] and s["RE"] > s["PJSE"] > s["JSE"] > 1.0
                )
            else:
                ordered = s["RE"] > s["PTE"] > s["PJSE"] > s["JSE"] > 1.0
            if not ordered:
                chain_ok = False
                details.append(f"ordering violated at (n={n}, p={p}): {s}")
            if not point1.sre["RE"] < 1.0:
                collapse_ok = False
                details.append(f"no collapse at (n={n}, p={p}): SRE(RE)={point1.sre['RE']:.3f}")

    re_anchor = sre0[(50, 3)]["RE"]
    jse_anchor = sre0[(50, 3)]["JSE"]
    pjse_anchor = sre0[(50, 3)]["PJSE"]
    collapse_anchor = sre1[(100, 6)]["RE"]

    # The pretest envelope [1.6, 2.7] for this corner corresponds to a
    # pretest level of 0.20; at the default 0.05 level the pretest accepts
    # the true restriction more often and its ratio is considerably larger
    # (reported below as a diagnostic).
    cfg_pte = SimConfig(n=50, p=3, tau_grid=(0.0,), replications=1000, alpha=0.20, seed=0)
    pte_anchor = run_simulation(cfg_pte).grid[0].sre["PTE"]
    pte_diag = sre0[(50, 3)]["PTE"]

    elapsed = time.perf_counter() - start
    anchors_ok = (
        8.0 <= re_anchor <= 18.0
        and 1.6 <= pte_anchor <= 2.7
        and pjse_anchor > jse_anchor > 1.0
        and collapse_anchor < 0.1
    )
    ok = chain_ok and collapse_ok and anchors_ok and elapsed < 1800.0
    _record(
        3,
        "efficiency grid",
        ok,
        f"(50,3) SRE: RE={re_anchor:.2f} in [8,18], PTE@0.20={pte_anchor:.2f} in [1.6,2.7] "
        f"(PTE@0.05={pte_diag:.2f}), PJSE={pjse_anchor:.2f} > JSE={jse_anchor:.2f} > 1; "
        f"(100,6) RE collapse {collapse_anchor:.4f} < 0.1; ordering at 9/9 points, "
        f"{elapsed:.0f}s" + ("; " + "; ".join(details) if details else ""),
    )


@pytest.mark.slow
def test_criterion_4_theory_oracle():
    # Closed-form bias and AMSE against a brute-force sample from the
    # limiting normal experiment, three standard errors per component.
    start = time.perf_counter()
    k, r = 7, 5
    H = np.zeros((r, k))
    H[:, :r] = np.eye(r)
    worst = 0.0
    worst_tag = ""
    for delta in (0.0, 0.5, 2.0, 8.0):
        direction = np.arange(1.0, r + 1.0)
        gamma = (
            direction * np.sqrt(delta / float(direction @ direction))
            if delta > 0.0
            else np.zeros(r)
        )
        la = LocalAlternative(gamma, np.eye(k), LinearRestriction(H, np.zeros(r)))
        mc = normal_theory_moments(la, 0.05, n_draws=1_000_000, seed=8311 + int(delta * 10))
        for est in ("RE", "JSE", "PJSE", "PTE"):
            bias_mc, bias_se, _, _, trace_mc, trace_se = mc[est]
            z_bias = max_z_score(asymptotic_bias(est, la, alpha=0.05), bias_mc, bias_se)
            trace_th = float(np.trace(asymptotic_amse(est, la, alpha=0.05)))
            z_trace = abs(trace_th - trace_mc) / (trace_se + 1e-9)
            for tag, z in ((f"{est} bias", z_bias), (f"{est} trace", z_trace)):
                if z > worst:
                    worst = z
                    worst_tag = f"{tag} at delta={delta:g}"
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and elapsed < 300.0
    _record(
        4,
        "theory oracle",
        ok,
        f"max |z| = {worst:.2f} ({worst_tag}) over 4 noncentralities x 4 estimators, "
        f"1e6 draws each, {elapsed:.0f}s",
    )


def test_criterion_5_special_functions():
    start = time.perf_counter()

    # Lambert W: defining identity on a wide log grid.
    grid = np.logspace(-8.0, 12.0, 10_000)
    w = lambert_w0(grid)
    lambert_resid = float(np.max(np.abs(w * np.exp(w) - grid) / np.maximum(grid, 1.0)))

    # Bell numbers: exact integer triangle through n = 20.
    triangle = [[1]]
    bell_ints = [1]
    for _ in range(20):
        prev = triangle[-1]
        row = [prev[-1]]
        for v in prev:
            row.append(row[-1] + v)
        triangle.append(row)
        bell_ints.append(row[0])
    bell_err = max(
        abs(log_bell(n) - float(np.log(float(b)))) / max(float(np.log(float(b))), 1.0)
        for n, b in enumerate(bell_ints)
    )

    # Noncentral chi-square CDF and inverse moments against quadrature.
    n_points = 0
    cdf_err = 0.0
    for dof in (3, 5, 7, 9):
        for nc in (0.0, 0.5, 2.0, 8.0):
            dist = NoncentralChiSq(dof, nc)
            for x in (0.5, 2.0, 5.0, 10.0, 20.0):
                oracle = stats.ncx2.cdf(x, dof, nc) if nc > 0 else stats.chi2.cdf(x, dof)
                cdf_err = max(cdf_err, abs(noncentral_chisq_cdf(x, dist) - oracle))
                n_points += 1
    mom_err = 0.0
    for dof in (5, 7, 9, 12):
        for nc in (0.0, 0.5, 2.0, 8.0):
            dist = NoncentralChiSq(dof, nc)
            for order in (1, 2):
                diff = abs(inv_moment(dist, order) - quad_inv_moment(dof, nc, order))
                mom_err = max(mom_err, diff)
                n_points += 1
    trunc_err = 0.0
    for order, dofs in ((1, (3, 5, 9)), (2, (5, 9, 12))):
        for dof in dofs:
            for nc in (0.5, 2.0, 8.0):
                dist = NoncentralChiSq(dof, nc)
                for cutoff in (1.0, 3.84, 7.7, 11.1):
                    diff = abs(
                        truncated_inv_moment(dist, cutoff, order)
                        - quad_inv_moment(dof, nc, order, cutoff)
                    )
                    trunc_err = max(trunc_err, diff)
                    n_points += 1

    elapsed = time.perf_counter() - start
    ok = (
        lambert_resid <= 1e-12
        and bell_err <= 1e-12
        and cdf_err <= 1e-8
        and mom_err <= 1e-8
        and trunc_err <= 1e-8
        and n_points >= 100
        and elapsed < 60.0
    )
    _record(
        5,
        "special functions",
        ok,
        f"Lambert resid {lambert_resid:.1e}, Bell rel err {bell_err:.1e}, "
        f"CDF err {cdf_err:.1e}, inverse-moment err {mom_err:.1e}, "
        f"truncated err {trunc_err:.1e} over {n_points} grid points, {elapsed:.0f}s",
    )


def test_criterion_6_distributional_fit():
    start = time.perf_counter()

    pvals = {}
    for theta in (0.2, 0.7, 1.5):
        rng = np.random.default_rng(730001 + int(theta * 10))
        draws = sample_counts(np.full(100_000, theta), rng)
        top = int(draws.max()) + 1
        counts = np.bincount(draws, minlength=top)
        probs = pmf(np.arange(top), BellParam.from_theta(theta))
        _, pval, _ = pooled_gof(counts, probs, 100_000)
        pvals[theta] = pval

    rng = np.random.default_rng(99173)
    beta = np.array([0.5, 0.3, -0.2, 0.4])
    hits = 0
    for _ in range(200):
        model = fit(generate_dataset(5000, 3, beta, rng))
        se = np.sqrt(np.diag(spd_inverse(model.fisher_info)))
        if model.converged and np.all(np.abs(model.beta - beta) <= 4.0 * se):
            hits += 1

    elapsed = time.perf_counter() - start
    ok = all(p > 0.01 for p in pvals.values()) and hits >= 190 and elapsed < 600.0
    _record(
        6,
        "distributional fit",
        ok,
        "GOF p-values "
        + ", ".join(f"{t}: {p:.3f}" for t, p in pvals.items())
        + f"; coefficient recovery {hits}/200 within 4 SEs, {elapsed:.0f}s",
    )


def test_criterion_7_application_pipeline():
    # Synthetic four-covariate data with the first and third slopes zero:
    # restricting them to zero must beat the unrestricted fit, and every
    # bootstrap refit must satisfy the restriction (bootstrap_bre raises
    # on any violation; the manual loop below observes it directly).
    start = time.perf_counter()
    rng = np.random.default_rng(41100)
    beta = np.array([0.4, 0.0, 0.5, 0.0, 0.3])
    data = generate_dataset(150, 4, beta, rng)
    H = np.zeros((2, 5))
    H[0, 1] = 1.0
    H[1, 3] = 1.0
    rest = LinearRestriction(H, np.zeros(2))
    report = bootstrap_bre(
        data,
        BootstrapConfig(restriction=rest, resample_size=150, replications=1000, seed=77001),
    )
    bre = {row.name: row.bre for row in report.rows}

    manual_gap = 0.0
    sub_rng = np.random.default_rng(52002)
    for _ in range(100):
        idx = sub_rng.choice(data.n_obs, size=data.n_obs, replace=True)
        model = fit(Dataset(data.X[idx], data.y[idx]))
        re = compute_all(model, rest).re
        manual_gap = max(manual_gap, float(np.max(np.abs(H @ re))))

    mine_note = "no local mine-fracture file, conditional check skipped"
    mine_path = Path(__file__).resolve().parent.parent / "data" / "mine_fractures.csv"
    if mine_path.exists():
        mine_data, summary = load_dataset(
            mine_path, "y", [f"x{i}" for i in range(1, 5)]
        )
        sel = np.zeros((2, 5))
        sel[0, 1] = 1.0
        sel[1, 3] = 1.0
        mine_report = bootstrap_bre(
            mine_data,
            BootstrapConfig(
                restriction=LinearRestriction(sel, np.zeros(2)),
                resample_size=min(40, mine_data.n_obs),
                replications=10,
                seed=77001,
            ),
        )
        mine_note = (
            f"mine data: overdispersion {summary.overdispersion:.3f} (> 1 expected), "
            f"AIC restricted {mine_report.aic_restricted:.3f} vs "
            f"full {mine_report.aic_full:.3f} (restricted preferred expected)"
        )

    elapsed = time.perf_counter() - start
    ok = (
        bre["RE"] > 1.0
        and report.n_retry <= 50
        and manual_gap <= 1e-8
        and elapsed < 300.0
    )
    _record(
        7,
        "application pipeline",
        ok,
        f"BRE(RE) = {bre['RE']:.3f} > 1 over {report.replications} replications "
        f"({report.n_retry} retries), manual refit constraint gap {manual_gap:.1e}; "
        f"{mine_note}; {elapsed:.0f}s",
    )


def _run_cli(*args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "bellshrink.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, f"cli {args} failed: {proc.stderr}"
    return proc


@pytest.mark.slow
def test_criterion_8_cli_determinism(tmp_path):
    # Every subcommand, run twice with the same seed, must write
    # byte-identical files; simulate must also match across thread counts.
    start = time.perf_counter()
    rng = np.random.default_rng(41522)
    data = generate_dataset(120, 4, np.array([0.4, 0.0, 0.3, 0.0, 0.2]), rng)
    lines = ["y,x1,x2,x3,x4"]
    for yi, row in zip(data.y, data.X):
        lines.append(f"{yi}," + ",".join(format(v, '.10g') for v in row[1:]))
    data_csv = tmp_path / "counts.csv"
    data_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rest_file = tmp_path / "restriction.txt"
    rest_file.write_text("0 1 0 0 0 | 0\n0 0 0 1 0 | 0\n", encoding="utf-8")
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(
        "n = 50\np = 3\ntau = 0.0, 1.0\nreplications = 60\nalpha = 0.05\nseed = 7\n",
        encoding="utf-8",
    )

    base = ["--data", str(data_csv), "--response", "y", "--covariates", "x1,x2,x3,x4"]
    commands = {
        "fit": ["fit", *base],
        "estimate": ["estimate", *base, "--restriction", str(rest_file)],
        "theory": ["theory", "--restriction", str(rest_file), "--delta-grid", "0,0.5,2,8"],
        "simulate": ["simulate", "--config", str(sim_cfg), "--threads", "1"],
        "bootstrap": [
            "bootstrap", *base, "--restriction", str(rest_file),
            "--resample-size", "120", "--replications", "150", "--seed", "5",
        ],
    }
    mismatches = []
    for name, argv in commands.items():
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}.csv"
            _run_cli(*argv, "--out", str(out), cwd=tmp_path)
            blob = out.read_bytes()
            if name == "simulate":
                blob += (tmp_path / f"{name}_{run}_curves.csv").read_bytes()
            outputs.append(blob)
        if outputs[0] != outputs[1]:
            mismatches.append(name)

    out_mt = tmp_path / "simulate_mt.csv"
    _run_cli(
        "simulate", "--config", str(sim_cfg), "--threads", "2", "--out", str(out_mt),
        cwd=tmp_path,
    )
    single = (tmp_path / "simulate_a.csv").read_bytes() + (
        tmp_path / "simulate_a_curves.csv"
    ).read_bytes()
    multi = out_mt.read_bytes() + (tmp_path / "simulate_mt_curves.csv").read_bytes()
    if single != multi:
        mismatches.append("simulate threads=2")

    elapsed = time.perf_counter() - start
    ok = not mismatches
    _record(
        8,
        "CLI determinism",
        ok,
        (
            f"5 subcommands byte-identical on rerun, simulate identical across "
            f"1 and 2 workers, {elapsed:.0f}s"
            if ok
            else f"byte mismatch in: {', '.join(mismatches)}"
        ),
    )
