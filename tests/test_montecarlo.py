"""Simulation-engine checks: restriction grids, substreams, aggregation, CSVs."""
import dataclasses
import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import bellshrink.montecarlo as mc
from bellshrink import cli
from bellshrink.bell_glm import Dataset, FittedModel, fit, fit_many
from bellshrink.montecarlo import (
    ConvergenceError,
    SimConfig,
    build_restriction,
    generate_dataset,
    run_simulation,
)
from bellshrink.shrinkage import estimate_many

SEED = 987123


def small_config(**overrides):
    base = dict(n=50, p=3, tau_grid=(0.0,), replications=80, alpha=0.05, seed=SEED)
    base.update(overrides)
    return SimConfig(**base)


# ------------------------------------------------------------- restrictions


def test_build_restriction_p3_matrix():
    rest = build_restriction(3, 0.7)
    np.testing.assert_allclose(
        rest.H, [[1, 0, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
    )
    np.testing.assert_allclose(rest.h, [0.7, 0.0, 0.0])


def test_build_restriction_true_at_tau_zero():
    for p in [3, 6, 12]:
        rest = build_restriction(p, 0.0)
        beta = np.concatenate([[0.0], np.ones(p)])
        np.testing.assert_allclose(rest.H @ beta, rest.h, atol=0)
        assert np.linalg.matrix_rank(rest.H) == p


def test_build_restriction_rejects_small_p():
    with pytest.raises(ValueError):
        build_restriction(2, 0.0)


# ------------------------------------------------------------- data generation


def test_generate_dataset_shape_and_column_means():
    rng = np.random.default_rng(SEED)
    n, p = 2000, 4
    beta = np.concatenate([[0.0], np.ones(p)])
    data = generate_dataset(n, p, beta, rng)
    assert data.X.shape == (n, p + 1)
    assert np.all(data.X[:, 0] == 1.0)
    assert np.all(np.abs(data.X[:, 1:].mean(axis=0)) < 4.0 / np.sqrt(n))
    assert data.y.dtype.kind in "iu"


def test_generate_dataset_mean_calibration():
    # law of large numbers: the sample mean of y tracks the average of mu_i
    rng = np.random.default_rng(SEED + 1)
    beta = np.array([0.2, 0.4, -0.3])
    data = generate_dataset(100_000, 2, beta, rng)
    mu = np.exp(data.X @ beta)
    assert abs(data.y.mean() - mu.mean()) / mu.mean() < 0.02


def test_generate_dataset_deterministic():
    beta = np.array([0.0, 1.0, 1.0, 1.0])
    a = generate_dataset(100, 3, beta, np.random.default_rng(42))
    b = generate_dataset(100, 3, beta, np.random.default_rng(42))
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)


def test_stacked_draw_equals_per_replication_draw_bitwise():
    # one Lambert W call per stack and rows written in place give the bits
    # of generate_dataset on each replication's own substream; n * k is
    # odd, so rows of the stack start at 8-byte but not 16-byte boundaries
    cfg = small_config(n=51, p=4)
    draw = mc._SimDraw(cfg.seed, cfg.n, cfg.p, cfg.true_beta)
    reps = [4, 0, 17, 3, 9]
    for attempt in (0, 2):
        X, y = draw.stack(reps, attempt)
        assert X.shape == (len(reps), cfg.n, cfg.p + 1) and y.shape == (len(reps), cfg.n)
        for i, rep in enumerate(reps):
            rng = mc._substream(cfg.seed, cfg.n, cfg.p, rep, attempt)
            one = generate_dataset(cfg.n, cfg.p, cfg.true_beta, rng)
            np.testing.assert_array_equal(X[i], one.X)
            np.testing.assert_array_equal(y[i], one.y)
            assert y[i].dtype == one.y.dtype


def test_ratio_se_is_exactly_zero_for_equal_losses():
    # PTE equals UN on every replication where the pretest always rejects;
    # the ratio is then 1 on every draw and has no Monte Carlo error
    cfg = small_config()
    truth = cfg.true_beta
    for seed in range(200):
        est = truth + np.random.default_rng(seed).normal(0.0, 0.3, (1000, 5, truth.size))
        est[:, 4] = est[:, 0]
        point = mc._grid_point(cfg, 0.0, est, 0)
        assert point.sre_se["UN"] == 0.0 and point.sre_se["PTE"] == 0.0
        assert point.sre["PTE"] == 1.0
        assert all(point.sre_se[name] > 0.0 for name in ("RE", "JSE", "PJSE"))


# ------------------------------------------------------------ simulation core


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(p=2)
    with pytest.raises(ValueError):
        small_config(n=4)
    with pytest.raises(ValueError):
        small_config(replications=0)
    with pytest.raises(ValueError):
        small_config(alpha=1.5)
    with pytest.raises(ValueError):
        small_config(tau_grid=())


def test_config_rejects_negative_tau():
    with pytest.raises(ValueError, match=r"-0\.5"):
        SimConfig(n=50, p=3, tau_grid=(0.2, -0.5), replications=2)


def test_config_rejects_repeated_tau():
    with pytest.raises(ValueError, match=r"repeats \[0\.5\]"):
        SimConfig(n=50, p=3, tau_grid=(0.0, 0.5, 0.2, 0.5), replications=2)


def test_config_accepts_taus_closer_than_a_millionth():
    # tau keys no stream, so taus that differ below 1e-6 are two rows on
    # the same datasets: one unrestricted SMSE, two restricted ones.
    taus = (0.0, 0.1234561, 0.1234564)
    grid = run_simulation(small_config(tau_grid=taus, replications=20)).grid
    assert tuple(point.tau for point in grid) == taus
    assert grid[1].smse["UN"] == grid[2].smse["UN"]
    assert grid[1].smse["RE"] != grid[2].smse["RE"]


def test_valid_tau_keeps_its_stream():
    # Every tau of a design reads the substream keyed (n, p, 0, rep,
    # attempt), the key tau = 0 had, so tau = 0 draws (and CSVs) keep
    # their bytes.
    key = (50, 3, 0, 4, 1)
    want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9, spawn_key=key)))
    got = mc._substream(9, 50, 3, 4, 1)
    np.testing.assert_array_equal(got.random(5), want.random(5))


def test_each_tau_row_equals_its_single_tau_run():
    taus = (0.0, 0.5, 1.0)
    joint = run_simulation(small_config(tau_grid=taus, replications=60)).grid
    for tau, point in zip(taus, joint):
        (alone,) = run_simulation(small_config(tau_grid=(tau,), replications=60)).grid
        assert point.tau == alone.tau
        assert point.smse == alone.smse
        assert point.sre == alone.sre
        assert point.sre_se == alone.sre_se
        assert point.n_retry == alone.n_retry


def failing_some(fit_many):
    """fit_many with a member marked unconverged when the first covariate
    of its row 0 exceeds 2.2.  Each substream draws X before the counts, so
    the rule picks the same replication attempts whatever the Bell sampler,
    and a member fails whatever shares its stack."""

    def fit_many_failing_some(X, y):
        fits = fit_many(X, y)
        return dataclasses.replace(fits, converged=fits.converged & (X[:, 0, 1] <= 2.2))

    return fit_many_failing_some


@pytest.mark.parametrize("taus", [(0.0,), (0.0, 0.5, 1.0)])
def test_one_fit_per_replication_attempt_whatever_the_tau_grid(monkeypatch, taus):
    real_fit_many = failing_some(mc.fit_many)
    members = []

    def counting_fit_many(X, y):
        members.append(X.shape[0])
        return real_fit_many(X, y)

    monkeypatch.setattr(mc, "fit_many", counting_fit_many)
    cfg = small_config(n=20, p=6, tau_grid=taus, replications=60, seed=4)
    grid = run_simulation(cfg).grid
    assert grid[0].n_retry > 0
    assert {point.n_retry for point in grid} == {grid[0].n_retry}
    assert sum(members) == cfg.replications + grid[0].n_retry


@pytest.mark.parametrize("taus", [(0.0,), (0.0, 0.5, 1.0)])
def test_one_estimator_call_per_fitted_stack_whatever_the_tau_grid(monkeypatch, taus):
    real_fit_many, real_estimate_many = failing_some(mc.fit_many), mc.estimate_many
    calls = []

    def counting_fit_many(X, y):
        calls.append("fit")
        return real_fit_many(X, y)

    def counting_estimate_many(beta, fisher, rest, alpha):
        calls.append("estimate")
        return real_estimate_many(beta, fisher, rest, alpha)

    monkeypatch.setattr(mc, "fit_many", counting_fit_many)
    monkeypatch.setattr(mc, "estimate_many", counting_estimate_many)
    cfg = small_config(n=20, p=6, tau_grid=taus, replications=60, seed=4)
    monkeypatch.setattr(mc, "_STACK_ELEMENTS", 7 * cfg.n * (cfg.p + 1))
    grid = run_simulation(cfg).grid
    assert grid[0].n_retry > 0
    # nine stacks of at most 7 on the first attempt, then the retries
    assert calls.count("fit") > 9
    assert calls == ["fit", "estimate"] * calls.count("fit")


def test_run_simulation_basic_structure():
    result = run_simulation(small_config())
    assert len(result.grid) == 1
    point = result.grid[0]
    assert point.sre["UN"] == 1.0
    for est in ["UN", "RE", "JSE", "PJSE", "PTE"]:
        assert np.isfinite(point.smse[est])
        assert point.smse[est] > 0.0
    for est in ["RE", "JSE", "PJSE", "PTE"]:
        ratio = point.smse["UN"] / point.smse[est]
        assert abs(point.sre[est] - ratio) < 1e-12
        assert point.sre_se[est] >= 0.0
    assert point.n_retry >= 0


def test_run_simulation_deterministic_rerun():
    a = run_simulation(small_config())
    b = run_simulation(small_config())
    for pa, pb in zip(a.grid, b.grid):
        assert pa.smse == pb.smse
        assert pa.sre == pb.sre
        assert pa.n_retry == pb.n_retry


def test_threaded_run_matches_serial_bitwise():
    cfg = small_config(replications=60)
    serial = run_simulation(cfg, threads=1)
    threaded = run_simulation(cfg, threads=2)
    for pa, pb in zip(serial.grid, threaded.grid):
        assert pa.smse == pb.smse
        assert pa.sre == pb.sre
        assert pa.n_retry == pb.n_retry


def test_replication_count_insensitivity():
    # doubling the replication budget moves each ratio by < 3 pooled SEs
    base = run_simulation(small_config(replications=150)).grid[0]
    doubled = run_simulation(small_config(replications=300)).grid[0]
    for est in ["RE", "JSE", "PJSE", "PTE"]:
        pooled = np.hypot(base.sre_se[est], doubled.sre_se[est])
        assert abs(base.sre[est] - doubled.sre[est]) < 3.0 * pooled


def test_restricted_estimator_degrades_as_restriction_fails():
    cfg = small_config(tau_grid=(0.0, 0.5, 1.0), replications=250)
    grid = run_simulation(cfg).grid
    sre_re = [point.sre["RE"] for point in grid]
    assert sre_re[0] > sre_re[1] > sre_re[2]


def test_positive_part_dominates_plain_shrinkage_at_tau_zero():
    point = run_simulation(small_config(replications=250)).grid[0]
    slack = 3.0 * np.hypot(point.sre_se["PJSE"], point.sre_se["JSE"])
    assert point.sre["PJSE"] >= point.sre["JSE"] - slack


def test_nonconvergence_budget_enforced(monkeypatch):
    def never_converges(X, y, **kwargs):
        R, _, k = X.shape
        return FittedModel(
            beta=np.zeros((R, k)),
            fisher_info=np.broadcast_to(np.eye(k), (R, k, k)),
            converged=np.zeros(R, dtype=bool),
            n_iter=np.full(R, 100),
            n_clamped=np.zeros(R, dtype=int),
        )

    monkeypatch.setattr(mc, "fit_many", never_converges)
    with pytest.raises(ConvergenceError):
        run_simulation(small_config(replications=20))


@dataclasses.dataclass(frozen=True)
class _SingularOnFirstAttempt(mc._SimDraw):
    """Draws as _SimDraw, except that replication 2's first attempt repeats
    a covariate column, so its design is rank deficient."""

    def stack(self, reps, attempt):
        X, y = super().stack(reps, attempt)
        if attempt == 0 and 2 in reps:
            i = list(reps).index(2)
            X[i, :, 3] = X[i, :, 2]
        return X, y


def test_singular_member_is_a_nan_row_and_its_replication_is_redrawn():
    draw = _SingularOnFirstAttempt(SEED, 40, 3, np.array([0.0, 1.0, 1.0, 1.0]))
    reps = list(range(5))
    X, y = draw.stack(reps, 0)
    fits = fit_many(X, y)
    assert np.isnan(fits.beta[2]).all() and not fits.converged[2]
    others = [0, 1, 3, 4]
    assert fits.converged[others].all()
    for i in others:
        np.testing.assert_array_equal(fits.beta[i], fit(Dataset(X[i], y[i])).beta)
    rest = build_restriction(3, 0.0)
    est, retries = mc._replicate((draw, reps, rest, 0.05, 5))
    assert retries == 1
    assert np.isfinite(est).all()
    first, _, _ = estimate_many(fits.beta[others], fits.fisher_info[others], rest)
    np.testing.assert_array_equal(est[others], first)
    redrawn = fit_many(*draw.stack([2], 1))
    second, _, _ = estimate_many(redrawn.beta, redrawn.fisher_info, rest)
    np.testing.assert_array_equal(est[[2]], second)


# -------------------------------------------------------------------- output


def simulate_csvs(tmp_path, tag, threads=1, **keys):
    """The table and curves files of `bellshrink simulate`, run in this
    process on a config of `keys`: (table bytes, curves bytes)."""
    cfg = tmp_path / f"{tag}.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    out = tmp_path / f"{tag}.csv"
    argv = ["simulate", "--config", str(cfg), "--threads", str(threads), "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_bytes(), (tmp_path / f"{tag}_curves.csv").read_bytes()


SMALL_KEYS = dict(n=50, p=3, alpha=0.05, seed=SEED)


def test_table_csv_layout(tmp_path):
    table, _ = simulate_csvs(tmp_path, "t", tau="0, 1", replications=40, **SMALL_KEYS)
    lines = table.decode().splitlines()
    assert lines[0] == "n,p,tau,estimator,smse,sre,sre_se,n_retry"
    assert len(lines) == 1 + 2 * 4  # two grid points, four ratio estimators
    first = lines[1].split(",")
    assert first[0] == "50" and first[1] == "3"
    assert first[3] == "RE"


def test_curves_csv_layout(tmp_path):
    _, curves = simulate_csvs(tmp_path, "c", tau="0, 0.5, 1", replications=40, **SMALL_KEYS)
    lines = curves.decode().splitlines()
    assert lines[0] == "n,p,tau,estimator,sre"
    assert len(lines) == 1 + 3 * 4


def test_csv_bytes_stable_across_runs(tmp_path):
    first = simulate_csvs(tmp_path, "a", tau=0, replications=30, **SMALL_KEYS)
    assert simulate_csvs(tmp_path, "b", tau=0, replications=30, **SMALL_KEYS) == first


def test_csv_bytes_independent_of_stack_size_and_threads(monkeypatch, tmp_path):
    # Some members fail, so the retry path runs under every stacking.  The
    # pool is pinned to fork, whatever the platform's default start method,
    # so its workers inherit the patched fit.
    monkeypatch.setattr(mc, "fit_many", failing_some(mc.fit_many))
    fork_pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    monkeypatch.setattr(mc, "ProcessPoolExecutor", fork_pool)
    keys = dict(n=20, p=6, tau="0, 1", replications=60, seed=3)
    entries = keys["n"] * (keys["p"] + 1)
    outputs = {}
    for cap in (1, 7, keys["replications"]):
        with monkeypatch.context() as patch:
            patch.setattr(mc, "_STACK_ELEMENTS", cap * entries)
            outputs[f"cap {cap}"] = simulate_csvs(tmp_path, f"cap{cap}", **keys)
    table = outputs[f"cap {cap}"][0].decode().splitlines()
    assert sum(int(line.rsplit(",", 1)[1]) for line in table[1:]) > 0
    for threads in (1, 2):
        outputs[f"threads {threads}"] = simulate_csvs(tmp_path, f"t{threads}", threads, **keys)
    assert len(set(outputs.values())) == 1, sorted(outputs)
