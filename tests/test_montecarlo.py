"""Simulation-engine checks: restriction grids, substreams, aggregation, CSVs."""
import numpy as np
import pytest

import bellshrink.montecarlo as mc
from bellshrink.bell_glm import FittedModel
from bellshrink.montecarlo import (
    ConvergenceError,
    SimConfig,
    build_restriction,
    generate_dataset,
    run_simulation,
    write_curves_csv,
    write_table_csv,
)

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


@pytest.mark.parametrize("fixed_design", [False, True])
def test_stacked_draw_equals_per_replication_draw_bitwise(fixed_design):
    # one Lambert W call per stack and rows written in place give the bits
    # of each replication's own draw; n * k is odd, so rows of the stack
    # start at 8-byte but not 16-byte boundaries
    cfg = small_config(n=51, p=4, fixed_design=fixed_design)
    fixed_X = None
    if fixed_design:
        rng = np.random.default_rng(SEED)
        fixed_X = np.column_stack([np.ones(cfg.n), rng.standard_normal((cfg.n, cfg.p))])
    draw = mc._SimDraw(cfg.seed, cfg.n, cfg.p, 0.5, cfg.true_beta, fixed_X)
    reps = [4, 0, 17, 3, 9]
    for attempt in (0, 2):
        X, y = draw.stack(reps, attempt)
        assert X.shape == (len(reps), cfg.n, cfg.p + 1) and y.shape == (len(reps), cfg.n)
        for i, rep in enumerate(reps):
            one = draw(rep, attempt)
            np.testing.assert_array_equal(X[i], one.X)
            np.testing.assert_array_equal(y[i], one.y)
            assert y[i].dtype == one.y.dtype


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


@pytest.mark.parametrize("taus", [(0.1234561, 0.1234564), (0.5, 0.5)])
def test_config_rejects_taus_sharing_a_stream(taus):
    # Substreams key tau as round(tau * 1e6); two such taus would draw
    # identical data.
    assert mc._tau_key(taus[0]) == mc._tau_key(taus[1])
    with pytest.raises(ValueError, match=f"{taus[0]!r} and {taus[1]!r}"):
        SimConfig(n=50, p=3, tau_grid=(0.0, *taus), replications=2)


def test_valid_tau_keeps_its_stream():
    # The key of an accepted tau is unchanged, so its draws (and CSVs) are.
    key = (50, 3, 123456, 4, 1)
    want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9, spawn_key=key)))
    got = mc._substream(9, 50, 3, 0.123456, 4, 1)
    np.testing.assert_array_equal(got.random(5), want.random(5))


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


def test_fixed_design_mode_reuses_covariates():
    cfg = small_config(fixed_design=True, replications=40)
    result = run_simulation(cfg)
    assert result.grid[0].smse["UN"] > 0.0


def test_nonconvergence_budget_enforced(monkeypatch):
    def never_converges(X, y, **kwargs):
        k = X.shape[2]
        return [
            FittedModel(
                beta=np.zeros(k),
                fisher_info=np.eye(k),
                loglik=0.0,
                converged=False,
                n_iter=100,
                n_clamped=0,
            )
            for _ in range(X.shape[0])
        ]

    monkeypatch.setattr(mc, "fit_many", never_converges)
    with pytest.raises(ConvergenceError):
        run_simulation(small_config(replications=20))


# -------------------------------------------------------------------- output


def test_table_csv_layout(tmp_path):
    result = run_simulation(small_config(tau_grid=(0.0, 1.0), replications=40))
    path = tmp_path / "table.csv"
    write_table_csv(result.grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,p,tau,estimator,smse,sre,sre_se,n_retry"
    assert len(lines) == 1 + 2 * 4  # two grid points, four ratio estimators
    first = lines[1].split(",")
    assert first[0] == "50" and first[1] == "3"
    assert first[3] == "RE"


def test_curves_csv_layout(tmp_path):
    result = run_simulation(small_config(tau_grid=(0.0, 0.5, 1.0), replications=40))
    path = tmp_path / "curves.csv"
    write_curves_csv(result.grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,p,tau,estimator,sre"
    assert len(lines) == 1 + 3 * 4


def test_csv_bytes_stable_across_runs(tmp_path):
    cfg = small_config(replications=30)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table_csv(run_simulation(cfg).grid, p1)
    write_table_csv(run_simulation(cfg).grid, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _csv_bytes(grid, tmp_path, tag):
    table, curves = tmp_path / f"{tag}.csv", tmp_path / f"{tag}_curves.csv"
    write_table_csv(grid, table)
    write_curves_csv(grid, curves)
    return table.read_bytes() + curves.read_bytes()


def test_csv_bytes_independent_of_stack_size_and_threads(monkeypatch, tmp_path):
    # At n = 20, p = 6 a few replications fail and are redrawn, so the
    # retry path runs under every stacking too.
    cfg = small_config(n=20, p=6, tau_grid=(0.0, 1.0), replications=60, seed=3)
    entries = cfg.n * (cfg.p + 1)
    outputs = {}
    for cap in (1, 7, cfg.replications):
        monkeypatch.setattr(mc, "_STACK_ELEMENTS", cap * entries)
        result = run_simulation(cfg)
        outputs[f"cap {cap}"] = _csv_bytes(result.grid, tmp_path, f"cap{cap}")
    assert sum(point.n_retry for point in result.grid) > 0
    monkeypatch.undo()
    for threads in (1, 2):
        result = run_simulation(cfg, threads=threads)
        outputs[f"threads {threads}"] = _csv_bytes(result.grid, tmp_path, f"t{threads}")
    assert len(set(outputs.values())) == 1, sorted(outputs)
