"""Data-pipeline checks: CSV ingestion, bootstrap efficiency, model comparison."""
import numpy as np
import pytest

import bellshrink.montecarlo as mc
from bellshrink.application import (
    BootstrapConfig,
    DataFormatError,
    bootstrap_bre,
    load_dataset,
    model_comparison,
    write_bre_csv,
)
from bellshrink.shrinkage import LinearRestriction
from conftest import simulate_dataset

SEED = 550124


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def selection_restriction(k, coords):
    H = np.zeros((len(coords), k))
    for row, coord in enumerate(coords):
        H[row, coord] = 1.0
    return LinearRestriction(H=H, h=np.zeros(len(coords)))


def synthetic_restricted_data(n, beta, seed):
    """Counts whose true coefficient vector satisfies the zero restrictions."""
    return simulate_dataset(n, beta, seed, scale=0.8)


# -------------------------------------------------------------------- loading


def test_load_dataset_roundtrip(tmp_path):
    path = write_csv(
        tmp_path,
        "y,x1,x2\n"
        "3,0.5,-1.0\n"
        "0,1.5,0.25\n"
        "7,-0.75,2.0\n"
        "2,0.0,1.0\n",
    )
    data, summary = load_dataset(path, "y", ["x1", "x2"])
    np.testing.assert_array_equal(data.y, [3, 0, 7, 2])
    np.testing.assert_allclose(data.X[:, 0], 1.0)
    np.testing.assert_allclose(data.X[1], [1.0, 1.5, 0.25])
    assert summary.n_rows == 4
    assert summary.response_mean == pytest.approx(3.0)
    assert summary.overdispersion == pytest.approx(
        np.var([3, 0, 7, 2], ddof=1) / 3.0
    )


def test_load_dataset_accepts_integral_floats(tmp_path):
    path = write_csv(tmp_path, "y,x\n3.0,1.0\n2,0.5\n1,2.0\n0,1.5\n")
    data, _ = load_dataset(path, "y", ["x"])
    np.testing.assert_array_equal(data.y, [3, 2, 1, 0])


def test_load_dataset_negative_count_names_row(tmp_path):
    path = write_csv(tmp_path, "y,x\n3,1.0\n-2,0.5\n1,2.0\n")
    with pytest.raises(DataFormatError, match=":3:"):
        load_dataset(path, "y", ["x"])


def test_load_dataset_fractional_count_rejected(tmp_path):
    path = write_csv(tmp_path, "y,x\n3,1.0\n2.5,0.5\n")
    with pytest.raises(DataFormatError, match=":3:"):
        load_dataset(path, "y", ["x"])


def test_load_dataset_missing_column(tmp_path):
    path = write_csv(tmp_path, "y,x\n3,1.0\n")
    with pytest.raises(DataFormatError, match="x9"):
        load_dataset(path, "y", ["x9"])


def test_load_dataset_non_numeric_covariate(tmp_path):
    path = write_csv(tmp_path, "y,x\n3,1.0\n2,oops\n")
    with pytest.raises(DataFormatError, match=":3:"):
        load_dataset(path, "y", ["x"])


def test_load_dataset_empty_file(tmp_path):
    path = write_csv(tmp_path, "")
    with pytest.raises(DataFormatError):
        load_dataset(path, "y", ["x"])


# ------------------------------------------------------------------ bootstrap


def test_bootstrap_bre_with_true_zero_restrictions():
    # two truly-zero coefficients: the restricted fit should win on average
    beta = np.array([0.3, 0.0, 0.4, 0.0, 0.25])
    data = synthetic_restricted_data(150, beta, SEED)
    rest = selection_restriction(5, [1, 3])
    cfg = BootstrapConfig(
        restriction=rest, resample_size=150, replications=400, seed=SEED
    )
    report = bootstrap_bre(data, cfg)
    by_name = {row.name: row for row in report.rows}
    assert set(by_name) == {"UN", "RE", "PTE"}  # r = 2: no Stein estimators
    assert by_name["UN"].bre == 1.0
    assert by_name["RE"].bre > 1.0
    assert all(np.all(row.se >= 0.0) for row in report.rows)
    assert report.n_retry <= 40


def test_bootstrap_bre_includes_stein_rows_when_r_at_least_three():
    beta = np.array([0.3, 0.0, 0.4, 0.0, 0.0, 0.25])
    data = synthetic_restricted_data(200, beta, SEED + 1)
    rest = selection_restriction(6, [1, 3, 4])
    cfg = BootstrapConfig(
        restriction=rest, resample_size=200, replications=300, seed=SEED + 1
    )
    report = bootstrap_bre(data, cfg)
    names = [row.name for row in report.rows]
    assert names == ["UN", "RE", "JSE", "PJSE", "PTE"]
    by_name = {row.name: row for row in report.rows}
    assert by_name["RE"].bre > 1.0
    assert by_name["PJSE"].bre > 0.0 and by_name["JSE"].bre > 0.0


def test_bootstrap_bre_bit_reproducible():
    beta = np.array([0.3, 0.0, 0.4, 0.0, 0.25])
    data = synthetic_restricted_data(120, beta, SEED + 2)
    rest = selection_restriction(5, [1, 3])
    cfg = BootstrapConfig(
        restriction=rest, resample_size=120, replications=150, seed=SEED + 2
    )
    a = bootstrap_bre(data, cfg)
    b = bootstrap_bre(data, cfg)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.name == rb.name
        assert ra.bre == rb.bre
        np.testing.assert_array_equal(ra.se, rb.se)
    assert a.n_retry == b.n_retry


def test_bootstrap_csv_independent_of_stack_size(monkeypatch, tmp_path):
    # Resampling 15 of 150 low-count rows makes some refits fail, so
    # redrawn replications are stacked differently under each cap.
    data = synthetic_restricted_data(150, np.array([-0.5, 0.0, 0.4, 0.0, 0.3]), 5)
    cfg = BootstrapConfig(
        restriction=selection_restriction(5, [1, 3]),
        resample_size=15,
        replications=100,
        seed=4,
    )
    blobs = set()
    for cap in (1, 7, cfg.replications):
        monkeypatch.setattr(mc, "_STACK_ELEMENTS", cap * cfg.resample_size * 5)
        report = bootstrap_bre(data, cfg)
        path = tmp_path / f"bre{cap}.csv"
        write_bre_csv(report, path)
        blobs.add(path.read_bytes())
    assert report.n_retry > 0
    assert len(blobs) == 1


def test_bootstrap_degenerate_full_resample_without_replacement():
    beta = np.array([0.4, 0.0, 0.3])
    data = synthetic_restricted_data(90, beta, SEED + 3)
    rest = selection_restriction(3, [1])
    cfg = BootstrapConfig(
        restriction=rest,
        resample_size=90,
        replications=1,
        seed=SEED + 3,
        with_replacement=False,
        pseudo_truth=np.zeros(3),
    )
    report = bootstrap_bre(data, cfg)
    # every replication refits the full dataset, so answers coincide with
    # the full-sample estimators and the ratios are plain squared-norm ratios
    from bellshrink.bell_glm import fit
    from bellshrink.shrinkage import compute_all

    est = compute_all(fit(data), rest, cfg.alpha)
    by_name = {row.name: row for row in report.rows}
    np.testing.assert_allclose(by_name["UN"].coefficients, est.un, atol=0)
    expected_re_bre = (est.un @ est.un) / (est.re @ est.re)
    assert by_name["RE"].bre == pytest.approx(expected_re_bre, rel=1e-12)
    assert np.all(by_name["UN"].se == 0.0)  # single replication, ddof guard


def test_bootstrap_resample_size_cannot_exceed_data():
    beta = np.array([0.4, 0.0, 0.3])
    data = synthetic_restricted_data(50, beta, SEED + 4)
    cfg = BootstrapConfig(
        restriction=selection_restriction(3, [1]), resample_size=51, replications=5
    )
    with pytest.raises(ValueError):
        bootstrap_bre(data, cfg)


def test_bootstrap_subsample_size_runs():
    beta = np.array([0.3, 0.0, 0.4, 0.0, 0.25])
    data = synthetic_restricted_data(160, beta, SEED + 5)
    rest = selection_restriction(5, [1, 3])
    cfg = BootstrapConfig(
        restriction=rest, resample_size=40, replications=200, seed=SEED + 5
    )
    report = bootstrap_bre(data, cfg)
    assert report.replications == 200
    by_name = {row.name: row for row in report.rows}
    assert by_name["UN"].bre == 1.0


# ------------------------------------------------------------------ reporting


def test_write_bre_csv_layout(tmp_path):
    beta = np.array([0.3, 0.0, 0.4])
    data = synthetic_restricted_data(80, beta, SEED + 6)
    rest = selection_restriction(3, [1])
    cfg = BootstrapConfig(restriction=rest, resample_size=80, replications=50, seed=1)
    report = bootstrap_bre(data, cfg, coef_names=("intercept", "x1", "x2"))
    path = tmp_path / "bre.csv"
    write_bre_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "estimator,coefficient,estimate,se,bre"
    assert len(lines) == 1 + 3 * 3  # UN/RE/PTE rows, three coefficients each
    assert lines[1].startswith("UN,intercept,")


def test_model_comparison_prefers_restricted_when_restriction_true():
    beta = np.array([0.4, 0.0, 0.3, 0.0])
    data = synthetic_restricted_data(400, beta, SEED + 7)
    rest = selection_restriction(4, [1, 3])
    out = model_comparison(data, rest)
    assert out["converged"]
    assert out["f_stat"] >= 0.0
    assert out["aic_restricted"] < out["aic_full"]
    assert out["loglik_full"] >= out["loglik_restricted"]
    assert out["se_full"].shape == (4,)
