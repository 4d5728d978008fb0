"""Data-pipeline checks: CSV ingestion, bootstrap efficiency and its AIC comparison."""
import contextlib
import dataclasses
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bellshrink.montecarlo as mc
from bellshrink import cli
from bellshrink.application import (
    BootstrapConfig,
    DataFormatError,
    _ResampleDraw,
    bootstrap_bre,
    load_dataset,
)
from bellshrink.bell_glm import Dataset, fit, fit_many, loglik
from bellshrink.shrinkage import ESTIMATOR_ORDER, LinearRestriction, compute_all, estimate_many
from oracles import load_dataset_rowwise, simulate_dataset

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


def test_load_dataset_skips_a_byte_order_mark(tmp_path):
    text = "y,x1\n3,0.5\n0,1.5\n2,0.25\n"
    plain = load_dataset(write_csv(tmp_path, text), "y", ["x1"])
    marked = load_dataset(write_csv(tmp_path, "\ufeff" + text, "bom.csv"), "y", ["x1"])
    np.testing.assert_array_equal(marked[0].X, plain[0].X)
    np.testing.assert_array_equal(marked[0].y, plain[0].y)
    # the row-by-row walk that names a bad line reads the header the same way
    bad = write_csv(tmp_path, "\ufeff" + text + "-2,0.1\n", "bom_bad.csv")
    with pytest.raises(DataFormatError, match=f"{bad}:5: response '-2' is negative"):
        load_dataset(bad, "y", ["x1"])


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


@pytest.mark.parametrize("good_rows", [0, 2000])  # the bad byte in the first read or later
def test_load_dataset_not_utf8_names_the_file(tmp_path, good_rows):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,x\n" + b"1,0.5\n" * good_rows + b"1,0.5\xff\n2,0.1\n")
    with pytest.raises(DataFormatError) as info:
        load_dataset(path, "y", ["x"])
    assert str(info.value) == f"{path}: not UTF-8 text"


def _outcome(loader, path, response, covariates):
    """What a loader makes of a file: its data and summary, or its error."""
    try:
        data, summary = loader(path, response, covariates)
    except ValueError as exc:  # DataFormatError included
        return type(exc), str(exc)
    return data, summary


def assert_same_as_rowwise(path, response, covariates):
    new = _outcome(load_dataset, path, response, covariates)
    old = _outcome(load_dataset_rowwise, path, response, covariates)
    if isinstance(old[0], type):
        assert new == old
        return
    assert not isinstance(new[0], type), new
    for got, want in ((new[0].X, old[0].X), (new[0].y, old[0].y)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)  # bit-identical, NaN-free
    np.testing.assert_equal(dataclasses.asdict(new[1]), dataclasses.asdict(old[1]))


@st.composite
def count_csv(draw):
    """A valid data file in many spellings: shuffled, extra and repeated
    columns, blank lines, CRLF, quoted and padded cells, `3` or `3.0`."""
    covariates = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3,
                               unique=True))
    extra = draw(st.lists(st.sampled_from(["note", "id", "a", "y"]), max_size=2))
    header = draw(st.permutations(["y", *covariates, *extra]))
    n = draw(st.integers(len(covariates) + 2, 12))
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    spell = st.sampled_from(["{:.17g}", "{!r}", "{:.6g}", "{:e}"])

    def dress(text):
        text = draw(st.sampled_from(["", " ", "  "])) + text + draw(st.sampled_from(["", " "]))
        return f'"{text}"' if draw(st.booleans()) else text

    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(f'"{h}"' if draw(st.booleans()) else h for h in header)]
    for _ in range(n):
        cells = []
        for name in header:
            if name in ("note", "id"):
                cells.append(draw(st.sampled_from(["", "x", 'a"b', '"p,q"', "12"])))
            elif name == "y":
                count = draw(st.integers(0, 40))
                cells.append(dress(draw(st.sampled_from([f"{count}", f"{count}.0"]))))
            else:
                cells.append(dress(draw(spell).format(draw(floats))))
        lines.append(",".join(cells))
        lines.extend([""] * draw(st.sampled_from([0, 0, 0, 1, 2])))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), covariates


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=count_csv())
def test_load_dataset_matches_rowwise_oracle(case, tmp_path):
    text, covariates = case
    path = write_csv(tmp_path, text)
    assert_same_as_rowwise(path, "y", covariates)


# The bad row of each case; it follows one good row and blank_lines blank
# lines, so it sits on line 3 + blank_lines.
BAD_ROWS = {
    "negative response": "-2,0.5",
    "fractional response": "2.5,0.5",
    "infinite response": "inf,0.5",
    "non-numeric response": "three,0.5",
    "empty response": ",0.5",
    "short row": "2",
    "non-numeric covariate": "2,oops",
}


@pytest.mark.parametrize("blank_lines", [0, 2])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_load_dataset_bad_row_names_its_line(tmp_path, case, blank_lines):
    text = "y,x\n3,1.0\n" + "\n" * blank_lines + BAD_ROWS[case] + "\n1,2.0\n0,1.5\n"
    path = write_csv(tmp_path, text)
    with pytest.raises(DataFormatError, match=f"^{path}:{3 + blank_lines}: "):
        load_dataset(path, "y", ["x"])
    assert_same_as_rowwise(path, "y", ["x"])


@pytest.mark.parametrize(
    "text, columns",
    [
        ("y,x\n", ["x"]),  # header only
        ("y,x\n\n\n", ["x"]),  # header and blank lines
        ("", ["x"]),
        ("y,x\n3,1.0\n", ["x9"]),
        ("y,x\n3,1.0\n2,0.5\n", ["x"]),  # too few rows for the model
        ("y,x\n3,nan\n2,0.5\n1,0.25\n", ["x"]),  # non-finite covariate
    ],
)
def test_load_dataset_file_errors_match_rowwise_oracle(tmp_path, text, columns):
    path = write_csv(tmp_path, text)
    with pytest.raises(ValueError):
        load_dataset(path, "y", columns)
    assert_same_as_rowwise(path, "y", columns)


@pytest.mark.parametrize("cell", ["1_0", "\u0661"])
def test_load_dataset_rejects_float_spellings_outside_numpy_syntax(tmp_path, cell):
    # float() reads `1_0` as 10 and the Arabic-Indic digit as 1; numpy does
    # not, and the error names the file line of the cell, blank lines counted.
    for blank_lines in (0, 2):
        text = "y,x\n3,1.0\n" + "\n" * blank_lines + f"2,{cell}\n1,2.0\n0,0.5\n"
        path = write_csv(tmp_path, text)
        with pytest.raises(DataFormatError, match=f"^{path}:{3 + blank_lines}: .*{cell}"):
            load_dataset(path, "y", ["x"])
        # the same spelling in the response column
        path = write_csv(tmp_path, text.replace(f"2,{cell}", f"{cell},2.0"))
        with pytest.raises(DataFormatError, match=f"^{path}:{3 + blank_lines}: response .*{cell}"):
            load_dataset(path, "y", ["x"])


def test_load_dataset_rejects_counts_beyond_int64(tmp_path):
    path = write_csv(tmp_path, "y,x\n3,1.0\n1e19,0.5\n1,2.0\n0,0.5\n")
    with pytest.raises(DataFormatError, match=f"^{path}: response counts"):
        load_dataset(path, "y", ["x"])


def test_load_dataset_duplicate_header_uses_last_column(tmp_path):
    path = write_csv(tmp_path, "x,y,x\n9,3,1.0\n9,2,0.5\n9,1,2.0\n9,0,1.5\n")
    data, _ = load_dataset(path, "y", ["x"])
    np.testing.assert_array_equal(data.X[:, 1], [1.0, 0.5, 2.0, 1.5])


# ------------------------------------------------------------------ bootstrap


def test_stacked_resample_equals_per_replication_resample():
    data = synthetic_restricted_data(60, np.array([0.3, 0.0, 0.4]), SEED)
    n_obs = 40
    draw = _ResampleDraw(data.X, data.y, SEED, n_obs)
    reps = [5, 1, 12, 0]
    for attempt in (0, 3):
        X, y = draw.stack(reps, attempt)
        assert X.shape == (len(reps), n_obs, 3) and y.shape == (len(reps), n_obs)
        for i, rep in enumerate(reps):
            seq = np.random.SeedSequence(SEED, spawn_key=(rep, attempt))
            idx = np.random.Generator(np.random.PCG64(seq)).choice(data.n_obs, n_obs, replace=True)
            one = Dataset(data.X[idx], data.y[idx])
            np.testing.assert_array_equal(X[i], one.X)
            np.testing.assert_array_equal(y[i], one.y)


@pytest.mark.parametrize("seed", [0, 7, SEED, 2**63 + 5])
def test_resample_rows_are_the_rows_of_choice_with_replacement(seed):
    # integers(0, n, size) draws the same stream as choice(n, size,
    # replace=True), so bootstrap outputs keep the rows choice gave them.
    for n_rows, n_obs in [(1, 3), (7, 7), (60, 40), (1000, 50), (2**40, 9)]:
        y = np.broadcast_to(0, (n_rows,))  # only its size is read
        draw = _ResampleDraw(y[:, None], y, seed, n_obs)
        for rep, attempt in [(0, 0), (1, 0), (12, 3), (299, 1)]:
            seq = np.random.SeedSequence(seed, spawn_key=(rep, attempt))
            rows = np.random.Generator(np.random.PCG64(seq)).choice(n_rows, n_obs, replace=True)
            np.testing.assert_array_equal(draw._rows(rep, attempt), rows)


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


def bootstrap_cli(tmp_path, data, rest, *flags):
    """`bellshrink bootstrap` run in this process on data, written as a CSV
    with covariates x1, x2, ..., and rest, written as a restriction file:
    (bytes of the --out file, printed text)."""
    names = [f"x{j}" for j in range(1, data.n_params)]
    rows = [
        ",".join([str(yi), *map(repr, xi[1:])]) for yi, xi in zip(data.y.tolist(), data.X.tolist())
    ]
    data_path = write_csv(tmp_path, "\n".join([",".join(["y", *names]), *rows]) + "\n")
    hypothesis = [
        " ".join(map(repr, row)) + f" | {b!r}" for row, b in zip(rest.H.tolist(), rest.h.tolist())
    ]
    rest_path = write_csv(tmp_path, "\n".join(hypothesis) + "\n", "restriction.txt")
    out = tmp_path / "bre.csv"
    argv = ["bootstrap", "--data", str(data_path), "--response", "y", "--covariates",
            ",".join(names), "--restriction", str(rest_path), *flags, "--out", str(out)]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(argv) == 0
    return out.read_bytes(), printed.getvalue()


def test_bootstrap_csv_independent_of_stack_size(monkeypatch, tmp_path):
    # Resampling 15 of 150 low-count rows makes some refits fail, so
    # redrawn replications are stacked differently under each cap.
    data = synthetic_restricted_data(150, np.array([-0.5, 0.0, 0.4, 0.0, 0.3]), 5)
    rest = selection_restriction(5, [1, 3])
    flags = ["--resample-size", "15", "--replications", "100", "--seed", "4"]
    blobs = set()
    for cap in (1, 7, 100):
        monkeypatch.setattr(mc, "_STACK_ELEMENTS", cap * 15 * 5)
        blob, printed = bootstrap_cli(tmp_path, data, rest, *flags)
        blobs.add(blob)
    assert int(re.search(r"failed refits: (\d+) of", printed).group(1)) > 0
    assert len(blobs) == 1


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
    # the reported coefficients are the full-sample estimators
    np.testing.assert_allclose(by_name["UN"].coefficients, fit(data).beta, atol=0)
    single = bootstrap_bre(data, dataclasses.replace(cfg, replications=1))
    assert all(np.all(row.se == 0.0) for row in single.rows)  # ddof guard


# ------------------------------------------------------------------ reporting


def test_write_bre_csv_layout(tmp_path):
    beta = np.array([0.3, 0.0, 0.4])
    data = synthetic_restricted_data(80, beta, SEED + 6)
    rest = selection_restriction(3, [1])
    flags = ["--resample-size", "80", "--replications", "50", "--seed", "1"]
    blob, _ = bootstrap_cli(tmp_path, data, rest, *flags)
    lines = blob.decode().splitlines()
    assert lines[0] == "estimator,coefficient,estimate,se,bre"
    assert len(lines) == 1 + 3 * 3  # UN/RE/PTE rows, three coefficients each
    assert lines[1].startswith("UN,intercept,")


def test_bootstrap_report_prefers_restricted_aic_when_restriction_true():
    beta = np.array([0.4, 0.0, 0.3, 0.0])
    data = synthetic_restricted_data(400, beta, SEED + 7)
    rest = selection_restriction(4, [1, 3])
    cfg = BootstrapConfig(restriction=rest, resample_size=100, replications=5, seed=SEED)
    report = bootstrap_bre(data, cfg)
    assert report.f_stat >= 0.0
    full = fit(data)
    assert report.aic_full == 2.0 * 4 - 2.0 * loglik(full.beta, data)
    re = compute_all(full, rest).re
    assert report.aic_restricted == 2.0 * (4 - 2) - 2.0 * loglik(re, data)


def test_restricted_aic_wins_at_the_chi_square_rate_when_restriction_true():
    # With r = 2 true restrictions, AIC(restricted) < AIC(full) is LR < 4,
    # and LR ~ chi2(2) asymptotically: P(chi2_2 < 4) = 1 - e**-2 = 0.8647.
    # The share over 400 datasets must lie within 4 binomial SEs of it.
    beta = np.array([0.4, 0.0, 0.3, 0.0])
    rest = selection_restriction(4, [1, 3])
    data = [synthetic_restricted_data(400, beta, SEED + 100 + i) for i in range(400)]
    models = fit_many(np.stack([d.X for d in data]), np.stack([d.y for d in data]))
    est, _, ok = estimate_many(models.beta, models.fisher_info, rest)
    assert models.converged.all() and ok.all()
    re = est[:, ESTIMATOR_ORDER.index("RE")]
    wins = [
        2.0 * (4 - 2) - 2.0 * loglik(b_re, d) < 2.0 * 4 - 2.0 * loglik(b_un, d)
        for b_un, b_re, d in zip(models.beta, re, data)
    ]
    p = 1.0 - np.exp(-2.0)
    assert abs(np.mean(wins) - p) <= 4.0 * np.sqrt(p * (1.0 - p) / len(wins))
