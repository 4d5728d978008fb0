"""End-to-end command-line checks via subprocess: exit codes, files, determinism."""
import ast
import dataclasses
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import chi2

import bellshrink
from bellshrink import cli
from bellshrink.cli import _parse_sim_config
from oracles import simulate_dataset, subprocess_env

SEED = 41522
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bellshrink.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=subprocess_env(),
        timeout=300,
    )


@pytest.fixture
def data_csv(tmp_path):
    data = simulate_dataset(120, [0.4, 0.0, 0.3, 0.0, 0.2], SEED, scale=0.8)
    path = tmp_path / "counts.csv"
    header = "y,x1,x2,x3,x4"
    rows = [
        ",".join([str(int(y))] + [format(v, ".10g") for v in x[1:]])
        for y, x in zip(data.y, data.X)
    ]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


@pytest.fixture
def restriction_file(tmp_path):
    path = tmp_path / "zeros.txt"
    # x1 = 0, x3 = 0, x1 - x3 = 0 would be redundant; use three independent rows
    path.write_text("0 1 0 0 0 | 0\n0 0 0 1 0 | 0\n1 0 0 0 0 | 0.4\n")
    return path


COVARIATES = "x1,x2,x3,x4"


# ------------------------------------------------------------------- fit


def test_fit_prints_table_and_writes_csv(data_csv, tmp_path):
    out = tmp_path / "fit.csv"
    proc = run_cli(
        "fit", "--data", str(data_csv), "--response", "y",
        "--covariates", COVARIATES, "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "loglik" in proc.stdout and "AIC" in proc.stdout
    assert "intercept" in proc.stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("coefficient,")
    assert len(lines) == 1 + 5


def test_fit_rerun_byte_identical(data_csv, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        proc = run_cli(
            "fit", "--data", str(data_csv), "--response", "y",
            "--covariates", COVARIATES, "--out", str(out),
        )
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


# -------------------------------------------------------------- estimate


def test_estimate_outputs_consistent_selection(data_csv, restriction_file, tmp_path):
    out = tmp_path / "est.csv"
    proc = run_cli(
        "estimate", "--data", str(data_csv), "--response", "y",
        "--covariates", COVARIATES, "--restriction", str(restriction_file),
        "--alpha", "0.05", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "estimator,coefficient,estimate,f_stat,p_value"
    table = {}
    f_stat = None
    for line in lines[1:]:
        est, coef, value, f, p = line.split(",")
        table.setdefault(est, {})[coef] = float(value)
        f_stat = float(f)
    assert set(table) == {"UN", "RE", "JSE", "PJSE", "PTE"}
    crit = chi2.ppf(0.95, 3)
    target = "RE" if f_stat < crit else "UN"
    assert table["PTE"] == table[target]
    # restricted estimates honor the restriction rows
    assert table["RE"]["x1"] == pytest.approx(0.0, abs=1e-10)
    assert table["RE"]["x3"] == pytest.approx(0.0, abs=1e-10)
    assert table["RE"]["intercept"] == pytest.approx(0.4, abs=1e-10)


# ---------------------------------------------------------------- theory


def test_theory_zero_gamma_gives_zero_bias(tmp_path, restriction_file):
    out = tmp_path / "point.csv"
    proc = run_cli(
        "theory", "--restriction", str(restriction_file),
        "--gamma", "0", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "estimator,component,bias,amse_diag,amse_trace"
    for line in lines[1:]:
        assert float(line.split(",")[2]) == 0.0


def test_theory_delta_grid_curves(tmp_path, restriction_file):
    out = tmp_path / "curves.csv"
    proc = run_cli(
        "theory", "--restriction", str(restriction_file),
        "--delta-grid", "0,0.5,2,8", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,estimator,bias_norm,amse_trace"
    assert len(lines) == 1 + 4 * 5  # four deltas, five estimators
    # the unrestricted trace is constant across the grid
    un_traces = {
        line.split(",")[3] for line in lines[1:] if line.split(",")[1] == "UN"
    }
    assert len(un_traces) == 1


def test_theory_delta_grid_into_the_thousands(tmp_path, restriction_file):
    # Mixture weights at noncentralities near 5000 once failed to accumulate
    # their mass for some last bits of delta.
    deltas = [0.0, 2500.0] + [4990.0 + 0.5 * i for i in range(21)]
    out = tmp_path / "far.csv"
    proc = run_cli(
        "theory", "--restriction", str(restriction_file),
        "--delta-grid", ",".join(format(d, "g") for d in deltas), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + len(deltas) * 5
    assert all(np.isfinite(float(v)) for line in lines[1:] for v in line.split(",")[2:])


@pytest.mark.parametrize(
    "flag, value",
    [("--delta-grid", "0,1e13"), ("--delta-grid", "1e300"), ("--gamma", "1e100"), ("--gamma", "1e160")],
)
def test_theory_noncentrality_above_the_maximum_is_numerical_error(
    tmp_path, restriction_file, flag, value
):
    # 1e13 once died of a memory error with a traceback, 1e300 of an integer
    # overflow; a --gamma of 1e100 gives delta 3e200, and one of 1e160
    # overflows delta to inf, which once printed numpy warnings first
    out = tmp_path / "o.csv"
    proc = run_cli("theory", "--restriction", str(restriction_file), flag, value,
                   "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: numerical: noncentrality must be at most 1e+09, got ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert not out.exists()


def test_theory_delta_grid_to_the_maximum_noncentrality(tmp_path, restriction_file):
    out = tmp_path / "far.csv"
    proc = run_cli("theory", "--restriction", str(restriction_file),
                   "--delta-grid", "0,1e9", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 5
    assert all(np.isfinite(float(v)) for line in lines[1:] for v in line.split(",")[2:])


def test_theory_reproduces_paper_curves(tmp_path):
    # The command README gives for the paper's closed-form curves.
    out = tmp_path / "theory_curves.csv"
    proc = run_cli(
        "theory", "--restriction", str(CONFIGS / "theory_restriction.txt"),
        "--delta-grid", ",".join(format(0.25 * i, "g") for i in range(49)),
        "--direction", "1,1,1,1,1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 49 * 5
    at_zero = {est: float(trace) for delta, est, _, trace in rows if delta == "0"}
    assert (at_zero["UN"], at_zero["RE"], at_zero["JSE"]) == (7.0, 2.0, 4.0)


# -------------------------------------------------------------- simulate


def test_paper_grid_config():
    cfg = _parse_sim_config(CONFIGS / "paper_grid.cfg")
    assert (cfg["n"], cfg["p"]) == ([50, 100, 200], [3, 6, 12])
    assert cfg["tau"] == [round(0.1 * i, 1) for i in range(11)]
    assert (cfg["replications"], cfg["seed"]) == (1000, 0)


@pytest.fixture
def sim_config(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(
        "n = 50\np = 3\ntau = 0.0, 1.0\nreplications = 60\nalpha = 0.05\nseed = 7\n"
    )
    return path


def test_simulate_writes_table_and_curves(sim_config, tmp_path):
    out = tmp_path / "res.csv"
    proc = run_cli("simulate", "--config", str(sim_config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "n,p,tau,estimator,smse,sre,sre_se,n_retry"
    assert len(lines) == 1 + 2 * 4
    curves = tmp_path / "res_curves.csv"
    assert curves.exists()


def test_simulate_deterministic_and_thread_invariant(sim_config, tmp_path):
    outs = []
    for name, threads in [("r1.csv", "1"), ("r2.csv", "1"), ("r3.csv", "2")]:
        out = tmp_path / name
        proc = run_cli(
            "simulate", "--config", str(sim_config),
            "--threads", threads, "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_simulate_seed_override_changes_output(sim_config, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("simulate", "--config", str(sim_config), "--out", str(a))
    run_cli("simulate", "--config", str(sim_config), "--seed", "99", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_simulate_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for line in ("bogus = 1", "fixed_design = true"):
        cfg.write_text(f"n = 50\np = 3\ntau = 0\n{line}\n")
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: usage: {cfg}:4: unknown key")


@pytest.mark.parametrize(
    "text",
    [
        "n = 50\np = 3\ntau = -0.5\nreplications = 2\n",
        # every tau of a design reads the same streams: a repeat is one row twice
        "n = 50\np = 3\ntau = 0, 0.5, 0.5\nreplications = 2\n",
        # the second design is invalid; the first must not run
        "n = 50\np = 3, 2\ntau = 0\nreplications = 2\n",
        # a repeated design would run twice on the same streams
        "n = 50, 50\np = 3\ntau = 0\nreplications = 2\n",
        "n = 50\np = 3, 6, 3\ntau = 0\nreplications = 2\n",
    ],
)
def test_simulate_rejects_invalid_design_before_running(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "o.csv"
    proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: usage: {cfg}: ")
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "text, where",
    [
        ("n =\np = 3\ntau = 0\nreplications = 2\n", ":1: n needs at least one value"),
        ("n = 50\np = ,\ntau = 0\nreplications = 2\n", ":2: p needs at least one value"),
        ("n = 50\np = 3\nreplications = 2\ntau = 0\nreplications = 3\n",
         ":5: key 'replications' already set on line 3"),
    ],
)
def test_simulate_config_empty_list_or_repeated_key_is_usage_error(tmp_path, text, where):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "o.csv"
    proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == f"error: usage: {cfg}{where}\n"
    assert proc.stdout == ""
    assert not out.exists()


# -------------------------------------------------------------- bootstrap


def test_bootstrap_pipeline(data_csv, restriction_file, tmp_path):
    out = tmp_path / "bre.csv"
    proc = run_cli(
        "bootstrap", "--data", str(data_csv), "--response", "y",
        "--covariates", COVARIATES, "--restriction", str(restriction_file),
        "--resample-size", "120", "--replications", "120",
        "--seed", "3", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "AIC" in proc.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "estimator,coefficient,estimate,se,bre"
    assert len(lines) == 1 + 5 * 5


# ------------------------------------------------------------ failure modes


def test_no_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: usage:")


def test_unknown_flag_is_usage_error(data_csv):
    proc = run_cli(
        "fit", "--data", str(data_csv), "--response", "y",
        "--covariates", COVARIATES, "--frobnicate",
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: usage:")


def test_missing_file_is_usage_error(tmp_path):
    proc = run_cli(
        "fit", "--data", str(tmp_path / "nope.csv"), "--response", "y",
        "--covariates", "x",
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: usage:")


def test_directory_for_a_file_flag_is_usage_error(tmp_path, capsys):
    code = cli.main(["fit", "--data", str(tmp_path), "--response", "y", "--covariates", "x"])
    assert code == 1
    assert capsys.readouterr().err == f"error: usage: --data is a directory: {tmp_path}\n"


@pytest.mark.parametrize("subcommand", ["fit", "estimate", "theory", "simulate", "bootstrap"])
def test_missing_out_directory_is_usage_error_before_any_output(
    subcommand, data_csv, restriction_file, sim_config, tmp_path, capsys
):
    out_dir = tmp_path / "nonexistent" / "dir"
    data = ["--data", str(data_csv), "--response", "y", "--covariates", COVARIATES]
    rest = ["--restriction", str(restriction_file)]
    args = {
        "fit": data,
        "estimate": data + rest,
        "theory": rest + ["--gamma", "1"],
        "simulate": ["--config", str(sim_config)],
        "bootstrap": data + rest + ["--replications", "5"],
    }[subcommand]
    code = cli.main([subcommand, *args, "--out", str(out_dir / "x.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: usage: --out directory not found: {out_dir}\n"


@pytest.mark.parametrize("subcommand", ["simulate", "bootstrap"])
def test_negative_seed_error_names_the_flag(
    subcommand, data_csv, restriction_file, sim_config, tmp_path, capsys
):
    args = {
        "simulate": ["--config", str(sim_config)],
        "bootstrap": ["--data", str(data_csv), "--response", "y", "--covariates", COVARIATES,
                      "--restriction", str(restriction_file)],
    }[subcommand]
    code = cli.main([subcommand, *args, "--seed", "-1", "--out", str(tmp_path / "o.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: usage: argument --seed: must be an integer >= 0, got '-1'\n"


def test_byte_order_mark_is_skipped_in_every_input_file(
    data_csv, restriction_file, sim_config, tmp_path, capsys
):
    # A leading U+FEFF, as some editors write it, must not become part of
    # the header's first name, the first restriction row or the first key.
    def marked(path):
        copy = tmp_path / f"bom_{path.name}"
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return copy

    def outputs(data, rest, cfg, tag):
        est, sim = tmp_path / f"est_{tag}.csv", tmp_path / f"sim_{tag}.csv"
        assert cli.main([
            "estimate", "--data", str(data), "--response", "y", "--covariates", COVARIATES,
            "--restriction", str(rest), "--out", str(est),
        ]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
        return est.read_bytes() + sim.read_bytes()

    plain = outputs(data_csv, restriction_file, sim_config, "plain")
    bom = outputs(marked(data_csv), marked(restriction_file), marked(sim_config), "bom")
    assert bom == plain
    assert "error" not in capsys.readouterr().err


def test_bootstrap_without_full_sample_mle_prints_no_comparison(tmp_path):
    # an all-zero response has no finite MLE: the full-sample fit fails
    # before any AIC or F_n line is printed
    path = tmp_path / "zeros.csv"
    path.write_text("y,x1\n" + "".join(f"0,{0.1 * i:g}\n" for i in range(60)))
    rest = tmp_path / "one.txt"
    rest.write_text("0 1 | 0\n")
    proc = run_cli(
        "bootstrap", "--data", str(path), "--response", "y", "--covariates", "x1",
        "--restriction", str(rest), "--replications", "5",
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: numerical:")
    assert "AIC" not in proc.stdout and "F_n" not in proc.stdout


@pytest.mark.parametrize(
    "subcommand, rest_text, fisher_text, where",
    [
        ("theory", "0 1 0 0 0 | 0\n1 0 0 0 0\n", None, "rest.txt:2:"),
        ("estimate", "0 1 0 0 0 | 0\n0 1 0 zero 0 | 0\n", None, "rest.txt:2:"),
        ("bootstrap", "0 1 0 0 0 | 0\n0 2 0 0 0 | 1\n", None, "rest.txt:"),
        ("theory", "0 1 0 0 0 | 0\n", "1,0,0,0,0\n0,1,0,x,0\n" + "0,0,1,0,0\n" * 3, "fisher.csv:2:"),
        ("theory", "0 1 0 0 0 | 0\n", "1,0.5,0,0,0\n0,1,0,0,0\n0,0,1,0,0\n0,0,0,1,0\n0,0,0,0,1\n",
         "fisher.csv: --fisher must be symmetric positive definite (matrix is not symmetric)"),
        ("theory", "0 1 0 0 0 | 0\n", "1,2,0,0,0\n2,1,0,0,0\n0,0,1,0,0\n0,0,0,1,0\n0,0,0,0,1\n",
         "fisher.csv: --fisher must be symmetric positive definite (matrix is not positive"),
        ("theory", "0 1 0 0 0 | 0\udcff\n", None, "rest.txt: not UTF-8"),
        ("theory", "0 1 0 0 0 | 0\n", "1,0,0,0,0\udcff\n", "fisher.csv: not UTF-8"),
        ("simulate", "# caf\udce9\nn = 20\np = 3\ntau = 0\n", None, "sim.cfg: not UTF-8"),
        ("simulate", "n = 20\np = 3\ntau = 0, 1_0\nreplications = 2\n", None,
         "sim.cfg:3: tau must be comma-separated numbers"),
        ("simulate", "n = 20\np = 3\ntau = 0\nalpha = 0.0_5\nreplications = 2\n", None,
         "sim.cfg:4: alpha must be a number"),
    ],
    ids=[
        "no-separator", "non-numeric", "rank-deficient", "fisher-cell", "fisher-asymmetric",
        "fisher-indefinite", "rest-bytes",
        "fisher-bytes", "config-bytes", "config-tau-separator", "config-alpha-separator",
    ],
)
def test_malformed_restriction_or_fisher_file_is_usage_error(
    subcommand, rest_text, fisher_text, where, data_csv, tmp_path
):
    # simulate reads its config file where the others read the restriction
    rest = tmp_path / ("sim.cfg" if subcommand == "simulate" else "rest.txt")
    rest.write_text(rest_text, encoding="utf-8", errors="surrogateescape")
    args = [subcommand, "--restriction", str(rest)]
    if subcommand == "simulate":
        args = [subcommand, "--config", str(rest), "--out", str(tmp_path / "sim.csv")]
    elif subcommand == "theory":
        args += ["--gamma", "1"]
    else:
        args += ["--data", str(data_csv), "--response", "y", "--covariates", COVARIATES]
    if fisher_text is not None:
        fisher = tmp_path / "fisher.csv"
        fisher.write_text(fisher_text, encoding="utf-8", errors="surrogateescape")
        args += ["--fisher", str(fisher)]
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: usage: {tmp_path / where}")
    assert proc.stdout == ""


def test_bad_count_data_is_numerical_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x\n3,1.0\n-2,0.5\n1,0.1\n")
    proc = run_cli("fit", "--data", str(path), "--response", "y", "--covariates", "x")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: data:")


def test_non_finite_covariate_is_data_error_naming_its_line(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("y,x\n3,1.0\n2,nan\n1,2\n4,3\n0,1\n")
    proc = run_cli("fit", "--data", str(path), "--response", "y", "--covariates", "x")
    assert proc.returncode == 2
    assert proc.stderr == f"error: data: {path}:3: covariate 'x' value 'nan' is not finite\n"
    assert proc.stdout == ""


def test_data_file_not_utf8_is_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,x1\n1,0.5\xff\n2,0.1\n")
    proc = run_cli("fit", "--data", str(path), "--response", "y", "--covariates", "x1")
    assert proc.returncode == 2
    assert proc.stderr == f"error: data: {path}: not UTF-8 text\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["theory", "--restriction", "{rest}", "--gamma", "0", "--alpha", "1.5"],
        ["theory", "--restriction", "{rest}", "--delta-grid", "1,nan"],
        ["theory", "--restriction", "{rest}", "--gamma", "0,inf,0"],
        ["theory", "--restriction", "{rest}", "--delta-grid", "1", "--direction", "1,nan,0"],
        ["theory", "--restriction", "{rest}", "--delta-grid", ","],
        ["theory", "--restriction", "{rest}", "--delta-grid", ""],
        ["estimate", *"--data {data} --response y --covariates x1".split(),
         "--restriction", "{rest1}", "--alpha", "2"],
        # the restriction's columns must match the intercept plus covariates
        ["estimate", *"--data {data} --response y --covariates x1".split(),
         "--restriction", "{rest}"],
        ["estimate", *"--data {data} --response y --covariates x1,x2,x3,x4".split(),
         "--restriction", "{rest1}"],
        ["bootstrap", *"--data {data} --response y --covariates x1".split(),
         "--restriction", "{rest}"],
        ["bootstrap", *"--data {data} --response y --covariates x1".split(),
         "--restriction", "{rest1}", "--resample-size", "500"],
        ["bootstrap", *"--data {data} --response y --covariates x1".split(),
         "--restriction", "{rest1}", "--replications", "0"],
        ["bootstrap", *"--data {data} --response y --covariates x1".split(),
         "--restriction", "{rest1}", "--seed", "-1"],
        ["simulate", "--config", "{cfg}", "--seed", "-1", "--out", "{out}"],
        ["simulate", "--config", "{cfg}", "--threads", "0", "--out", "{out}"],
        ["simulate", "--config", "{cfg}", "--threads", "-3", "--out", "{out}"],
        # numpy's float syntax, as in the data, restriction, Fisher and config files
        ["theory", "--restriction", "{rest}", "--gamma", "1_0"],
        ["theory", "--restriction", "{rest}", "--delta-grid", "1,1_0"],
        ["theory", "--restriction", "{rest}", "--delta-grid", "1", "--direction", "1_0,0,0"],
        ["theory", "--restriction", "{rest}", "--gamma", "0", "--alpha", "0.0_5"],
        # an empty --direction, as an empty --gamma or --delta-grid
        ["theory", "--restriction", "{rest}", "--delta-grid", "1", "--direction", ""],
    ],
)
def test_bad_flag_value_is_usage_error_before_any_output(args, data_csv, restriction_file, tmp_path):
    rest1 = tmp_path / "one.txt"
    rest1.write_text("0 1 | 0\n")
    cfg = tmp_path / "one.cfg"
    cfg.write_text("n = 50\np = 3\ntau = 0\nreplications = 2\n")
    out = tmp_path / "o.csv"
    paths = {"{data}": data_csv, "{rest}": restriction_file, "{rest1}": rest1,
             "{cfg}": cfg, "{out}": out}
    proc = run_cli(*(str(paths.get(a, a)) for a in args))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: usage:")
    assert proc.stdout == ""
    assert not out.exists()


def test_theory_direction_without_delta_grid_is_usage_error(restriction_file):
    proc = run_cli(
        "theory", "--restriction", str(restriction_file), "--gamma", "1", "--direction", "5,5,5"
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: usage: --direction applies only with --delta-grid\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("subcommand", ["fit", "estimate", "bootstrap"])
def test_repeated_covariate_is_usage_error_before_any_output(
    subcommand, data_csv, restriction_file, tmp_path
):
    out = tmp_path / "o.csv"
    args = [subcommand, "--data", str(data_csv), "--response", "y",
            "--covariates", "x2,x1,x2,x1", "--out", str(out)]
    if subcommand != "fit":
        args += ["--restriction", str(restriction_file)]
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: usage: --covariates repeats ['x1', 'x2'];")
    assert proc.stdout == ""
    assert not out.exists()


def test_help_exits_zero_for_all_subcommands():
    for sub in ["fit", "estimate", "theory", "simulate", "bootstrap"]:
        proc = run_cli(sub, "--help")
        assert proc.returncode == 0
        assert "--" in proc.stdout
    top = run_cli("--help")
    assert top.returncode == 0


def test_child_imports_same_package_from_other_cwd(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import bellshrink; print(bellshrink.__file__)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(bellshrink.__file__).resolve()


def test_main_reuses_its_parser_across_calls_in_one_process(data_csv, restriction_file, capsys):
    """A good call, a usage error at parse time, another subcommand, and the
    first call again, all in one process, print what fresh processes print."""
    theory = ["theory", "--restriction", str(restriction_file), "--gamma", "0.5,0,1"]
    bad_alpha = ["estimate", "--data", str(data_csv), "--response", "y",
                 "--covariates", COVARIATES, "--restriction", str(restriction_file),
                 "--alpha", "2"]
    fit_call = ["fit", "--data", str(data_csv), "--response", "y", "--covariates", COVARIATES]
    for argv, code in ((theory, 0), (bad_alpha, 1), (fit_call, 0), (theory, 0)):
        assert cli.main(argv) == code
        seen = capsys.readouterr()
        fresh = run_cli(*argv)
        assert fresh.returncode == code
        assert (seen.out, seen.err) == (fresh.stdout, fresh.stderr)


def test_every_exported_name_resolves():
    modules = [bellshrink] + [
        importlib.import_module(f"bellshrink.{info.name}")
        for info in pkgutil.iter_modules(bellshrink.__path__)
    ]
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert len(modules) > 1 and stale == []


def test_csv_writer_bytes(tmp_path):
    path = tmp_path / "cells.csv"
    rows = [
        (3, np.int64(-4), 0.1, np.float64(1.0 / 3.0), float("inf"), np.nan, "UN"),
        (0, np.int64(2**40), 1e20, np.float64(-2.5e-300), -np.inf, float("nan"), "x 1"),
    ]
    cli._write(path, cli._csv("a,b,c,d,e,f,g", rows))
    assert path.read_bytes() == (
        b"a,b,c,d,e,f,g\n"
        b"3,-4,0.1,0.333333333333,inf,nan,UN\n"
        b"0,1099511627776,1e+20,-2.5e-300,-inf,nan,x 1\n"
    )


def _writes_a_file(node: ast.Call) -> bool:
    """Whether a call opens a file for writing: open() or Path.open() in a
    mode other than read (or in a mode not written out), or a numpy, pathlib
    or pandas call that writes."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name in {"write_text", "write_bytes", "save", "savez", "savetxt", "tofile", "to_csv"}:
        return True
    if name != "open":
        return False
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
    modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
    if not modes:
        return False
    mode = modes[0]
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def test_only_the_cli_writes_files():
    # The CLI decides how every output file is written; library modules
    # return results.
    package = Path(bellshrink.__file__).resolve().parent
    writers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _writes_a_file(node)
    }
    assert writers == {"cli.py"}


# numpy's and scipy's factorizations and solves; the rank tests' svd and
# matrix_rank are not among them
_SOLVERS = {"cholesky", "solve", "inv", "pinv", "lstsq"}


def _dotted(node) -> list[str]:
    """The names of an attribute chain such as np.linalg.solve."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return names[::-1]


def _factorizes(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.linalg") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        names = {alias.name for alias in node.names}
        return (
            module.startswith("scipy.linalg")
            or (module == "scipy" and "linalg" in names)
            or (module.endswith("linalg") and bool(names & _SOLVERS))
        )
    if isinstance(node, ast.Call):
        *owner, name = _dotted(node.func) or [""]
        return "linalg" in owner and name in _SOLVERS
    return False


def test_only_linalg_factorizes():
    # Every SPD solve goes through linalg's solve-or-flag stack, so no other
    # module calls a numpy or scipy factorization or solve of its own.
    package = Path(bellshrink.__file__).resolve().parent
    solvers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _factorizes(node)
    }
    assert solvers == {"linalg.py"}


def _reads_basis(node) -> bool:
    """A read of .basis, or any use of _elimination_basis: a name, an
    attribute, an import or the definition."""
    names = {getattr(node, field, None) for field in ("id", "attr", "name")}
    return getattr(node, "attr", None) == "basis" or "_elimination_basis" in names


def test_only_shrinkage_reads_the_elimination_basis():
    # kappa = P - N z is formed in one module, for the Wald statistic of the
    # data and the noncentrality of the theory alike
    package = Path(bellshrink.__file__).resolve().parent
    readers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _reads_basis(node)
    }
    assert readers == {"shrinkage.py"}


def test_every_bench_tracer_target_resolves():
    # bench/tracer.py wraps these at install; a missing one fails only there
    source = (Path(__file__).resolve().parents[1] / "bench" / "tracer.py").read_text()
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS"
    )
    missing = []
    for module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # a Class.method target is patched in the class's own namespace
        if not (name in vars(owner) if path else hasattr(owner, name)):
            missing.append(f"{module_name}.{attr}")
    assert len(targets) > 1 and missing == []


def test_cli_import_leaves_scipy_stats_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bellshrink.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("f_stat, shown", [(0.0, "1"), (np.inf, "0")])
def test_estimate_p_value_at_extreme_statistics(
    f_stat, shown, data_csv, restriction_file, tmp_path, capsys, monkeypatch
):
    real = cli.compute_all
    monkeypatch.setattr(
        cli, "compute_all", lambda *a, **kw: dataclasses.replace(real(*a, **kw), f_stat=f_stat)
    )
    out = tmp_path / "est.csv"
    code = cli.main([
        "estimate", "--data", str(data_csv), "--response", "y", "--covariates", COVARIATES,
        "--restriction", str(restriction_file), "--out", str(out),
    ])
    assert code == 0
    assert f"p-value = {shown}\n" in capsys.readouterr().out
    assert {line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]} == {shown}


def test_p_value_is_scipy_chi2_survival():
    xs = np.concatenate([[0.0, np.inf], np.geomspace(1e-8, 1e4, 300)])
    for r in range(1, 13):
        assert np.array_equal(chdtrc(r, xs), chi2.sf(xs, r))
