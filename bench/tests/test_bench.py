"""Tests of the benchmark itself: the tracer, traced-run outputs, and the checks.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import csv
import io
import json
import re
import sys

import numpy as np
import pytest

import bellshrink
import run
import tracer as tracing
import workloads
from bellshrink import asymptotics, bell_glm, special_fn


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    args = run._parse_args(["--workload", "theory", "--seed", "0"])
    assert args.seconds == spec["run_seconds"]
    for name in workloads.WORKLOADS:
        assert run._parse_args(["--workload", name, "--seed", "0"]).workload == name


def _bellshrink_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "bellshrink" or name.startswith("bellshrink.")}


def _snapshot():
    # Callables only: caches such as the Bell-number table change on use.
    snap = {(name, key): value for name, mod in _bellshrink_modules().items()
            for key, value in vars(mod).items() if callable(value)}
    snap[("LocalAlternative", "__post_init__")] = \
        asymptotics.LocalAlternative.__dict__["__post_init__"]
    return snap


def _small_dataset():
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(60), 0.5 * rng.standard_normal((60, 2))])
    y = rng.poisson(np.exp(X @ np.array([0.5, 0.3, -0.2])))
    return bell_glm.Dataset(X, y)


def test_tracer_counts_calls_and_restores_every_binding():
    import bellshrink.cli  # noqa: F401  (load every module that binds fit)

    before = _snapshot()
    lambert = special_fn.lambert_w0
    holders = [name for name, mod in _bellshrink_modules().items()
               if vars(mod).get("lambert_w0") is lambert]
    assert len(holders) >= 5  # special_fn, bell_glm, bell_dist, montecarlo, the package

    tr = tracing.Tracer()
    with tr:
        for name in holders:
            assert sys.modules[name].lambert_w0 is not lambert
        for name in ("bellshrink.cli", "bellshrink.montecarlo", "bellshrink.application"):
            assert sys.modules[name].fit is not before[("bellshrink.bell_glm", "fit")]
        with pytest.raises(RuntimeError):
            tr.install()
        bellshrink.lambert_w0(np.arange(5.0))
        special_fn.lambert_w0(2.0)
        model = sys.modules["bellshrink.cli"].fit(_small_dataset())
        asymptotics.LocalAlternative(
            gamma=np.ones(1), fisher=np.eye(2),
            restriction=bellshrink.LinearRestriction(np.array([[0.0, 1.0]]), np.zeros(1)))
    after = _snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == [] and set(after) == set(before)

    stats = tr.summary()
    assert stats["bell_glm.fit.calls"] == 1
    assert stats["bell_glm.fit.iters"] == model.n_iter
    assert stats["bell_glm.fit.unconverged"] == 0
    assert stats["asymptotics.local_alternative.calls"] == 1
    # Two direct calls plus the fit's own: one per IRLS iteration, one per
    # kernel evaluation, and those of the final score, loglik and information.
    inner = [i for i, name in enumerate(tr.span_names)
             if name == "special_fn.lambert_w0" and tr.parents[i] >= 0]
    assert stats["special_fn.lambert_w0.calls"] == 2 + len(inner)
    assert all(tr.span_names[tr.parents[i]] == "bell_glm.fit" for i in inner)
    direct = [i for i, name in enumerate(tr.span_names)
              if name == "special_fn.lambert_w0" and tr.parents[i] < 0]
    assert len(direct) == 2
    assert stats["special_fn.lambert_w0.elems"] == 5 + 1 + 60 * len(inner)
    assert 0.0 < stats["bell_glm.fit.self_s"] < stats["bell_glm.fit.s"]
    assert set(stats) == set(tracing.LAYER_METRICS)

    tr.reset()
    assert tr.summary()["bell_glm.fit.calls"] == 0
    special_fn.lambert_w0(1.0)  # uninstalled: nothing recorded
    assert tr.span_names == []


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One untraced round of every workload: (cli, workload, output)."""
    made = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        cli, _, workload = run.set_up(name, 7, workdir)
        _, output, errors = run.run_round(cli, workloads, workload)
        assert errors == []
        made[name] = (cli, workload, output)
    return made


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_round_writes_identical_outputs(rounds, name):
    cli, workload, untraced = rounds[name]
    tr = tracing.Tracer()
    with tr:
        _, traced, errors = run.run_round(cli, workloads, workload)
    assert errors == []
    assert tr.summary()["cli.main.calls"] == len(workload.ops)
    assert set(traced.files) == {p.name for p in workload.outputs}
    assert traced == untraced


# --- every check must catch a perturbed output -----------------------------------


def _edit(out, filename, match, column, change):
    """Copy of out with change applied to column in the rows of filename
    for which match(row) holds (a change of None drops those rows)."""
    rows = out.rows(filename)
    kept = []
    hit = 0
    for row in rows:
        if match(row):
            hit += 1
            if change is None:
                continue
            row = dict(row, **{column: repr(change(float(row[column])))})
        kept.append(row)
    assert hit, f"perturbation matched no row of {filename}"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(kept)
    files = dict(out.files, **{filename: buf.getvalue().encode("utf-8")})
    return workloads.RoundOutput(files=files, stdout=list(out.stdout))


def _is(**want):
    return lambda row: all(row[k] == v for k, v in want.items())


def _f_n_scaled(out):
    text = re.sub(r"F_n = (\S+)", lambda m: f"F_n = {float(m.group(1)) * 1.001!r}", out.stdout[0])
    return workloads.RoundOutput(files=dict(out.files), stdout=[text, *out.stdout[1:]])


PERTURB = {
    "sim.complete": [lambda o: _edit(o, "sim.csv", _is(n="200", p="12", tau="1", estimator="PTE"),
                                     "sre", None),
                     lambda o: _edit(o, "sim_curves.csv", _is(n="50", p="3", tau="0",
                                                              estimator="JSE"), "sre",
                                     lambda v: v * 1.01)],
    "sim.sre_ratio": [lambda o: _edit(o, "sim.csv", _is(n="100", p="6", tau="0", estimator="JSE"),
                                      "sre", lambda v: v * 1.001)],
    "sim.re_tau": [lambda o: _edit(o, "sim.csv", _is(n="50", p="3", tau="0", estimator="RE"),
                                   "sre", lambda v: 0.95),
                   lambda o: _edit(o, "sim.csv", _is(n="200", p="12", tau="1", estimator="RE"),
                                   "sre", lambda v: 1.05)],
    "sim.smse_un": [lambda o: _edit(o, "sim.csv", _is(n="200", p="6"), "smse",
                                    lambda v: v * 3.0),
                    lambda o: _edit(o, "sim.csv", _is(n="200", p="3"), "smse",
                                    lambda v: v * 0.3)],
    "boot.estimators": [lambda o: _edit(o, "bre.csv", _is(estimator="PTE"), "bre", None)],
    "boot.bre_un": [lambda o: _edit(o, "bre.csv", _is(estimator="UN", coefficient="x2"), "bre",
                                    lambda v: 1.01)],
    "boot.bre_re": [lambda o: _edit(o, "bre.csv", _is(estimator="RE"), "bre", lambda v: 0.99)],
    "boot.full_fit": [lambda o: _edit(o, "bre.csv", _is(estimator="UN", coefficient="x3"),
                                      "estimate", lambda v: v + 1e-5)],
    "boot.f_stat": [_f_n_scaled],
    "theory.complete": [lambda o: _edit(o, "theory1.csv", _is(delta="1500", estimator="PJSE"),
                                        "amse_trace", None)],
    "theory.un_trace": [lambda o: _edit(o, "theory0.csv", _is(delta="300", estimator="UN"),
                                        "amse_trace", lambda v: v * (1 + 1e-7))],
    "theory.re_affine": [lambda o: _edit(o, "theory2.csv", _is(delta="40", estimator="RE"),
                                         "amse_trace", lambda v: v * (1 + 1e-6))],
    "theory.js_order": [lambda o: _edit(o, "theory1.csv", _is(delta="8", estimator="JSE"),
                                        "amse_trace", lambda v: v * 10.0),
                        lambda o: _edit(o, "theory0.csv", _is(delta="1", estimator="PJSE"),
                                        "amse_trace", lambda v: v * 10.0)],
    "theory.bias_factors": [lambda o: _edit(o, "theory0.csv", _is(delta="200", estimator="JSE"),
                                            "bias_norm", lambda v: v * (1 + 1e-5)),
                            lambda o: _edit(o, "theory2.csv", _is(delta="8", estimator="PTE"),
                                            "bias_norm", lambda v: v * (1 + 1e-5))],
    "fit.estimators": [lambda o: _edit(o, "estimate0.csv", _is(estimator="JSE"), "estimate",
                                       None)],
    "fit.restricted": [lambda o: _edit(o, "estimate1.csv", _is(estimator="RE", coefficient="x3"),
                                       "estimate", lambda v: v + 1e-6)],
    "fit.score": [lambda o: _edit(o, "estimate0.csv", _is(estimator="UN", coefficient="intercept"),
                                  "estimate", lambda v: v + 1e-3)],
    "fit.truth": [lambda o: _edit(o, "estimate1.csv", _is(estimator="UN", coefficient="x2"),
                                  "estimate", lambda v: v + 0.2)],
}


def test_every_check_has_a_perturbation(rounds):
    names = [name for _, workload, _ in rounds.values() for name, _ in workload.checks()]
    assert sorted(names) == sorted(PERTURB)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_pass_on_real_outputs(rounds, name):
    _, workload, output = rounds[name]
    assert run.run_checks(workloads, workload, output) == []


@pytest.mark.parametrize("check_name", sorted(PERTURB))
def test_check_fails_on_perturbed_output(rounds, check_name):
    for _, workload, output in rounds.values():
        checks = dict(workload.checks())
        if check_name in checks:
            break
    for perturb in PERTURB[check_name]:
        with pytest.raises(workloads.CheckFailed):
            checks[check_name](perturb(output))
