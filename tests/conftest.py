import os
from pathlib import Path

import numpy as np
import pytest

import bellshrink
from bellshrink.bell_glm import Dataset
from bellshrink.special_fn import lambert_w0
from oracles import compound_sample_counts


def build_design(n, p, rng):
    """Intercept column plus p standard-normal covariates."""
    X = np.empty((n, p + 1))
    X[:, 0] = 1.0
    X[:, 1:] = rng.standard_normal((n, p))
    return X


def simulate_dataset(n, beta, seed, scale=0.3):
    """Bell-distributed counts with log mean X @ beta; covariates ~ N(0, scale^2).

    The counts come from the compound sampler in `oracles`, so fixture
    datasets keep their bytes whatever the package's sampler draws."""
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
    env = os.environ.copy()
    root = str(Path(bellshrink.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + existing if existing else root
    return env


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter):
    """One line per release criterion whenever the acceptance module ran."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            num = int(name.split("_")[2])
            label = " ".join(name.split("_")[3:])
            rows.append((num, label, outcome == "passed"))
    if not rows:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, label, passed in sorted(rows):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({label}): {status}")
