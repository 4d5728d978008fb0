import numpy as np
import pytest


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
