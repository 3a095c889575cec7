"""Shared fixtures: the channel catalog and cached expensive analyses.

The spectral reports and brute-force oracle runs are computed once per
session because several suites cross-validate against them.  A terminal
summary section lists the outcome of every acceptance test by name.
"""

import pytest

from channellab import analyze, orbit_oracle, to_superoperator
from channellab import zoo

_ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.fixture(scope="session")
def zoo_entries():
    """(spec, channel) for every catalog entry."""
    return [(spec, zoo.build(spec)) for spec in zoo.catalog()]


@pytest.fixture(scope="session")
def spectral_reports(zoo_entries):
    """Label -> SpectralReport for every catalog entry."""
    return {spec.label: analyze(c) for spec, c in zoo_entries}


@pytest.fixture(scope="session")
def oracle_results(zoo_entries):
    """Label -> brute-force orbit oracle result at the acceptance horizon."""
    return {
        spec.label: orbit_oracle(to_superoperator(c), n_max=2000, tol_distance=1e-8, seed=0)
        for spec, c in zoo_entries
    }


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        outcome = report.outcome.upper()
        if hasattr(report, "wasxfail"):
            outcome = "XFAIL" if report.outcome == "skipped" else "XPASS"
        _ACCEPTANCE_RESULTS[name] = outcome
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE_RESULTS[name] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]:>6}  {name}")
