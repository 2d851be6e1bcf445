"""Shared pytest wiring: BLAS pinned to one thread, this checkout's `src/`
first on every subprocess's import path, and per-criterion summary lines
for the acceptance suite."""

import os

from condcnn import cli

# as `condcnn.cli.main` does, before any test module imports numpy, which
# reads the thread variables when it loads; a variable already set stays
cli._pin_threads()

# pyproject's pytest `pythonpath` reaches this process only: a test's
# `python -m condcnn.cli` imports this checkout too, not an installed copy
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

_acceptance_results = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_results[name] = report.outcome
    elif report.when == "setup" and report.skipped:
        _acceptance_results[name] = "skipped"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_results):
        outcome = _acceptance_results[name].upper()
        terminalreporter.write_line(f"{outcome:>7}  {name}")
