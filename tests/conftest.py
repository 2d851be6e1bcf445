"""Shared pytest wiring: BLAS pinned to one thread, and per-criterion
summary lines for the acceptance suite."""

from condcnn import cli

# as `condcnn.cli.main` does, before any test module imports numpy, which
# reads the thread variables when it loads; a variable already set stays
cli._pin_threads()

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
