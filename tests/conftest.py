"""Shared pytest hooks: choose the tree under test, summarize acceptance-criteria outcomes.

The tree under test is the first ``PYTHONPATH`` entry that holds ``infogeo``,
so ``PYTHONPATH=<other tree>/src python -m pytest`` tests that tree; without
one, it is this checkout's ``src``.
"""

import os
import sys
from pathlib import Path

if not any(Path(entry, "infogeo").is_dir() for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

_acceptance = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance):
        name = nodeid.split("::")[-1]
        outcome = "PASS" if _acceptance[nodeid] == "passed" else _acceptance[nodeid].upper()
        terminalreporter.write_line(f"{name}: {outcome}")
