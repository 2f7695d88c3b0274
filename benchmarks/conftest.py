"""Shared helpers for the benchmark harness.

Every table and figure of the paper's evaluation has one ``bench_*.py``
module (README.md says what each measures; what ``bench_federated.py``
simulates and what it counts exactly is its "Federated learning" section).
Each module contains:

* pytest-benchmark micro-benchmarks timing the relevant operations, and
* one ``test_report_*`` function that regenerates the table/figure rows the
  paper reports and prints them (run with ``-s`` to see the output; the
  rows are also appended to ``benchmarks/results/`` as plain text).

Sizes are scaled down from the paper's sweeps so the whole harness runs on
a laptop in a few minutes; the *shape* of each result (who wins, by what
factor, where the crossover falls) is what the reproduction checks.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def save_report(name: str, lines) -> None:
    """Print a report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print("\n" + text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def report():
    return save_report
