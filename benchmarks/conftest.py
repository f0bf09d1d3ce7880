"""Shared fixture for the experiment benchmarks.

Each benchmark regenerates one artifact of the experiment registry
(:data:`repro.analysis.registry.ARTIFACTS`; see DESIGN.md's per-experiment
index), writes it to ``benchmarks/results/`` for EXPERIMENTS.md, and
asserts its headline *shape* claims on the returned report.

The runs are deterministic simulations, so each experiment executes exactly
once (``benchmark.pedantic(rounds=1)``); the pytest-benchmark timing then
reports the harness wall time.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.registry import ARTIFACTS, write_report

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report(benchmark):
    """``report(stem)`` runs one registry artifact once under
    pytest-benchmark, writes ``<stem>.txt`` (and its ``BENCH_*.json``) to
    ``RESULTS_DIR`` and returns the :class:`~repro.analysis.Report`."""

    def run(stem: str):
        result = benchmark.pedantic(ARTIFACTS[stem].run, rounds=1, iterations=1)
        write_report(stem, result, RESULTS_DIR)
        print(f"\n{result.text}\n")
        return result

    return run
