"""Multi-tenant job admission experiment (beyond the paper: Fig. 9).

``test_fig9_multitenant`` drives a mixed blackscholes / mutex_bench / x264
job stream through one long-lived fleet at increasing tenant counts and
measures what admission control trades: aggregate goodput (total guest
instructions over the stream's makespan) versus p99 job queue wait.  With
``max_concurrent_jobs = 3``, streams of up to three jobs run wholly
concurrently (zero queue wait); deeper streams queue, so the wait
percentile becomes visible exactly where the admission limit binds.

The registry writes the drift-checked paper-style table
(``benchmarks/results/fig9_multitenant.txt``) plus the machine-readable
``benchmarks/results/BENCH_multitenant.json`` CI consumes.  All reported
quantities are *virtual-time* measurements of a deterministic simulation,
so both artifacts regenerate bit-identically.

``test_multitenant_smoke`` is the CI smoke run, parameterized by the
``DQEMU_SMOKE_TENANTS`` environment variable (the workflow runs it at 1
and 3 tenants).  It deliberately does not use the benchmark fixture, so
the main benchmarks job (``--benchmark-only``) skips it.
"""

import os

from repro.analysis.experiments import FIG9_MAX_CONCURRENT as MAX_CONCURRENT
from repro.analysis.experiments import run_fig9_multitenant


def test_fig9_multitenant(report):
    rows = report("fig9_multitenant").rows

    by_tenants = {row["tenants"]: row for row in rows}
    # Every job in every stream ran to a clean exit.
    for row in rows:
        assert all(code == 0 for code in row["exit_codes"])
    # Within the admission limit nothing queues; beyond it the limit binds
    # and the queue-wait percentile becomes visible.
    for n in (1, 2, 3):
        assert by_tenants[n]["queued_jobs"] == 0
        assert by_tenants[n]["p99_queue_wait_ms"] == 0
    for n in (4, 6):
        assert by_tenants[n]["queued_jobs"] == n - MAX_CONCURRENT
        assert by_tenants[n]["p99_queue_wait_ms"] > 0
    # Co-scheduling pays: three overlapping tenants beat a solo stream's
    # aggregate goodput on the same fleet.
    assert by_tenants[3]["goodput_mips"] > by_tenants[1]["goodput_mips"]
    # Makespan grows monotonically with offered load.
    makespans = [row["makespan_ms"] for row in rows]
    assert makespans == sorted(makespans)


def test_multitenant_smoke():
    """Admission smoke run, parameterized by CI's multitenant matrix."""
    n_jobs = int(os.environ.get("DQEMU_SMOKE_TENANTS", "1"))
    (row,) = run_fig9_multitenant(tenant_counts=(n_jobs,)).rows
    assert all(code == 0 for code in row["exit_codes"])
    assert row["goodput_mips"] > 0
    if n_jobs <= MAX_CONCURRENT:
        assert row["queued_jobs"] == 0
