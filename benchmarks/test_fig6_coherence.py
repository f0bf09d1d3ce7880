"""Coherence-protocol sweep: MSI vs MESI vs home migration vs adaptive.

``test_fig6_coherence`` extends the Fig. 6 study with the per-page
coherence-protocol layer: the same three discriminating workloads run under
all four protocols and the table records what each protocol actually buys
in round trips —

* ``single-writer`` (private-region RMW): MESI's Exclusive-clean grant
  turns every private page's S→M upgrade round trip into a silent local
  flip, so write upgrades drop by exactly the private page count.
* ``mutex-worst`` (the Fig. 6 global-lock pessimum): upgrades are frequent
  and payload-free upgrade acks trim the mean coherence wait below MSI's.
* ``mixed-sharded`` (private + ping-pong + broadcast pages, two master
  shards): no fixed protocol fits every page; the adaptive classifier must
  match the best fixed choice without knowing the workload.

Writes the drift-checked table (``benchmarks/results/fig6_coherence.txt``)
plus machine-readable ``benchmarks/results/BENCH_coherence.json``.
Deterministic simulation: both artifacts regenerate bit-identically.

``test_fig6_coherence_smoke`` is the CI smoke run, parameterized by the
``DQEMU_SMOKE_COHERENCE`` environment variable (the workflow runs it at
msi, mesi and adaptive).  It deliberately does not use the benchmark
fixture, so the main benchmarks job (``--benchmark-only``) skips it.
"""

import os

from repro import Cluster, DQEMUConfig
from repro.workloads import memaccess


def test_fig6_coherence(report):
    result = report("fig6_coherence")
    m = lambda wl, proto, key: result.row(workload=wl, protocol=proto)[key]
    private_pages = result.params["rmw_threads"] * result.params["rmw_pages_per_thread"]
    assert {r["protocol"] for r in result.rows} == {"msi", "mesi", "migrate", "adaptive"}

    # MSI is the paper's protocol: no Exclusive grants, no silent upgrades,
    # no migrations, ever.
    for wl in {r["workload"] for r in result.rows}:
        for key in ("exclusive_grants", "silent_upgrades", "upgrade_acks",
                    "home_migrations", "reclassifications"):
            assert m(wl, "msi", key) == 0, (wl, key)

    # Single-writer pages: MESI converts each private page's S→M upgrade
    # round trip into a silent local flip — write upgrades drop by the full
    # private page count and the saved round trips show up end to end.
    assert m("single-writer", "mesi", "silent_upgrades") >= private_pages
    assert (
        m("single-writer", "mesi", "write_upgrades")
        <= m("single-writer", "msi", "write_upgrades") - private_pages
    )
    assert m("single-writer", "mesi", "time_ms") < m("single-writer", "msi", "time_ms")
    assert (
        m("single-writer", "mesi", "mean_wait_us")
        < m("single-writer", "msi", "mean_wait_us")
    )

    # Fig. 6 mutex pessimum: payload-free upgrade acks reduce the mean
    # coherence wait below MSI's.
    assert m("mutex-worst", "mesi", "upgrade_acks") > 0
    assert (
        m("mutex-worst", "mesi", "mean_wait_us")
        < m("mutex-worst", "msi", "mean_wait_us")
    )
    assert m("mutex-worst", "mesi", "time_ms") <= m("mutex-worst", "msi", "time_ms")

    # Home migration actually fires and serves the new home locally.
    assert m("mixed-sharded", "migrate", "home_migrations") > 0
    assert m("mixed-sharded", "migrate", "home_local_hits") > 0

    # The adaptive policy picks per page: it must match the best fixed
    # protocol on the mixed sweep (small tolerance) while clearly beating
    # the MSI default — without being told the workload.
    best_fixed = min(
        m("mixed-sharded", proto, "time_ms") for proto in ("msi", "mesi", "migrate")
    )
    adaptive = m("mixed-sharded", "adaptive", "time_ms")
    assert adaptive <= 1.05 * best_fixed
    assert adaptive <= 0.9 * m("mixed-sharded", "msi", "time_ms")
    assert m("mixed-sharded", "adaptive", "reclassifications") > 0


def test_fig6_coherence_smoke():
    """Coherence smoke run, parameterized by CI's protocol matrix."""
    protocol = os.environ.get("DQEMU_SMOKE_COHERENCE", "msi")
    cfg = DQEMUConfig(coherence_protocol=protocol, adaptive_window=8)
    cluster = Cluster(4, cfg)
    program = memaccess.build_private_rmw(
        n_threads=4, n_nodes=4, pages_per_thread=4, passes=2
    )
    result = cluster.run(program, max_virtual_ms=60_000_000)
    assert result.exit_code == 0
    p = result.stats.protocol
    if protocol == "msi":
        assert p.exclusive_grants == 0 and p.silent_upgrades == 0
    else:
        assert p.exclusive_grants > 0
        assert p.silent_upgrades > 0
