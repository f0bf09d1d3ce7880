"""DBT hot-path experiment: trace superblocks + idiom fusion.

``test_dbt_hotpath`` runs a PARSEC-stand-in mix on the same fleet shape
under two DBT configurations — ``baseline`` (the default) and ``hotpath``
(superblock promotion and idiom fusion) — and measures what the hot path
buys: block dispatches (one code-cache lookup each) per thousand executed
instructions, the fig8-style execute/translate cycle split, superblocks
formed, per-pattern fusion hits, and the virtual cycles the cheaper
superblock CPI / fused idioms avoided, net of trace-compile cost.
Architectural identity is asserted alongside the numbers: computed stdout
must be byte-identical across both configs (mutex_bench prints
virtual-time measurements, so only its exit code is compared).

The headline column is ``dbt_cpi`` — total DBT cycles (execute +
translate) per executed guest instruction.  Loop-heavy workloads
(pi_taylor, x264) amortize trace compilation and come out ahead; the
short blackscholes and mutex_bench runs show the honest flip side, where
one-off translation dominates, superblocks don't pay, and the net "saved
cyc" column goes negative.

The registry writes the drift-checked table
(``benchmarks/results/dbt_hotpath.txt``) plus machine-readable
``benchmarks/results/BENCH_dbt.json`` CI consumes.
Deterministic simulation: both artifacts regenerate bit-identically.

``test_dbt_hotpath_smoke`` is the CI smoke run, parameterized by the
``DQEMU_SMOKE_SUPERBLOCKS`` environment variable (the workflow runs it at
0 and 8).  It deliberately does not use the benchmark fixture, so the main
benchmarks job (``--benchmark-only``) skips it.
"""

import os

from repro import Cluster, DQEMUConfig
from repro.analysis.experiments import DBT_SLAVES as N_SLAVES
from repro.workloads import x264

CONFIG_NAMES = ("baseline", "hotpath")


def test_dbt_hotpath(report):
    rows = report("dbt_hotpath").rows

    by_name = {row["workload"]: row for row in rows}
    for row in rows:
        base, hot = row["baseline"], row["hotpath"]
        # Architectural identity: the hot path changes timing, never results.
        assert row["identical_output"], row["workload"]
        assert all(row[c]["exit_code"] == 0 for c in CONFIG_NAMES)
        # Only the hot path forms superblocks or fuses idioms.
        assert base["superblocks_formed"] == 0 and not base["fusion_hits"]
        # One trace dispatch covers many blocks, so dispatches (lookups)
        # per instruction drop.
        assert hot["lookups_per_kinsn"] < base["lookups_per_kinsn"]
    # Loop-heavy workloads promote traces, bank net cycle savings, and the
    # cheaper superblock CPI beats the trace-compilation cost end to end.
    for name in ("pi_taylor", "x264"):
        base, hot = by_name[name]["baseline"], by_name[name]["hotpath"]
        assert hot["superblocks_formed"] > 0
        assert hot["superblock_saved_cycles"] > 0
        assert hot["dbt_cpi"] < base["dbt_cpi"]
    # Each fusion pattern fires somewhere in the mix: the spinlock idiom in
    # mutex_bench, the load+op idiom in x264's pixel loops.
    assert by_name["mutex_bench"]["hotpath"]["fusion_hits"].get("atomic_branch", 0) > 0
    assert by_name["x264"]["hotpath"]["fusion_hits"].get("load_op", 0) > 0


def test_dbt_hotpath_smoke():
    """Hot-path smoke run, parameterized by CI's superblock matrix."""
    threshold = int(os.environ.get("DQEMU_SMOKE_SUPERBLOCKS", "0"))
    cfg = DQEMUConfig(
        superblock_threshold=threshold, fusion_enabled=threshold > 0
    )
    cluster = Cluster(N_SLAVES, cfg)
    program = x264.build(n_frames=4, group_size=2, pages_per_frame=1)
    result = cluster.run(program, max_virtual_ms=10_000)
    assert result.exit_code == 0
    if threshold:
        assert result.stats.dbt.superblocks_formed > 0
    else:
        assert result.stats.dbt.superblocks_formed == 0
