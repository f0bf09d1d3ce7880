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

Writes the drift-checked table (``benchmarks/results/dbt_hotpath.txt``)
plus machine-readable ``benchmarks/results/BENCH_dbt.json`` CI consumes.
Deterministic simulation: both artifacts regenerate bit-identically.

``test_dbt_hotpath_smoke`` is the CI smoke run, parameterized by the
``DQEMU_SMOKE_SUPERBLOCKS`` environment variable (the workflow runs it at
0 and 8).  It deliberately does not use the benchmark fixture, so the main
benchmarks job (``--benchmark-only``) skips it.
"""

import json
import os

from benchmarks.conftest import RESULTS_DIR, run_once
from repro import Cluster, DQEMUConfig
from repro.workloads import blackscholes, mutex_bench, pi_taylor, x264

N_SLAVES = 2
SUPERBLOCK_THRESHOLD = 8
CONFIG_NAMES = ("baseline", "hotpath")


def _workloads():
    """(name, program, timing_dependent_stdout)."""
    return [
        ("blackscholes", blackscholes.build(n_threads=4, n_options=16), False),
        ("mutex_bench", mutex_bench.build(n_threads=4, iters=40), True),
        ("pi_taylor", pi_taylor.build(n_threads=8, terms=400, reps=4), False),
        ("x264", x264.build(n_frames=32, group_size=4, pages_per_frame=1), False),
    ]


def _configs():
    return {
        "baseline": DQEMUConfig(),
        "hotpath": DQEMUConfig(
            superblock_threshold=SUPERBLOCK_THRESHOLD, fusion_enabled=True
        ),
    }


def _measure(config, program):
    cluster = Cluster(N_SLAVES, config)
    result = cluster.run(program, max_virtual_ms=10_000)
    d = result.stats.dbt
    insns = result.stats.insns_executed
    dbt_cycles = d.execute_cycles + d.translate_cycles
    return {
        "exit_code": result.exit_code,
        "stdout": result.stdout,
        "virt_ms": result.virtual_ns / 1e6,
        "insns": insns,
        "lookups_per_kinsn": d.lookups * 1e3 / insns,
        "lookup_hit_rate": d.lookup_hit_rate,
        "translate_share": d.translate_cycles / dbt_cycles if dbt_cycles else 0.0,
        "dbt_cpi": dbt_cycles / insns if insns else 0.0,
        "superblocks_formed": d.superblocks_formed,
        "fusion_hits": dict(sorted(d.fusion_hits.items())),
        "superblock_saved_cycles": d.superblock_saved_cycles,
        "fusion_saved_cycles": d.fusion_saved_cycles,
    }


def run_dbt_hotpath():
    configs = _configs()
    rows = []
    for name, program, timing_dependent in _workloads():
        row = {"workload": name}
        for cfg_name, cfg in configs.items():
            row[cfg_name] = _measure(cfg, program)
        ref = row["baseline"]
        row["identical_output"] = all(
            row[c]["exit_code"] == ref["exit_code"]
            and (timing_dependent or row[c]["stdout"] == ref["stdout"])
            for c in CONFIG_NAMES
        )
        # stdout is an identity check, not a reportable metric; keep the
        # JSON artifact small and byte-stable.
        for c in CONFIG_NAMES:
            row[c].pop("stdout")
        rows.append(row)
    return rows


def render_dbt(rows) -> str:
    lines = [
        "dbt hot path: baseline -> "
        f"superblocks+fusion (hotpath, threshold={SUPERBLOCK_THRESHOLD}; "
        f"{N_SLAVES} slaves); saved cyc is net of trace compilation",
        f"{'workload':>12} | {'config':>8} | {'lookups/ki':>10} | "
        f"{'dbt_cpi':>7} | {'tx share':>8} | "
        f"{'sblocks':>7} | {'fuse hits':>9} | {'saved cyc':>9}",
    ]
    lines.append("-" * len(lines[1]))
    for row in rows:
        for cfg_name in CONFIG_NAMES:
            cell = row[cfg_name]
            saved = cell["superblock_saved_cycles"] + cell["fusion_saved_cycles"]
            lines.append(
                f"{row['workload']:>12} | {cfg_name:>8} | "
                f"{cell['lookups_per_kinsn']:>10.3f} | "
                f"{cell['dbt_cpi']:>7.3f} | "
                f"{cell['translate_share']:>8.4f} | "
                f"{cell['superblocks_formed']:>7} | "
                f"{sum(cell['fusion_hits'].values()):>9} | {saved:>9.0f}"
            )
    return "\n".join(lines)


def test_dbt_hotpath(benchmark, record_result):
    rows = run_once(benchmark, run_dbt_hotpath)
    record_result("dbt_hotpath", render_dbt(rows))
    (RESULTS_DIR / "BENCH_dbt.json").write_text(
        json.dumps(
            {
                "experiment": "dbt_hotpath",
                "n_slaves": N_SLAVES,
                "superblock_threshold": SUPERBLOCK_THRESHOLD,
                "rows": rows,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

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
