"""Reliable-delivery recovery experiment (partition-then-heal).

``test_fig5_partition`` regenerates the goodput-vs-drop-rate and
partition-recovery table (``benchmarks/results/services_fig5_partition.txt``)
and asserts its shape claims: a clean run with the retry budget armed sends
nothing extra, background loss degrades goodput but every drop is
retransmitted, and a mid-run partition of one slave aborts with a
``ServiceTimeout`` when retries are off but is ridden out when they are on.

``test_partition_smoke_matrix`` is the seeded fault-matrix smoke run CI
executes across several (drop rate, seed) combinations via the
``DQEMU_SMOKE_DROP_EVERY`` / ``DQEMU_SMOKE_SEED`` environment variables.  It
deliberately does not use the benchmark fixture, so the main benchmarks job
(``--benchmark-only``) skips it.
"""

import os

from repro import Cluster, DQEMUConfig
from repro.net.faults import FaultPlan, drop
from repro.workloads import blackscholes


def test_fig5_partition(report):
    result = report("services_fig5_partition")
    scenario = lambda name: result.row(name=name)

    clean = scenario("no faults")
    assert clean["completed"]
    # Arming the retry budget on a lossless fabric must change nothing.
    assert clean["retransmits"] == 0 and clean["recoveries"] == 0

    for every in result.params["drop_everies"]:
        lossy = scenario(f"drop 1/{every}")
        assert lossy["completed"]
        # Every loss was detected and retransmitted, at a goodput cost.
        assert lossy["dropped_frames"] > 0
        assert lossy["retransmits"] > 0 and lossy["recoveries"] > 0
        assert lossy["goodput_mips"] < clean["goodput_mips"]

    bare = scenario("partition (no retry)")
    assert not bare["completed"]
    assert "no reply" in bare["failure"]

    healed = scenario("partition + retry")
    assert healed["completed"]
    assert healed["dropped_frames"] > 0
    assert healed["recoveries"] > 0
    assert healed["mean_recovery_us"] > 0
    # Recovering from a partition window costs more wall time than the
    # per-frame background loss (backoff spans the whole window).
    assert healed["mean_recovery_us"] > scenario("drop 1/40")["mean_recovery_us"]
    # Everyone came back: the healed run ends with every peer reachable.
    assert set(result.payload["peer_states"].values()) == {"up"}
    # The committed table carries the per-service reliability columns.
    (_, healed_breakdown) = result.text.split("Runtime service load")
    assert "retransmits" in healed_breakdown


def test_partition_smoke_matrix():
    """Seeded loss smoke run, parameterized by CI's fault-matrix job."""
    every = int(os.environ.get("DQEMU_SMOKE_DROP_EVERY", "60"))
    seed = int(os.environ.get("DQEMU_SMOKE_SEED", "1"))
    prog = blackscholes.build(n_threads=4, n_options=2040, reps=4)
    cfg = DQEMUConfig(
        rpc_timeout_ns=20_000,
        rpc_max_retries=6,
        rpc_backoff_base_ns=10_000,
        rpc_backoff_jitter_ns=2_000,
        fault_plan=FaultPlan.of(drop(every_nth=every, loopback=False), seed=seed),
    ).time_scaled(100.0)
    result = Cluster(2, cfg).run(prog, max_virtual_ms=60_000_000)
    assert result.exit_code == 0
    assert result.faults.dropped > 0
    # Every dropped frame belonged to a retried call (or its reply), so the
    # run rode out all of them.
    assert result.rpc.retransmits > 0
    assert result.rpc.recoveries > 0
