"""Node-crash tolerance experiment (crash / evacuate / checkpoint / drain).

``test_fig5_crash`` regenerates the crash-tolerance table
(``benchmarks/results/services_fig5_crash.txt``) plus machine-readable
``benchmarks/results/BENCH_crash.json`` and asserts its shape claims: a
mid-kernel crash of one slave aborts the run with a ``ServiceTimeout`` when
the failure domain is disarmed (the seed behavior), completes degraded when
evacuation is armed (threads whose contexts died with the node are reaped
and reported lost, its directory footprint is re-homed), completes without
casualties under a cooperative drain, and — across the checkpoint-interval
sweep — restores the victim's threads from their last snapshots, trading
checkpoint wire bytes against rollback distance.

``test_crash_smoke_matrix`` is the seeded crash-matrix smoke run CI
executes once per slave via the ``DQEMU_SMOKE_CRASH_NODE`` environment
variable (and once per checkpoint arm via ``DQEMU_SMOKE_CHECKPOINT``, once
per heartbeat arm via ``DQEMU_SMOKE_HEARTBEAT``).
It deliberately does not use the benchmark fixture, so the main benchmarks
job (``--benchmark-only``) skips it.
"""

import os

from repro import Cluster, DQEMUConfig
from repro.net.faults import FaultPlan
from repro.workloads import blackscholes


def test_fig5_crash(report):
    result = report("services_fig5_crash")
    scenario = lambda name: result.row(name=name)

    clean = scenario("no faults")
    assert clean["completed"]

    # Seed behavior: a dead slave with no failure domain kills the run.
    bare = scenario("crash (no evacuation)")
    assert not bare["completed"]
    assert "no reply" in bare["failure"]

    # Evacuation: the run completes degraded.  The victim's threads were
    # mid-kernel (running, contexts on their cores), so they are lost with
    # per-thread attribution; its directory footprint is reclaimed.
    evac = scenario("crash + evacuation")
    assert evac["completed"]
    assert evac["lost_threads"] > 0
    assert evac["rehomed_pages"] > 0
    assert evac["detection_ns"] is not None and evac["detection_ns"] > 0
    assert evac["recovery_ns"] is not None
    # Detection is bounded by one call's retry budget against the corpse.
    p = result.params
    windows = p["timeout_ns"] * (p["retries"] + 1)
    backoffs = sum(
        (p["backoff_base_ns"] << k) + p["backoff_jitter_ns"]
        for k in range(p["retries"])
    )
    assert evac["detection_ns"] <= windows + backoffs
    # Losing a node costs wall time but not the run.
    assert evac["virtual_ns"] > clean["virtual_ns"]
    # The detector's verdict sticks: the victim ends the run down.
    assert result.payload["peer_states"][str(p["victim"])] == "down"

    # Cooperative drain: every thread is handed back, nothing is lost.
    drain = scenario("cooperative drain")
    assert drain["completed"]
    assert drain["evacuated_threads"] > 0
    assert drain["lost_threads"] == 0 and drain["lost_pages"] == 0
    assert drain["recovery_ns"] is not None and drain["recovery_ns"] > 0

    # Checkpoint-interval sweep: snapshots turn the same crash's casualties
    # into rollbacks.  Some finite interval achieves zero loss, and the
    # interval trades checkpoint wire bytes against rollback distance.
    sweep = [s for s in result.rows if s["checkpoint_interval_ns"] is not None]
    assert len(sweep) >= 2
    assert all(s["completed"] for s in sweep)
    assert any(s["lost_threads"] == 0 and s["restored_threads"] > 0 for s in sweep)
    by_interval = sorted(sweep, key=lambda s: s["checkpoint_interval_ns"])
    bytes_by_interval = [s["checkpoint_bytes"] for s in by_interval]
    assert bytes_by_interval == sorted(bytes_by_interval, reverse=True)
    rollbacks = [
        s["mean_rollback_ns"] for s in by_interval
        if s["mean_rollback_ns"] is not None
    ]
    assert rollbacks and rollbacks[-1] > rollbacks[0]
    # Every restored thread rolled back at most one detection span plus one
    # checkpoint interval (the snapshot it restored from was the newest).
    for s in by_interval:
        if s["mean_rollback_ns"] is not None:
            assert s["mean_rollback_ns"] > 0

    # The committed tables carry the failure-domain columns; the restored
    # column appears in the checkpoint run's breakdown.
    (_, evacuated_breakdown, checkpoint_breakdown) = result.text.split(
        "Runtime service load"
    )
    assert "lost threads" in evacuated_breakdown
    assert "rehomed pages" in evacuated_breakdown
    assert "restored" in checkpoint_breakdown
    assert "checkpoint" in checkpoint_breakdown
    # The default (no-checkpoint) breakdown gains no checkpoint service row.
    assert "checkpoint" not in evacuated_breakdown


def test_crash_smoke_matrix():
    """Seeded crash smoke run, parameterized by CI's crash-matrix job."""
    victim = int(os.environ.get("DQEMU_SMOKE_CRASH_NODE", "1"))
    checkpointed = os.environ.get("DQEMU_SMOKE_CHECKPOINT", "0") == "1"
    heartbeats = os.environ.get("DQEMU_SMOKE_HEARTBEAT", "0") == "1"
    n_slaves = 3
    prog = blackscholes.build(n_threads=6, n_options=2040, reps=4)

    def cfg(**kw):
        return DQEMUConfig(
            rpc_timeout_ns=20_000,
            rpc_max_retries=4,
            rpc_backoff_base_ns=10_000,
            rpc_backoff_jitter_ns=2_000,
            **kw,
        ).time_scaled(100.0)

    clean = Cluster(n_slaves, cfg()).run(prog, max_virtual_ms=60_000_000)
    assert clean.exit_code == 0

    crash_at = int(0.35 * clean.virtual_ns)
    plan = FaultPlan.crash(victim, crash_at, seed=victim)
    ckpt_kw = (
        dict(checkpoint_interval_ns=max(1, clean.virtual_ns // 10))
        if checkpointed else {}
    )
    config = cfg(
        fault_plan=plan,
        evacuation_enabled=True,
        **ckpt_kw,
    )
    if heartbeats:
        # Post-scale slack lease: the busy victim's RPC retry budget must
        # still win the detection race (heartbeats are a backstop here).
        config = config.with_options(
            heartbeat_interval_ns=max(1, clean.virtual_ns // 5)
        )
    result = Cluster(n_slaves, config).run(prog, max_virtual_ms=60_000_000)
    assert result.exit_code == 0
    assert result.failures is not None
    rec = result.failures.nodes[victim]
    assert rec.kind == "crash"
    assert rec.recovered_ns is not None
    # Everything the victim held is accounted for: evacuated, restored from
    # a checkpoint, or lost.
    assert len(rec.evacuated) + len(rec.restored) + len(rec.lost) > 0
    if checkpointed:
        # With snapshots every tenth of the run, at least one of the
        # victim's threads restores, and its accounting is attributed.
        assert rec.restored
        assert result.stats.protocol.checkpoints_taken > 0
        assert result.stats.services["failure"].restores == len(rec.restored)
        assert all(rollback > 0 for _tid, _tgt, rollback in rec.restored)
    else:
        assert not rec.restored
        assert result.stats.protocol.checkpoints_taken == 0
    if heartbeats:
        # Both detectors were armed; on a chatty victim the passive one
        # fires first, and the merged health view records that.
        assert rec.evidence == "rpc-timeout"
        assert result.stats.protocol.heartbeats_sent > 0
    else:
        assert result.stats.protocol.heartbeats_sent == 0
