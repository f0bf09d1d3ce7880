"""Active-liveness experiment (lease-based heartbeat failure detection).

``test_fig5_heartbeat`` regenerates the detection-latency/overhead table
(``benchmarks/results/services_fig5_heartbeat.txt``) plus machine-readable
``benchmarks/results/BENCH_heartbeat.json`` and asserts its shape claims:
a quiet victim — a slave that crashes while nobody has a call outstanding
against it — hangs the run when only the passive RPC-timeout detector is
armed, completes degraded within the configured detection bound once
lease-renewal heartbeats are on, and across the interval sweep detection
latency grows with the renewal interval while renewal wire bytes shrink.
A busy victim with a slack lease is detected by the RPC retry budget
first, so the failure record's evidence reads ``rpc-timeout``.

``test_heartbeat_smoke_matrix`` is the quiet-victim smoke run CI executes
once per heartbeat arm via the ``DQEMU_SMOKE_HEARTBEAT`` environment
variable.  It deliberately does not use the benchmark fixture, so the main
benchmarks job (``--benchmark-only``) skips it.
"""

import os

import pytest

from repro import Cluster, DQEMUConfig
from repro.errors import SimulationError
from repro.net.faults import FaultPlan
from repro.workloads import pi_taylor


def test_fig5_heartbeat(report):
    result = report("services_fig5_heartbeat")
    scenario = lambda name: result.row(name=name)

    # Heartbeats default off: the clean baseline sends not a single frame.
    clean = scenario("quiet: no faults")
    assert clean["completed"]
    assert clean["heartbeats_sent"] == 0 and clean["heartbeat_bytes"] == 0

    # The quiet victim is invisible to the passive detector: with no call
    # aimed at the corpse the retry budget never trips and the run starves.
    hung = scenario("quiet: crash (no heartbeat)")
    assert not hung["completed"]
    assert "deadlock" in hung["failure"] or "budget" in hung["failure"]

    # Interval sweep: every armed run completes degraded, detection is
    # attributed to the lease and lands within the configured bound.
    sweep = [
        s for s in result.rows
        if s["heartbeat_interval_ns"] is not None and s["name"].startswith("quiet")
    ]
    assert len(sweep) >= 2
    for s in sweep:
        assert s["completed"]
        assert s["evidence"] == "lease-expiry"
        assert s["lost_threads"] > 0
        assert s["lease_expiries"] > 0
        assert s["detection_ns"] is not None
        assert 0 < s["detection_ns"] <= s["detection_bound_ns"]
    # The latency/overhead tradeoff: a longer renewal interval detects
    # later but spends fewer wire bytes keeping the lease warm.
    by_interval = sorted(sweep, key=lambda s: s["heartbeat_interval_ns"])
    detections = [s["detection_ns"] for s in by_interval]
    assert detections == sorted(detections)
    hb_bytes = [s["heartbeat_bytes"] for s in by_interval]
    assert hb_bytes == sorted(hb_bytes, reverse=True)

    # Evidence merging: the busy victim's retry budget exhausts well inside
    # the slack lease, so the passive detector wins the race — same health
    # view, same failure-domain path, different first evidence.
    busy = scenario("busy: crash + slack hb")
    assert busy["completed"]
    assert busy["evidence"] == "rpc-timeout"
    assert busy["heartbeats_sent"] > 0  # heartbeats were armed, just slack

    # The committed breakdown carries both heartbeat service rows; the
    # detector's verdict sticks in the final health view.
    (_, heartbeat_breakdown) = result.text.split("Runtime service load")
    assert "heartbeat" in heartbeat_breakdown
    assert "node.heartbeat" in heartbeat_breakdown
    victim = str(result.params["victim"])
    peer_states = result.payload["peer_states"]
    assert peer_states[victim] == "down"
    assert all(state == "up" for nid, state in peer_states.items() if nid != victim)


def test_heartbeat_smoke_matrix():
    """Quiet-victim smoke run, parameterized by CI's crash-matrix job."""
    heartbeats = os.environ.get("DQEMU_SMOKE_HEARTBEAT", "0") == "1"
    n_slaves = 3
    victim = 3
    prog = pi_taylor.build(n_threads=3, terms=600, reps=2)

    def cfg(**kw):
        return DQEMUConfig(
            rpc_timeout_ns=5_000_000,
            rpc_max_retries=4,
            rpc_backoff_base_ns=10_000,
            rpc_backoff_jitter_ns=2_000,
            evacuation_enabled=True,
            **kw,
        ).time_scaled(100.0)

    clean = Cluster(n_slaves, cfg()).run(prog, max_virtual_ms=60_000_000)
    assert clean.exit_code == 0

    crash_at = int(0.5 * clean.virtual_ns)
    plan = FaultPlan.crash(victim, crash_at, seed=7)

    if not heartbeats:
        # Passive-only detection: the quiet victim's crash is never seen
        # and the join deadlocks (the pre-heartbeat behavior).
        with pytest.raises(SimulationError):
            Cluster(n_slaves, cfg(fault_plan=plan)).run(
                prog, max_virtual_ms=60_000_000
            )
        return

    # Heartbeat knobs are post-scale virtual ns (derived from the measured
    # clean duration), so they go on after time_scaled.
    interval = max(1, clean.virtual_ns // 50)
    config = cfg(fault_plan=plan).with_options(heartbeat_interval_ns=interval)
    result = Cluster(n_slaves, config).run(prog, max_virtual_ms=60_000_000)
    assert result.exit_code == 0
    assert result.failures is not None
    rec = result.failures.nodes[victim]
    assert rec.kind == "crash"
    assert rec.evidence == "lease-expiry"
    detection = rec.detected_ns - crash_at
    assert 0 < detection <= config.heartbeat_detection_bound_ns()
    assert result.stats.protocol.heartbeats_sent > 0
    assert result.failures.lease_detections == 1
