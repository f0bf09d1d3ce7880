"""Ablation studies for DQEMU's design choices.

The paper motivates several mechanisms qualitatively; these sweeps quantify
each one on the simulator:

* :func:`ablate_forwarding_window` — read-ahead window cap vs sequential
  bandwidth (§5.2's Linux-readahead-style doubling);
* :func:`ablate_splitting_trigger` — how the false-sharing trigger count
  trades detection latency against spurious splits (§5.1's "over 10 times");
* :func:`ablate_quantum` — scheduling-quantum size vs contended-lock cost
  (vCPU timeslicing granularity);
* :func:`ablate_dsm_service` — master protocol-software cost vs remote-page
  latency (the gap between the 40 µs wire bound and the measured 410 µs the
  paper discusses).
"""

from __future__ import annotations

from repro.analysis.metrics import mean_fault_latency_us, throughput_mbps
from repro.analysis.reporting import Report
from repro.core.cluster import Cluster
from repro.core.config import DQEMUConfig
from repro.workloads import memaccess, mutex_bench

__all__ = [
    "ablate_forwarding_window",
    "ablate_splitting_trigger",
    "ablate_quantum",
    "ablate_dsm_service",
]

RUN_KW = dict(max_virtual_ms=60_000_000)


def ablate_forwarding_window(
    windows=(0, 4, 16, 64, 256), npages: int = 128
) -> Report:
    """Window 0 disables forwarding entirely."""
    prog = memaccess.build_seq_walk(npages=npages)
    rows = []
    for w in windows:
        cfg = DQEMUConfig(
            forwarding_enabled=w > 0,
            forwarding_initial_window=max(w // 2, 1) if w else 1,
            forwarding_max_window=max(w, 1),
        )
        r = Cluster(1, cfg).run(prog, **RUN_KW)
        elapsed, _ = memaccess.parse_output(r.stdout)
        rows.append({
            "max window": w,
            "MB/s": throughput_mbps(memaccess.seq_walk_bytes(npages), elapsed),
            "fault latency us": mean_fault_latency_us(r),
            "pages pushed": r.stats.protocol.pages_forwarded,
        })
    return Report.table(
        "Ablation — forwarding window cap (sequential walk)",
        rows,
        dict(windows=tuple(windows), npages=npages),
    )


def ablate_splitting_trigger(
    triggers=(5, 10, 20, 10_000), iters: int = 80_000
) -> Report:
    """Run at a reduced protocol-service scale so ownership ping-pong cycles
    are short enough for every trigger level to be reachable in a bounded
    run; trigger=10_000 is effectively 'never split'."""
    prog_args = dict(n_threads=8, n_nodes=2, iters=iters, warmup_iters=iters)
    rows = []
    for trig in triggers:
        cfg = DQEMUConfig(
            splitting_enabled=True, splitting_trigger=trig, dsm_service_ns=30_000
        )
        r = Cluster(2, cfg).run(memaccess.build_false_sharing(**prog_args), **RUN_KW)
        elapsed, _ = memaccess.parse_false_sharing_output(r.stdout)
        rows.append({
            "trigger": trig,
            "aggregate MB/s": memaccess.aggregate_bandwidth_mbps(elapsed, iters),
            "splits": r.stats.protocol.splits,
            "merges": r.stats.protocol.merges,
        })
    return Report.table(
        "Ablation — false-sharing trigger count",
        rows,
        dict(triggers=tuple(triggers), iters=iters),
    )


def ablate_quantum(
    quanta=(5_000, 20_000, 50_000, 200_000), iters: int = 10_000
) -> Report:
    rows = []
    for q in quanta:
        cfg = DQEMUConfig(quantum_cycles=q)
        r = Cluster(2, cfg).run(
            mutex_bench.build(n_threads=8, iters=iters, private=False), **RUN_KW
        )
        rows.append({
            "quantum cycles": q,
            "lock phase ms": mutex_bench.elapsed_ns(r.stdout) / 1e6,
            "futex waits": r.stats.protocol.futex_waits,
        })
    return Report.table(
        "Ablation — scheduling quantum vs contended global lock",
        rows,
        dict(quanta=tuple(quanta), iters=iters),
    )


def ablate_dsm_service(
    services_us=(40, 160, 320, 640), npages: int = 64
) -> Report:
    prog = memaccess.build_seq_walk(npages=npages)
    rows = []
    for s in services_us:
        cfg = DQEMUConfig(dsm_service_ns=s * 1000)
        r = Cluster(1, cfg).run(prog, **RUN_KW)
        elapsed, _ = memaccess.parse_output(r.stdout)
        rows.append({
            "service us": s,
            "fault latency us": mean_fault_latency_us(r),
            "MB/s": throughput_mbps(memaccess.seq_walk_bytes(npages), elapsed),
        })
    return Report.table(
        "Ablation — master protocol service time vs remote-page latency",
        rows,
        dict(services_us=tuple(services_us), npages=npages),
    )
