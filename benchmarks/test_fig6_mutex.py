"""Fig. 6 — mutex performance (worst case: global lock; best case: private).

Paper: 32 threads.  Worst case (5 000 acquire/release on one global lock):
best outcome at ONE slave node (5.2 s), degrading as nodes are added (up to
25.6 s at 6) — far above single-node QEMU (0.48 s).  Best case (private
locks, 500 000 ops): identical to QEMU on one node and improving with more
nodes as CPU contention drops (4.0 s → 1.2 s; QEMU 3.4 s).
"""



def test_fig6_mutex(report):
    result = report("fig6_mutex")

    counts = result.column("slaves")
    worst = {r["slaves"]: r["worst_ns"] for r in result.rows}
    best = {r["slaves"]: r["best_ns"] for r in result.rows}
    qemu_worst_ns = result.rows[0]["qemu_worst_ns"]
    qemu_best_ns = result.rows[0]["qemu_best_ns"]

    # Worst case: one slave node is the best multi-node configuration, and
    # adding nodes makes the global lock substantially more expensive.
    assert worst[1] == min(worst.values())
    assert max(worst.values()) > 1.8 * worst[1]
    # Worst case is an order of magnitude above the QEMU baseline
    # (paper: 5.2 s vs 0.48 s ~ 11x; we accept >= 5x).
    assert worst[1] > 5 * qemu_worst_ns
    # Best case: more nodes = more cores = faster (paper: 4.0 -> 1.2 s).
    assert best[counts[-1]] < best[1] / 2
    # Best case at one node is in the same ballpark as QEMU (paper 4.0 vs 3.4).
    assert best[1] < 2 * qemu_best_ns
    # Worst case dwarfs best case at every node count.
    assert all(worst[n] > 5 * best[n] for n in counts)
