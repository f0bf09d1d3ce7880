"""Fig. 7 — PARSEC blackscholes & swaptions speedups with ablation series.

Paper: both programs scale with node count (blackscholes near-linear, to
~4-5x at 6 nodes); data forwarding improves blackscholes 15.7-22.7 %
(avg 17.98 %); page splitting improves swaptions 6.1-14.7 %; vanilla QEMU
sits at a flat 1.26 relative to one-slave DQEMU.
"""



def _speedups(result, series):
    return {r["slaves"]: r[series] for r in result.rows}


def test_fig7_blackscholes(report):
    result = report("fig7_blackscholes")

    counts = result.column("slaves")
    origin = _speedups(result, "origin")
    fwd = _speedups(result, "forwarding")
    # Scales with node count (monotone non-decreasing, clearly > 1 at the top).
    assert origin[counts[-1]] >= 1.8
    assert origin[counts[-1]] >= origin[counts[0]]
    # Forwarding helps the data-intensive regular access pattern (paper:
    # 15.7-22.7 %; at our compute-heavier scale we require a consistent,
    # smaller gain: never a regression, >= 2 % on average).
    gains = [fwd[n] / origin[n] for n in counts]
    assert all(g > 0.995 for g in gains)
    assert sum(gains) / len(gains) > 1.02
    # QEMU line is flat and modest (paper: 1.26).
    assert 1.0 <= result.rows[0]["qemu-4.2.0"] <= 1.6


def test_fig7_swaptions(report):
    result = report("fig7_swaptions")

    counts = result.column("slaves")
    origin = _speedups(result, "origin")
    both = _speedups(result, "forwarding+splitting")
    # Little data, little sharing: clear multi-node scaling (the origin
    # series dips at high node counts where result-page ping-pong bites —
    # which is precisely what splitting repairs).
    assert max(origin.values()) >= 1.9
    assert both[counts[-1]] >= 2.0
    # Page splitting improves the result-array false sharing at multi-node
    # counts (paper: 6.1-14.7 %).
    gains = [both[n] / origin[n] for n in counts if n >= 2]
    assert max(gains) > 1.04
    assert 1.0 <= result.rows[0]["qemu-4.2.0"] <= 1.3
