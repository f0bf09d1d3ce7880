"""Fig. 5 (sharded) — master-shard sweep at high node counts.

Extends the scalability story with the sharded master (ROADMAP "Async /
sharded master"): the blackscholes kernel's boundary false sharing keeps
every node's manager busy with coherence traffic on many distinct pages, so
the per-node manager mailbox backs up — measured as the coherence service's
queue wait.  Partitioning the directory across shard pools serves requests
for unrelated pages in parallel and must cut that wait monotonically.
"""



def test_fig5_sharded(report):
    result = report("services_fig5_sharded")

    top = result.rows[-1]["slaves"]
    shards = result.params["shard_counts"]
    assert shards[0] == 1
    cell = lambda k: result.row(slaves=top, shards=k)
    # There is head-of-line blocking to attack at the high end...
    assert cell(1)["queue_wait_us"] > 0
    # ...and sharding attacks it: mean coherence queue wait strictly drops
    # at every shard doubling, at the highest node count.
    waits = [cell(k)["mean_wait_us"] for k in shards]
    for narrow, wide in zip(waits, waits[1:]):
        assert wide < narrow
    # The shard sweep never changes guest work: same request volume (within
    # the small jitter retries introduce) at every shard count.
    reqs = [cell(k)["coherence_reqs"] for k in shards]
    assert max(reqs) - min(reqs) <= 0.05 * max(reqs)
