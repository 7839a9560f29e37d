#!/usr/bin/env python3
"""The online control plane: heat telemetry, live rebalancing, hot-record cache.

PR 2/3 built a *static* data plane — shards are placed once, from an offline
heat sample, and a drifting workload strands hot shards on streamed backends
forever.  This example turns that fleet into a system that tracks its
workload: a :class:`~repro.control.telemetry.HeatTracker` measures per-record
query rates in decaying windows (fed by the frontend observe hook) and sums
them per shard, a
:class:`~repro.control.rebalancer.Rebalancer` periodically re-places shards
against the live window and migrates only the diffs, and a
:class:`~repro.control.cache.HotRecordCache` (trusted-aggregator
deployments, ``dedup=True``) serves repeat indices without any replica scan.

The walkthrough:

1. build a controlled fleet whose initial placement is seeded from a sample
   of phase-1 traffic (hot spot in the first shard);
2. drive a drifting Zipf stream — the hot spot jumps to the last shard
   halfway through — on the simulated clock, and watch the control plane
   migrate shards while requests keep flowing;
3. verify every retrieved record bit-for-bit against the database (the
   rebalance is invisible to the protocol);
4. land a bulk update and show the cache drops the dirty index before the
   next retrieval re-reads fresh bytes.

Run:  python examples/control_plane.py
"""

from __future__ import annotations

from repro.control import controlled_fleet
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy
from repro.shard import ShardPlan, heats_from_trace, render_placements
from repro.workloads.traces import zipf_trace


def make_client(database: Database, seed: int) -> PIRClient:
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def main() -> None:
    database = Database.random(num_records=512, record_size=32, seed=23)
    plan = ShardPlan.uniform(database.num_records, 4, block_records=8)
    first, last = plan.shards[0], plan.shards[-1]

    # --- 1. a fleet with its control plane attached -------------------------------
    # The drifting workload: Zipf ranks concentrate near 0, so offsetting
    # them pins the hot spot inside a chosen shard; halfway through the
    # stream it jumps from the first shard to the last.
    half = 80
    skew = zipf_trace(database.num_records, 2 * half, exponent=1.4, seed=31)
    offsets = [first.start] * half + [last.start] * half
    stream = [
        (offset + index) % database.num_records
        for offset, index in zip(offsets, skew)
    ]
    # Stamp the sample with the live arrival cadence and the tracker's own
    # window parameters, so seed placement and online rebalancing price
    # heat on the same per-window scale.
    seed_heats = heats_from_trace(
        plan,
        stream[:half],
        arrival_seconds=[0.02 * i for i in range(half)],
        window_seconds=0.2,
        decay=0.5,
    )
    router, plane = controlled_fleet(
        make_client(database, seed=37),
        database,
        plan,
        seed_heats,
        window_seconds=0.2,  # heat windows of 200ms simulated time
        decay=0.5,  # each completed window keeps half the history
        rebalance_interval_seconds=0.4,
        cache_capacity=16,
        dedup=True,  # the cache rides on dedup (trusted-aggregator caveat)
        policy=BatchingPolicy(max_batch_size=8, max_wait_seconds=10.0),
    )
    print("initial placement (seeded from a phase-1 sample):")
    for line in render_placements(router.placements):
        print(f"  {line}")

    # --- 2. live traffic on the simulated clock ------------------------------------
    request_ids = []
    now = 0.0
    for index in stream:
        request_ids.append(router.submit(index, arrival_seconds=now))
        now += 0.02  # arrivals 20ms apart: windows roll, rebalance passes fire
    router.close()

    # --- 3. records are bit-identical across every live migration ------------------
    records = [router.take_record(request_id) for request_id in request_ids]
    assert records == [database.record(i) for i in stream]
    migrations = plane.rebalancer.total_migrations
    assert migrations >= 1, "the drift should have migrated at least one shard"
    assert router.metrics.cache_hits > 0, "the hot spot should hit the cache"
    print(f"\n{len(stream)} records verified across {migrations} live migration(s):")
    for line in plane.describe():
        print(f"  {line}")
    print("\nplacement after the drift (hot spot followed to the last shard):")
    for line in render_placements(router.placements):
        print(f"  {line}")

    # --- 4. updates invalidate the cache --------------------------------------------
    hot_index = stream[-1]
    assert hot_index in plane.cache, "the drifted hot spot should be resident"
    fresh = bytes(database.record_size)
    router.apply_updates([(hot_index, fresh)])
    assert hot_index not in plane.cache, "dirty index must leave the cache"
    assert router.retrieve_batch([hot_index, hot_index]) == [fresh, fresh]
    print(
        f"\nbulk update of record {hot_index}: cache invalidated, re-scan "
        f"returned the fresh bytes and re-admitted them "
        f"({plane.cache.stats.invalidations} invalidation(s) total)"
    )
    print("\ncontrol plane verified: telemetry, live rebalancing, hot-record cache")


if __name__ == "__main__":
    main()
