#!/usr/bin/env python3
"""The topology lifecycle: versioned plans, online split/merge, heat remap.

PR 4's control plane moves shards between backend *kinds*, but the shard
boundaries themselves were frozen at build time — a single scorching-hot
shard stayed one indivisible scan unit no matter how skewed the workload.
This example walks the machinery that makes the topology itself follow the
heat:

1. pure plan transforms: :meth:`~repro.shard.plan.ShardPlan.split_shard` /
   :meth:`~repro.shard.plan.ShardPlan.merge_shards` return a new versioned
   plan plus a :class:`~repro.shard.plan.TopologyChange` mapping;
2. an atomic data-plane swap:
   :meth:`~repro.shard.backend.ShardedBackend.apply_topology` prepares
   fresh children for the changed ranges off to the side, reuses the rest,
   and installs plan + members in one reference assignment — retrievals
   are bit-identical before, during and after;
3. telemetry that survives the reshape:
   :meth:`~repro.control.telemetry.HeatTracker.remap` divides heat by the
   measured record rates on a split and sums it on a merge;
4. the closed loop: a controlled fleet under a drifting Zipf stream splits
   its hot shard at the in-shard heat median, merges the shards going
   cold, and still returns records byte-identical to a static fleet.

Run:  python examples/topology_reshape.py
"""

from __future__ import annotations

from repro.control import HeatTracker, controlled_fleet
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy, PIRFrontend
from repro.shard import ShardPlan, heats_from_trace
from repro.workloads.traces import zipf_trace


def make_client(database: Database, seed: int) -> PIRClient:
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def main() -> None:
    database = Database.random(num_records=512, record_size=32, seed=41)

    # --- 1. pure transforms on a versioned plan ------------------------------------
    plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
    split = plan.split_shard(0, 64)
    print(f"v{plan.version}: {plan!r}")
    print(f"split shard 0 at 64 -> v{split.new_plan.version}: {split.new_plan!r}")
    print(
        f"  mapping: unchanged={dict(split.unchanged_pairs())}, "
        f"fresh children for new shards {list(split.changed_new_indices())}"
    )
    merged = split.new_plan.merge_shards(0, 1)
    overall = split.compose(merged)
    assert overall.new_plan.same_boundaries(plan)
    print(
        f"merge back -> v{merged.new_plan.version} "
        f"(same boundaries, version never rewinds)"
    )

    # --- 2. the atomic swap keeps retrievals bit-identical ---------------------------
    replicas = [
        create_server(
            "sharded",
            database,
            server_id=i,
            plan=plan,
        )
        for i in (0, 1)
    ]
    frontend = PIRFrontend(
        make_client(database, seed=43),
        replicas,
        policy=BatchingPolicy(max_batch_size=4),
    )
    probe = [0, 63, 64, 511]
    before = frontend.retrieve_batch(probe)
    for replica in replicas:
        replica.backend.apply_topology(replica.backend.plan.split_shard(0, 64))
    after = frontend.retrieve_batch(probe)
    assert before == after == [database.record(i) for i in probe]
    print(
        f"\nlive split applied to both replica fleets: {len(probe)} probes "
        f"bit-identical across the swap (plan v{replicas[0].backend.plan.version}, "
        f"{replicas[0].backend.plan.num_shards} shards)"
    )

    # --- 3. heat survives a reshape ---------------------------------------------------
    tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
    tracker.observe_batch([3] * 30 + [100] * 10, now=0.0)
    change = plan.split_shard(0, tracker.split_point(0))
    heats_before = tracker.heats()
    tracker.remap(change)
    print(
        f"\nheat remap across a split at the in-shard median "
        f"({change.new_plan.shards[0].stop}): "
        f"{heats_before} -> {tracker.heats()} (total conserved)"
    )
    assert sum(tracker.heats()) == sum(heats_before)

    # --- 4. the closed loop under drift ----------------------------------------------
    plan = ShardPlan.uniform(database.num_records, 4, block_records=8)
    first, last = plan.shards[0], plan.shards[-1]
    half = 80
    skew = zipf_trace(database.num_records, 2 * half, exponent=1.4, seed=47)
    offsets = [first.start] * half + [last.start] * half
    stream = [
        (offset + index) % database.num_records
        for offset, index in zip(offsets, skew)
    ]
    seed_heats = heats_from_trace(
        plan,
        stream[:half],
        arrival_seconds=[0.02 * i for i in range(half)],
        window_seconds=0.2,
        decay=0.5,
    )
    router, plane = controlled_fleet(
        make_client(database, seed=53),
        database,
        plan,
        seed_heats,
        window_seconds=0.2,
        decay=0.5,
        rebalance_interval_seconds=0.4,
        split_heat_share=0.5,  # split any shard owning >50% of the heat
        merge_heat_floor=0.5,  # fold neighbours idling below 0.5 q/window
        min_shards=2,
        max_shards=8,
        policy=BatchingPolicy(max_batch_size=8, max_wait_seconds=10.0),
    )
    request_ids = []
    now = 0.0
    for index in stream:
        request_ids.append(router.submit(index, arrival_seconds=now))
        now += 0.02
    router.close()
    records = [router.take_record(request_id) for request_id in request_ids]
    assert records == [database.record(i) for i in stream]
    rebalancer = plane.rebalancer
    assert rebalancer.total_splits >= 1 and rebalancer.total_merges >= 1
    print(
        f"\ndrifting Zipf through the plan-shape policy: "
        f"{rebalancer.total_splits} split(s), {rebalancer.total_merges} "
        f"merge(s), {rebalancer.total_migrations} kind migration(s)"
    )
    for line in plane.describe():
        print(f"  {line}")
    print(f"\nfinal topology: {router.plan!r}")
    print(
        f"{len(stream)} records verified bit-for-bit across every plan "
        f"version (v0 -> v{router.plan.version})"
    )


if __name__ == "__main__":
    main()
