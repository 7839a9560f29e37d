#!/usr/bin/env python3
"""Replica fleets: sharding the database with capability-aware placement.

PR 1 unified the five server variants behind one engine; this example climbs
one more layer.  A :class:`~repro.shard.plan.ShardPlan` partitions the
database into contiguous block-aligned shards, a
:class:`~repro.shard.backend.ShardedBackend` composes one child backend per
shard behind the ordinary ``PIRBackend`` protocol (``create_server("sharded",
...)`` builds a server over one), and a
:class:`~repro.shard.fleet.FleetRouter` turns each of the two privacy
replicas into a *fleet* whose shards land on the cheapest capable backend
kind — hot shards on preloaded PIM, cold shards on streamed IM-PIR.

The walkthrough:

1. shard a database three ways over every backend kind and verify the
   answers stay bit-identical to the unsharded scan;
2. measure shard heats from a skewed query trace and let the placement
   split hot from cold shards;
3. retrieve a batch through the resulting fleets (with answer dedup on) and
   verify every record;
4. apply a bulk update and show it touches only the owning shard.

Run:  python examples/sharded_fleet.py
"""

from __future__ import annotations

from repro.common.units import format_seconds
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy
from repro.shard import (
    BARE_BACKEND_KINDS,
    FleetRouter,
    ShardPlan,
    heats_from_trace,
    render_placements,
)


def make_client(database: Database, seed: int) -> PIRClient:
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def main() -> None:
    database = Database.random(num_records=1024, record_size=32, seed=29)
    print(
        f"database: {database.num_records} records of {database.record_size} B, "
        f"sharded across replica fleets\n"
    )

    # --- 1. sharded == unsharded, for every backend kind -------------------------
    reference = create_server("reference", database)
    index = 777
    print("sharded retrieval is bit-identical to the unsharded scan:")
    for kind in BARE_BACKEND_KINDS:
        client = make_client(database, seed=3)
        sharded = create_server(
            "sharded", database, num_shards=3, child_kind=kind, prg=make_prg()
        )
        query = client.query(index)[0]
        sharded_payload = sharded.engine.answer(query).answer.payload
        assert sharded_payload == reference.engine.answer(query).answer.payload, kind
        caps = sharded.engine.backend.capabilities()
        print(f"  {kind:>16}: 3 shards agree ({caps.description})")

    # --- 2. heats from a skewed trace drive the placement -------------------------
    plan = ShardPlan.uniform(database.num_records, 4, block_records=8)
    trace = [5] * 80 + [300] * 40 + [900]  # shards 0/1 hot, shard 3 barely warm
    heats = heats_from_trace(plan, trace)
    router = FleetRouter(
        make_client(database, seed=11),
        database,
        plan,
        heats,
        policy=BatchingPolicy(max_batch_size=6),
        dedup=True,  # trusted-aggregator deployment: identical indices scanned once
    )
    print("\ncapability-aware placement (hot -> preloaded, cold -> streamed):")
    for line in render_placements(router.placements):
        print(f"  {line}")
    kinds = set(router.placement_kinds())
    assert len(kinds) == 2, "expected hot and cold shards on different kinds"

    # --- 3. batched retrieval through the fleets ----------------------------------
    indices = [5, 5, 300, 900, 5, 1023]
    records = router.retrieve_batch(indices)
    assert records == [database.record(i) for i in indices]
    metrics = router.metrics
    print(
        f"\nfleet batch: {len(indices)} requests "
        f"({metrics.deduped_requests} answered by dedup), "
        f"makespan {format_seconds(metrics.total_makespan_seconds)}, "
        f"cluster utilization {metrics.last_cluster_utilization:.2f}"
    )

    # --- 4. updates touch only the owning shard -----------------------------------
    fleet = router.fleets[0]
    dirty_index = 42  # owned by shard 0
    owner = fleet.backend.plan.shard_for_record(dirty_index)
    timer = fleet.apply_updates([(dirty_index, b"\x5a" * database.record_size)])
    print(
        f"\nbulk update of record {dirty_index}: shard {owner.index} re-copied "
        f"({format_seconds(timer.total)}), every other shard untouched"
    )
    client = make_client(fleet.database, seed=19)
    query = client.query(dirty_index)[0]
    updated_reference = create_server("reference", fleet.database)
    assert (
        fleet.engine.answer(query).answer.payload
        == updated_reference.engine.answer(query).answer.payload
    )
    print("\nsharded fleet verified: placement, retrieval, dedup and updates")


if __name__ == "__main__":
    main()
