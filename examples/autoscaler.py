#!/usr/bin/env python3
"""The closed-loop autoscaler: damped reshapes and replica-elastic fleets.

PR 5's control plane can reshape the topology and migrate shards between
backend kinds, but every proposal it liked was executed immediately — a
borderline workload could make the fleet flap — and the replica count per
trust domain was frozen at build time.  This example walks the PR 8 loop
that closes both gaps:

1. cost-aware damping: a :class:`~repro.control.ReshapeDamper` charges
   each proposed reshape its transfer cost against the projected
   per-window saving (amortized within a horizon) and holds a per-range
   cooldown, so borderline actions are suppressed instead of executed;
2. replica elasticity: :meth:`~repro.shard.FleetRouter.stage_replicas` /
   ``commit_replicas`` bring a new replica per trust domain online from a
   snapshot plus a journaled update replay, and ``drain_replica`` takes
   one down — retrievals stay bit-identical throughout;
3. the closed loop: a calm → surge → cool-down Zipf stream through
   :func:`~repro.control.controlled_fleet` with an
   :class:`~repro.control.AutoscalePolicy`; sustained utilization scales
   the fleet up and back down, damping suppresses the flappy reshapes,
   and every record still matches a static fleet that never changed.

Run:  python examples/autoscaler.py
"""

from __future__ import annotations

from typing import List

from repro.control import AutoscalePolicy, DampingPolicy, ReshapeDamper, controlled_fleet
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy
from repro.shard import FleetRouter, ShardPlan, heats_from_trace
from repro.workloads.traces import zipf_trace

NUM_RECORDS = 512
RECORD_SIZE = 32


def make_client(seed: int) -> PIRClient:
    return PIRClient(NUM_RECORDS, RECORD_SIZE, seed=seed, prg=make_prg())


def main() -> None:
    database = Database.random(NUM_RECORDS, RECORD_SIZE, seed=61)

    # --- 1. the damper: is this reshape worth its transfer cost? -------------------
    damper = ReshapeDamper(
        DampingPolicy(amortize_windows=4.0, cooldown_seconds=5.0)
    )
    print("reshape economics (saving amortized over 4 windows vs transfer):")
    proposals = [
        ("merge", 0, 512, -0.003, 0.0),     # merging hot shards costs every query
        ("split", 256, 512, 0.002, 0.010),  # 8 ms never repays 10 ms
        ("split", 0, 256, 0.004, 0.010),   # 4 windows x 4 ms repays 10 ms
    ]
    for action, start, stop, saving, transfer in proposals:
        verdict = damper.judge(action, start, stop, saving, transfer, now=0.0)
        outcome = "allowed" if verdict is None else f"suppressed ({verdict.reason})"
        if verdict is None:
            damper.note_action(0.0, start, stop)
        print(
            f"  {action} [{start}, {stop}): saving {saving * 1e3:+.0f} ms/window, "
            f"transfer {transfer * 1e3:.0f} ms -> {outcome}"
        )
    verdict = damper.judge("merge", 0, 256, 1.0, 0.0, now=2.0)
    assert verdict is not None and verdict.reason == "cooldown"
    print(
        "  merge [0, 256) 2 s after the executed split -> suppressed (cooldown), "
        "whatever its economics"
    )

    # --- 2. replica elasticity is invisible to clients -----------------------------
    plan = ShardPlan.uniform(NUM_RECORDS, 4, block_records=8)
    router = FleetRouter(
        make_client(62),
        database,
        plan,
        heats=[1.0] * 4,
        policy=BatchingPolicy(max_batch_size=4),
    )
    probe = [0, 7, 255, 511]
    before = router.retrieve_batch(probe)

    staged = router.stage_replicas()
    updates = [(7, bytes(RECORD_SIZE))]
    router.apply_updates(updates)  # lands while the snapshot is in flight...
    router.commit_replicas(staged)  # ...and reaches the new member via the journal
    expected = database.with_updates(updates)
    after_add = router.retrieve_batch(probe)
    assert after_add == [expected.record(i) for i in probe]
    print(
        f"\nreplica add: {router.replica_count} replicas per trust domain, "
        f"in-flight update replayed from the journal, "
        f"{len(probe)} probes verified against the database"
    )

    router.drain_replica()
    after_drain = router.retrieve_batch(probe)
    assert after_drain == after_add
    assert before[0] == after_add[0]  # untouched records never moved
    print(
        f"replica drain: back to {router.replica_count} replica per trust "
        f"domain, probes bit-identical across the drain"
    )

    # --- 3. the closed loop under a surge ------------------------------------------
    plan = ShardPlan.uniform(NUM_RECORDS, 4, block_records=8)
    calm = zipf_trace(NUM_RECORDS, 64, exponent=1.2, seed=63)
    surge = zipf_trace(NUM_RECORDS, 160, exponent=1.4, seed=64)
    cool = zipf_trace(NUM_RECORDS, 64, exponent=1.2, seed=65)
    stream = list(calm) + list(surge) + list(cool)
    arrivals: List[float] = []
    now = 0.0
    for gap, phase in ((0.05, calm), (0.005, surge), (0.05, cool)):
        for _ in phase:
            arrivals.append(now)
            now += gap
    seed_heats = heats_from_trace(
        plan,
        list(calm),
        arrival_seconds=arrivals[: len(calm)],
        window_seconds=0.2,
        decay=0.5,
    )

    policy = BatchingPolicy(max_batch_size=8, max_wait_seconds=10.0)
    static = FleetRouter(
        make_client(66), database, plan, seed_heats, policy=policy
    )
    static_records = static.retrieve_batch(stream)

    router, plane = controlled_fleet(
        make_client(66),
        database,
        plan,
        seed_heats,
        window_seconds=0.2,
        decay=0.5,
        rebalance_interval_seconds=0.4,
        split_heat_share=0.5,
        merge_heat_floor=5.0,
        min_shards=2,
        max_shards=8,
        damping=DampingPolicy(amortize_windows=4.0, cooldown_seconds=0.4),
        autoscale=AutoscalePolicy(
            target_heat_per_replica=10.0,
            scale_up_utilization=0.8,
            scale_down_utilization=0.3,
            min_replicas=1,
            max_replicas=2,
            sustain_passes=2,
            evaluation_interval_seconds=0.2,
        ),
        dedup=True,
        policy=policy,
    )
    request_ids = [
        router.submit(index, arrival_seconds=arrival)
        for index, arrival in zip(stream, arrivals)
    ]
    router.close()
    live_records = [router.take_record(request_id) for request_id in request_ids]
    assert live_records == static_records

    ups = [a for a in plane.autoscaler.actions if a.direction == "up"]
    downs = [a for a in plane.autoscaler.actions if a.direction == "down"]
    assert ups and downs
    assert plane.rebalancer.total_suppressed >= 1
    assert router.replica_count == 1

    print(
        f"\nclosed loop over {len(stream)} queries "
        f"(calm {len(calm)} / surge {len(surge)} / cool {len(cool)}):"
    )
    for line in plane.describe():
        print(line)
    for action in plane.autoscaler.actions:
        print("  " + action.describe())
    print(
        f"{len(stream)} records bit-identical to the static fleet across "
        f"{len(ups)} scale-up(s), {len(downs)} scale-down(s) and "
        f"{plane.rebalancer.total_suppressed} damped reshape(s)"
    )


if __name__ == "__main__":
    main()
