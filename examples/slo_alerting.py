#!/usr/bin/env python3
"""SLOs closing the loop: burn-rate alerts, escalated scaling, a black box.

The observability hub can *judge* the fleet, not just describe it.  This
example declares a latency SLO over a controlled fleet, injects a replica
straggler mid-run, and watches the whole loop turn:

1. calm traffic — the SLO engine's streaming digest tracks rolling
   p50/p95/p99, the error budget sits untouched;
2. an injected +50 ms stall on every replica answer — the fast-burn rule
   (8x budget burn over both a 0.8 s and a 0.2 s window, Google-SRE style)
   fires a paging alert and the flight recorder freezes an incident bundle;
3. the control plane reads the health signal — the autoscaler scales up
   immediately (``reason="slo-escalated"``, no sustain streak) and the
   rebalancer holds cosmetic reshapes while the budget burns;
4. the fault clears — the alert resolves once the short window drains, and
   the deferred scale-down finally lands;
5. the incident bundle — deterministic JSON with the last events, metric
   snapshot, topology version and active alerts — is validated and probed.

The data path never notices any of it: retrieved records are bit-identical
to an uninstrumented static fleet (asserted below).

Run:  python examples/slo_alerting.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.control.autoscaler import AutoscalePolicy
from repro.control.plane import controlled_fleet
from repro.dpf.prf import make_prg
from repro.obs import (
    BurnRateRule,
    FlightRecorder,
    ObservabilityHub,
    SloObjective,
    SloPolicy,
    validate_bundle,
)
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy
from repro.shard.fleet import FleetRouter, heats_from_trace
from repro.shard.plan import ShardPlan
from repro.workloads.traces import zipf_trace


class StragglingReplica:
    """Wraps a replica group; stretches reported latency while active."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.penalty_seconds = 0.0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def answer_batch(self, queries):
        result = self._inner.answer_batch(queries)
        if self.penalty_seconds > 0.0:
            for item in result.results:
                base = item.answer.simulated_seconds
                if base is None and item.breakdown is not None:
                    base = item.breakdown.total
                item.answer = replace(
                    item.answer,
                    simulated_seconds=(base or 0.0) + self.penalty_seconds,
                )
                if item.breakdown is not None:
                    item.breakdown.record("induced_stall", self.penalty_seconds)
        return result


#: The SLO: a latency objective with a fast (paging) and a slow burn rule.
SLO = SloPolicy(
    objectives=(
        SloObjective("latency-p95", target=0.95, latency_threshold_seconds=0.005),
        SloObjective("availability", target=0.999),
    ),
    rules=(
        BurnRateRule("fast", 0.8, 0.2, burn_threshold=8.0, escalate=True),
        BurnRateRule("slow", 3.2, 0.8, burn_threshold=2.0),
    ),
    bucket_seconds=0.05,
    digest_window_seconds=2.0,
)
BATCHING = BatchingPolicy(max_batch_size=8, max_wait_seconds=10.0)
GAP = 0.02
SEED = 21


def workload():
    """The database, shard plan, seed heats and calm/fault/recovery phases."""
    num_records, record_size = 512, 32
    database = Database.random(num_records, record_size, seed=SEED)
    plan = ShardPlan.uniform(num_records, 4, block_records=8)
    calm = list(zipf_trace(num_records, 96, exponent=1.2, seed=SEED + 1))
    faulted = list(zipf_trace(num_records, 96, exponent=1.2, seed=SEED + 2))
    recovery = list(zipf_trace(num_records, 128, exponent=1.2, seed=SEED + 3))
    seed_heats = heats_from_trace(
        plan,
        calm,
        arrival_seconds=[GAP * i for i in range(len(calm))],
        window_seconds=0.2,
        decay=0.5,
    )
    phases = (
        ("calm", calm, 0.0),
        ("fault (+50ms per answer)", faulted, 0.05),
        ("recovery", recovery, 0.0),
    )
    return database, plan, seed_heats, phases


def make_client(database: Database) -> PIRClient:
    return PIRClient(
        database.num_records, database.record_size, seed=SEED + 6, prg=make_prg()
    )


def drive(database, plan, seed_heats, phases):
    """One SLO-guarded controlled fleet over ``phases``.

    Returns ``(hub, plane, records)``; the hub wires the health loop into
    the control plane, and every replica group straggles by the phase's
    stall while that phase's requests arrive.
    """
    hub = ObservabilityHub(slo=SLO)
    router, plane = controlled_fleet(
        make_client(database),
        database,
        plan,
        seed_heats,
        window_seconds=0.2,
        decay=0.5,
        rebalance_interval_seconds=0.4,
        split_heat_share=0.5,
        merge_heat_floor=1.0,
        min_shards=2,
        max_shards=8,
        autoscale=AutoscalePolicy(
            target_heat_per_replica=1000.0,  # bands never trigger: any
            min_replicas=1,                  # scale-up is the alert path
            max_replicas=2,
            sustain_passes=2,
            evaluation_interval_seconds=0.2,
            cooldown_seconds=1.0,
        ),
        policy=BATCHING,
        hub=hub,
    )
    stragglers = [StragglingReplica(group) for group in router.replicas]
    router.replicas[:] = stragglers

    request_ids = []
    now = 0.0
    for _, indices, stall in phases:
        for straggler in stragglers:
            straggler.penalty_seconds = stall
        for index in indices:
            request_ids.append(router.submit(index, arrival_seconds=now))
            now += GAP
    router.close()
    return hub, plane, [router.take_record(request_id) for request_id in request_ids]


def main() -> None:
    database, plan, seed_heats, phases = workload()
    print("objectives:")
    for objective in SLO.objectives:
        print(f"  {objective.describe()}")

    # --- drive calm -> fault -> recovery --------------------------------------------
    start = 0.0
    for label, indices, _ in phases:
        print(f"\nphase: {label} — {len(indices)} requests from t={start:.2f}s")
        start += GAP * len(indices)
    hub, plane, records = drive(database, plan, seed_heats, phases)

    # --- what the judgement layer saw ------------------------------------------------
    engine = hub.slo
    print("\nalert timeline:")
    for alert in engine.history:
        print(f"  {alert.describe()}")
    assert any(a.severity == "fast" for a in engine.history), "no fast-burn alert"
    assert not engine.active, "alerts should have resolved after recovery"

    print("\nautoscaler actions:")
    for action in plane.autoscaler.actions:
        print(f"  {action.describe()}")
    assert any(a.reason == "slo-escalated" for a in plane.autoscaler.actions)

    held = [
        verdict
        for report in plane.reports
        for verdict in report.suppressed
        if verdict.reason == "slo-burn"
    ]
    print(f"\nreshapes held while burning: {len(held)}")
    for verdict in held[:3]:
        print(f"  {verdict.describe()}")

    # --- the incident bundle ---------------------------------------------------------
    bundles = hub.recorder.incidents
    assert bundles, "alert-fire should have frozen an incident bundle"
    for bundle in bundles:
        validate_bundle(bundle)
    first = bundles[0]
    print(
        f"\nincident bundle: trigger={first['trigger']} at t={first['now']:.2f}s, "
        f"topology v{first['topology_version']}, "
        f"{len(first['active_alerts'])} active alert(s), "
        f"{len(first['events'])} event(s), "
        f"{len(FlightRecorder.dump(first))} canonical JSON bytes"
    )

    # --- the data plane never noticed -----------------------------------------------
    static = FleetRouter(
        make_client(database), database, plan, seed_heats, policy=BATCHING
    )
    assert records == static.retrieve_batch(
        [index for _, indices, _ in phases for index in indices]
    )
    print(
        f"\n{len(records)} records bit-identical to an uninstrumented static "
        f"fleet — the SLO layer observed, judged, and scaled without touching "
        f"a single payload byte"
    )


if __name__ == "__main__":
    main()
