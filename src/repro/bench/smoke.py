"""End-to-end smoke run: every registered backend through one code path.

Unlike the figure generators (analytic, paper-scale), this target does real
functional work on a small database: it builds a two-replica deployment of
every backend in the :mod:`repro.core.engine` registry, answers the same
seeded query set through the shared ``QueryEngine``, cross-checks the
payloads bit-for-bit, and drives a batched retrieval through the
:class:`~repro.pir.frontend.PIRFrontend` to report scheduling metrics.

It is the CI canary wired into ``make check``: if any backend drifts from
the reference scan or the frontend mis-pairs an answer, this exits non-zero.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.common.units import format_seconds
from repro.control.autoscaler import AutoscalePolicy, DampingPolicy
from repro.control.plane import controlled_fleet
from repro.core.engine import available_backends, create_server
from repro.dpf.prf import make_prg
from repro.obs import (
    BurnRateRule,
    FlightRecorder,
    ObservabilityHub,
    SloObjective,
    SloPolicy,
    validate_bundle,
)
from repro.obs.tracing import KIND_PHASE, KIND_SERVER, KIND_SHARD
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import FLUSH_ON_WAIT, BatchingPolicy, PIRFrontend
from repro.shard.fleet import FleetRouter, heats_from_trace, render_placements
from repro.shard.plan import ShardPlan
from repro.workloads.traces import zipf_trace


def backend_smoke(
    num_records: int = 512,
    record_size: int = 32,
    indices: Sequence[int] = (0, 7, 255, 511),
    seed: int = 9,
    segment_records: Optional[int] = 128,
) -> str:
    """Run the cross-backend equivalence + frontend smoke; returns a report."""
    database = Database.random(num_records, record_size, seed=seed)
    lines: List[str] = [
        "Backend smoke: all server variants through the shared QueryEngine",
        f"database: {num_records} records x {record_size} B, queries at {list(indices)}",
        "",
        f"{'backend':>16} {'lanes':>6} {'preloaded':>10} {'batch makespan':>16} "
        f"{'throughput':>14} {'agree':>6}",
    ]

    baseline_payloads = None
    baseline_name = None
    for name in available_backends():
        kwargs = {"segment_records": segment_records} if name == "im-pir-streamed" else {}
        client = PIRClient(num_records, record_size, seed=seed + 1, prg=make_prg("numpy"))
        replicas = [create_server(name, database, server_id=i, **kwargs) for i in (0, 1)]
        caps = replicas[0].engine.backend.capabilities()

        # Per-query equivalence through the uniform engine surface.
        payloads = []
        for index in indices:
            queries = client.query(index)
            results = [replicas[q.server_id].engine.answer(q) for q in queries]
            payloads.append(tuple(r.answer.payload for r in results))
        if baseline_payloads is None:
            baseline_payloads, baseline_name = payloads, name
        agree = payloads == baseline_payloads
        if not agree:
            raise AssertionError(
                f"backend {name!r} disagrees with the payloads of {baseline_name!r}"
            )

        # Batched retrieval through the frontend (pairing + scheduling metrics).
        frontend = PIRFrontend(
            PIRClient(num_records, record_size, seed=seed + 2, prg=make_prg("numpy")),
            replicas,
            policy=BatchingPolicy(max_batch_size=len(indices)),
        )
        records = frontend.retrieve_batch(list(indices))
        for index, record in zip(indices, records):
            if record != database.record(index):
                raise AssertionError(f"backend {name!r} returned a wrong record for {index}")
        metrics = frontend.metrics
        makespan = metrics.total_makespan_seconds
        throughput = (
            f"{metrics.throughput_qps:14.1f}" if makespan > 0 else f"{'n/a':>14}"
        )
        lines.append(
            f"{caps.name:>16} {caps.lanes:>6} {str(caps.preloaded):>10} "
            f"{format_seconds(makespan) if makespan > 0 else 'untimed':>16} "
            f"{throughput} {'ok':>6}"
        )

    lines.append("")
    lines.append(
        f"{len(tuple(available_backends()))} backends agree bit-for-bit on "
        f"{len(list(indices))} queries; frontend paired and reconstructed every batch."
    )

    lines.extend(_fleet_smoke(database, indices, seed))
    return "\n".join(lines)


def _fleet_smoke(database: Database, indices: Sequence[int], seed: int) -> List[str]:
    """Sharded cross-backend retrieval through a capability-placed fleet.

    Shards the smoke database four ways, derives shard heats from a skewed
    trace (most queries hit the first shard), lets the placement put hot
    shards on preloaded PIM and cold shards on streamed IM-PIR, and verifies
    a batched retrieval through the resulting two replica fleets.
    """
    plan = ShardPlan.uniform(database.num_records, 4, block_records=8)
    hot = plan.shards[0]
    trace = [hot.start] * 64 + list(indices)
    heats = heats_from_trace(plan, trace)
    # The demo must show both deployment kinds whatever indices the caller
    # picked, so the least-queried shard is treated as fully cold for
    # placement (retrieval correctness never depends on placement).
    coldest = min(plan.non_empty_shards, key=lambda shard: heats[shard.index])
    heats[coldest.index] = 0.0
    router = FleetRouter(
        PIRClient(
            database.num_records, database.record_size, seed=seed + 3, prg=make_prg("numpy")
        ),
        database,
        plan,
        heats,
        policy=BatchingPolicy(max_batch_size=len(list(indices))),
    )
    kinds = set(router.placement_kinds())
    if len(kinds) < 2:
        raise AssertionError(
            f"capability placement used a single backend kind for hot and cold "
            f"shards: {kinds}"
        )
    records = router.retrieve_batch(list(indices))
    for index, record in zip(indices, records):
        if record != database.record(index):
            raise AssertionError(f"sharded fleet returned a wrong record for {index}")

    lines = ["", f"Sharded fleet: {plan.num_shards} shards, capability-aware placement"]
    lines.extend(render_placements(router.placements))
    lines.append(
        f"fleet retrieval verified for {len(list(indices))} indices across "
        f"{len(kinds)} backend kinds; batch makespan "
        f"{format_seconds(router.metrics.total_makespan_seconds)}"
    )
    return lines


def rebalance_smoke(
    num_records: int = 512,
    record_size: int = 32,
    seed: int = 9,
) -> str:
    """The ``--rebalance`` smoke: online control plane under a drifting Zipf.

    Drives the same drifting workload — Zipf-skewed indices whose hot spot
    moves from the first shard to the last halfway through — through a
    *static* :class:`FleetRouter` and through one wearing the full control
    plane (heat telemetry, live rebalancing, hot-record cache).  Asserts the
    three acceptance properties: at least one heat-driven shard migration, a
    nonzero cache hit rate, and records bit-identical to the static fleet's
    (retrieval correctness never depends on placement — before, during or
    after a migration).
    """
    database = Database.random(num_records, record_size, seed=seed)
    plan = ShardPlan.uniform(num_records, 4, block_records=8)
    first, last = plan.shards[0], plan.shards[-1]

    # Drifting workload: Zipf ranks concentrate near index 0, so offsetting
    # them by a shard's start pins the hot spot inside that shard; halfway
    # through the stream the hot spot jumps from the first shard to the last.
    # Both deployments start from the same offline placement, seeded with a
    # sample of the stream's *first* phase (the drift is what comes after).
    # The sample carries the live arrival stamps and the tracker's window
    # parameters, so the seed heats and the online estimates share a scale.
    stream, seed_heats = _drifting_workload(num_records, plan, seed)

    def make_client(extra: int) -> PIRClient:
        return PIRClient(
            num_records, record_size, seed=seed + extra, prg=make_prg("numpy")
        )

    policy = BatchingPolicy(max_batch_size=8, max_wait_seconds=10.0)
    static = FleetRouter(make_client(6), database, plan, seed_heats, policy=policy)
    static_records = static.retrieve_batch(stream)

    router, plane = controlled_fleet(
        make_client(6),
        database,
        plan,
        seed_heats,
        window_seconds=0.2,
        decay=0.5,
        rebalance_interval_seconds=0.4,
        cache_capacity=16,
        admit_min_heat=1.0,
        dedup=True,
        policy=policy,
    )
    initial_kinds = list(router.placement_kinds())

    # Live traffic on the simulated clock: arrivals 20ms apart, so heat
    # windows roll and rebalance passes fire as the stream drifts.
    request_ids = []
    now = 0.0
    for index in stream:
        request_ids.append(router.submit(index, arrival_seconds=now))
        now += 0.02
    router.close()
    live_records = [router.take_record(request_id) for request_id in request_ids]

    for index, record in zip(stream, live_records):
        if record != database.record(index):
            raise AssertionError(f"controlled fleet returned a wrong record for {index}")
    if live_records != static_records:
        raise AssertionError(
            "controlled fleet drifted from the static fleet's records"
        )
    migrations = plane.rebalancer.total_migrations
    if migrations < 1:
        raise AssertionError("no heat-driven shard migration under the drift")
    hit_rate = plane.cache.stats.hit_rate
    if not (router.metrics.cache_hits > 0 and hit_rate > 0):
        raise AssertionError(
            f"hot-record cache never hit: {plane.cache.stats.as_dict()}"
        )

    lines = [
        "Rebalance smoke: online control plane under a drifting Zipf workload",
        f"database: {num_records} records x {record_size} B, "
        f"{len(stream)} queries, hot spot shard {first.index} -> {last.index}",
        "",
        f"initial kinds: {initial_kinds}",
        f"final kinds:   {router.placement_kinds()}",
        "",
    ]
    lines.extend(plane.describe())
    lines.append("")
    lines.extend(render_placements(router.placements))
    lines.append(
        f"{len(stream)} records verified bit-identical to the static fleet "
        f"across {migrations} live migration(s); cache hit rate {hit_rate:.2f} "
        f"({router.metrics.cache_hits} request(s) served without a scan)"
    )
    return "\n".join(lines)


def resplit_smoke(
    num_records: int = 512,
    record_size: int = 32,
    seed: int = 9,
) -> str:
    """The ``--resplit`` smoke: online topology split/merge under drift.

    Same drifting Zipf workload as :func:`rebalance_smoke`, but the control
    plane's *plan-shape* policy is switched on: the topology itself follows
    the heat.  Asserts the topology acceptance properties — at least one
    online split and one merge occurred, every reshape pass carried nonzero
    remapped heat across the plan-version change (telemetry survives, never
    resets), the plan version advanced monotonically, and every retrieval is
    bit-identical to a static fleet whose boundaries never move.
    """
    database = Database.random(num_records, record_size, seed=seed)
    plan = ShardPlan.uniform(num_records, 4, block_records=8)
    first, last = plan.shards[0], plan.shards[-1]

    # The same drifting stream as the rebalance smoke: the Zipf hot spot
    # jumps from the first shard to the last halfway through.
    stream, seed_heats = _drifting_workload(num_records, plan, seed)

    def make_client(extra: int) -> PIRClient:
        return PIRClient(
            num_records, record_size, seed=seed + extra, prg=make_prg("numpy")
        )

    policy = BatchingPolicy(max_batch_size=8, max_wait_seconds=10.0)
    static = FleetRouter(make_client(6), database, plan, seed_heats, policy=policy)
    static_records = static.retrieve_batch(stream)

    router, plane = controlled_fleet(
        make_client(6),
        database,
        plan,
        seed_heats,
        window_seconds=0.2,
        decay=0.5,
        rebalance_interval_seconds=0.4,
        cache_capacity=16,
        admit_min_heat=1.0,
        split_heat_share=0.5,
        merge_heat_floor=0.5,
        min_shards=2,
        max_shards=8,
        dedup=True,
        policy=policy,
    )
    initial_version = router.plan.version

    request_ids = []
    now = 0.0
    for index in stream:
        request_ids.append(router.submit(index, arrival_seconds=now))
        now += 0.02
    router.close()
    live_records = [router.take_record(request_id) for request_id in request_ids]

    if live_records != static_records:
        raise AssertionError(
            "reshaping fleet drifted from the static fleet's records"
        )
    rebalancer = plane.rebalancer
    if rebalancer.total_splits < 1 or rebalancer.total_merges < 1:
        raise AssertionError(
            f"expected at least one online split and one merge, got "
            f"{rebalancer.total_splits} split(s) / {rebalancer.total_merges} merge(s)"
        )
    if router.plan.version <= initial_version:
        raise AssertionError(
            f"plan version did not advance: {router.plan.version}"
        )
    if router.plan.version != plane.tracker.plan.version:
        raise AssertionError(
            "router and tracker disagree on the live plan version"
        )
    for report in rebalancer.reports:
        if (report.splits or report.merges) and sum(report.heats) <= 0:
            raise AssertionError(
                f"heat was reset (not remapped) across the reshape at "
                f"{report.now:.3f}s: {report.heats}"
            )

    lines = [
        "Resplit smoke: online topology split/merge under a drifting Zipf workload",
        f"database: {num_records} records x {record_size} B, "
        f"{len(stream)} queries, hot spot shard {first.index} -> {last.index}",
        "",
        f"plan: v{initial_version} ({plan.num_shards} shards) -> "
        f"v{router.plan.version} ({router.plan.num_shards} shards)",
        f"final topology: {router.plan!r}",
        "",
    ]
    lines.extend(plane.describe())
    lines.append("")
    lines.extend(render_placements(router.placements))
    lines.append(
        f"{len(stream)} records verified bit-identical to the static fleet "
        f"across {rebalancer.total_splits} split(s), {rebalancer.total_merges} "
        f"merge(s) and {rebalancer.total_migrations} kind migration(s); heat "
        f"remapped (never reset) across every plan version"
    )
    return "\n".join(lines)


def autoscale_smoke(
    num_records: int = 512,
    record_size: int = 32,
    seed: int = 10,
) -> str:
    """The ``--autoscale`` smoke: the closed loop under a surging workload.

    Drives a calm → surge → cool-down Zipf stream through a controlled
    fleet with the full PR-8 loop on — replica elasticity from sustained
    utilization plus cost-aware damping on every reshape — and asserts the
    acceptance properties: at least one scale-up and one scale-down
    happened, at least one borderline reshape was suppressed by damping,
    and every retrieved record is bit-identical to a static single-replica
    fleet that never scales or reshapes.
    """
    database = Database.random(num_records, record_size, seed=seed)
    plan = ShardPlan.uniform(num_records, 4, block_records=8)

    # Three traffic phases on the simulated clock: a calm trickle (the
    # utilization dead zone), a 10x surge (sustained over the scale-up
    # band), and a cool-down (heat decays under the scale-down band).
    calm = zipf_trace(num_records, 64, exponent=1.2, seed=seed + 3)
    surge = zipf_trace(num_records, 160, exponent=1.4, seed=seed + 4)
    cool = zipf_trace(num_records, 64, exponent=1.2, seed=seed + 5)
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

    def make_client(extra: int) -> PIRClient:
        return PIRClient(
            num_records, record_size, seed=seed + extra, prg=make_prg("numpy")
        )

    policy = BatchingPolicy(max_batch_size=8, max_wait_seconds=10.0)
    static = FleetRouter(make_client(6), database, plan, seed_heats, policy=policy)
    static_records = static.retrieve_batch(stream)

    autoscale = AutoscalePolicy(
        target_heat_per_replica=10.0,
        scale_up_utilization=0.8,
        scale_down_utilization=0.3,
        min_replicas=1,
        max_replicas=2,
        sustain_passes=2,
        evaluation_interval_seconds=0.2,
    )
    # A generous merge floor keeps proposing merges of shards that still
    # carry a little heat; their projected saving is negative (the merged
    # shard scans both ranges on every query), so damping vetoes them —
    # the observable "refused to flap" half of the loop.
    damping = DampingPolicy(amortize_windows=4.0, cooldown_seconds=0.4)
    router, plane = controlled_fleet(
        make_client(6),
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
        damping=damping,
        autoscale=autoscale,
        dedup=True,
        policy=policy,
    )

    request_ids = []
    for index, arrival in zip(stream, arrivals):
        request_ids.append(router.submit(index, arrival_seconds=arrival))
    router.close()
    live_records = [router.take_record(request_id) for request_id in request_ids]

    if live_records != static_records:
        raise AssertionError(
            "autoscaled fleet drifted from the static fleet's records"
        )
    autoscaler = plane.autoscaler
    ups = [a for a in autoscaler.actions if a.direction == "up"]
    downs = [a for a in autoscaler.actions if a.direction == "down"]
    if not ups or not downs:
        raise AssertionError(
            f"expected at least one scale-up and one scale-down, got "
            f"{len(ups)} up / {len(downs)} down"
        )
    suppressed = plane.rebalancer.total_suppressed
    if suppressed < 1:
        raise AssertionError("damping never suppressed a borderline reshape")
    if router.replica_count != 1:
        raise AssertionError(
            f"fleet did not return to one replica per trust domain "
            f"(ended at {router.replica_count})"
        )

    lines = [
        "Autoscale smoke: closed-loop elasticity under a surging Zipf workload",
        f"database: {num_records} records x {record_size} B, "
        f"{len(stream)} queries (calm {len(calm)} / surge {len(surge)} / "
        f"cool {len(cool)})",
        "",
    ]
    lines.extend(plane.describe())
    for action in autoscaler.actions:
        lines.append("  " + action.describe())
    lines.append("")
    lines.extend(render_placements(router.placements))
    lines.append(
        f"{len(stream)} records verified bit-identical to the static fleet "
        f"across {len(ups)} scale-up(s), {len(downs)} scale-down(s) and "
        f"{suppressed} damped reshape(s); "
        f"{router.metrics.reconfigurations} gated reconfiguration(s)"
    )
    return "\n".join(lines)


class _LatencyFault:
    """Wraps a replica group; inflates *reported* latency while active.

    The injected degradation the SLO smoke and example drive: with
    ``penalty_seconds`` set, every answer's simulated seconds (and its
    PhaseTimer, as an ``induced_stall`` phase) are stretched by the penalty
    — exactly what a straggling replica looks like to the telemetry —
    while payload bytes are never touched, so retrieved records stay
    bit-identical to an unfaulted run.  Everything else forwards to the
    wrapped group, so elastic scale-ups ride through the wrapper.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.penalty_seconds = 0.0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def answer_batch(self, queries):
        result = self._inner.answer_batch(queries)
        penalty = self.penalty_seconds
        if penalty > 0.0:
            for item in result.results:
                answer = item.answer
                base = answer.simulated_seconds
                if base is None:
                    base = item.breakdown.total
                item.answer = replace(answer, simulated_seconds=base + penalty)
                item.breakdown.record("induced_stall", penalty)
        return result


def _slo_policy() -> SloPolicy:
    """The smoke/example SLO: a latency objective with a fast/slow pair.

    Scaled to the smoke's simulated traffic (requests 20 ms apart, flushes
    every 160 ms, normal latency well under 1 ms): the paging rule needs a
    sustained 8x burn over 0.8 s, still visible within a 0.2 s short
    window; the slow rule catches simmering 2x leaks over 3.2 s.
    """
    return SloPolicy(
        objectives=(
            SloObjective(
                "latency-p95", target=0.95, latency_threshold_seconds=0.005
            ),
            SloObjective("availability", target=0.999),
        ),
        rules=(
            BurnRateRule(
                severity="fast",
                long_window_seconds=0.8,
                short_window_seconds=0.2,
                burn_threshold=8.0,
                escalate=True,
            ),
            BurnRateRule(
                severity="slow",
                long_window_seconds=3.2,
                short_window_seconds=0.8,
                burn_threshold=2.0,
            ),
        ),
        bucket_seconds=0.05,
        digest_window_seconds=2.0,
    )


def slo_smoke(
    num_records: int = 512,
    record_size: int = 32,
    seed: int = 11,
) -> str:
    """The ``--slo`` smoke: burn-rate alerting closing the control loop.

    Drives calm → injected latency fault → recovery through a controlled
    fleet with the SLO engine wired, twice, and asserts the acceptance
    properties end to end: the fast-burn alert fires under the fault and
    resolves after recovery, the autoscaler's alert-escalated scale-up
    appears on the pass report, the dumped incident bundles are schema-valid
    and bit-identical across the two runs, and retrieved records match an
    uninstrumented static fleet exactly.
    """
    database = Database.random(num_records, record_size, seed=seed)
    plan = ShardPlan.uniform(num_records, 4, block_records=8)

    # Three traffic phases, arrivals 20 ms apart (flushes of 8 every
    # 160 ms): calm, the same load with a straggling fleet (+50 ms on every
    # answer — pure telemetry, zero payload effect), then recovery long
    # enough for every alert window to drain.
    calm = list(zipf_trace(num_records, 96, exponent=1.2, seed=seed + 1))
    fault = list(zipf_trace(num_records, 96, exponent=1.2, seed=seed + 2))
    recovery = list(zipf_trace(num_records, 128, exponent=1.2, seed=seed + 3))
    stream = calm + fault + recovery
    gap = 0.02
    penalty = 0.05
    seed_heats = heats_from_trace(
        plan,
        calm,
        arrival_seconds=[gap * i for i in range(len(calm))],
        window_seconds=0.2,
        decay=0.5,
    )
    policy = BatchingPolicy(max_batch_size=8, max_wait_seconds=10.0)

    static = FleetRouter(
        PIRClient(num_records, record_size, seed=seed + 6, prg=make_prg("numpy")),
        database,
        plan,
        seed_heats,
        policy=policy,
    )
    static_records = static.retrieve_batch(stream)

    def run_once():
        hub = ObservabilityHub(slo=_slo_policy())
        autoscale = AutoscalePolicy(
            # Deliberately oversized capacity target: utilization never
            # nears the bands, so any scale-up can only be the alert path.
            target_heat_per_replica=1000.0,
            min_replicas=1,
            max_replicas=2,
            sustain_passes=2,
            evaluation_interval_seconds=0.2,
            cooldown_seconds=1.0,
        )
        router, plane = controlled_fleet(
            PIRClient(
                num_records, record_size, seed=seed + 6, prg=make_prg("numpy")
            ),
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
            autoscale=autoscale,
            policy=policy,
            hub=hub,
        )
        faults = [_LatencyFault(group) for group in router.replicas]
        router.replicas[:] = faults

        request_ids = []
        now = 0.0
        phases = (
            (calm, 0.0),
            (fault, penalty),
            (recovery, 0.0),
        )
        for indices, stall in phases:
            for wrapper in faults:
                wrapper.penalty_seconds = stall
            for index in indices:
                request_ids.append(router.submit(index, arrival_seconds=now))
                now += gap
        router.close()
        records = [router.take_record(request_id) for request_id in request_ids]
        return hub, router, plane, records

    hub, router, plane, records = run_once()
    hub_b, _router_b, _plane_b, records_b = run_once()

    if records != static_records:
        raise AssertionError("instrumented run drifted from the static fleet")
    if records_b != records:
        raise AssertionError("the two instrumented runs disagree on records")

    engine = hub.slo
    fired = [a for a in engine.history if a.severity == "fast"]
    if not fired:
        raise AssertionError("the injected fault never fired a fast-burn alert")
    if any(alert.active for alert in engine.history):
        raise AssertionError("an alert stayed active through the recovery phase")
    escalated = [
        action
        for action in plane.autoscaler.actions
        if action.reason == "slo-escalated"
    ]
    if not escalated:
        raise AssertionError("the fast-burn alert never escalated a scale-up")
    report_text = "\n".join(plane.describe())
    if "slo-escalated" not in report_text:
        raise AssertionError("escalated scale-up missing from the pass report")

    bundles = hub.recorder.incidents
    if not bundles:
        raise AssertionError("no incident bundle was recorded at alert-fire")
    for bundle in bundles:
        validate_bundle(bundle)
    dumps_a = [FlightRecorder.dump(bundle) for bundle in bundles]
    dumps_b = [FlightRecorder.dump(bundle) for bundle in hub_b.recorder.incidents]
    if dumps_a != dumps_b:
        raise AssertionError("incident bundles differ across identical runs")
    if hub.events.dropped:
        raise AssertionError(f"event log dropped {hub.events.dropped} event(s)")

    resolved_fast = next(a for a in fired if a.resolved_at is not None)
    lines = [
        "SLO smoke: burn-rate alerting over an injected latency fault",
        f"database: {num_records} records x {record_size} B, "
        f"{len(stream)} queries (calm {len(calm)} / fault {len(fault)} / "
        f"recovery {len(recovery)}), +{penalty * 1e3:.0f}ms stall during the fault",
        "",
    ]
    lines.extend(plane.describe())
    lines.append("")
    lines.extend(engine.describe())
    lines.append("")
    lines.extend(hub.recorder.describe())
    lines.append("")
    lines.append(
        f"{len(stream)} records verified bit-identical to the static fleet; "
        f"fast-burn alert fired @ {resolved_fast.fired_at:.3f}s, resolved @ "
        f"{resolved_fast.resolved_at:.3f}s; {len(escalated)} escalated "
        f"scale-up(s); {len(bundles)} incident bundle(s), deterministic "
        f"across two runs"
    )
    return "\n".join(lines)


def _drifting_workload(
    num_records: int, plan: ShardPlan, seed: int, half: int = 96
) -> Tuple[List[int], List[float]]:
    """The shared drifting Zipf stream: hot spot jumps first → last shard.

    Returns ``(stream, seed_heats)`` — the same workload the rebalance and
    resplit smokes drive, factored for the traced smoke and the report
    target (a third copy of the construction would drift).
    """
    first, last = plan.shards[0], plan.shards[-1]
    skew = zipf_trace(num_records, 2 * half, exponent=1.4, seed=seed + 5)
    offsets = [first.start] * half + [last.start] * half
    stream = [
        (offset + index) % num_records for offset, index in zip(offsets, skew)
    ]
    seed_heats = heats_from_trace(
        plan,
        stream[:half],
        arrival_seconds=[0.02 * i for i in range(half)],
        window_seconds=0.2,
        decay=0.5,
    )
    return stream, seed_heats


def _drive_controlled(
    database: Database,
    plan: ShardPlan,
    seed_heats: Sequence[float],
    stream: Sequence[int],
    seed: int,
    hub=None,
):
    """Drive the drifting stream through one controlled fleet.

    Arrivals 20ms apart on the simulated clock (heat windows roll,
    rebalance passes fire); returns ``(router, plane, records)``.  With a
    ``hub`` the fleet is fully instrumented; without one every telemetry
    slot stays ``None`` — the two runs must return bit-identical records.
    """
    router, plane = controlled_fleet(
        PIRClient(
            database.num_records,
            database.record_size,
            seed=seed + 6,
            prg=make_prg("numpy"),
        ),
        database,
        plan,
        seed_heats,
        window_seconds=0.2,
        decay=0.5,
        rebalance_interval_seconds=0.4,
        cache_capacity=16,
        admit_min_heat=1.0,
        dedup=True,
        policy=BatchingPolicy(max_batch_size=8, max_wait_seconds=10.0),
        hub=hub,
    )
    request_ids = []
    now = 0.0
    for index in stream:
        request_ids.append(router.submit(index, arrival_seconds=now))
        now += 0.02
    router.close()
    records = [router.take_record(request_id) for request_id in request_ids]
    return router, plane, records


def traced_smoke(
    num_records: int = 512,
    record_size: int = 32,
    seed: int = 9,
) -> str:
    """The ``--traced`` smoke: the observability hub is strictly read-only.

    Drives the drifting Zipf workload twice — once bare, once with an
    :class:`~repro.obs.hub.ObservabilityHub` attached — and asserts the
    observability acceptance properties:

    * the instrumented run's records are **bit-identical** to the bare
      run's (telemetry never touches the data plane);
    * at least one complete pipeline trace was reconstructed — request →
      server → phase leaves → per-shard scan spans — whose server span
      total equals the engine's ``PhaseTimer`` total *float-exactly*;
    * the event stream carried at least one ``rebalance.pass`` and the
      cache-hit counter is nonzero (the control plane is visible);
    * no event was dropped by any sink.
    """
    database = Database.random(num_records, record_size, seed=seed)
    plan = ShardPlan.uniform(num_records, 4, block_records=8)
    stream, seed_heats = _drifting_workload(num_records, plan, seed)

    _, _, bare_records = _drive_controlled(
        database, plan, seed_heats, stream, seed, hub=None
    )
    hub = ObservabilityHub()
    router, plane, records = _drive_controlled(
        database, plan, seed_heats, stream, seed, hub=hub
    )

    for index, record in zip(stream, records):
        if record != database.record(index):
            raise AssertionError(f"instrumented fleet returned a wrong record for {index}")
    if records != bare_records:
        raise AssertionError(
            "instrumented fleet drifted from the uninstrumented fleet's records"
        )
    if hub.events.dropped:
        raise AssertionError(
            f"sink chain dropped {hub.events.dropped} event(s): {hub.events.last_error!r}"
        )
    rebalance_events = hub.ring.named("rebalance.pass")
    if not rebalance_events:
        raise AssertionError("no rebalance.pass event reached the ring buffer")
    cache_hits = hub.registry.get("repro_cache_hits_total").total()
    if cache_hits <= 0:
        raise AssertionError("cache-hit counter never incremented")

    traces = hub.tracer.traces()
    if len(traces) != len(stream):
        raise AssertionError(
            f"expected one trace per request: {len(traces)} != {len(stream)}"
        )
    complete = 0
    for trace in traces:
        servers = trace.root.find(KIND_SERVER)
        if not servers:
            continue
        pipeline_complete = True
        for server in servers:
            engine_seconds = server.labels.get("engine_seconds")
            if engine_seconds is None or not server.find(KIND_PHASE):
                pipeline_complete = False
                break
            if server.seconds != engine_seconds:
                raise AssertionError(
                    f"trace {trace.trace_id}: span total {server.seconds!r} != "
                    f"engine PhaseTimer total {engine_seconds!r}"
                )
            if not server.find(KIND_SHARD):
                pipeline_complete = False
                break
        if pipeline_complete:
            complete += 1
    if complete < 1:
        raise AssertionError("no complete pipeline trace was reconstructed")

    counts = hub.ring.counts()
    lines = [
        "Traced smoke: the observability hub over the drifting-Zipf control plane",
        f"database: {num_records} records x {record_size} B, {len(stream)} queries",
        "",
        f"records bit-identical to the uninstrumented run: {len(records)}/{len(stream)}",
        f"traces: {len(traces)} ({complete} complete pipeline trees; span totals "
        f"== engine PhaseTimer totals, float-exact)",
        f"events: {sum(counts.values())} in ring "
        f"({', '.join(f'{name}={count}' for name, count in sorted(counts.items()))})",
        f"rebalance passes observed: {len(rebalance_events)}; "
        f"cache hits counted: {int(cache_hits)}",
        "",
        "slowest trace:",
    ]
    slowest = hub.tracer.slowest(1)
    if slowest:
        lines.extend(slowest[0].render())
    return "\n".join(lines)


def observability_report(
    num_records: int = 512,
    record_size: int = 32,
    seed: int = 9,
    top_n: int = 3,
) -> str:
    """The ``report`` target: a full hub report from one instrumented run."""
    database = Database.random(num_records, record_size, seed=seed)
    plan = ShardPlan.uniform(num_records, 4, block_records=8)
    stream, seed_heats = _drifting_workload(num_records, plan, seed)
    hub = ObservabilityHub()
    _drive_controlled(database, plan, seed_heats, stream, seed, hub=hub)
    header = [
        "Observability report: drifting Zipf workload through a controlled fleet",
        f"database: {num_records} records x {record_size} B, {len(stream)} queries",
        "",
    ]
    return "\n".join(header) + hub.report(top_n=top_n)


class _InFlightRecorder:
    """Wraps a replica and records the wall-clock window of each batch call.

    ``hold_seconds`` stretches every call so window overlap across replicas
    is a robust signal of concurrent dispatch even when the scans themselves
    finish in microseconds.
    """

    def __init__(self, inner, hold_seconds: float = 0.02) -> None:
        self._inner = inner
        self._hold_seconds = hold_seconds
        self.server_id = inner.server_id
        self.windows: List[Tuple[float, float]] = []

    def answer_batch(self, queries):
        start = time.monotonic()
        time.sleep(self._hold_seconds)
        result = self._inner.answer_batch(queries)
        self.windows.append((start, time.monotonic()))
        return result


def async_backend_smoke(
    num_records: int = 512,
    record_size: int = 32,
    indices: Sequence[int] = (0, 7, 255, 511),
    seed: int = 9,
) -> str:
    """The ``--async`` smoke: asyncio frontend over sharded replica fleets.

    Exercises the wall-clock path end to end: concurrent submitters split
    into size batches, every flush fans out to both replica fleets at the
    same time (asserted from recorded in-flight windows), a lone trailing
    submit flushes on the real max-wait timer with no follow-up arrival, and
    all records cross-check bit-for-bit against the deterministic
    simulated-clock :class:`PIRFrontend` fed the same request stream.
    """
    database = Database.random(num_records, record_size, seed=seed)
    indices = list(indices)
    stream = indices + [indices[0]]

    def make_replicas():
        return [
            create_server("sharded", database, server_id=i, num_shards=4)
            for i in (0, 1)
        ]

    sync_frontend = PIRFrontend(
        PIRClient(num_records, record_size, seed=seed + 4, prg=make_prg("numpy")),
        make_replicas(),
        policy=BatchingPolicy(max_batch_size=2),
    )
    expected = sync_frontend.retrieve_batch(stream)

    replicas = [_InFlightRecorder(replica) for replica in make_replicas()]
    frontend = AsyncPIRFrontend(
        PIRClient(num_records, record_size, seed=seed + 4, prg=make_prg("numpy")),
        replicas,
        policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=0.05),
    )

    async def run() -> Tuple[List[bytes], bytes, float]:
        records = await frontend.retrieve_batch(indices)
        lone_start = time.monotonic()
        lone = await frontend.submit(stream[-1])
        return records, lone, time.monotonic() - lone_start

    records, lone, lone_seconds = asyncio.run(run())

    got = records + [lone]
    for index, record in zip(stream, got):
        if record != database.record(index):
            raise AssertionError(f"async frontend returned a wrong record for {index}")
    if got != expected:
        raise AssertionError("async frontend drifted from the sync frontend's records")
    if frontend.metrics.flush_reasons.get(FLUSH_ON_WAIT, 0) < 1:
        raise AssertionError(
            f"no wait-timer flush recorded: {frontend.metrics.flush_reasons}"
        )
    overlaps = 0
    for window_a, window_b in zip(replicas[0].windows, replicas[1].windows):
        if max(window_a[0], window_b[0]) >= min(window_a[1], window_b[1]):
            raise AssertionError(
                f"replica dispatch did not overlap: {window_a} vs {window_b}"
            )
        overlaps += 1

    return "\n".join(
        [
            "Async frontend smoke: wall-clock batching over sharded replica fleets",
            f"database: {num_records} records x {record_size} B, stream {stream}",
            "",
            f"records verified against the sync frontend: {len(got)}/{len(stream)}",
            f"flush reasons: {frontend.metrics.flush_reasons}",
            f"lone submit flushed by the max-wait timer after "
            f"{format_seconds(lone_seconds)} (no follow-up arrival)",
            f"replica fan-out overlapped in {overlaps}/{len(replicas[0].windows)} "
            f"batches (recorded in-flight windows)",
        ]
    )


def batched_smoke(
    num_records: int = 512,
    record_size: int = 32,
    batch_size: int = 6,
    seed: int = 9,
    segment_records: Optional[int] = 128,
) -> str:
    """The ``--batched`` smoke: one batch dispatch against one-row dispatches.

    For every registered backend this answers the same query batch twice:
    once through a :meth:`QueryEngine.answer` loop (``execute_many`` with one
    row per dispatch), once through :meth:`QueryEngine.answer_many` (one
    dispatch for the whole batch).  It asserts the documented cost contract
    of batching, per backend kind:

    * the answer payloads are bit-identical, everywhere;
    * on **host-side** backends every simulated phase except ``eval`` charges
      exactly the same seconds (``eval`` legitimately differs: the batch path
      uses the backend's batch cost model, the per-query path its latency
      model);
    * on the **PIM** backends (``im-pir``, ``im-pir-streamed``) the batched
      path pays its fixed per-dispatch charges — transfer latency, launch
      overhead, the streamed segment copy — once per batch instead of once
      per query: the phase set is unchanged, the host-side ``aggregate``
      charge stays exactly per-query, and every other phase's batch total is
      strictly below the sequential total (see
      :func:`~repro.core.partitioning.run_dpu_pipeline_many` for the
      formula; scan work itself is never discounted).
    """
    pim_kinds = {"im-pir", "im-pir-streamed"}

    def amortizable(phases):
        return sorted(set(phases) - {"eval", "aggregate"})

    def non_eval(timer):
        return {k: v for k, v in timer.durations.items() if k != "eval"}

    def check_amortized(label, sequential_timers, batched_timers):
        seq_phases = {k for t in sequential_timers for k in non_eval(t)}
        bat_phases = {k for t in batched_timers for k in non_eval(t)}
        if bat_phases != seq_phases:
            raise AssertionError(
                f"backend {label!r}: batched phase set drifted: "
                f"{sorted(seq_phases)} vs {sorted(bat_phases)}"
            )
        for seq, bat in zip(sequential_timers, batched_timers):
            if abs(seq.get("aggregate") - bat.get("aggregate")) > 1e-12:
                raise AssertionError(
                    f"backend {label!r}: aggregate must stay per-query"
                )
        for phase in amortizable(seq_phases):
            seq_total = sum(t.get(phase) for t in sequential_timers)
            bat_total = sum(t.get(phase) for t in batched_timers)
            if not bat_total < seq_total:
                raise AssertionError(
                    f"backend {label!r}: phase {phase!r} did not amortise "
                    f"({bat_total} vs sequential {seq_total})"
                )

    database = Database.random(num_records, record_size, seed=seed)
    client = PIRClient(num_records, record_size, seed=seed + 1, prg=make_prg("numpy"))
    indices = [(i * 97) % num_records for i in range(batch_size)]
    queries = [per_server[0] for per_server in client.query_batch(indices)]

    names = available_backends()
    lines: List[str] = [
        "Batched smoke: one execute_many dispatch against one-row dispatches",
        f"database: {num_records} records x {record_size} B, batch of {batch_size}",
        "",
        f"{'backend':>16} {'payloads':>9} {'phases':>10}",
    ]
    for name in names:
        kwargs = {"segment_records": segment_records} if name == "im-pir-streamed" else {}
        engine = create_server(name, database, server_id=0, **kwargs).engine
        is_pim = name in pim_kinds

        sequential = [engine.answer(query) for query in queries]
        batched = engine.answer_many(queries)
        if any(
            s.answer.payload != b.answer.payload
            for s, b in zip(sequential, batched.results)
        ):
            raise AssertionError(f"backend {name!r}: batched payloads drifted")
        if is_pim:
            check_amortized(
                name,
                [s.breakdown for s in sequential],
                [b.breakdown for b in batched.results],
            )
        else:
            for s, b in zip(sequential, batched.results):
                if non_eval(s.breakdown) != non_eval(b.breakdown):
                    raise AssertionError(
                        f"backend {name!r}: batched simulated phases drifted: "
                        f"{non_eval(s.breakdown)} vs {non_eval(b.breakdown)}"
                    )

        verdict = "amortized" if is_pim else "equal"
        lines.append(f"{name:>16} {'ok':>9} {verdict:>10}")

    lines.append("")
    lines.append(
        f"{len(names)} backends answer batches bit-identically to "
        f"the per-query path (host-side costs unchanged; PIM per-dispatch "
        f"charges amortized once per batch)."
    )
    return "\n".join(lines)
