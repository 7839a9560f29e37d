"""Turn timed runs and spans into the metrics ``BENCHMARK.json`` names.

End-to-end metrics come from an untraced run; per-layer metrics from a
traced replay of the same inputs.  ``README.md`` beside this file defines
every metric, its unit and what it is divided by.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from spans import Span, self_seconds
from workloads import Outcome, Session

Metric = Tuple[float, str]

#: How far the traced layer shares may miss 1.0, and how much slower than the
#: untraced run the traced one may be, before the trace is not believed.
SHARE_SUM_TOLERANCE = 0.05
MAX_TRACE_OVERHEAD = 0.15

LAYERS = ("client", "frontend", "engine", "dpf", "scan", "shard")


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def end_to_end(outcome: Outcome, setup_seconds: float) -> Dict[str, Metric]:
    """What a user of the system sees, from an untraced timed run."""
    correct = outcome.attempted - outcome.failed
    return {
        "setup_s": (setup_seconds, "s"),
        "qps": (correct / outcome.wall, "1/s"),
        "latency_p50_ms": (percentile(outcome.latencies, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(outcome.latencies, 0.90) * 1e3, "ms"),
        "wire_bytes_per_request": (outcome.counts["wire_bytes"] / outcome.attempted, "B"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def queue_wait_seconds(spans: List[Span], num_replicas: int) -> float:
    """Mean ``submit`` -> replica-call-start wait on the async frontend.

    Flushes take pending requests in admission order, so the k-th flush
    serves the next ``work`` admitted requests.  A request is admitted when
    its ``client.query`` returns; a flush's replica calls are the next
    ``num_replicas`` ``engine.answer_batch`` spans in start order.
    """
    request_start = {s.id: s.start for s in spans if s.name == "frontend.request"}
    admitted = sorted(
        (s.end, request_start[s.parent])
        for s in spans
        if s.name == "client.query" and s.parent in request_start
    )
    calls = sorted((s.start, s.work) for s in spans if s.name == "engine.answer_batch")
    waits = []
    position = 0
    for first in range(0, len(calls) - num_replicas + 1, num_replicas):
        call_start, served = calls[first]
        for _, submitted in admitted[position:position + served]:
            waits.append(call_start - submitted)
        position += served
    return _ratio(sum(waits), len(waits))


def per_layer(
    session: Session,
    spans: List[Span],
    traced: Outcome,
    untraced: Outcome,
    overhead: float,
    peak_rss_mib: float,
) -> Tuple[Dict[str, Metric], List[str]]:
    """Per-layer metrics of a traced run, and the names that do not apply.

    A metric that does not exist on this workload (no cache, no queue, no
    sharded backend, no operation counters) is reported as 0 and listed in
    the second return value.
    """
    wall: Dict[str, float] = defaultdict(float)
    work: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    own_wall_by_name: Dict[str, float] = defaultdict(float)
    layer_cpu: Dict[str, float] = defaultdict(float)
    own_wall = self_seconds(spans, "wall")
    own_cpu = self_seconds(spans, "cpu")
    # Only the asyncio workload has per-request roots.  Request spans of
    # different coroutines interleave on the event-loop thread, so their own
    # CPU reading is meaningless: there the frontend's CPU is what the loop
    # thread burned outside every other span that ran on it.
    loop_thread = next((s.thread for s in spans if s.name == "frontend.request"), None)
    concurrent = loop_thread is not None
    if concurrent:
        layer_cpu["frontend"] = traced.driver_cpu
    for span in spans:
        wall[span.name] += span.wall
        work[span.name] += span.work
        calls[span.name] += 1
        own_wall_by_name[span.name] += own_wall[span.id]
        if span.name != "frontend.request":
            layer_cpu[span.layer] += own_cpu[span.id]
            if span.thread == loop_thread:
                layer_cpu["frontend"] -= own_cpu[span.id]

    def share(layer: str) -> Metric:
        return (_ratio(layer_cpu[layer], traced.cpu), "share")

    counts = traced.counts
    shape = session.shape
    # ``engine.backend.execute_many`` belongs to the scan layer on a plain
    # replica and to the shard layer on a fleet; the other layer is absent.
    scan = session.scan_layer
    other = "shard" if scan == "scan" else "scan"
    execute = f"{scan}.execute_many"
    execute_ms = {scan: _ratio(wall[execute], work[execute]) * 1e3, other: 0.0}
    # Computed, not measured DRAM traffic: every query of a batch is charged
    # one full pass over the N x record_size database.
    records_per_s = (
        _ratio(work[execute] * shape.num_records, wall[execute]) if scan == "scan" else 0.0
    )
    metrics: Dict[str, Metric] = {
        "client.query_ms": (_ratio(wall["client.query"], calls["client.query"]) * 1e3, "ms"),
        "client.reconstruct_us": (
            _ratio(wall["client.reconstruct"], calls["client.reconstruct"]) * 1e6, "us"),
        "client.queries": (counts["client.queries"], "count"),
        "client.share": share("client"),
        "frontend.self_ms": (_ratio(layer_cpu["frontend"], traced.attempted) * 1e3, "ms"),
        "frontend.batch_size_mean": (
            _ratio(counts["frontend.requests"], counts["frontend.batches"]), "count"),
        "frontend.wait_flush_share": (
            _ratio(counts["frontend.wait_flushes"], counts["frontend.batches"]), "share"),
        "frontend.queue_wait_ms": (
            queue_wait_seconds(spans, len(session.replicas)) * 1e3, "ms"),
        "frontend.deduped": (counts["frontend.deduped"], "count"),
        "frontend.share": share("frontend"),
        "cache.hit_rate": (
            _ratio(counts.get("cache.hits", 0),
                   counts.get("cache.hits", 0) + counts.get("cache.misses", 0)), "share"),
        "cache.evictions": (counts.get("cache.evictions", 0), "count"),
        "cache.invalidations": (counts.get("cache.invalidations", 0), "count"),
        "engine.answer_many_ms": (
            _ratio(wall["engine.answer_many"], work["engine.answer_many"]) * 1e3, "ms"),
        "engine.self_ms": (
            _ratio(own_wall_by_name["engine.answer_many"], work["engine.answer_many"]) * 1e3,
            "ms"),
        "engine.share": share("engine"),
        "dpf.eval_ms": (
            _ratio(wall["dpf.selector_matrix"], work["dpf.selector_matrix"]) * 1e3, "ms"),
        "dpf.leaves_per_s": (
            _ratio(work["dpf.selector_matrix"] * shape.num_records, wall["dpf.selector_matrix"]),
            "1/s"),
        "dpf.prg_expansions": (
            _ratio(counts["dpf.prg_expansions"], counts["server.queries"]), "count"),
        "dpf.share": share("dpf"),
        "scan.execute_many_ms": (execute_ms["scan"], "ms"),
        "scan.records_per_s": (records_per_s, "1/s"),
        "scan.gib_per_s": (records_per_s * shape.record_size / 2**30, "GiB/s"),
        "scan.share": share("scan"),
        "shard.execute_many_ms": (execute_ms["shard"], "ms"),
        "shard.migrations": (counts.get("shard.migrations", 0), "count"),
        "shard.update_ms": (
            _ratio(wall["shard.apply_updates"], counts.get("shard.updates", 0)) * 1e3, "ms"),
        "shard.share": share("shard"),
        "sim.qps": (_ratio(counts["frontend.requests"], counts["sim.makespan_s"]), "1/s"),
        "sim.makespan_s": (counts["sim.makespan_s"], "s"),
        "sim.cluster_utilization": (counts["sim.cluster_utilization"], "share"),
        "process.peak_rss_mib": (peak_rss_mib, "MiB"),
        "process.cpu_ms_per_request": (_ratio(untraced.cpu, untraced.attempted) * 1e3, "ms"),
        "trace.overhead_share": (overhead, "share"),
    }

    absent = []
    if not concurrent:
        absent.append("frontend.queue_wait_ms")
    if "cache.hits" not in counts:
        absent += ["cache.hit_rate", "cache.evictions", "cache.invalidations"]
    if not counts["server.queries"]:
        absent.append("dpf.prg_expansions")
    absent += [name for name in metrics if name.startswith(other + ".")]
    if not counts["sim.makespan_s"]:
        absent += ["sim.qps", "sim.makespan_s", "sim.cluster_utilization"]
    return metrics, absent


def trace_checks(
    session: Session,
    metrics: Dict[str, Metric],
    traced: Outcome,
    untraced: Outcome,
    pair_ratios: Sequence[float],
) -> List[str]:
    """Why the traced run should not be believed; empty when it should.

    ``pair_ratios`` are the chunk pairs' traced / untraced times.  Their
    median is the reported overhead; the gate is on their lower quartile, so
    that it takes most pairs agreeing — not one noisy chunk on a busy host —
    to reject a trace.
    """
    problems = []
    share_sum = sum(metrics[f"{layer}.share"][0] for layer in LAYERS)
    if abs(share_sum - 1.0) > SHARE_SUM_TOLERANCE:
        problems.append(
            f"layer shares sum to {share_sum:.3f}, not 1 +/- {SHARE_SUM_TOLERANCE}"
        )
    for name in session.deterministic_counts:
        if traced.counts.get(name) != untraced.counts.get(name):
            problems.append(
                f"count {name} differs: traced {traced.counts.get(name)} "
                f"vs untraced {untraced.counts.get(name)}"
            )
    lower_quartile = sorted(pair_ratios)[len(pair_ratios) // 4] - 1.0
    if lower_quartile > MAX_TRACE_OVERHEAD:
        problems.append(
            f"tracing overhead above {MAX_TRACE_OVERHEAD} in three quarters of the "
            f"chunk pairs (lower quartile {lower_quartile:.3f})"
        )
    return problems
