"""The observability hub: one object wiring events, metrics and traces.

:class:`ObservabilityHub` is the assembly point for the three obs layers —
it owns an :class:`~repro.obs.events.EventLog` whose sink chain is a ring
buffer, a metrics bridge (folding events into a
:class:`~repro.obs.metrics.MetricsRegistry`) and an optional JSONL
exporter, plus a :class:`~repro.obs.tracing.Tracer` for per-request span
trees.  Registering the hub as a frontend observer and calling
:meth:`attach` instruments a whole fleet in one step:

* the hub's ``observe_batch`` keeps the event log's simulated clock
  current, and its ``observe_flush`` turns every completed flush into a
  ``frontend.flush`` event *and* one trace per retrieved request —
  client → server → phase (→ shard) spans whose seconds are the engine's
  own :class:`~repro.common.events.PhaseTimer` values, float-exactly;
* every replica's :class:`~repro.core.engine.QueryEngine` gets the event
  log on its ``events`` slot, every sharded backend is handed the log via
  :meth:`~repro.shard.backend.ShardedBackend.instrument`, and the control
  plane's tracker / rebalancer / cache emit through the same log.

Pass a hub to :func:`repro.control.plane.controlled_fleet` (``hub=``) and
the wiring happens inside the builder.  Everything stays strictly
read-only with respect to the data plane: the hub only ever observes
settled results, so an instrumented run returns bit-identical records
(``examples/observability.py`` asserts this end to end).
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.events import Event, EventLog, JsonlSink, RingBufferSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SloEngine, SloPolicy
from repro.obs.tracing import KIND_CACHE, KIND_SERVER, KIND_SHARD, Tracer

#: Buckets for flush batch sizes (requests per flush, not seconds).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class _MetricsBridge:
    """An event sink that folds events into the hub's registry.

    Sits in the sink chain like any exporter; a fold fault is caught by
    :meth:`EventLog.emit` (counted in ``dropped``) like any sink fault.
    """

    def __init__(self, hub: "ObservabilityHub") -> None:
        self._hub = hub

    def emit(self, event: Event) -> None:
        self._hub._fold_event(event)


def _request_latencies(observation) -> List[float]:
    """Simulated end-to-end seconds for every request retired by a flush.

    Scanned requests: the slowest expected replica answer, preferring the
    engine's ``simulated_seconds`` and falling back to the PhaseTimer total,
    then to the flush makespan when a backend charged no phase (the CPU/GPU
    cost models price only whole batches).  Cache hits
    and dedup followers: 0.0 — they spent no simulated pipeline time.
    """
    fallback = max(observation.makespans, default=0.0)
    latencies: List[float] = []
    scanned_ids = set()
    for request_id, _index, expected in observation.scanned:
        scanned_ids.add(request_id)
        worst = 0.0
        missing = True
        for query_id, server_id in expected:
            detail = observation.details.get((query_id, server_id))
            if detail is None:
                continue
            seconds = detail.simulated_seconds
            if seconds is None and detail.breakdown.durations:
                seconds = detail.breakdown.total
            if seconds is not None:
                worst = max(worst, float(seconds))
                missing = False
        latencies.append(fallback if missing else worst)
    for request_id, _index in observation.batch:
        if request_id not in scanned_ids:
            latencies.append(0.0)
    return latencies


class ObservabilityHub:
    """Sinks + registry + tracer behind one frontend-observer facade."""

    def __init__(
        self,
        ring_capacity: int = 2048,
        jsonl_path=None,
        max_traces: int = 512,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slo: Optional[SloPolicy] = None,
        recorder_capacity: int = 256,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(max_traces=max_traces)
        self.ring = RingBufferSink(capacity=ring_capacity)
        self.jsonl = JsonlSink(jsonl_path) if jsonl_path is not None else None
        # The flight recorder is always on: bounded, cheap, and the thing
        # incident bundles are cut from after the fact.
        self.recorder = FlightRecorder(capacity=recorder_capacity)
        sinks = [self.ring, _MetricsBridge(self), self.recorder]
        if self.jsonl is not None:
            sinks.append(self.jsonl)
        self.events = EventLog(sinks)
        #: The judgement layer; ``None`` keeps the hub purely descriptive.
        self.slo = SloEngine(slo, events=self.events) if slo is not None else None
        self.recorder.bind(registry=self.registry, slo=self.slo)
        if self.slo is not None:
            self.slo.recorder = self.recorder

        # Pre-registered families: a snapshot taken before any traffic
        # already shows the full schema (unlabeled counters render 0).
        metric = self.registry
        self._flushes = metric.counter(
            "repro_flushes_total", "Completed frontend flushes", ("reason",)
        )
        self._requests = metric.counter(
            "repro_requests_total", "Requests retired through flushes"
        )
        self._cache_hits = metric.counter(
            "repro_cache_hits_total", "Requests served from the hot-record cache"
        )
        self._deduped = metric.counter(
            "repro_dedup_suppressed_total", "Duplicate requests collapsed in-batch"
        )
        self._batch_sizes = metric.histogram(
            "repro_flush_batch_size",
            "Requests per flushed batch",
            buckets=_BATCH_SIZE_BUCKETS,
        )
        self._makespans = metric.histogram(
            "repro_flush_makespan_seconds", "Simulated makespan per flush"
        )
        self._shard_scans = metric.counter(
            "repro_shard_scans_total", "Per-shard scans executed", ("shard",)
        )
        self._scan_seconds = metric.histogram(
            "repro_shard_scan_seconds", "Simulated seconds per shard scan"
        )
        self._engine_batches = metric.counter(
            "repro_engine_batches_total", "Engine batch evaluations", ("server",)
        )
        self._answer_seconds = metric.histogram(
            "repro_engine_answer_seconds", "Simulated seconds per engine answer"
        )
        self._window_rolls = metric.counter(
            "repro_heat_window_rolls_total", "Heat telemetry windows completed"
        )
        self._rebalance_passes = metric.counter(
            "repro_rebalance_passes_total", "Rebalancer passes completed"
        )
        self._rebalance_splits = metric.counter(
            "repro_rebalance_splits_total", "Shard splits applied"
        )
        self._rebalance_merges = metric.counter(
            "repro_rebalance_merges_total", "Shard merges applied"
        )
        self._rebalance_migrations = metric.counter(
            "repro_rebalance_migrations_total", "Shard kind migrations applied"
        )
        self._topology_version = metric.gauge(
            "repro_topology_version", "Current shard plan version"
        )
        self._cache_admissions = metric.counter(
            "repro_cache_admissions_total", "Hot-record cache admissions"
        )
        self._cache_evictions = metric.counter(
            "repro_cache_evictions_total", "Hot-record cache evictions"
        )
        self._cache_invalidations = metric.counter(
            "repro_cache_invalidations_total", "Hot-record cache records invalidated"
        )
        self._cache_rejected = metric.counter(
            "repro_cache_rejected_cold_total",
            "Cache admissions refused (requested no more often than the LRU victim)",
        )
        self._replicas = metric.gauge(
            "repro_replicas", "Live replica members per trust domain"
        )
        self._autoscale_actions = metric.counter(
            "repro_autoscale_actions_total",
            "Autoscaler replica-count changes",
            ("direction",),
        )
        self._replica_adds = metric.counter(
            "repro_replica_adds_total", "Replica members added per trust domain"
        )
        self._replica_drains = metric.counter(
            "repro_replica_drains_total", "Replica members drained per trust domain"
        )
        self._rebalance_suppressed = metric.counter(
            "repro_rebalance_suppressed_total",
            "Reshapes/migrations vetoed by cost-aware damping",
        )
        self._request_latency = metric.histogram(
            "repro_request_latency_seconds",
            "Simulated end-to-end latency per retired request",
        )
        self._slo_alerts = metric.counter(
            "repro_slo_alerts_total",
            "SLO burn-rate alert transitions",
            ("objective", "severity", "state"),
        )
        self._slo_burning = metric.gauge(
            "repro_slo_burning", "Currently active SLO alerts"
        )

    # -- the frontend observer protocol -------------------------------------------

    def observe_batch(self, indices, now: float) -> None:
        """Keep the event log's simulated clock current (every flush)."""
        self.events.advance(now)

    def observe_flush(self, observation) -> None:
        """Fold one settled flush into events, metrics, traces and SLOs."""
        self.events.emit(
            "frontend.flush",
            now=observation.now,
            reason=observation.reason,
            requests=len(observation.batch),
            scanned=len(observation.scanned),
            cache_hits=observation.cache_hits,
            deduped=observation.deduped,
            makespan=max(observation.makespans, default=0.0),
        )
        self._record_traces(observation)
        self._record_slo(observation)

    def _record_slo(self, observation) -> None:
        """Per-request latencies into the digest windows + alert lifecycle.

        A scanned request costs its slowest replica answer (replicas run in
        parallel), read from the same per-detail seconds the traces use;
        cache hits and dedup followers spent zero simulated pipeline time.
        """
        latencies = _request_latencies(observation)
        for seconds in latencies:
            self._request_latency.observe(seconds)
        if self.slo is None:
            return
        for seconds in latencies:
            self.slo.record_request(seconds, observation.now)
        self.slo.evaluate(observation.now)

    # -- wiring ---------------------------------------------------------------------

    def attach(self, frontend, plane=None):
        """Instrument a frontend (and optionally its control plane) in place.

        Appends the hub to the frontend's observers (idempotent), hands the
        event log to every replica engine and sharded backend, and wires the
        control plane's tracker / rebalancer / cache.  Per-shard trace
        detail needs no wiring: it travels back in every answer
        (:class:`~repro.pir.frontend.ResultDetail`).  Returns the frontend
        for chaining.
        """
        if self not in frontend.observers:
            frontend.observers.append(self)
        for replica in getattr(frontend, "replicas", ()):
            # A replica slot may be a single server or a ReplicaGroup of
            # identical members (elastic fleets) — instrument every member.
            for member in getattr(replica, "members", None) or (replica,):
                engine = getattr(member, "engine", None)
                if engine is not None and hasattr(engine, "events"):
                    engine.events = self.events
                instrument = getattr(
                    getattr(member, "backend", None), "instrument", None
                )
                if instrument is not None:
                    instrument(events=self.events)
        if hasattr(frontend, "events"):
            # FleetRouter's replica.added / replica.drained emissions.
            frontend.events = self.events
        if plane is not None:
            plane.tracker.events = self.events
            if plane.rebalancer is not None:
                plane.rebalancer.events = self.events
            if plane.cache is not None:
                plane.cache.events = self.events
            if getattr(plane, "autoscaler", None) is not None:
                plane.autoscaler.events = self.events
            if self.slo is not None and hasattr(plane, "health_source"):
                # Close the loop: control passes consult the SLO verdict.
                plane.health_source = self.slo
        return frontend

    def close(self) -> None:
        """Close the JSONL exporter, if one is attached."""
        if self.jsonl is not None:
            self.jsonl.close()

    # -- event → metrics folding ----------------------------------------------------

    def _fold_event(self, event: Event) -> None:
        fields = event.fields
        name = event.name
        if name == "frontend.flush":
            self._flushes.inc(reason=fields.get("reason", "?"))
            self._requests.inc(fields.get("requests", 0))
            self._cache_hits.inc(fields.get("cache_hits", 0))
            self._deduped.inc(fields.get("deduped", 0))
            self._batch_sizes.observe(fields.get("requests", 0))
            self._makespans.observe(fields.get("makespan", 0.0))
        elif name == "shard.scan":
            self._shard_scans.inc(shard=fields.get("shard", "?"))
            self._scan_seconds.observe(fields.get("seconds", 0.0))
        elif name == "engine.batch":
            self._engine_batches.inc(server=fields.get("server", "?"))
        elif name == "engine.answer":
            self._answer_seconds.observe(fields.get("seconds", 0.0))
        elif name == "heat.window_rolled":
            self._window_rolls.inc(fields.get("rolled", 1))
        elif name == "rebalance.pass":
            self._rebalance_passes.inc()
            self._rebalance_splits.inc(fields.get("splits", 0))
            self._rebalance_merges.inc(fields.get("merges", 0))
            self._rebalance_migrations.inc(fields.get("migrations", 0))
            self._rebalance_suppressed.inc(fields.get("suppressed", 0))
            self._topology_version.set(fields.get("plan_version", 0))
        elif name == "autoscale.action":
            self._autoscale_actions.inc(direction=fields.get("direction", "?"))
            self._replicas.set(fields.get("replicas", 0))
        elif name == "replica.added":
            self._replica_adds.inc()
            self._replicas.set(fields.get("replicas", 0))
        elif name == "replica.drained":
            self._replica_drains.inc()
            self._replicas.set(fields.get("replicas", 0))
        elif name == "topology.applied":
            self._topology_version.set(fields.get("version", 0))
        elif name == "cache.admit":
            self._cache_admissions.inc()
        elif name == "cache.evict":
            self._cache_evictions.inc()
        elif name == "cache.invalidate":
            self._cache_invalidations.inc(fields.get("dropped", 1))
        elif name == "cache.reject_cold":
            self._cache_rejected.inc()
        elif name == "slo.alert":
            self._slo_alerts.inc(
                objective=fields.get("objective", "?"),
                severity=fields.get("severity", "?"),
                state=fields.get("state", "?"),
            )
            self._slo_burning.set(fields.get("active", 0))

    # -- flush → traces -------------------------------------------------------------

    def _record_traces(self, observation) -> None:
        """One trace per request of the flush: the paper's pipeline, per query.

        Scanned requests get the full tree — a server span per replica
        (seconds accumulated from the engine's PhaseTimer, so the span
        total equals ``PhaseTimer.total`` float-exactly), phase leaves
        under each, and per-shard scan spans from the answer's own shard
        detail (parallel detail: shard seconds do not sum into the
        server).  Requests served by the cache or as dedup followers get a
        zero-cost marker trace — they spent no simulated pipeline time.
        """
        tracer = self.tracer
        scanned_ids = set()
        for request_id, index, expected in observation.scanned:
            scanned_ids.add(request_id)
            trace = tracer.start_trace(
                f"req-{request_id}",
                f"retrieve[{index}]",
                now=observation.now,
                index=index,
            )
            root = trace.root
            for query_id, server_id in expected:
                server = root.child(
                    f"server-{server_id}",
                    kind=KIND_SERVER,
                    query_id=query_id,
                    server_id=server_id,
                )
                detail = observation.details.get((query_id, server_id))
                if detail is None:
                    continue
                if detail.simulated_seconds is not None:
                    server.labels["engine_seconds"] = detail.simulated_seconds
                server.add_phases(detail.breakdown)
                for shard_index, cost in detail.shards:
                    shard = server.child(
                        f"shard-{shard_index}", kind=KIND_SHARD, shard=shard_index
                    )
                    shard.add_phases(cost)
                if not detail.breakdown.durations and detail.simulated_seconds is not None:
                    # A backend that charged no phase still gets its total.
                    server.seconds = float(detail.simulated_seconds)
            # Replicas run in parallel: the request costs its slowest server.
            root.seconds = max(
                (span.seconds for span in root.find(KIND_SERVER)), default=0.0
            )
        for request_id, index in observation.batch:
            if request_id in scanned_ids:
                continue
            trace = tracer.start_trace(
                f"req-{request_id}",
                f"retrieve[{index}]",
                now=observation.now,
                index=index,
            )
            if not trace.root.children:
                if index in observation.cached_indices:
                    trace.root.child("cache-hit", kind=KIND_CACHE)
                else:
                    trace.root.child("dedup-follower", kind=KIND_CACHE)

    # -- reporting ------------------------------------------------------------------

    def report(self, top_n: int = 5) -> str:
        """A plain-text snapshot: event counts, metrics, slowest traces."""
        lines: List[str] = ["== events =="]
        counts = self.ring.counts()
        if not counts:
            lines.append("(none)")
        for name in sorted(counts):
            lines.append(f"{name:28s} {counts[name]}")
        if self.events.dropped:
            lines.append(
                f"dropped: {self.events.dropped} (last: {self.events.last_error!r})"
            )
        lines.append("")
        lines.append("== metrics ==")
        lines.append(self.registry.render())
        lines.append("")
        lines.append("== latency quantiles (bucket estimates) ==")
        quantile_rows = 0
        for name in (
            "repro_request_latency_seconds",
            "repro_flush_makespan_seconds",
            "repro_engine_answer_seconds",
        ):
            histogram = self.registry.get(name)
            if histogram is None or histogram.count() == 0:
                continue
            p50 = histogram.quantile(0.50)
            p99 = histogram.quantile(0.99)
            lines.append(f"{name:34s} p50={p50:.6f}s p99={p99:.6f}s")
            quantile_rows += 1
        if not quantile_rows:
            lines.append("(none)")
        if self.slo is not None:
            lines.append("")
            lines.append("== slo ==")
            lines.extend(self.slo.describe())
        lines.append("")
        lines.append("== flight recorder ==")
        lines.extend(self.recorder.describe())
        lines.append("")
        lines.append(f"== slowest traces (top {top_n}) ==")
        slowest = self.tracer.slowest(top_n)
        if not slowest:
            lines.append("(none)")
        for trace in slowest:
            lines.extend(trace.render())
        return "\n".join(lines)
