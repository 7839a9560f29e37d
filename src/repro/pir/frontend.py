"""Request frontend: batching, routing and answer pairing across replicas.

The servers answer queries; this module decides *which* queries reach them
*when*.  A :class:`PIRFrontend` (alias :class:`RequestRouter`) sits between
clients and the replica set:

* **admission** — ``submit(index)`` registers a retrieval request and assigns
  it an explicit request id;
* **batching** — pending requests aggregate under a :class:`BatchingPolicy`
  (maximum batch size plus a maximum simulated wait), so the expensive
  per-batch pipeline fill/drain of Fig. 8 is amortised over many requests;
  an :class:`AdaptiveBatchingPolicy` resizes the batch online (AIMD) from
  the cluster utilization each flushed batch reports;
* **routing** — each flushed batch is one message per replica: the
  client's :class:`~repro.pir.messages.QueryBatch` for that server goes to
  its ``answer_batch`` (the replicas are independent trust domains;
  functionally they are called in sequence, the simulated makespan treats
  them as parallel);
* **pairing** — the replicas' answer matrices are re-joined *by query id*
  with array operations, in whatever order each replica lists its answers:
  every scanned request is owed one ``(query_id, server_id)`` answer per
  replica, and a missing, duplicated or unclaimed answer raises
  :class:`~repro.common.errors.ProtocolError` instead of silently
  mis-pairing;
* **reconstruction** — the paired ``(num_servers, B, record_size)`` shares
  are XORed back into the flush's records by the client in one operation,
  and scheduling metrics (makespan, throughput, cluster utilisation) are
  accumulated from the replicas'
  :class:`~repro.core.results.IMPIRBatchResult` objects.

Time is simulated: callers stamp requests with ``arrival_seconds`` (defaults
to a frontend-local clock) and the max-wait rule triggers deterministically
from those stamps, which keeps the batching policy unit-testable without
threads or sleeps.  :mod:`repro.pir.async_frontend` provides the wall-clock
counterpart (real asyncio max-wait timers, the same in-sequence dispatch).
Both subclass :class:`BatchingFrontend` and flush through its two halves:
:meth:`~BatchingFrontend.begin_flush` (pick the scanned requests, generate
their keys, group the queries per replica), the frontend's own replica
dispatch, then :meth:`~BatchingFrontend.finish_flush` (pair, reconstruct,
cache, dedup fan-out, metrics).  This module never imports :mod:`asyncio`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ProtocolError
from repro.core.scheduler import BatchSchedule
from repro.pir.client import PIRClient
from repro.pir.messages import QueryBatch

#: Flush triggers, reported in :class:`FrontendMetrics.flush_reasons`.
FLUSH_ON_SIZE = "size"
FLUSH_ON_WAIT = "wait"
FLUSH_ON_CLOSE = "close"


@dataclass(frozen=True)
class BatchingPolicy:
    """When a batch of pending requests is dispatched to the replicas.

    A batch flushes as soon as it holds ``max_batch_size`` requests, or when
    its oldest request has waited ``max_wait_seconds`` of simulated time —
    whichever comes first.
    """

    max_batch_size: int = 32
    max_wait_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ProtocolError("max_batch_size must be positive")
        if self.max_wait_seconds < 0:
            raise ProtocolError("max_wait_seconds must be non-negative")

    @classmethod
    def from_pipeline(
        cls,
        num_workers: int,
        num_clusters: int,
        rounds: int = 2,
        max_wait_seconds: float = 0.05,
    ) -> "BatchingPolicy":
        """Size batches to keep the Fig. 8 pipeline saturated.

        A batch of ``max(workers, clusters) * rounds`` queries gives every
        eval worker and every DPU cluster ``rounds`` tasks, which is what the
        :class:`~repro.core.scheduler.BatchScheduler` needs for utilization to
        approach 1 despite fill/drain effects.
        """
        width = max(1, num_workers, num_clusters)
        return cls(max_batch_size=width * max(1, rounds), max_wait_seconds=max_wait_seconds)


class AdaptiveBatchingPolicy:
    """An AIMD controller resizing ``max_batch_size`` online.

    The frontend reports every flushed batch's
    :meth:`~repro.core.scheduler.BatchSchedule.cluster_utilization` back to
    its policy (:meth:`observe_utilization`); this policy steers the batch
    size toward the smallest value that keeps the Fig. 8 pipeline saturated:

    * utilization below ``low_utilization`` means fill/drain effects dominate
      (the batch is too small to keep every cluster busy) — **additively
      increase** the batch size;
    * utilization above ``high_utilization`` means the pipeline is saturated
      and further batching only adds queueing latency — **multiplicatively
      decrease** back toward the knee.

    The duck-typed surface (``max_batch_size``/``max_wait_seconds``) matches
    :class:`BatchingPolicy`, so the frontend accepts either interchangeably.
    """

    def __init__(
        self,
        initial_batch_size: int = 8,
        max_wait_seconds: float = 0.05,
        min_batch_size: int = 1,
        max_batch_size_limit: int = 256,
        increase_step: int = 2,
        decrease_factor: float = 0.5,
        low_utilization: float = 0.5,
        high_utilization: float = 0.9,
    ) -> None:
        if not 1 <= min_batch_size <= initial_batch_size <= max_batch_size_limit:
            raise ProtocolError(
                "need min_batch_size <= initial_batch_size <= max_batch_size_limit"
            )
        if max_wait_seconds < 0:
            raise ProtocolError("max_wait_seconds must be non-negative")
        if increase_step <= 0:
            raise ProtocolError("increase_step must be positive")
        if not 0.0 < decrease_factor < 1.0:
            raise ProtocolError("decrease_factor must be in (0, 1)")
        if not 0.0 <= low_utilization <= high_utilization <= 1.0:
            raise ProtocolError("need 0 <= low_utilization <= high_utilization <= 1")
        self.max_batch_size = initial_batch_size
        self.max_wait_seconds = max_wait_seconds
        self.min_batch_size = min_batch_size
        self.max_batch_size_limit = max_batch_size_limit
        self.increase_step = increase_step
        self.decrease_factor = decrease_factor
        self.low_utilization = low_utilization
        self.high_utilization = high_utilization
        #: ``(utilization, resulting max_batch_size)`` per observation.
        self.history: List[Tuple[float, int]] = []

    def observe_utilization(self, utilization: float) -> int:
        """Feed one batch's cluster utilization; returns the new batch size."""
        if utilization < self.low_utilization:
            self.max_batch_size = min(
                self.max_batch_size_limit, self.max_batch_size + self.increase_step
            )
        elif utilization > self.high_utilization:
            # Round (half-up) rather than truncate: int() would turn e.g.
            # 3 * 0.5 into 1, overshooting past the knee the AIMD loop is
            # hunting for in a single step.  With a factor close to 1 the
            # rounded value can equal the current size — still step down by
            # one, or sustained saturation would never reach the floor.
            decreased = int(self.max_batch_size * self.decrease_factor + 0.5)
            if decreased >= self.max_batch_size:
                decreased = self.max_batch_size - 1
            self.max_batch_size = max(self.min_batch_size, decreased)
        self.history.append((utilization, self.max_batch_size))
        return self.max_batch_size


@dataclass
class PendingRequest:
    """A submitted retrieval waiting for its batch to flush."""

    request_id: int
    index: int
    arrival_seconds: float


@dataclass
class FrontendMetrics:
    """Scheduling metrics accumulated across every flushed batch."""

    batches_dispatched: int = 0
    requests_served: int = 0
    #: Requests answered from another request's scan (``dedup=True`` only).
    deduped_requests: int = 0
    #: Requests served from the hot-record cache without any replica scan.
    cache_hits: int = 0
    #: Sum over batches of the slowest replica's makespan (replicas overlap).
    total_makespan_seconds: float = 0.0
    flush_reasons: Dict[str, int] = field(default_factory=dict)
    last_schedule: Optional[BatchSchedule] = None
    last_cluster_utilization: float = 0.0
    #: Completed reconfigurations (topology applies, replica adds/drains,
    #: control passes) that ran through the frontend's gate.
    reconfigurations: int = 0

    @property
    def throughput_qps(self) -> float:
        """Requests per simulated second across all dispatched batches."""
        if self.total_makespan_seconds <= 0:
            return float("inf") if self.requests_served else 0.0
        return self.requests_served / self.total_makespan_seconds


@dataclass(frozen=True)
class ResultDetail:
    """Per-answer timing detail captured from a replica's raw batch result.

    ``breakdown`` is the answer's own :class:`PhaseTimer` (it holds no
    phases on backends that charge none); ``simulated_seconds`` is the
    engine-written :attr:`PIRAnswer.simulated_seconds` — an independently
    computed total a trace's span sum can be cross-checked against; and
    ``shards`` the per-shard child costs behind ``breakdown`` on a sharded
    replica (``(shard index, cost)`` in shard order, empty elsewhere).
    """

    breakdown: object
    simulated_seconds: Optional[float]
    shards: Tuple[Tuple[int, object], ...] = ()


@dataclass(frozen=True)
class FlushObservation:
    """Everything one flushed batch can tell an ``observe_flush`` observer.

    Built only when some observer exposes ``observe_flush`` (the
    observability hub), and delivered *after* the batch's futures/records
    are settled — instrumentation can never change what the data plane
    returns.  The per-request tuples use plain ids/indices so the
    observation is safe to retain; only ``details`` holds live objects (the
    breakdown timers).
    """

    reason: str
    now: float
    #: ``(request_id, index)`` for every request of the batch.
    batch: Tuple[Tuple[int, int], ...]
    #: ``(request_id, index, expected (query_id, server_id) keys)`` for the
    #: requests that actually reached the replicas.
    scanned: Tuple[Tuple[int, int, Tuple[Tuple[int, int], ...]], ...]
    #: Indices served straight from the hot-record cache.
    cached_indices: frozenset
    cache_hits: int
    deduped: int
    makespans: Tuple[float, ...]
    #: ``(query_id, server_id)`` -> :class:`ResultDetail`.
    details: Dict[Tuple[int, int], ResultDetail]


@dataclass
class FlushPlan:
    """One batch between :meth:`BatchingFrontend.begin_flush` and
    :meth:`BatchingFrontend.finish_flush`."""

    reason: str
    batch: List[PendingRequest]
    #: The requests that reach the replicas, their queries filled in.
    scanned: List[PendingRequest]
    #: Records served from the hot-record cache, by index.
    cached: Dict[int, bytes]
    #: One :class:`~repro.pir.messages.QueryBatch` per replica in
    #: ``server_id`` order, row ``i`` being ``scanned[i]``'s query; empty —
    #: dispatch nothing — when the cache served the whole batch.
    per_server: List[QueryBatch]


@dataclass
class FlushOutcome:
    """A finished flush: its records and what its observers are told."""

    #: The reconstructed record of every request of the batch, by request id.
    records: Dict[int, bytes]
    #: The batch's record indices and the flush instant (``observe_batch``).
    indices: List[int]
    now: float
    #: Built only when some observer exposes ``observe_flush``.
    observation: Optional[FlushObservation]


def check_replicas(client: PIRClient, replicas: Sequence) -> List:
    """Validate a replica set against the client's expectations.

    Every replica must expose a ``server_id`` matching its position (the
    pairing invariant keys answers by it) — an object without the attribute
    is rejected rather than silently trusted.
    """
    replicas = list(replicas)
    if len(replicas) != client.num_servers:
        raise ProtocolError(
            f"client expects {client.num_servers} replicas, got {len(replicas)}"
        )
    for server_id, replica in enumerate(replicas):
        actual = getattr(replica, "server_id", None)
        if actual is None:
            raise ProtocolError(
                f"replica at position {server_id} exposes no server_id "
                f"(answer pairing is keyed by it)"
            )
        if actual != server_id:
            raise ProtocolError(
                f"replica at position {server_id} reports server_id {actual}"
            )
    return replicas


class BatchingFrontend:
    """The state and the flush pipeline both frontends share.

    A flush is ``plan = begin_flush(batch, reason)``, then the frontend's
    own dispatch of ``plan.per_server`` to its replicas (both call them in
    sequence; :class:`~repro.pir.async_frontend.AsyncPIRFrontend` on its
    loop thread and resolves futures after), then
    ``finish_flush(plan, raw_results, now)``.  Observers are told by
    :meth:`_notify_observers` at a point each frontend picks.  Pairing,
    dedup, the cache and the metrics live only here, with no event loop and
    no clock (``now`` is passed in) — which keeps the sync frontend
    deterministic and the two frontends bit-identical by construction.
    """

    def __init__(
        self,
        client: PIRClient,
        replicas: Sequence,
        policy: Optional[BatchingPolicy] = None,
        dedup: bool = False,
        observers: Sequence = (),
        cache=None,
    ) -> None:
        self.client = client
        self.replicas = check_replicas(client, replicas)
        self.policy = policy if policy is not None else BatchingPolicy()
        self.dedup = dedup
        self.observers: List = list(observers)
        self.cache = None
        if cache is not None:
            self.attach_cache(cache)
        self.metrics = FrontendMetrics()
        self._pending: List[PendingRequest] = []
        self._next_request_id = 0

    def attach_cache(self, cache) -> None:
        """Enable the hot-record cache tier (requires ``dedup=True``).

        The gate is deliberate: a caching frontend sends the replicas fewer
        queries than it admitted, leaking the traffic pattern exactly as
        batch dedup does, so it is only meaningful in the trusted-aggregator
        deployments that already opted into dedup.
        """
        if not self.dedup:
            raise ProtocolError(
                "a hot-record cache requires dedup=True (same trusted-"
                "aggregator caveat: cached answers skip replica scans)"
            )
        self.cache = cache

    @property
    def pending_count(self) -> int:
        """Requests admitted but not yet dispatched."""
        return len(self._pending)

    def _admit(self, index: int, arrival_seconds: float) -> PendingRequest:
        """Queue a range-checked request under the next request id."""
        request = PendingRequest(self._next_request_id, index, arrival_seconds)
        self._next_request_id += 1
        self._pending.append(request)
        return request

    def _take_pending(self) -> List[PendingRequest]:
        batch, self._pending = self._pending, []
        return batch

    def _update_appliers(self) -> List:
        """Every replica's ``apply_updates``, validated before any runs.

        Validation must complete for the whole replica set *before* the first
        update lands: discovering a non-updatable replica halfway through would
        leave the set permanently inconsistent (some replicas on new bytes,
        some on old — XOR reconstruction then returns garbage, silently).
        """
        appliers = []
        for replica in self.replicas:
            replica_apply = getattr(replica, "apply_updates", None)
            if replica_apply is None:
                raise ProtocolError(
                    f"replica {replica.server_id} exposes no apply_updates"
                )
            appliers.append(replica_apply)
        return appliers

    def begin_flush(self, batch: List[PendingRequest], reason: str) -> FlushPlan:
        """Pick the requests that reach the replicas and generate their queries.

        Without ``dedup`` the whole batch is scanned.  With it, one leader per
        distinct index is; a distinct index resident in the cache is served
        from it instead — no queries are generated, no replica sees it — and
        :meth:`finish_flush` hands the cached record, like a leader's, to
        every request that asked for it.

        The scanned requests' queries come from **one** ``client.query_batch``
        call, on the calling thread — the only place either frontend
        generates keys.
        """
        cached: Dict[int, bytes] = {}
        if self.dedup:
            leaders: Dict[int, PendingRequest] = {}
            for request in batch:
                if request.index in leaders or request.index in cached:
                    continue
                record = self.cache.get(request.index) if self.cache is not None else None
                if record is not None:
                    cached[request.index] = record
                else:
                    leaders[request.index] = request
            scanned = list(leaders.values())
        else:
            scanned = list(batch)
        per_server: List[QueryBatch] = []
        if scanned:
            per_server = self.client.query_batch([request.index for request in scanned])
        return FlushPlan(reason, batch, scanned, cached, per_server)

    def _pair(self, plan: FlushPlan, raw_results: Sequence) -> np.ndarray:
        """Every replica's answer to every scanned request, paired by id.

        Returns ``(num_servers, S, record_size)``: row ``i`` of server
        ``s``'s slice answers ``plan.scanned[i]``.  Answers pair by
        ``(query_id, server_id)`` in whatever order the replicas return them;
        a duplicated, missing or unclaimed answer raises
        :class:`ProtocolError`.  The plan's query ids ascend (the client
        allocates them in order), so one ``searchsorted`` finds each
        answer's row.
        """
        num_servers, record_size = self.client.num_servers, self.client.record_size
        query_ids = plan.per_server[0].query_ids
        answer_ids = np.concatenate([raw.query_ids for raw in raw_results])
        answer_servers = np.concatenate([raw.server_ids for raw in raw_results])
        # A stable sort by (query, server) puts each pair's first answer
        # first; every later one repeats it, and the earliest repeat in
        # arrival order is the one reported.
        order = np.lexsort((answer_servers, answer_ids))
        repeats = order[1:][
            (np.diff(answer_ids[order]) == 0) & (np.diff(answer_servers[order]) == 0)
        ]
        if repeats.size:
            first = repeats.min()
            raise ProtocolError(
                f"duplicate answer for query {answer_ids[first]} "
                f"from server {answer_servers[first]}"
            )
        rows = np.searchsorted(query_ids, answer_ids)
        claimed = (rows < len(query_ids)) & (answer_servers >= 0) & (answer_servers < num_servers)
        claimed[claimed] = query_ids[rows[claimed]] == answer_ids[claimed]
        source = np.full((num_servers, len(query_ids)), -1, dtype=np.int64)
        source[answer_servers[claimed], rows[claimed]] = np.flatnonzero(claimed)
        missing = np.argwhere(source.T < 0)
        if missing.size:
            row, server = missing[0]
            raise ProtocolError(
                f"missing answer for request {plan.scanned[row].request_id} "
                f"(query {query_ids[row]}, server {server})"
            )
        if not claimed.all():
            orphans = sorted(
                zip(answer_ids[~claimed].tolist(), answer_servers[~claimed].tolist())
            )
            raise ProtocolError(
                f"replicas returned {len(orphans)} unmatched answers: {orphans}"
            )
        sizes = sorted({raw.payloads.shape[1] for raw in raw_results})
        if sizes != [record_size]:
            raise ProtocolError(f"answer payloads have sizes {sizes}, expected {record_size}")
        return np.concatenate([raw.payloads for raw in raw_results])[source]

    def finish_flush(
        self, plan: FlushPlan, raw_results: Sequence, now: float
    ) -> FlushOutcome:
        """Pair, reconstruct, cache, fan out and fold one dispatched batch.

        ``raw_results`` holds one ``answer_batch`` result
        (:class:`~repro.core.results.IMPIRBatchResult`) per replica.  Answers
        pair by ``(query_id, server_id)``: a duplicated, missing or unclaimed
        answer raises :class:`ProtocolError` before the cache or any metric
        moves.  Only records that cost a scan are offered to the cache.
        Every metric is folded here, before any observer runs, so an
        observer fault cannot lose a count.  ``now`` is the flush instant
        the observers are told.
        """
        makespans = [raw.latency_seconds for raw in raw_results]
        schedules = [raw.schedule for raw in raw_results if raw.schedule is not None]
        records: Dict[int, bytes] = {}
        record_by_index: Dict[int, bytes] = {}
        if plan.scanned:
            matrix = self.client.reconstruct(self._pair(plan, raw_results))
            for request, record in zip(plan.scanned, [row.tobytes() for row in matrix]):
                records[request.request_id] = record
                record_by_index[request.index] = record
        if self.cache is not None:
            self.cache.admit_many(record_by_index)
        record_by_index.update(plan.cached)
        # Every request not scanned itself takes its index's record: a cache
        # hit when the cache served the index, else a dedup win.
        deduped = cache_hits = 0
        for request in plan.batch:
            if request.request_id in records:
                continue
            records[request.request_id] = record_by_index[request.index]
            if request.index in plan.cached:
                cache_hits += 1
            else:
                deduped += 1

        # Replicas overlap, so the batch is charged the slowest replica's
        # makespan, and an adaptive policy (``observe_utilization``) is fed
        # the slowest schedule's cluster utilization.
        metrics = self.metrics
        metrics.batches_dispatched += 1
        metrics.requests_served += len(plan.batch)
        metrics.deduped_requests += deduped
        metrics.cache_hits += cache_hits
        metrics.total_makespan_seconds += max(makespans, default=0.0)
        metrics.flush_reasons[plan.reason] = metrics.flush_reasons.get(plan.reason, 0) + 1
        if schedules:
            slowest = max(schedules, key=lambda schedule: schedule.makespan)
            metrics.last_schedule = slowest
            metrics.last_cluster_utilization = slowest.cluster_utilization()
            observe = getattr(self.policy, "observe_utilization", None)
            if observe is not None:
                observe(metrics.last_cluster_utilization)

        observation = None
        if any(getattr(observer, "observe_flush", None) for observer in self.observers):
            observation = FlushObservation(
                reason=plan.reason,
                now=now,
                batch=tuple((request.request_id, request.index) for request in plan.batch),
                scanned=tuple(
                    (
                        request.request_id,
                        request.index,
                        tuple((query_id, server_id) for server_id in range(len(self.replicas))),
                    )
                    for request, query_id in zip(
                        plan.scanned, plan.per_server[0].query_ids.tolist() if plan.scanned else ()
                    )
                ),
                cached_indices=frozenset(plan.cached),
                cache_hits=cache_hits,
                deduped=deduped,
                makespans=tuple(makespans),
                details={
                    (result.answer.query_id, result.answer.server_id): ResultDetail(
                        breakdown=result.breakdown,
                        simulated_seconds=result.answer.simulated_seconds,
                        shards=result.shards,
                    )
                    for raw in raw_results
                    for result in raw.results
                },
            )
        indices = [request.index for request in plan.batch]
        return FlushOutcome(records, indices, now, observation)

    def _notify_observers(self, outcome: FlushOutcome) -> None:
        """Tell every observer about one finished flush.

        ``observe_batch(indices, now)`` is the hook the control plane's heat
        telemetry feeds from; ``observe_flush(observation)`` (the
        observability hub) gets the :class:`FlushObservation`.  A fault
        propagates: the sync frontend lets it reach the flushing caller, the
        async frontend routes it to the loop's exception handler.
        """
        for observer in self.observers:
            observe_batch = getattr(observer, "observe_batch", None)
            if observe_batch is not None:
                observe_batch(outcome.indices, outcome.now)
        if outcome.observation is not None:
            for observer in self.observers:
                observe_flush = getattr(observer, "observe_flush", None)
                if observe_flush is not None:
                    observe_flush(outcome.observation)


class PIRFrontend(BatchingFrontend):
    """Aggregates client requests into batches and routes them to replicas.

    ``replicas`` is one replica per ``server_id``: a
    :class:`~repro.pir.server.PIRServer` of any kind, or anything with the
    same surface (a :class:`~repro.shard.fleet.ReplicaGroup`, a test
    double).  A replica exposes ``server_id`` and ``answer_batch(queries)``
    — ``queries`` being its :class:`~repro.pir.messages.QueryBatch` of the
    flush — returning an :class:`~repro.core.results.IMPIRBatchResult`: its
    answers (query ids, server ids and payload matrix),
    its simulated ``latency_seconds`` and, when the batch ran through the
    Fig. 8 pipeline, the ``schedule`` whose cluster utilisation an adaptive
    policy is fed — plus ``apply_updates`` to take bulk updates.  The
    frontend is the only component that sees both replicas' answers, so it
    is also where the two-out-of-two pairing invariant is enforced.
    """

    def __init__(
        self,
        client: PIRClient,
        replicas: Sequence,
        policy: Optional[BatchingPolicy] = None,
        dedup: bool = False,
        observers: Sequence = (),
        cache=None,
    ) -> None:
        """``policy`` may be a :class:`BatchingPolicy` or an
        :class:`AdaptiveBatchingPolicy` (any object exposing
        ``max_batch_size``/``max_wait_seconds``; if it also exposes
        ``observe_utilization``, every flushed batch's cluster utilization is
        reported back to it).

        ``dedup=True`` scans each distinct index of a batch once and fans the
        reconstructed record back out to every request that asked for it, by
        request id.  **Privacy caveat**: the replicas then see one query where
        a non-deduplicating frontend would send several, so the batch's query
        count leaks the number of *distinct* indices in it.  That is only
        acceptable when the frontend is a trusted aggregator and the observed
        traffic pattern is part of the threat model — hence off by default.

        ``observers`` are telemetry sinks: every flushed batch's record
        indices and flush instant are reported to each observer's
        ``observe_batch(indices, now)`` — the hook the control plane's
        :class:`~repro.control.telemetry.HeatTracker` feeds from.  An
        observer fault (e.g. a failed rebalance migration) propagates to
        the caller that triggered the flush — deliberate fail-fast in this
        deterministic frontend; the batch itself completed first, so its
        records remain claimable via :meth:`take_record`.  (The asyncio
        frontend diverges here: it resolves the batch's futures first and
        routes observer faults to the loop's exception handler, since a
        live deployment must not fail retrievals on control-plane errors.)

        ``cache`` is an opt-in :class:`~repro.control.cache.HotRecordCache`
        serving repeat indices without a replica scan.  It rides on the
        dedup machinery (cached leaders skip query generation, followers
        are filled by the dedup fan-out) and carries the same
        trusted-aggregator caveat, so it **requires** ``dedup=True``.
        """
        super().__init__(client, replicas, policy, dedup, observers, cache)
        self._completed: Dict[int, bytes] = {}
        self._clock = 0.0

    def reconfigure(self, mutator):
        """Run a data-plane reconfiguration strictly between flushes.

        The sync frontend's "quiesce" is structural: everything runs on one
        thread, a flush is atomic within :meth:`_flush`, and observers (the
        control plane's rebalance hook) fire only after a batch's scans
        completed — so by the time ``mutator`` runs there is never a flush
        in flight, and no flush can span two plan versions.  The method
        exists so reconfigurations (topology swaps, bulk migrations) go
        through one named gate on both frontends: the asyncio counterpart
        (:meth:`repro.pir.async_frontend.AsyncPIRFrontend.reconfigure`)
        enforces the same guarantee with its writer-preferring quiesce.
        Returns ``mutator()``'s result.
        """
        result = mutator()
        self.metrics.reconfigurations += 1
        return result

    def apply_updates(self, updates) -> None:
        """Apply ``(index, record_bytes)`` updates to every replica.

        The frontend is the right place to land updates once a cache is
        attached: dirty indices are dropped from it first, so a cached
        record can never go stale relative to the replicas (the next
        request for it pays a scan and re-admits the new bytes).  Every
        replica must expose ``apply_updates``.
        """
        updates = list(updates)
        if not updates:
            return
        appliers = self._update_appliers()
        if self.cache is not None:
            self.cache.invalidate(sorted({index for index, _ in updates}))
        for replica_apply in appliers:
            replica_apply(updates)

    # -- admission -------------------------------------------------------------------

    def submit(self, index: int, arrival_seconds: Optional[float] = None) -> int:
        """Register a retrieval request; returns its request id.

        May flush the pending batch first (the new arrival's timestamp proves
        the oldest pending request exceeded its max wait) or immediately
        after (the batch reached ``max_batch_size``).
        """
        # Reject a bad index before anything moves (clock, ids, pending);
        # keys are generated per flush (:meth:`begin_flush`), not here.
        self.client.check_index(index)
        self._advance_clock(arrival_seconds)
        request = self._admit(index, self._clock)
        if len(self._pending) >= self.policy.max_batch_size:
            self._flush(FLUSH_ON_SIZE)
        return request.request_id

    def advance_time(self, now: float) -> None:
        """Advance simulated time; flushes the pending batch if its wait expired."""
        self._advance_clock(now)

    def close(self) -> None:
        """Flush whatever is pending (end of the request stream)."""
        if self._pending:
            self._flush(FLUSH_ON_CLOSE)

    # -- results ----------------------------------------------------------------------

    def take_record(self, request_id: int) -> bytes:
        """Pop the reconstructed record for ``request_id`` (must be complete)."""
        try:
            return self._completed.pop(request_id)
        except KeyError:
            raise ProtocolError(f"request {request_id} has no completed record") from None

    def retrieve_batch(self, indices: Sequence[int]) -> List[bytes]:
        """Retrieve several records, batching under the configured policy.

        Submissions share one arrival instant, so batches split purely on
        ``max_batch_size``; the trailing partial batch flushes on close.
        Records return in submission order.
        """
        request_ids = [self.submit(index) for index in indices]
        self.close()
        return [self.take_record(request_id) for request_id in request_ids]

    # -- internals ----------------------------------------------------------------------

    def _advance_clock(self, now: Optional[float]) -> None:
        """Move the clock to ``now`` (``None`` keeps it), then wait-flush if due."""
        if now is not None:
            if now < self._clock:
                raise ProtocolError(
                    f"time moves forward: {now} is before the frontend clock {self._clock}"
                )
            self._clock = now
        if (
            self._pending
            and self._clock - self._pending[0].arrival_seconds >= self.policy.max_wait_seconds
        ):
            self._flush(FLUSH_ON_WAIT)

    def _flush(self, reason: str) -> None:
        plan = self.begin_flush(self._take_pending(), reason)
        # Route through each replica's public batch surface, so every
        # backend's cost model (CPU/GPU analytic estimates, IM-PIR schedules)
        # prices the batch.  The replicas are called in sequence; the
        # simulated makespan treats them as parallel.
        raw_results = [
            replica.answer_batch(queries)
            for replica, queries in zip(self.replicas, plan.per_server)
        ]
        outcome = self.finish_flush(plan, raw_results, self._clock)
        self._completed.update(outcome.records)
        # Fail fast: an observer fault reaches the caller, and the batch's
        # records are already claimable.
        self._notify_observers(outcome)


#: The frontend is a request router; both names are part of the public API.
RequestRouter = PIRFrontend
