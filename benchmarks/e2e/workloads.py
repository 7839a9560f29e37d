"""The four retrieval workloads of the end-to-end benchmark.

Every workload is a closed loop driven from this one process: a caller waits
for its record before asking for the next, so a slower system receives less
load.  A :class:`Session` is one set-up system under test (database, two
replicas, client, frontend, warm-up rounds done) together with its seeded
input stream; ``run(limit)`` drives it for a number of seconds or for an
exact number of units and checks every retrieved record against an oracle
:class:`~repro.pir.database.Database` the system never sees.

Only generated inputs reach the program: ``--seed`` decides the database
bytes, the index streams, the Zipf trace, the update payloads and the client
key seed.  See ``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import BatchingPolicy, Database, PIRClient, PIRFrontend, ShardPlan, create_server
from repro.control import controlled_fleet
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.shard.fleet import heats_from_trace
from repro.workloads.traces import zipf_trace

from spans import Tracer


@dataclass(frozen=True)
class Shape:
    num_records: int
    record_size: int

    def __str__(self) -> str:
        return f"{self.num_records}x{self.record_size}B"


@dataclass(frozen=True)
class Limit:
    """When a timed run stops: after ``seconds``, or after exactly ``units``."""

    seconds: Optional[float] = None
    units: Optional[int] = None

    def reached(self, units_done: int, elapsed: float) -> bool:
        if self.units is not None:
            return units_done >= self.units
        return elapsed >= self.seconds


@dataclass
class Outcome:
    """What one timed run did and what it cost."""

    #: Rounds (sync workloads) or requests (async) completed — the unit a
    #: traced replay repeats exactly.
    units: int = 0
    attempted: int = 0
    failed: int = 0
    #: One sample per round (sync) or per request (async), in seconds.
    latencies: List[float] = field(default_factory=list)
    wall: float = 0.0
    #: Process CPU seconds (user + sys, every thread) over the run.
    cpu: float = 0.0
    #: CPU seconds of the driving thread alone (the event loop's, on async).
    driver_cpu: float = 0.0
    #: Counter deltas over the run, see :meth:`Session.counters`.
    counts: Dict[str, float] = field(default_factory=dict)


class Session:
    """A set-up system under test plus its seeded input stream."""

    name = ""
    shape = Shape(0, 0)
    smoke_shape = Shape(0, 0)
    #: Layer that owns ``engine.backend.execute_many`` on this workload.
    scan_layer = "scan"
    #: Units driven before timing starts (lazy set-up, buffer pools, caches).
    warmup_units = 5
    #: Counters that must repeat exactly between two runs of one seed.
    deterministic_counts: Sequence[str] = ("client.queries", "wire_bytes", "server.queries")

    def __init__(self, seed: int, smoke: bool = False, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.shape = self.smoke_shape if smoke else self.shape
        self.rng = np.random.default_rng([seed, 0x1D5])
        self.oracle = Database.random(
            self.shape.num_records, record_size=self.shape.record_size, seed=seed
        )
        self.client = PIRClient(
            self.shape.num_records, self.shape.record_size, seed=seed + 1
        )
        self.plane = None
        self.units_done = 0
        self._reported_error = False
        self.build()
        if tracer is not None:
            self._instrument(tracer)
        self.run(Limit(units=self.warmup_units))
        if tracer is not None:
            tracer.reset()

    # -- what a workload provides ---------------------------------------------------

    def build(self) -> None:
        """Create ``self.replicas`` and ``self.frontend`` from ``self.oracle``."""
        raise NotImplementedError

    def drive(self, limit: Limit, outcome: Outcome, started: float) -> None:
        """Issue requests until ``limit`` is reached, filling ``outcome``."""
        raise NotImplementedError

    def servers(self) -> List:
        """Every object exposing ``.engine`` behind the replicas."""
        return list(self.replicas)

    def close(self) -> None:
        """Release what :meth:`build` started (threads, loops)."""

    # -- shared machinery -------------------------------------------------------------

    def run(self, limit: Limit, outcome: Optional[Outcome] = None) -> Outcome:
        """Drive the system until ``limit``; adds to ``outcome`` when given.

        ``limit.seconds`` counts from this call, ``limit.units`` against the
        units ``outcome`` already holds.
        """
        outcome = outcome if outcome is not None else Outcome()
        before = self.counters()
        cpu = time.process_time()
        driver_cpu = time.thread_time()
        started = time.perf_counter()
        self.drive(limit, outcome, started)
        outcome.wall += time.perf_counter() - started
        outcome.driver_cpu += time.thread_time() - driver_cpu
        outcome.cpu += time.process_time() - cpu
        after = self.counters()
        for key in after:
            outcome.counts[key] = outcome.counts.get(key, 0) + after[key] - before[key]
        # Not additive: the last flushed batch's value.
        outcome.counts["sim.cluster_utilization"] = (
            self.frontend.metrics.last_cluster_utilization
        )
        return outcome

    def span(self, name: str, round_id: Optional[int] = None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, round_id=round_id)

    def check(self, indices: Sequence[int], records: Optional[Sequence[bytes]], outcome: Outcome) -> None:
        """The correctness gate: every record against the oracle."""
        outcome.attempted += len(indices)
        if records is None:
            outcome.failed += len(indices)
            return
        for index, record in zip(indices, records):
            if record != self.oracle.record(index):
                outcome.failed += 1

    def report_error(self) -> None:
        """Print the first failure's traceback; later ones are only counted."""
        if not self._reported_error:
            self._reported_error = True
            traceback.print_exc()

    def counters(self) -> Dict[str, float]:
        """Cumulative counts read at the layer boundaries."""
        stats = self.client.stats
        metrics = self.frontend.metrics
        counts = {
            "client.queries": stats.queries_generated,
            "wire_bytes": stats.upload_bytes + stats.download_bytes,
            "frontend.requests": metrics.requests_served,
            "frontend.batches": metrics.batches_dispatched,
            "frontend.wait_flushes": metrics.flush_reasons.get("wait", 0),
            "frontend.deduped": metrics.deduped_requests,
            "sim.makespan_s": metrics.total_makespan_seconds,
            "server.queries": 0,
            "dpf.prg_expansions": 0,
        }
        for server in self.servers():
            # Only the reference server exposes operation counters.
            server_stats = getattr(server, "stats", None)
            if server_stats is not None:
                counts["server.queries"] += server_stats.queries_answered
                counts["dpf.prg_expansions"] += server_stats.eval.prg_expansions
        cache = getattr(self.frontend, "cache", None)
        if cache is not None:
            counts["cache.hits"] = cache.stats.hits
            counts["cache.misses"] = cache.stats.misses
            counts["cache.evictions"] = cache.stats.evictions
            counts["cache.invalidations"] = cache.stats.invalidations
        if self.plane is not None:
            counts["shard.migrations"] = sum(
                len(report.migrations) for report in self.plane.reports
            )
        return counts

    def _instrument(self, tracer: Tracer) -> None:
        """Put a span at every layer boundary, from outside the program."""
        tracer.wrap(self.client, "query", "client.query")
        tracer.wrap(self.client, "reconstruct", "client.reconstruct")
        for replica in self.replicas:
            tracer.wrap(replica, "answer_batch", "engine.answer_batch", batched=True)
            if self.scan_layer == "shard":
                tracer.wrap(replica, "apply_updates", "shard.apply_updates", batched=True)
        for server in self.servers():
            engine = server.engine
            tracer.wrap(engine, "answer_many", "engine.answer_many", batched=True)
            tracer.wrap(engine, "selector_matrix", "dpf.selector_matrix", batched=True)
            tracer.wrap(
                engine.backend, "execute_many", f"{self.scan_layer}.execute_many", batched=True
            )

    def reference_replicas(self) -> List:
        return [create_server("reference", self.oracle, server_id) for server_id in (0, 1)]


class RoundsSession(Session):
    """Sync workloads: one caller, one ``retrieve_batch`` round at a time."""

    round_size = 8
    #: Batches are whole rounds here, so batch-shaped counts repeat too
    #: (PRG expansions depend on how queries were batched).
    deterministic_counts = Session.deterministic_counts + (
        "frontend.batches",
        "dpf.prg_expansions",
    )

    def drive(self, limit: Limit, outcome: Outcome, started: float) -> None:
        while not limit.reached(outcome.units, time.perf_counter() - started):
            indices = self.next_indices()
            records = None
            with self.span("frontend.round", round_id=self.units_done):
                begin = time.perf_counter()
                try:
                    records = self.frontend.retrieve_batch(indices)
                except Exception:
                    self.report_error()
                outcome.latencies.append(time.perf_counter() - begin)
                updates = self.after_round(indices)
            # The records were read before the round's writes landed, so they
            # are checked against the oracle as it was, and only then does
            # the oracle follow the writes.
            self.check(indices, records, outcome)
            if updates:
                self.oracle = self.oracle.with_updates(updates)
            outcome.units += 1
            self.units_done += 1

    def next_indices(self) -> List[int]:
        picks = self.rng.integers(0, self.shape.num_records, size=self.round_size)
        return [int(index) for index in picks]

    def after_round(self, indices: Sequence[int]) -> List:
        """Writes applied inside the round's root span, as ``(index, bytes)``."""
        return []


class EvalBound(RoundsSession):
    """65536 x 32 B: DPF evaluation dominates the round."""

    name = "eval_bound"
    shape = Shape(65536, 32)
    smoke_shape = Shape(1024, 32)

    def build(self) -> None:
        self.replicas = self.reference_replicas()
        self.frontend = PIRFrontend(
            self.client, self.replicas, policy=BatchingPolicy(self.round_size, 10.0)
        )


class ScanBound(EvalBound):
    """16384 x 8192 B = 128 MiB: the memory-bound scan dominates the round."""

    name = "scan_bound"
    shape = Shape(16384, 8192)
    smoke_shape = Shape(256, 2048)


class AsyncSmall(Session):
    """4096 x 32 B behind the asyncio frontend: 64 submitters, real timers,
    replicas scanned concurrently in worker threads; the client dominates."""

    name = "async_small"
    shape = Shape(4096, 32)
    smoke_shape = Shape(256, 32)
    submitters = 64
    warmup_units = 128

    def build(self) -> None:
        self.replicas = self.reference_replicas()
        self.frontend = AsyncPIRFrontend(
            self.client, self.replicas, policy=BatchingPolicy(32, 0.005)
        )
        # One loop for warm-up and timed runs: the frontend's quiesce
        # condition binds to the first loop that uses it.
        self.loop = asyncio.new_event_loop()

    def drive(self, limit: Limit, outcome: Outcome, started: float) -> None:
        self.loop.run_until_complete(self._submit_all(limit, outcome, started))

    async def _submit_all(self, limit: Limit, outcome: Outcome, started: float) -> None:
        issued = outcome.units

        async def submitter() -> None:
            nonlocal issued
            while not limit.reached(issued, time.perf_counter() - started):
                issued += 1
                request_no = self.units_done
                self.units_done += 1
                index = int(self.rng.integers(0, self.shape.num_records))
                record = None
                begin = time.perf_counter()
                try:
                    with self.span("frontend.request", round_id=request_no):
                        record = await self.frontend.submit(index)
                except Exception:
                    self.report_error()
                outcome.latencies.append(time.perf_counter() - begin)
                self.check([index], None if record is None else [record], outcome)
                outcome.units += 1

        # A trailing partial batch is flushed by the real max-wait timer.
        await asyncio.gather(*(submitter() for _ in range(self.submitters)))

    def close(self) -> None:
        self.loop.run_until_complete(self.frontend.close())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


class FleetZipfMixed(RoundsSession):
    """16384 x 64 B Zipf(1.1) through a controlled shard fleet: dedup, hot-record
    cache, live migrations, and a write after every 10th round."""

    name = "fleet_zipf_mixed"
    shape = Shape(16384, 64)
    smoke_shape = Shape(1024, 64)
    scan_layer = "shard"
    round_size = 16
    #: Simulated seconds between rounds (heat windows roll, rebalances fire).
    round_gap_seconds = 0.02
    update_every = 10
    #: Rounds per generated Zipf trace; a run that outlasts it draws another.
    trace_rounds = 400
    deterministic_counts = RoundsSession.deterministic_counts + (
        "frontend.deduped",
        "cache.hits",
        "cache.misses",
        "cache.evictions",
        "cache.invalidations",
        "shard.migrations",
        "sim.makespan_s",
        "sim.cluster_utilization",
    )

    def build(self) -> None:
        self.clock = 0.0
        self.updates_applied = 0
        self._trace: deque = deque()
        self._traces_drawn = 0
        plan = ShardPlan.uniform(self.shape.num_records, 4, block_records=8)
        self._refill_trace()
        # The offline sample that seeds the placement was taken at a
        # sixteenth of the live rate (one request per 20 ms, not one round),
        # so it prices the cold shards as streamed and the control plane has
        # to migrate them once live heat arrives.
        sample = list(itertools.islice(self._trace, 200))
        seed_heats = heats_from_trace(
            plan,
            sample,
            arrival_seconds=[self.round_gap_seconds * k for k in range(len(sample))],
            window_seconds=0.2,
            decay=0.5,
        )
        self.frontend, self.plane = controlled_fleet(
            self.client,
            self.oracle,
            plan,
            seed_heats,
            window_seconds=0.2,
            decay=0.5,
            rebalance_interval_seconds=0.4,
            cache_capacity=128,
            dedup=True,
            policy=BatchingPolicy(self.round_size, 10.0),
        )
        self.replicas = self.frontend.replicas

    def servers(self) -> List:
        return self.frontend.fleets

    def _refill_trace(self) -> None:
        trace = zipf_trace(
            self.shape.num_records,
            self.round_size * self.trace_rounds,
            exponent=1.1,
            seed=self.seed * 1000 + self._traces_drawn,
        )
        self._traces_drawn += 1
        self._trace.extend(trace.indices)

    def next_indices(self) -> List[int]:
        if not self._trace:
            self._refill_trace()
        self.frontend.advance_time(self.clock)
        self.clock += self.round_gap_seconds
        return [self._trace.popleft() for _ in range(self.round_size)]

    def after_round(self, indices: Sequence[int]) -> List:
        if self.units_done % self.update_every != self.update_every - 1:
            return []
        # One hot write (the index just read: it is cached, so the cache must
        # invalidate it) and one cold write, mirrored into the oracle.
        size = self.shape.record_size
        cold = int(self.rng.integers(self.shape.num_records // 2, self.shape.num_records))
        updates = [(indices[-1], self.rng.bytes(size)), (cold, self.rng.bytes(size))]
        with self.span("frontend.update"):
            self.frontend.apply_updates(updates)
        self.updates_applied += 1
        return updates

    def counters(self) -> Dict[str, float]:
        counts = super().counters()
        counts["shard.updates"] = self.updates_applied
        return counts

    def close(self) -> None:
        for fleet in self.frontend.fleets:
            fleet.backend.close()


WORKLOADS = {
    session.name: session for session in (AsyncSmall, EvalBound, ScanBound, FleetZipfMixed)
}
