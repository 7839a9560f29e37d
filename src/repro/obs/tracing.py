"""Span tracing: per-request pipeline trees from ``PhaseTimer`` merges.

The paper's Figure 10 decomposes an IM-PIR query into its pipeline phases
(host eval, CPU→DPU copy, dpXOR, DPU→CPU copy, aggregate) — but only in
aggregate.  This module reconstructs that decomposition **per individual
request**: each retrieval gets a :class:`Trace` whose root span covers the
request, one child span per replica server (its seconds taken from the
engine's :class:`~repro.common.events.PhaseTimer`, one leaf span per
phase), and — when the sharded backend participates — per-shard scan spans
nested under each server.

Durations are **simulated seconds copied from the timers**, never measured
here: :meth:`Span.add_phases` accumulates a timer's phase durations in
iteration order, which makes the span total *float-exactly* equal to
``PhaseTimer.total`` of the same timer (both are a left-to-right sum over
the same values) — the property ``examples/observability.py`` asserts.

Shard detail rides a side channel: the engine's per-query breakdown object
flows by identity from :meth:`QueryEngine.answer_many` into
:meth:`~repro.shard.backend.ShardedBackend.charge_many` (through the one
scan, :meth:`~repro.core.engine.PIRBackend.execute_many`) and back out in
the raw results, so the backend keys its per-shard child timers by
``id(breakdown)`` (guarded by a weakref so a recycled id can never attach
another query's shards) and the hub pops them when it builds the trace.
Shard spans are *parallel* detail — children fold per-phase max, so their
seconds deliberately do not sum into the server span.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError

#: Span kinds used by the hub's pipeline reconstruction.
KIND_REQUEST = "request"
KIND_SERVER = "server"
KIND_SHARD = "shard"
KIND_PHASE = "phase"
KIND_CACHE = "cache"


class Span:
    """One named interval in a trace tree.

    ``seconds`` is additive over :meth:`add_phases` calls; children created
    with :meth:`child` do **not** automatically contribute to the parent
    (parallel children — replicas, shards — must not sum), callers roll up
    explicitly where summation is the right semantics.
    """

    __slots__ = ("name", "kind", "seconds", "labels", "children")

    def __init__(self, name: str, kind: str = "span", **labels) -> None:
        self.name = name
        self.kind = kind
        self.seconds = 0.0
        self.labels: Dict[str, object] = dict(labels)
        self.children: List["Span"] = []

    def child(self, name: str, kind: str = "span", **labels) -> "Span":
        span = Span(name, kind=kind, **labels)
        self.children.append(span)
        return span

    def add_phases(self, durations, kind: str = KIND_PHASE) -> None:
        """Fold a ``PhaseTimer`` (or a plain phase→seconds mapping) in.

        One leaf child span per phase, accumulated left to right in the
        timer's own iteration order — so ``self.seconds`` lands on exactly
        the float ``PhaseTimer.total`` computes for the same timer.
        """
        items = durations.durations.items() if hasattr(durations, "durations") else durations.items()
        for phase, seconds in items:
            leaf = self.child(phase, kind=kind)
            leaf.seconds = float(seconds)
            self.seconds += float(seconds)

    def find(self, kind: str) -> List["Span"]:
        """Direct children of ``kind`` (not recursive)."""
        return [span for span in self.children if span.kind == kind]

    def phase_total(self) -> float:
        """Left-to-right sum of this span's direct phase leaves."""
        total = 0.0
        for span in self.children:
            if span.kind == KIND_PHASE:
                total += span.seconds
        return total

    def render(self, indent: int = 0) -> List[str]:
        labels = ""
        if self.labels:
            labels = " " + " ".join(
                f"{key}={value}" for key, value in sorted(self.labels.items())
            )
        lines = [
            f"{'  ' * indent}{self.name} [{self.kind}] "
            f"{self.seconds * 1e6:.3f}us{labels}"
        ]
        for span in self.children:
            lines.extend(span.render(indent + 1))
        return lines


class Trace:
    """One request's span tree plus its identity and start instant."""

    __slots__ = ("trace_id", "root", "started_now")

    def __init__(self, trace_id: str, root: Span, started_now: float) -> None:
        self.trace_id = trace_id
        self.root = root
        self.started_now = started_now

    @property
    def total_seconds(self) -> float:
        return self.root.seconds

    def render(self) -> List[str]:
        lines = [f"trace {self.trace_id} @ {self.started_now:.3f}s"]
        lines.extend(self.root.render(indent=1))
        return lines


class Tracer:
    """Bounded trace store plus the shard-scan side channel.

    ``max_traces`` bounds memory FIFO (oldest trace evicted first); the
    side channel is bounded the same way so an instrumented backend driven
    without a hub reading it back cannot grow without bound.  Thread-safe:
    the sharded backend records scan detail from pool threads.
    """

    def __init__(self, max_traces: int = 512, max_scan_entries: int = 4096) -> None:
        if max_traces <= 0 or max_scan_entries <= 0:
            raise ConfigurationError("tracer bounds must be positive")
        self.max_traces = max_traces
        self.max_scan_entries = max_scan_entries
        self.traces_evicted = 0
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        #: id(breakdown) -> (weakref to the breakdown, [(shard_index, phases)])
        self._scans: "OrderedDict[int, Tuple[object, List[Tuple[int, Dict[str, float]]]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    # -- traces -----------------------------------------------------------------

    def start_trace(
        self, trace_id: str, name: str, now: float = 0.0, kind: str = KIND_REQUEST, **labels
    ) -> Trace:
        """Create (or return the existing) trace for ``trace_id``."""
        with self._lock:
            trace = self._traces.get(trace_id)
            if trace is None:
                trace = Trace(trace_id, Span(name, kind=kind, **labels), now)
                self._traces[trace_id] = trace
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
                    self.traces_evicted += 1
            return trace

    def get(self, trace_id: str) -> Optional[Trace]:
        with self._lock:
            return self._traces.get(trace_id)

    def traces(self) -> List[Trace]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._traces.values())

    def __len__(self) -> int:
        return len(self._traces)

    def slowest(self, n: int = 5) -> List[Trace]:
        """The ``n`` retained traces with the largest root seconds."""
        return sorted(
            self.traces(), key=lambda trace: trace.total_seconds, reverse=True
        )[: max(0, n)]

    # -- the shard-scan side channel ---------------------------------------------

    def record_shard_scan(self, breakdown, shard_index: int, timer) -> None:
        """Attach one shard's child-timer phases to a query's breakdown object.

        Called by the sharded backend while it still holds the engine's
        per-query ``PhaseTimer``; the hub pops the detail by the same object
        when the flush observation reaches it.  Keyed by ``id`` with a
        weakref guard: if the breakdown was garbage-collected and its id
        recycled, the stale entry is discarded instead of mis-attaching
        another query's shards.
        """
        phases = dict(timer.durations) if hasattr(timer, "durations") else dict(timer)
        with self._lock:
            key = id(breakdown)
            entry = self._scans.get(key)
            if entry is not None and entry[0]() is not breakdown:
                entry = None  # recycled id: drop the stale detail
            if entry is None:
                entry = (weakref.ref(breakdown), [])
                self._scans[key] = entry
                while len(self._scans) > self.max_scan_entries:
                    self._scans.popitem(last=False)
            entry[1].append((shard_index, phases))

    def pop_shard_scans(self, breakdown) -> List[Tuple[int, Dict[str, float]]]:
        """Take (and clear) the shard detail recorded for ``breakdown``."""
        with self._lock:
            entry = self._scans.pop(id(breakdown), None)
        if entry is None or entry[0]() is not breakdown:
            return []
        return sorted(entry[1])
