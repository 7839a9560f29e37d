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

Shard detail travels with the answer: a sharded backend returns each
lane's per-shard child costs with the batch it priced, every answer of the
lane carries them (:attr:`~repro.core.results.IMPIRQueryResult.shards`),
and the frontend hands them to the hub in the flush's
:class:`~repro.pir.frontend.ResultDetail`.  Shard spans are *parallel*
detail — children fold per-phase max, so their seconds deliberately do not
sum into the server span.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional

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
    """Bounded trace store.

    ``max_traces`` bounds memory FIFO (oldest trace evicted first).  The
    store is locked, so a report may read it from another thread than the
    one recording flushes.
    """

    def __init__(self, max_traces: int = 512) -> None:
        if max_traces <= 0:
            raise ConfigurationError("tracer bounds must be positive")
        self.max_traces = max_traces
        self.traces_evicted = 0
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
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
