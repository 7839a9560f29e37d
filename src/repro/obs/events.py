"""Structured event log: typed, simulated-clock-stamped records, pluggable sinks.

Telemetry across the fleet is fragmented — :class:`~repro.common.events.PhaseTimer`
breakdowns, :class:`~repro.pir.frontend.FrontendMetrics`,
:class:`~repro.control.telemetry.HeatTracker` windows and
:class:`~repro.control.rebalancer.RebalanceReport` objects each live in their
own corner.  An :class:`EventLog` is the common export path: every layer that
has something to report emits one :class:`Event` (a name, a monotonic
sequence number, a simulated-clock instant and a flat field dict) and a
chain of sinks decides what happens to it — kept in a ring buffer
(:class:`RingBufferSink`), appended to a JSONL file (:class:`JsonlSink`),
bridged into a metrics registry (the hub's job), or nothing at all.

Three properties are load-bearing:

* **Zero hot-path overhead when disabled.**  Components hold an optional
  ``events`` attribute defaulting to ``None`` and guard every emission with
  a single ``is not None`` check; an :class:`EventLog` with no sinks
  additionally short-circuits :meth:`EventLog.emit` before building the
  event object.  The instrumented data plane is bit-identical to the
  uninstrumented one by construction.
* **Simulated clock only.**  Events are stamped with the last simulated
  instant the log has seen (``now`` from the frontend observer hooks and
  any caller that has one), never with ``time.time()`` — matching the
  wall-clock ban ``tools/lint.py`` enforces for the control and shard
  layers this log instruments.  Components with no clock of their own
  (cache admissions, topology swaps) inherit the last-known instant; the
  monotonic ``seq`` disambiguates ordering within one instant.
* **Telemetry never fails the data plane.**  :meth:`EventLog.emit` catches
  every sink exception, counts it in :attr:`EventLog.dropped` and keeps the
  remaining sinks fed; :class:`JsonlSink` serialises the complete line
  *before* its single write, so a raising sink never leaves a partial line
  behind.  Combined with the async frontend's observer fault routing, a
  broken exporter can never corrupt a flush.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.common.errors import ConfigurationError


def _json_safe(value: object) -> object:
    """Coerce a field value to something ``json.dumps`` accepts.

    Scalars pass through; everything else (numpy scalars, dataclasses,
    shard specs) is rendered via ``repr`` so an exotic field can never make
    an export raise mid-flush.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return repr(value)


@dataclass(frozen=True)
class Event:
    """One structured telemetry record.

    ``now`` is a *simulated* instant (the frontend's clock, or the last one
    the log saw); ``seq`` is the log-wide monotonic sequence number that
    orders events sharing an instant.
    """

    name: str
    seq: int
    now: float
    fields: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-safe flat rendering (the JSONL exporter's line payload)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "seq": self.seq,
            "now": self.now,
        }
        for key, value in self.fields.items():
            payload[str(key)] = _json_safe(value)
        return payload


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity <= 0:
            raise ConfigurationError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._events: "deque[Event]" = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(list(self._events))

    def events(self) -> List[Event]:
        """The retained events, oldest first."""
        return list(self._events)

    def named(self, name: str) -> List[Event]:
        """Retained events with ``name``, oldest first."""
        return [event for event in self._events if event.name == name]

    def counts(self) -> Dict[str, int]:
        """Retained event count per name (diagnostic/report helper)."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.name] = counts.get(event.name, 0) + 1
        return counts


class JsonlSink:
    """Appends one JSON line per event to a file (or file-like handle).

    The whole line — payload plus trailing newline — is serialised *before*
    the single ``write`` call, so a handle that raises mid-export can fail
    only between complete lines, never inside one: re-reading the file
    always yields valid JSON records.

    ``max_bytes`` (path-backed sinks only) bounds the file with rotate-once
    semantics: a line that would push the current file past the bound first
    rotates it to ``<path>.1`` — overwriting any previous rotation — and
    starts fresh, so an arbitrarily long chaos run holds at most
    ``2 * max_bytes`` of export on disk.  Rotation happens only between
    complete lines; a single line larger than the bound is still written
    whole (the valid-JSON invariant wins over the byte bound).
    """

    def __init__(self, path_or_handle, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError("max_bytes must be positive")
        if hasattr(path_or_handle, "write"):
            if max_bytes is not None:
                raise ConfigurationError(
                    "max_bytes requires a path-backed sink (cannot rotate a handle)"
                )
            self._handle = path_or_handle
            self._owns_handle = False
            self.path = getattr(path_or_handle, "name", None)
            self.bytes_written = 0
        else:
            self.path = str(path_or_handle)
            self._handle = open(self.path, "a", encoding="utf-8")
            self._owns_handle = True
            # Appending to an existing file: the bound covers what is
            # already there, not just this process's lines.
            self.bytes_written = self._handle.tell()
        self.max_bytes = max_bytes
        self.lines_written = 0
        self.rotations = 0

    def emit(self, event: Event) -> None:
        line = json.dumps(event.as_dict(), sort_keys=True) + "\n"
        size = len(line.encode("utf-8"))
        if (
            self.max_bytes is not None
            and self.bytes_written > 0
            and self.bytes_written + size > self.max_bytes
        ):
            self._rotate()
        self._handle.write(line)
        self.bytes_written += size
        self.lines_written += 1

    def _rotate(self) -> None:
        self._handle.close()
        os.replace(self.path, self.path + ".1")
        self._handle = open(self.path, "a", encoding="utf-8")
        self.bytes_written = 0
        self.rotations += 1

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()


class EventLog:
    """The sink chain plus the shared simulated clock and sequence counter.

    ``emit`` never raises: a sink fault increments :attr:`dropped` (and is
    remembered in :attr:`last_error`) while the remaining sinks still
    receive the event — a broken exporter must never fail the retrieval
    that emitted, nor starve the healthy sinks.  Thread-safe: the async
    frontend's writers (``apply_updates`` / ``reconfigure``) emit from a
    worker thread.
    """

    def __init__(self, sinks=()) -> None:
        self.sinks: List = list(sinks)
        self.dropped = 0
        self.last_error: Optional[BaseException] = None
        self._seq = 0
        self._now = 0.0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether emissions go anywhere (no sinks: emit is a no-op)."""
        return bool(self.sinks)

    @property
    def now(self) -> float:
        """The last simulated instant the log has seen."""
        return self._now

    @property
    def events_emitted(self) -> int:
        """Events built and offered to the sink chain so far."""
        return self._seq

    def advance(self, now: float) -> None:
        """Teach the log the current simulated instant (monotonic max).

        Fed from the frontend observer hooks; emitters without a clock of
        their own (cache admissions, topology swaps) stamp with this.
        """
        with self._lock:
            if now > self._now:
                self._now = now

    def emit(self, name: str, now: Optional[float] = None, **fields) -> Optional[Event]:
        """Build and export one event; never raises.

        ``now`` (when the emitter has a simulated instant) both stamps the
        event and advances the log's clock; without it the last-known
        instant is used.  Returns the event, or ``None`` when no sink is
        attached (the disabled fast path builds nothing).
        """
        if not self.sinks:
            return None
        with self._lock:
            if now is not None and now > self._now:
                self._now = now
            event = Event(name=name, seq=self._seq, now=self._now, fields=fields)
            self._seq += 1
            for sink in self.sinks:
                try:
                    sink.emit(event)
                except Exception as error:
                    self.dropped += 1
                    self.last_error = error
        return event
