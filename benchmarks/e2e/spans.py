"""Benchmark-side span recorder: times each layer from outside the program.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.wrap` replaces
a bound method on one *instance* (the client, a replica, an engine, a
backend) with a delegating wrapper that records a span around the call, so a
later PR can rewrite or delete a layer's internals without touching the
instrument, as long as the public function it is timed through survives.

A span is ``(id, name, start, end, cpu, parent, round, thread, work)``:

* ``start``/``end`` are ``time.perf_counter`` seconds (wall clock);
* ``cpu`` is the calling thread's CPU seconds over the span
  (``time.thread_time``), which stays meaningful when replica scans run in
  worker threads beside the event loop and wall intervals overlap;
* ``parent`` is the id of the span that caused this one and ``round`` the
  identifier every span of one round shares — both travel in a
  :mod:`contextvars` variable, which ``asyncio.to_thread`` copies into the
  worker thread, so a replica scan nests under the flush that dispatched it;
* ``work`` is the number of queries (or calls) the span served.

Spans stay in memory (one list append per span) and are written out by
:func:`write_spans` when the run ends.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    cpu: float
    parent: Optional[int]
    round: Optional[int]
    thread: int
    work: int

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _OpenSpan:
    """Context manager recording one span; appended to the tracer on exit."""

    __slots__ = ("_tracer", "_name", "_round", "_work", "_id", "_parent", "_token", "_start", "_cpu")

    def __init__(self, tracer: "Tracer", name: str, round_id: Optional[int], work: int) -> None:
        self._tracer = tracer
        self._name = name
        self._round = round_id
        self._work = work

    def __enter__(self) -> "_OpenSpan":
        tracer = self._tracer
        self._parent, inherited_round = tracer._current.get()
        if self._round is None:
            self._round = inherited_round
        self._id = next(tracer._ids)
        self._token = tracer._current.set((self._id, self._round))
        self._cpu = time.thread_time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        cpu = time.thread_time() - self._cpu
        tracer = self._tracer
        tracer._current.reset(self._token)
        tracer.spans.append(
            Span(
                self._id, self._name, self._start, end, cpu,
                self._parent, self._round, threading.get_ident(), self._work,
            )
        )


def _first_argument_length(*args, **kwargs) -> int:
    return len(args[0])


class Tracer:
    """Records spans around calls into the layers of the system under test."""

    def __init__(self) -> None:
        #: Completed spans in completion order (``list.append`` is atomic
        #: under the GIL, so worker threads need no lock).
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_bench_span", default=(None, None)
        )

    def span(self, name: str, round_id: Optional[int] = None) -> _OpenSpan:
        """A span around a ``with`` block; ``round_id`` starts a new round."""
        return _OpenSpan(self, name, round_id, 1)

    def wrap(self, target, method: str, name: str, batched: bool = False) -> None:
        """Time every call of ``target.method`` as a span called ``name``.

        Shadows the bound method on this one instance only.  ``batched``
        marks calls whose first argument is the batch (a query list or a
        selector matrix); its length becomes the span's ``work``.
        """
        inner = getattr(target, method)
        work_of: Callable[..., int] = _first_argument_length if batched else (lambda *a, **k: 1)

        def traced(*args, **kwargs):
            with _OpenSpan(self, name, None, work_of(*args, **kwargs)):
                return inner(*args, **kwargs)

        setattr(target, method, traced)

    def reset(self) -> None:
        """Forget the spans recorded so far (set-up and warm-up rounds)."""
        self.spans.clear()


def self_seconds(spans: List[Span], clock: str = "wall") -> Dict[int, float]:
    """Each span's self time: its duration minus what its children cover.

    Only children on the span's own thread are subtracted — a child in a
    worker thread runs beside its parent, not inside it.  On one thread
    sibling spans never overlap, so the covered part is their plain sum.
    ``clock`` is ``"wall"`` or ``"cpu"``.
    """
    duration = (lambda s: s.wall) if clock == "wall" else (lambda s: s.cpu)
    own = {span.id: duration(span) for span in spans}
    thread_of = {span.id: span.thread for span in spans}
    for span in spans:
        if span.parent in own and thread_of[span.parent] == span.thread:
            own[span.parent] -= duration(span)
    return own


def write_spans(spans: List[Span], path) -> None:
    """One JSON object per line, in start order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: s.start):
            handle.write(json.dumps(span._asdict()) + "\n")
