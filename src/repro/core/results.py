"""Result containers returned by every server's query engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.errors import ProtocolError
from repro.common.events import PhaseTimer
from repro.core.scheduler import BatchSchedule
from repro.pir.messages import PIRAnswer

#: Canonical phase names, in pipeline order (Algorithm 1 ➋–➏).
PHASE_EVAL = "eval"
PHASE_COPY_IN = "copy_cpu_to_dpu"
PHASE_DPXOR = "dpxor"
PHASE_COPY_OUT = "copy_dpu_to_cpu"
PHASE_AGGREGATE = "aggregate"

ALL_PHASES = (PHASE_EVAL, PHASE_COPY_IN, PHASE_DPXOR, PHASE_COPY_OUT, PHASE_AGGREGATE)


@dataclass
class IMPIRQueryResult:
    """One query's answer plus its simulated per-phase latency breakdown."""

    answer: PIRAnswer
    breakdown: PhaseTimer
    cluster_id: int = 0

    @property
    def latency_seconds(self) -> float:
        """Simulated server-side latency of this query."""
        return self.breakdown.total

    @property
    def dpu_pipeline_seconds(self) -> float:
        """Time spent on the DPU side of the pipeline (everything but eval/agg)."""
        return (
            self.breakdown.get(PHASE_COPY_IN)
            + self.breakdown.get(PHASE_DPXOR)
            + self.breakdown.get(PHASE_COPY_OUT)
        )

    def phase_fractions(self) -> Dict[str, float]:
        """Each phase's share of the total latency (Table 1 rows)."""
        return self.breakdown.fractions()


class IMPIRBatchResult:
    """A batch of answers plus the simulated makespan that produced them.

    The answers are arrays: ``query_ids`` and ``server_ids`` ``(B,)`` and the
    ``(B, record_size)`` uint8 ``payloads`` matrix, beside each row's phase
    ``breakdowns`` and execution ``lanes`` — what the frontend pairs and
    reconstructs a flush from.  The per-query :attr:`results` (and
    :attr:`answers`) are built from them on first access and kept, so edits
    to them (a test double stretching latencies) are what later readers see.
    A batch may instead be given as its ``results``; the arrays are then read
    from those once.

    ``schedule`` is the Fig. 8 worker/lane timeline when the backend runs the
    batch through that pipeline (its makespan is ``latency_seconds`` and its
    cluster utilisation steers an adaptive batching policy), and ``None``
    when the backend prices the batch some other way (see
    :meth:`repro.core.engine.PIRBackend.batch_makespan`).
    """

    def __init__(
        self,
        results: Optional[Sequence[IMPIRQueryResult]] = None,
        schedule: Optional[BatchSchedule] = None,
        latency_seconds: float = 0.0,
        *,
        server_id: int = 0,
        query_ids: Optional[np.ndarray] = None,
        payloads: Optional[np.ndarray] = None,
        breakdowns: Sequence[PhaseTimer] = (),
        lanes: Sequence[int] = (),
    ) -> None:
        self.schedule = schedule
        #: Simulated makespan of the whole batch.
        self.latency_seconds = latency_seconds
        self._results: Optional[List[IMPIRQueryResult]] = None
        if results is not None:
            self._results = list(results)
            answers = [result.answer for result in self._results]
            sizes = {len(answer.payload) for answer in answers}
            if len(sizes) > 1:
                raise ProtocolError(f"answer payloads have sizes {sorted(sizes)}")
            query_ids = np.asarray([answer.query_id for answer in answers], dtype=np.int64)
            self.server_ids = np.asarray([answer.server_id for answer in answers], dtype=np.int64)
            payloads = np.frombuffer(
                b"".join([answer.payload for answer in answers]), dtype=np.uint8
            ).reshape(len(answers), sizes.pop() if sizes else 0)
            breakdowns = [result.breakdown for result in self._results]
            lanes = [result.cluster_id for result in self._results]
        else:
            if query_ids is None:
                query_ids = np.empty(0, dtype=np.int64)
            self.server_ids = np.full(query_ids.shape, server_id, dtype=np.int64)
            if payloads is None:
                payloads = np.empty((0, 0), dtype=np.uint8)
        self.query_ids = query_ids
        self.payloads = payloads
        self.breakdowns = list(breakdowns)
        self.lanes = list(lanes)

    @property
    def results(self) -> List[IMPIRQueryResult]:
        """Per-query results in submission order (built once, on first access)."""
        if self._results is None:
            self._results = [
                IMPIRQueryResult(
                    answer=PIRAnswer(
                        query_id=query_id,
                        server_id=server_id,
                        payload=payload.tobytes(),
                        simulated_seconds=breakdown.total or None,
                    ),
                    breakdown=breakdown,
                    cluster_id=lane,
                )
                for query_id, server_id, payload, breakdown, lane in zip(
                    self.query_ids.tolist(),
                    self.server_ids.tolist(),
                    self.payloads,
                    self.breakdowns,
                    self.lanes,
                )
            ]
        return self._results

    @property
    def answers(self) -> List[PIRAnswer]:
        """Per-query answers in submission order."""
        return [result.answer for result in self.results]

    @property
    def batch_size(self) -> int:
        """Number of queries in the batch."""
        return len(self.query_ids)

    @property
    def throughput_qps(self) -> float:
        """Queries per simulated second."""
        span = self.latency_seconds
        return self.batch_size / span if span > 0 else float("inf")

    def mean_breakdown(self) -> PhaseTimer:
        """Average per-query phase breakdown across the batch."""
        mean = PhaseTimer()
        if not self.breakdowns:
            return mean
        for breakdown in self.breakdowns:
            mean.merge(breakdown)
        return mean.scaled(1.0 / len(self.breakdowns))
