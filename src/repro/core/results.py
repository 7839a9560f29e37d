"""Result containers returned by every server's query engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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


#: One lane's per-shard detail on a sharded server: ``(shard index, that
#: shard's child cost)`` pairs, in shard order.
ShardCosts = Tuple[Tuple[int, PhaseTimer], ...]


@dataclass
class IMPIRQueryResult:
    """One query's answer plus its simulated per-phase latency breakdown.

    ``shards`` is the per-shard detail behind ``breakdown`` on a sharded
    server (empty elsewhere): each shard's child cost, which fold per-phase
    max into the breakdown because shards run in parallel.
    """

    answer: PIRAnswer
    breakdown: PhaseTimer
    cluster_id: int = 0
    shards: ShardCosts = ()

    @property
    def latency_seconds(self) -> float:
        """Simulated server-side latency of this query."""
        return self.breakdown.total

    @property
    def dpu_pipeline_seconds(self) -> float:
        """Time spent on the DPU side of the pipeline (everything but eval/agg)."""
        host = (PHASE_EVAL, PHASE_AGGREGATE)
        return sum([seconds for phase, seconds in self.breakdown.items() if phase not in host])

    def phase_fractions(self) -> Dict[str, float]:
        """Each phase's share of the total latency (Table 1 rows)."""
        return self.breakdown.fractions()


class IMPIRBatchResult:
    """A batch of answers plus the simulated makespan that produced them.

    The answers are arrays: ``query_ids``, ``server_ids`` and execution
    ``lanes`` ``(B,)`` and the ``(B, record_size)`` uint8 ``payloads``
    matrix — what the frontend pairs and reconstructs a flush from.  Costs
    are per lane, not per row: every row of a lane costs the same (a
    dispatch's fixed charges split evenly over its rows), so ``costs`` maps
    each lane to the :class:`PhaseTimer` each of its rows is charged and
    ``shards`` each lane to its :data:`ShardCosts` (sharded servers only).
    The per-query :attr:`results` (and :attr:`answers`) are built from them
    on first access, each row with its own copy of its lane's cost (the
    shard detail is shared, read-only), and kept, so edits to them (a test
    double stretching latencies) are what later readers see.  A batch may instead be given as its ``results``;
    the arrays are then read from those once, and ``costs`` stays empty.

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
        lanes: Sequence[int] = (),
        costs: Optional[Mapping[int, PhaseTimer]] = None,
        shards: Optional[Mapping[int, ShardCosts]] = None,
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
            lanes = [result.cluster_id for result in self._results]
        else:
            if query_ids is None:
                query_ids = np.empty(0, dtype=np.int64)
            self.server_ids = np.full(query_ids.shape, server_id, dtype=np.int64)
            if payloads is None:
                payloads = np.empty((0, 0), dtype=np.uint8)
        self.query_ids = query_ids
        self.payloads = payloads
        self.lanes = np.asarray(lanes, dtype=np.int64)
        self.costs = dict(costs or {})
        self.shards = dict(shards or {})

    def per_row(self, value: Callable[[PhaseTimer], float]) -> List[float]:
        """``value`` of each row's cost, in row order (read once per lane)."""
        by_lane = {lane: value(cost) for lane, cost in self.costs.items()}
        return [by_lane[lane] for lane in self.lanes.tolist()]

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
                        simulated_seconds=seconds or None,
                    ),
                    breakdown=self.costs[lane].copy(),
                    cluster_id=lane,
                    shards=self.shards.get(lane, ()),
                )
                for query_id, server_id, payload, seconds, lane in zip(
                    self.query_ids.tolist(),
                    self.server_ids.tolist(),
                    self.payloads,
                    self.per_row(lambda cost: cost.total),
                    self.lanes.tolist(),
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
        for result in self.results:
            mean.merge(result.breakdown)
        return mean.scaled(1.0 / self.batch_size) if self.batch_size else mean
