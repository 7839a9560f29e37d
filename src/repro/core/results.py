"""Result containers returned by every server's query engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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


@dataclass
class IMPIRBatchResult:
    """A batch of answers plus the simulated makespan that produced them.

    ``schedule`` is the Fig. 8 worker/lane timeline when the backend runs the
    batch through that pipeline (its makespan is ``latency_seconds`` and its
    cluster utilisation steers an adaptive batching policy), and ``None``
    when the backend prices the batch some other way (see
    :meth:`repro.core.engine.PIRBackend.batch_makespan`).
    """

    results: List[IMPIRQueryResult] = field(default_factory=list)
    schedule: Optional[BatchSchedule] = None
    #: Simulated makespan of the whole batch.
    latency_seconds: float = 0.0

    @property
    def answers(self) -> List[PIRAnswer]:
        """Per-query answers in submission order."""
        return [result.answer for result in self.results]

    @property
    def batch_size(self) -> int:
        """Number of queries in the batch."""
        return len(self.results)

    @property
    def throughput_qps(self) -> float:
        """Queries per simulated second."""
        span = self.latency_seconds
        return len(self.results) / span if span > 0 else float("inf")

    def mean_breakdown(self) -> PhaseTimer:
        """Average per-query phase breakdown across the batch."""
        mean = PhaseTimer()
        if not self.results:
            return mean
        for result in self.results:
            mean.merge(result.breakdown)
        return mean.scaled(1.0 / len(self.results))
