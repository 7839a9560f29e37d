"""Batch-query scheduler (paper §3.4, Fig. 8).

The server handles a batch of queries with a two-stage pipeline:

1. **Host workers** — ``W`` CPU threads pop keys from the incoming batch and
   perform the per-key full-domain DPF evaluation, pushing the resulting
   selector share onto a task queue.
2. **DPU clusters** — ``C`` clusters pop tasks from the queue; a cluster
   processes one query at a time (CPU->DPU share copy, kernel launch, dpXOR,
   result gather), so queries' dpXOR phases serialise within a cluster and
   overlap across clusters.

The scheduler is a small list-scheduling simulation over per-query durations.
It is deliberately independent of the functional execution: the IM-PIR server
feeds it durations measured from real (small) runs, the analytic estimators
feed it durations computed at paper scale — both get the same pipeline
semantics, including fill/drain effects that closed-form max() bounds miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.common.errors import SchedulingError


@dataclass(frozen=True)
class QueryTask:
    """Durations of one query's two pipeline stages."""

    query_id: int
    eval_seconds: float
    dpu_seconds: float

    def __post_init__(self) -> None:
        if self.eval_seconds < 0 or self.dpu_seconds < 0:
            raise SchedulingError("stage durations must be non-negative")


@dataclass
class ScheduledQuery:
    """Timeline of one query as placed by the scheduler."""

    query_id: int
    worker_id: int
    cluster_id: int
    eval_start: float
    eval_end: float
    dpu_start: float
    dpu_end: float

    @property
    def latency(self) -> float:
        """Time from the query entering the pipeline until its sub-result is ready."""
        return self.dpu_end - self.eval_start

    @property
    def queueing_delay(self) -> float:
        """Time the evaluated share waited in the task queue for a free cluster."""
        return self.dpu_start - self.eval_end


@dataclass
class BatchSchedule:
    """Complete schedule of a batch: per-query timelines plus summary metrics."""

    queries: List[ScheduledQuery] = field(default_factory=list)
    num_workers: int = 0
    num_clusters: int = 0

    @property
    def makespan(self) -> float:
        """Completion time of the last query (the batch latency)."""
        return max([q.dpu_end for q in self.queries], default=0.0)

    @property
    def throughput_qps(self) -> float:
        """Queries per (simulated) second over the whole batch."""
        span = self.makespan
        return len(self.queries) / span if span > 0 else float("inf")

    @property
    def mean_latency(self) -> float:
        """Mean per-query latency including queueing."""
        if not self.queries:
            return 0.0
        return sum([q.latency for q in self.queries]) / len(self.queries)

    @property
    def worker_busy_seconds(self) -> float:
        """Total host-worker busy time (evaluation work)."""
        return sum([q.eval_end - q.eval_start for q in self.queries])

    @property
    def cluster_busy_seconds(self) -> float:
        """Total DPU-cluster busy time (dpXOR pipelines)."""
        return sum([q.dpu_end - q.dpu_start for q in self.queries])

    def cluster_utilization(self) -> float:
        """Fraction of cluster-seconds actually used during the makespan."""
        span = self.makespan
        if span <= 0 or self.num_clusters == 0:
            return 0.0
        return self.cluster_busy_seconds / (span * self.num_clusters)


class BatchScheduler:
    """List scheduler for the worker-queue-cluster pipeline of Fig. 8."""

    def __init__(self, num_workers: int, num_clusters: int) -> None:
        if num_workers <= 0:
            raise SchedulingError("num_workers must be positive")
        if num_clusters <= 0:
            raise SchedulingError("num_clusters must be positive")
        self.num_workers = num_workers
        self.num_clusters = num_clusters

    def schedule(self, tasks: Sequence[QueryTask]) -> BatchSchedule:
        """Place ``tasks`` on workers and clusters (see :meth:`place`)."""
        return self.place(
            [task.query_id for task in tasks],
            [task.eval_seconds for task in tasks],
            [task.dpu_seconds for task in tasks],
        )

    def place(
        self,
        query_ids: Sequence[int],
        eval_seconds: Sequence[float],
        dpu_seconds: Sequence[float],
    ) -> BatchSchedule:
        """Place queries on workers and clusters, earliest-available first.

        Query ``i`` evaluates for ``eval_seconds[i]`` then scans for
        ``dpu_seconds[i]``.  Queries are admitted in order (the paper's task
        queue is FIFO); each stage picks the resource that frees up soonest.
        Ties are broken by resource index so the schedule is deterministic.
        """
        if min(eval_seconds, default=0.0) < 0 or min(dpu_seconds, default=0.0) < 0:
            raise SchedulingError("stage durations must be non-negative")
        worker_free = [0.0] * self.num_workers
        cluster_free = [0.0] * self.num_clusters
        scheduled: List[ScheduledQuery] = []

        for query_id, evaluate, scan in zip(query_ids, eval_seconds, dpu_seconds):
            worker_id = worker_free.index(min(worker_free))
            eval_start = worker_free[worker_id]
            eval_end = eval_start + evaluate
            worker_free[worker_id] = eval_end

            cluster_id = cluster_free.index(min(cluster_free))
            dpu_start = max(eval_end, cluster_free[cluster_id])
            dpu_end = dpu_start + scan
            cluster_free[cluster_id] = dpu_end

            scheduled.append(
                ScheduledQuery(
                    query_id=query_id,
                    worker_id=worker_id,
                    cluster_id=cluster_id,
                    eval_start=eval_start,
                    eval_end=eval_end,
                    dpu_start=dpu_start,
                    dpu_end=dpu_end,
                )
            )
        return BatchSchedule(
            queries=scheduled,
            num_workers=self.num_workers,
            num_clusters=self.num_clusters,
        )

    def schedule_uniform(
        self, batch_size: int, eval_seconds: float, dpu_seconds: float
    ) -> BatchSchedule:
        """Schedule ``batch_size`` identical queries (the common benchmark case)."""
        if batch_size <= 0:
            raise SchedulingError("batch_size must be positive")
        return self.place(
            range(batch_size), [eval_seconds] * batch_size, [dpu_seconds] * batch_size
        )
