"""Tasklets: the software threads multiplexed onto a DPU's hardware pipeline.

UPMEM exposes up to 24 hardware threads per DPU; kernels spawn a configurable
number of *tasklets* that share WRAM and cooperate through barriers.  The
simulator executes tasklets sequentially in Python (the functional result is
identical) while accounting the per-tasklet instruction and DMA-byte counts
that the timing model turns into simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.common.errors import KernelError


@dataclass
class TaskletReport:
    """Work performed by a single tasklet during one kernel launch."""

    tasklet_id: int
    records_processed: int = 0
    records_selected: int = 0
    instructions: int = 0
    dma_bytes: int = 0


@dataclass
class TaskletGroup:
    """The set of tasklets participating in one kernel launch on one DPU."""

    num_tasklets: int
    reports: List[TaskletReport] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_tasklets <= 0:
            raise KernelError("a kernel needs at least one tasklet")
        if not self.reports:
            self.reports = [TaskletReport(tasklet_id=i) for i in range(self.num_tasklets)]

    def partition(self, num_items: int) -> List[Tuple[int, int]]:
        """Split ``[0, num_items)`` into contiguous per-tasklet ranges.

        Mirrors Algorithm 1: each tasklet gets ``ceil(num_items / T)`` items,
        with trailing tasklets possibly idle.  Returns ``(start, stop)`` pairs,
        one per tasklet.
        """
        if num_items < 0:
            raise KernelError("num_items must be non-negative")
        per_tasklet = -(-num_items // self.num_tasklets) if num_items else 0
        ranges = []
        for tasklet_id in range(self.num_tasklets):
            start = min(tasklet_id * per_tasklet, num_items)
            stop = min(start + per_tasklet, num_items)
            ranges.append((start, stop))
        return ranges

    @property
    def total_instructions(self) -> int:
        """Instructions retired across all tasklets."""
        return sum(report.instructions for report in self.reports)

    @property
    def total_dma_bytes(self) -> int:
        """Bytes DMA-ed between MRAM and WRAM across all tasklets."""
        return sum(report.dma_bytes for report in self.reports)

    @property
    def total_records_selected(self) -> int:
        """Records whose selector bit was set, across all tasklets."""
        return sum(report.records_selected for report in self.reports)
