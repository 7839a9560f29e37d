"""Streamed (multi-pass) query evaluation for databases larger than MRAM.

The paper's default deployment preloads the whole database into DPU MRAM and
answers every query in one pass.  §3.3 notes that larger datasets "may require
a minor adaptation of our one-shot database evaluation: for example, by
evaluating the linear operations on database items in batches, copying
unprocessed chunks into DPUs in each batch".  This module implements that
adaptation as :class:`StreamedPIMBackend` behind the shared
:class:`~repro.core.engine.QueryEngine`:

* the database is divided into *segments*, each small enough for the DPU
  population's usable MRAM;
* for every batch, the backend walks the segments: copy the segment into
  MRAM, copy the matching selector slices, run the dpXOR kernel, fold the
  partial results — then move on to the next segment;
* the per-query cost therefore includes the database transfer (unlike the
  preloaded path), which is exactly the penalty the paper's capacity
  discussion anticipates.

That walk is charged, not executed: the answer is the base class's one
``dpxor_many`` over the database, and ``charge_many`` charges each segment's
dispatch to the backend's :class:`~repro.pim.system.DPULedger` from the
segment layout's per-DPU byte counts and selector popcounts.  The streamed
server answers queries bit-identically to the preloaded one; the extra cost
is visible in the ``copy_db_segment`` phase of its breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.common.errors import CapacityError
from repro.common.events import PhaseTimer
from repro.core.config import IMPIRConfig
from repro.core.engine import BackendCapabilities, PIRBackend
from repro.core.partitioning import (
    PartitionLayout,
    check_mram_capacity,
    run_dpu_pipeline_many,
    usable_mram_bytes,
)
from repro.core.results import PHASE_AGGREGATE, IMPIRQueryResult
from repro.pim.kernels import check_dpxor_wram
from repro.pim.system import DPULedger
from repro.pir.database import Database
from repro.pir.xor_ops import selector_range

#: Phase name for the per-query database-segment transfers (streamed mode only).
PHASE_COPY_DB = "copy_db_segment"


@dataclass(frozen=True)
class _Segment:
    """One precomputed pass over the database: its layout and per-DPU MRAM bytes.

    Built once at prepare time so the per-batch path re-partitions nothing.
    """

    start: int
    stop: int
    layout: PartitionLayout
    db_bytes: np.ndarray


class StreamedPIMBackend(PIRBackend):
    """Execution backend pricing database segments streamed through the DPUs."""

    def __init__(self, config: IMPIRConfig, segment_records: Optional[int] = None) -> None:
        self.config = config
        self.ledger = DPULedger(config.pim)
        self.timing = self.ledger.timing
        self._requested_segment_records = segment_records
        self.segment_records = 0
        self._segments: List[_Segment] = []

    # -- database lifecycle ---------------------------------------------------------

    def prepare(self, database: Database) -> Optional[PhaseTimer]:
        """Size the segments and precompute each pass's layout and bytes.

        Nothing is preloaded: segments are (re-)copied per batch, which is the
        whole point of the streamed mode's cost profile.  The default segment
        fills every DPU's usable MRAM with whole records.
        """
        self._database = database
        num_dpus = self.ledger.num_dpus
        usable_per_dpu = usable_mram_bytes(
            self.config.pim.dpu.mram_bytes, self.config.mram_reserve_fraction
        )
        default_segment = max(1, usable_per_dpu // database.record_size * num_dpus)
        self.segment_records = (
            self._requested_segment_records
            if self._requested_segment_records is not None
            else default_segment
        )
        if self.segment_records <= 0:
            raise CapacityError("segment_records must be positive")
        check_mram_capacity(
            PartitionLayout.linear(self.segment_records, database.record_size, num_dpus),
            self.config.pim.dpu.mram_bytes,
            self.config.mram_reserve_fraction,
        )
        self._segments = []
        for start in range(0, database.num_records, self.segment_records):
            stop = min(start + self.segment_records, database.num_records)
            layout = PartitionLayout.linear(stop - start, database.record_size, num_dpus)
            self._segments.append(_Segment(start, stop, layout, layout.db_bytes_per_dpu()))
        check_dpxor_wram(self.config.pim.dpu, database.record_size)
        return None

    @property
    def num_segments(self) -> int:
        """Passes needed to cover the whole database."""
        return len(self._segments)

    # -- capability metadata ----------------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="im-pir-streamed",
            lanes=1,
            batch_workers=1,
            preloaded=False,
            max_records=None,
            description="dpXOR over per-query streamed database segments",
        )

    # -- timing hooks ------------------------------------------------------------------

    def latency_eval_seconds(self, num_records: int) -> float:
        return self.timing.host_dpf_eval_seconds(
            num_records,
            blocks_per_leaf=self.config.blocks_per_leaf,
            threads=self.config.effective_latency_threads,
        )

    def batch_eval_seconds(self, num_records: int) -> float:
        # Streamed batches run queries sequentially on the whole host, so
        # batch mode evaluates exactly like latency mode.
        return self.latency_eval_seconds(num_records)

    def batch_makespan(self, row_seconds: Sequence[float]) -> Optional[float]:
        # No cluster pipeline: the streamed passes run one query at a time,
        # so the batch takes the sum of their totals, in batch order.
        return sum(row_seconds, 0.0)

    # -- the multi-pass dpXOR, priced --------------------------------------------------

    def charge_many(
        self,
        selector_matrix: np.ndarray,
        lanes: np.ndarray,
        costs: Mapping[int, PhaseTimer],
    ) -> None:
        """Charge one DPU dispatch per segment for the batch.

        §3.3's batched adaptation taken to the kernel level: each database
        segment is copied toward the DPUs **once per batch** (instead of once
        per query), every row's selector slice for the segment — cut from the
        packed ``selector_matrix`` by :func:`~repro.pir.xor_ops.selector_range`,
        a zero-copy view when the segment sits on the 8-record grid — ships
        in one scatter, and one launch of the batched dpXOR runs the batch loop
        inside the DPUs.  The simulated per-query cost drops by the amortised
        per-dispatch charges — above all the segment copy, the dominant
        charge of the streamed mode, split evenly across the batch (see
        :func:`~repro.core.partitioning.run_dpu_pipeline_many` for the
        documented cost model).  Every row walks every segment whatever its
        lane, so the walk is priced once and folded into each lane's cost.
        """
        walk = PhaseTimer()
        for segment in self._segments:
            run_dpu_pipeline_many(
                self.ledger,
                segment.layout,
                selector_range(selector_matrix, segment.start, segment.stop),
                walk,
                db_bytes=segment.db_bytes,
                db_copy_phase=PHASE_COPY_DB,
            )
        walk.record(
            PHASE_AGGREGATE,
            self.timing.host_aggregate_xor_seconds(self.num_segments, self._database.record_size),
        )
        for cost in costs.values():
            cost.merge(walk)


def streaming_overhead_factor(result: IMPIRQueryResult) -> float:
    """Share of a streamed query's latency spent re-copying the database.

    The quantity that quantifies the paper's preference for preloading: for
    MRAM-resident deployments this is 0, for streamed ones it typically
    dominates.
    """
    total = result.breakdown.total
    if total <= 0:
        return 0.0
    return result.breakdown.get(PHASE_COPY_DB) / total
