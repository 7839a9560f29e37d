"""Database and selector-share partitioning across DPUs (paper §3.3).

The database is laid out linearly: DPU ``i`` of a cluster receives the
contiguous block ``[i * B_d, (i+1) * B_d)`` of records, with
``B_d = ceil(N / P)``.  The DPF evaluation results (selector bits) are split
the same way and shipped as packed bit vectors, which is what keeps the
per-query CPU->DPU traffic to ``N/8`` bytes.
The layout is cost policy, not the answer: its ``(P, 2)`` bounds array
decides what :func:`run_dpu_pipeline_many` charges each DPU (from selector
popcounts) and whether a cluster fits (:func:`check_mram_capacity`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import CapacityError, ConfigurationError
from repro.common.events import PhaseTimer
from repro.core.results import PHASE_COPY_IN, PHASE_COPY_OUT, PHASE_DPXOR
from repro.pim.system import DPULedger
from repro.pim.timing import dpxor_launch_seconds
from repro.pir.xor_ops import selected_counts, selector_bytes


@dataclass(frozen=True, eq=False)
class PartitionLayout:
    """Record-range assignment of a database across the DPUs of one cluster.

    ``bounds`` is one ``(P, 2)`` int64 array of ``[start, stop)`` record
    ranges, and ``records`` the ``(P,)`` records each DPU holds; every
    per-DPU quantity below is one vector operation on them.
    """

    num_records: int
    record_size: int
    bounds: np.ndarray
    records: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        bounds = np.array(self.bounds, dtype=np.int64).reshape(-1, 2)
        records = bounds[:, 1] - bounds[:, 0]
        # What a DPU receives per selector row, plus the placeholder byte an
        # empty DPU receives once per dispatch (see selector_bytes_per_dpu).
        selector_width = (records + 7) >> 3
        empty = records == 0
        for name, array in (
            ("bounds", bounds),
            ("records", records),
            ("_selector_width", selector_width),
            ("_empty", empty),
        ):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def linear(cls, num_records: int, record_size: int, num_dpus: int) -> "PartitionLayout":
        """The paper's linear layout: the first ``N mod P`` DPUs get one extra record."""
        if num_dpus <= 0:
            raise ConfigurationError("num_dpus must be positive")
        base, remainder = divmod(num_records, num_dpus)
        edges = np.arange(num_dpus + 1)
        edges = edges * base + np.minimum(edges, remainder)
        bounds = np.empty((num_dpus, 2), dtype=np.int64)
        bounds[:, 0], bounds[:, 1] = edges[:-1], edges[1:]
        return cls(num_records, record_size, bounds)

    @property
    def num_dpus(self) -> int:
        """DPUs covered by this layout."""
        return len(self.bounds)

    @property
    def max_records_per_dpu(self) -> int:
        """Largest per-DPU block (the paper's ``B_d``)."""
        return int(self.records.max(initial=0))

    def records_on_dpu(self, dpu_index: int) -> int:
        """Number of records held by DPU ``dpu_index``."""
        return int(self.records[dpu_index])

    def bytes_on_dpu(self, dpu_index: int) -> int:
        """Database bytes held by DPU ``dpu_index``."""
        return self.records_on_dpu(dpu_index) * self.record_size

    def db_bytes_per_dpu(self) -> np.ndarray:
        """``(P,)`` bytes a database copy ships to each DPU.

        A DPU with no records (more DPUs than records) still receives a
        one-byte placeholder: MRAM buffers are never empty.
        """
        return self.records * self.record_size + self._empty

    def selector_bytes_per_dpu(self, batch: int) -> np.ndarray:
        """``(P,)`` bytes a scatter of ``batch`` packed selector rows ships.

        ``batch`` packed slices per DPU (bit 0 is the DPU's first record),
        except that an empty DPU receives one placeholder byte per dispatch,
        not per row.
        """
        return batch * self._selector_width + self._empty

    def validate_coverage(self) -> bool:
        """Check the blocks tile ``[0, num_records)`` exactly once, in order."""
        points = np.concatenate(([0], self.bounds.reshape(-1), [self.num_records]))
        return bool(np.array_equal(points[0::2], points[1::2]) and (self.records >= 0).all())


def usable_mram_bytes(mram_bytes_per_dpu: int, reserve_fraction: float = 0.25) -> int:
    """MRAM per DPU the database may fill; the reserve holds selectors and results."""
    return int(mram_bytes_per_dpu * (1.0 - reserve_fraction))


def check_mram_capacity(
    layout: PartitionLayout, mram_bytes_per_dpu: int, reserve_fraction: float = 0.25
) -> int:
    """The layout's largest per-DPU block in bytes; :class:`CapacityError` past usable MRAM.

    Every fit question (``prepare``, ``can_cluster``, a streamed segment)
    asks this of the layout it would build: whole records, ``ceil(N / P)``
    on the first DPUs, so ``max_records_per_dpu * record_size`` bytes.
    """
    usable = usable_mram_bytes(mram_bytes_per_dpu, reserve_fraction)
    block = layout.max_records_per_dpu * layout.record_size
    if block > usable:
        raise CapacityError(
            f"database block of {block} bytes exceeds usable MRAM "
            f"({usable} of {mram_bytes_per_dpu} bytes per DPU)"
        )
    return block


def _check_selector_shape(selector_matrix: np.ndarray, layout: PartitionLayout) -> None:
    width = selector_bytes(layout.num_records)
    if selector_matrix.ndim != 2 or selector_matrix.shape[1] != width:
        raise ConfigurationError(
            f"selector matrix shape {selector_matrix.shape} does not match layout "
            f"(expected packed (batch, {width}) for {layout.num_records} records)"
        )


def aligned_chunk_bounds(
    num_records: int, num_chunks: int, block_records: int = 1
) -> List[Tuple[int, int]]:
    """Split ``[0, num_records)`` into contiguous ranges on block boundaries.

    Like :meth:`Database.chunk_bounds`, but every internal boundary is a
    multiple of ``block_records`` (the final chunk absorbs the tail).  The
    shard layer uses this so a shard handed to a PIM/DPU backend keeps the
    partitioning invariants its own per-DPU layout assumes — a shard never
    starts or ends mid-block.  Chunks beyond the block count are empty
    ``(stop, stop)`` ranges, mirroring the unaligned rule.
    """
    if num_chunks <= 0:
        raise ConfigurationError("num_chunks must be positive")
    if block_records <= 0:
        raise ConfigurationError("block_records must be positive")
    num_blocks = -(-num_records // block_records)
    base = num_blocks // num_chunks
    remainder = num_blocks % num_chunks
    bounds: List[Tuple[int, int]] = []
    start = 0
    for chunk_index in range(num_chunks):
        blocks = base + (1 if chunk_index < remainder else 0)
        stop = min(num_records, start + blocks * block_records)
        bounds.append((start, stop))
        start = stop
    return bounds


def run_dpu_pipeline_many(
    ledger: DPULedger,
    layout: PartitionLayout,
    selector_matrix: np.ndarray,
    cost: PhaseTimer,
    *,
    db_bytes: Optional[np.ndarray] = None,
    db_copy_phase: Optional[str] = None,
) -> None:
    """Charge Algorithm 1 phases 3-5 for a whole batch in one DPU dispatch.

    The one cost path of both PIM backends.  It charges, float-exactly, what
    scattering the selectors, launching :class:`~repro.pim.kernels.
    DpXorManyKernel` on every DPU and gathering the results costs, without
    running them (XOR is associative: the caller's one scan of the database
    is the payload).  Per-DPU costs come from the ``(B, P)`` popcounts of
    the packed ``(B, ceil(num_records / 8))`` ``selector_matrix`` at the
    layout's bounds (:func:`~repro.pir.xor_ops.selected_counts`: byte
    popcounts summed once, partial bytes masked at off-grid bounds) through
    :func:`~repro.pim.timing.dpxor_launch_seconds`; the ``ledger``'s
    ``(P,)`` busy seconds, launches and byte counters each move by one
    vector operation, as executing would move them (the tests' oracle).

    Simulated cost model (the documented amortisation, for a batch of ``B``
    rows over ``P`` DPUs)::

        copy_in  = transfer_latency + sum(selector_bytes_per_dpu(B)) / host_to_dpu_bw
        dpxor    = launch_overhead(P) + max_dpu( sum_rows kernel_cost(dpu, row) )
        copy_out = transfer_latency + B * record_size * P / dpu_to_host_bw
        copy_db  = transfer_latency + sum(db_bytes) / host_to_dpu_bw   (streamed mode)

    — each charged **once per batch** (``copy_db`` when ``db_bytes``, the
    ``(P,)`` per-DPU bytes, with a ``db_copy_phase`` name streams the
    database in).  Only the fixed per-dispatch charges (transfer latency,
    launch overhead, the segment copy) amortise; selector/result bytes and
    per-row kernel costs scale with ``B`` (the all-for-one principle never
    discounts scan work).  Each batch total is split evenly across the ``B``
    rows: ``cost`` records one row's share of each phase, which is what
    every row of the dispatch costs.  Phase 6 (the host fold) is charged by
    the caller; its fan-in differs between modes.
    """
    selector_matrix = np.asarray(selector_matrix, dtype=np.uint8)
    _check_selector_shape(selector_matrix, layout)
    batch = selector_matrix.shape[0]
    if batch <= 0:
        raise ConfigurationError("run_dpu_pipeline_many needs at least one selector row")
    if db_bytes is not None:
        if db_copy_phase is None:
            raise ConfigurationError("db_copy_phase is required when streaming db_bytes")
        cost.record(db_copy_phase, ledger.charge_scatter(db_bytes) / batch)
    cost.record(PHASE_COPY_IN, ledger.charge_scatter(layout.selector_bytes_per_dpu(batch)) / batch)
    per_dpu = dpxor_launch_seconds(
        ledger.config.dpu,
        layout.records,
        layout.record_size,
        selected_counts(selector_matrix, layout.bounds),
    )
    cost.record(PHASE_DPXOR, ledger.charge_launch(per_dpu) / batch)
    cost.record(PHASE_COPY_OUT, ledger.charge_gather(batch * layout.record_size) / batch)
