"""Database and selector-share partitioning across DPUs (paper §3.3).

The database is laid out linearly: DPU ``i`` of a cluster receives the
contiguous block ``[i * B_d, (i+1) * B_d)`` of records, with
``B_d = ceil(N / P)``.  The DPF evaluation results (selector bits) are split
the same way and shipped as packed bit vectors, which is what keeps the
per-query CPU->DPU traffic to ``N/8`` bytes.
The layout is cost policy, not the answer: :func:`run_dpu_pipeline_many`
charges per-DPU costs from selector popcounts at its bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import CapacityError, ConfigurationError
from repro.core.results import PHASE_COPY_IN, PHASE_COPY_OUT, PHASE_DPXOR
from repro.pim.kernels import DB_BUFFER, RESULT_BUFFER, SELECTOR_BUFFER, reserve_dpxor_wram
from repro.pim.timing import dpxor_launch_seconds
from repro.pir.database import Database
from repro.pir.xor_ops import selected_counts, selector_bytes, selector_range, word_view


@dataclass(frozen=True)
class PartitionLayout:
    """Record-range assignment of a database across the DPUs of one cluster."""

    num_records: int
    record_size: int
    bounds: Tuple[Tuple[int, int], ...]

    @property
    def num_dpus(self) -> int:
        """DPUs covered by this layout."""
        return len(self.bounds)

    @property
    def max_records_per_dpu(self) -> int:
        """Largest per-DPU block (the paper's ``B_d``)."""
        return max((stop - start for start, stop in self.bounds), default=0)

    def records_on_dpu(self, dpu_index: int) -> int:
        """Number of records held by DPU ``dpu_index``."""
        start, stop = self.bounds[dpu_index]
        return stop - start

    def bytes_on_dpu(self, dpu_index: int) -> int:
        """Database bytes held by DPU ``dpu_index``."""
        return self.records_on_dpu(dpu_index) * self.record_size

    def validate_coverage(self) -> bool:
        """Check the blocks tile ``[0, num_records)`` exactly once, in order."""
        cursor = 0
        for start, stop in self.bounds:
            if start != cursor or stop < start:
                return False
            cursor = stop
        return cursor == self.num_records


class DatabasePartitioner:
    """Builds partition layouts and the per-DPU buffers they imply."""

    def __init__(self, database: Database) -> None:
        self.database = database

    def layout(self, num_dpus: int) -> PartitionLayout:
        """Linear layout of the database across ``num_dpus`` DPUs."""
        if num_dpus <= 0:
            raise ConfigurationError("num_dpus must be positive")
        bounds = tuple(self.database.chunk_bounds(num_dpus))
        return PartitionLayout(
            num_records=self.database.num_records,
            record_size=self.database.record_size,
            bounds=bounds,
        )

    def check_capacity(
        self, layout: PartitionLayout, mram_bytes_per_dpu: int, reserve_fraction: float = 0.25
    ) -> None:
        """Raise :class:`CapacityError` if any DPU block overflows usable MRAM."""
        usable = int(mram_bytes_per_dpu * (1.0 - reserve_fraction))
        worst = layout.max_records_per_dpu * layout.record_size
        if worst > usable:
            raise CapacityError(
                f"database block of {worst} bytes exceeds usable MRAM "
                f"({usable} of {mram_bytes_per_dpu} bytes per DPU)"
            )

    def database_chunks(self, layout: PartitionLayout) -> List[np.ndarray]:
        """Flattened per-DPU database blocks, in layout order.

        A DPU with no records (more DPUs than records) still receives a
        one-byte placeholder, mirroring :meth:`selector_chunks_many` — MRAM
        buffers must be non-empty, and the kernel skips the scan when its
        ``num_records`` argument is zero.
        """
        chunks = []
        for start, stop in layout.bounds:
            if start == stop:
                chunks.append(np.zeros(1, dtype=np.uint8))
            else:
                chunks.append(np.ascontiguousarray(self.database.chunk(start, stop)).reshape(-1))
        return chunks

    @staticmethod
    def selector_chunks_many(
        layout: PartitionLayout, selector_matrix: np.ndarray
    ) -> List[np.ndarray]:
        """Per-DPU packed selector buffers for a whole batch, in layout order.

        ``selector_matrix`` is the packed ``(B, ceil(num_records / 8))``
        matrix — the full-domain DPF evaluations, one query per row — and
        each DPU receives ``B`` packed slices back to back: row ``b`` of a
        DPU's ``(B, slice_bytes)`` buffer is query ``b``'s
        :func:`~repro.pir.xor_ops.selector_range` over the DPU's record range
        (little bit order, bit 0 is the DPU's first record).  Empty DPUs keep
        the one-byte placeholder.
        """
        selector_matrix = np.asarray(selector_matrix, dtype=np.uint8)
        _check_selector_shape(selector_matrix, layout)
        return [
            selector_range(selector_matrix, start, stop)
            if stop > start
            else np.zeros(1, dtype=np.uint8)
            for start, stop in layout.bounds
        ]

    @staticmethod
    def packed_selector_bytes(layout: PartitionLayout, batch: int) -> int:
        """Bytes :meth:`selector_chunks_many` ships for ``batch`` selector rows.

        ``batch`` packed slices per DPU, except that an empty DPU receives one
        placeholder byte per dispatch, not per row.
        """
        return sum(
            batch * selector_bytes(stop - start) if stop > start else 1
            for start, stop in layout.bounds
        )


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


def kwargs_for_kernel_many(layout: PartitionLayout, batch: int) -> List[dict]:
    """Per-DPU keyword arguments for :class:`~repro.pim.kernels.DpXorManyKernel`."""
    return [
        {"num_records": stop - start, "record_size": layout.record_size, "batch": batch}
        for start, stop in layout.bounds
    ]


def reset_pipeline_buffers(dpu_set, layout: PartitionLayout) -> None:
    """Free the MRAM buffers and reserve the kernel's WRAM for ``layout``.

    A re-prepare with another database shape must not write into last
    generation's allocations; serving never launches the kernel, so a WRAM
    working set that does not fit raises :class:`CapacityError` here.
    """
    for dpu, (start, stop) in zip(dpu_set.dpus, layout.bounds):
        for name in (DB_BUFFER, SELECTOR_BUFFER, RESULT_BUFFER):
            if dpu.mram.has_buffer(name):
                dpu.mram.free(name)
        dpu.wram.release_all()
        reserve_dpxor_wram(dpu, stop - start, layout.record_size, dpu.config.tasklets)


def run_dpu_pipeline_many(
    dpu_set,
    layout: PartitionLayout,
    selector_matrix: np.ndarray,
    breakdowns: Sequence,
    *,
    db_bytes: Optional[int] = None,
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
    popcounts summed once, partial bytes masked at off-grid bounds); DPU
    ``busy_seconds`` / ``launches`` and the transfer byte counters move as
    executing would move them (the tests' oracle).

    Simulated cost model (the documented amortisation, for a batch of ``B``
    rows over ``P`` DPUs)::

        copy_in  = transfer_latency + packed_selector_bytes(layout, B) / host_to_dpu_bw
        dpxor    = launch_overhead(P) + max_dpu( sum_rows kernel_cost(dpu, row) )
        copy_out = transfer_latency + B * record_size * P / dpu_to_host_bw
        copy_db  = transfer_latency + db_bytes / host_to_dpu_bw   (streamed mode)

    — each charged **once per batch** (``copy_db`` when ``db_bytes`` with a
    ``db_copy_phase`` name streams the database in).  Only the fixed
    per-dispatch charges (transfer latency, launch overhead, the segment
    copy) amortise; selector/result bytes and per-row kernel costs scale
    with ``B`` (the all-for-one principle never discounts scan work).  Each
    batch total is split evenly across the ``B`` breakdowns.  Phase 6 (the
    host fold) is charged by the caller; its fan-in differs between modes.
    """
    batch = len(breakdowns)
    if batch <= 0:
        raise ConfigurationError("run_dpu_pipeline_many needs at least one breakdown")
    selector_matrix = np.asarray(selector_matrix, dtype=np.uint8)
    _check_selector_shape(selector_matrix, layout)
    if selector_matrix.shape[0] != batch:
        raise ConfigurationError(
            f"selector matrix has {selector_matrix.shape[0]} rows for {batch} breakdowns"
        )

    def charge(phase: str, total_seconds: float) -> None:
        share = total_seconds / batch
        for breakdown in breakdowns:
            breakdown.record(phase, share)

    num_dpus = len(dpu_set.dpus)
    transfer = dpu_set.transfer
    if db_bytes is not None:
        if db_copy_phase is None:
            raise ConfigurationError("db_copy_phase is required when streaming db_bytes")
        charge(db_copy_phase, transfer.charge_scatter(db_bytes, num_dpus).simulated_seconds)

    shipped = DatabasePartitioner.packed_selector_bytes(layout, batch)
    charge(PHASE_COPY_IN, transfer.charge_scatter(shipped, num_dpus).simulated_seconds)

    bounds = np.array(layout.bounds, dtype=np.int64).reshape(-1, 2)
    records = bounds[:, 1] - bounds[:, 0]
    selected = selected_counts(selector_matrix, bounds)
    per_dpu = dpxor_launch_seconds(
        dpu_set.dpus[0].config, records, layout.record_size, selected
    ).tolist()
    for dpu, seconds in zip(dpu_set.dpus, per_dpu):
        dpu.busy_seconds += seconds
        dpu.launches += 1
    charge(PHASE_DPXOR, dpu_set.timing.launch_seconds(num_dpus) + max(per_dpu))

    result_bytes = batch * layout.record_size * num_dpus
    charge(PHASE_COPY_OUT, transfer.charge_gather(result_bytes, num_dpus).simulated_seconds)


def fold_partials(partials: Sequence[np.ndarray], record_size: int) -> np.ndarray:
    """XOR-fold per-DPU sub-results into the server's answer (Algorithm 1 ➏).

    Folds eight bytes per operation through uint64-word views when the record
    size allows it (XOR is bytewise, so the words fold to identical bytes);
    odd record sizes fall back to the uint8 loop.
    """
    result = np.zeros(record_size, dtype=np.uint8)
    result_words = word_view(result)
    for partial in partials:
        array = np.asarray(partial, dtype=np.uint8).reshape(-1)
        if array.size != record_size:
            raise ConfigurationError(
                f"partial result has {array.size} bytes, expected {record_size}"
            )
        array_words = word_view(array)
        if result_words is not None and array_words is not None:
            result_words ^= array_words
        else:
            result ^= array
    return result
