"""Database and selector-share partitioning across DPUs (paper §3.3).

The database is laid out linearly: DPU ``i`` of a cluster receives the
contiguous block ``[i * B_d, (i+1) * B_d)`` of records, with
``B_d = ceil(N / P)``.  The DPF evaluation results (selector bits) are split
the same way and shipped as packed bit vectors, which is what keeps the
per-query CPU->DPU traffic to ``N/8`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import CapacityError, ConfigurationError
from repro.pim.kernels import DB_BUFFER, RESULT_BUFFER, SELECTOR_BUFFER
from repro.pir.database import Database


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

        ``selector_matrix`` is ``(B, num_records)`` of 0/1 values — the
        full-domain DPF evaluations, one query per row — and each DPU
        receives ``B`` packed slices back to back: row ``b`` of a DPU's
        ``(B, slice_bytes)`` buffer is the packed bits of query ``b`` over
        the DPU's record range.  Empty DPUs keep the one-byte placeholder.
        """
        selector_matrix = np.asarray(selector_matrix, dtype=np.uint8)
        if selector_matrix.ndim != 2 or selector_matrix.shape[1] != layout.num_records:
            raise ConfigurationError(
                f"selector matrix shape {selector_matrix.shape} does not match layout "
                f"(expected (batch, {layout.num_records}))"
            )
        chunks = []
        for start, stop in layout.bounds:
            bits = selector_matrix[:, start:stop]
            if bits.shape[1] == 0:
                chunks.append(np.zeros(1, dtype=np.uint8))
            else:
                chunks.append(np.packbits(bits, axis=1, bitorder="big"))
        return chunks

    @staticmethod
    def packed_selector_bytes(layout: PartitionLayout) -> int:
        """Total bytes shipped to the DPUs for one query's selector shares."""
        total = 0
        for start, stop in layout.bounds:
            records = stop - start
            total += (records + 7) // 8 if records else 1
        return total


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


def reset_pipeline_buffers(dpu_set) -> None:
    """Free the pipeline's MRAM buffers so a re-prepare can re-size them.

    Buffer sizes depend on the database shape; a second ``prepare`` with a
    different shape must not write into last generation's allocations.
    """
    for dpu in dpu_set.dpus:
        for name in (DB_BUFFER, SELECTOR_BUFFER, RESULT_BUFFER):
            if dpu.mram.has_buffer(name):
                dpu.mram.free(name)


def _pipeline_phases() -> Tuple[str, str, str]:
    """The copy-in / dpXOR / copy-out phase names, imported lazily.

    ``repro.core.results`` cannot be imported at module scope here:
    ``repro.core.__init__`` imports this module first.
    """
    from repro.core.results import PHASE_COPY_IN, PHASE_COPY_OUT, PHASE_DPXOR

    return PHASE_COPY_IN, PHASE_COPY_OUT, PHASE_DPXOR


def run_dpu_pipeline_many(
    dpu_set,
    kernel,
    layout: PartitionLayout,
    selector_chunks: Sequence[np.ndarray],
    breakdowns: Sequence,
    *,
    db_chunks: Optional[Sequence[np.ndarray]] = None,
    db_copy_phase: Optional[str] = None,
) -> List[np.ndarray]:
    """Algorithm 1 phases 3-5 for a whole batch in one DPU dispatch.

    The single parameterised pipeline behind both the preloaded per-cluster
    path and the streamed per-segment path, and the heart of the
    kernel-level batching: the batch pays **one** selector scatter, **one**
    launch of the batched dpXOR (whose batch loop runs inside the DPUs) and
    **one** result gather, instead of one of each per query — and, when
    ``db_chunks`` (with a ``db_copy_phase`` name) streams the database in, as
    the oversized-database mode must on every pass, **one** segment copy per
    batch instead of per query.

    Simulated cost model (the documented amortisation, for a batch of ``B``
    rows over ``P`` DPUs)::

        copy_in  = transfer_latency + B * packed_selector_bytes / host_to_dpu_bw
        dpxor    = launch_overhead(P) + max_dpu( sum_rows kernel_cost(dpu, row) )
        copy_out = transfer_latency + B * record_size * P / dpu_to_host_bw
        copy_db  = transfer_latency + db_bytes / host_to_dpu_bw   (streamed mode)

    — each charged **once per batch**.  Only the fixed per-dispatch charges
    (transfer latency, launch overhead, the per-batch segment copy) amortise;
    selector/result bytes and per-row kernel costs still scale with ``B``
    (the all-for-one principle never discounts scan work).  Each phase's
    batch total is split evenly across the ``B`` breakdowns, so the
    per-query breakdowns sum to exactly the batch total and batch makespans
    show the amortisation directly.

    ``selector_chunks`` comes from
    :meth:`DatabasePartitioner.selector_chunks_many`; the per-DPU partials
    are returned as ``(B, record_size)`` blocks for the caller to fold per
    row (phase 6 is charged by the caller, per query; its aggregation fan-in
    differs between modes).
    """
    PHASE_COPY_IN, PHASE_COPY_OUT, PHASE_DPXOR = _pipeline_phases()

    batch = len(breakdowns)
    if batch <= 0:
        raise ConfigurationError("run_dpu_pipeline_many needs at least one breakdown")

    def charge(phase: str, total_seconds: float) -> None:
        share = total_seconds / batch
        for breakdown in breakdowns:
            breakdown.record(phase, share)

    if db_chunks is not None:
        if db_copy_phase is None:
            raise ConfigurationError("db_copy_phase is required when streaming db_chunks")
        db_report = dpu_set.scatter(DB_BUFFER, db_chunks)
        charge(db_copy_phase, db_report.simulated_seconds)

    copy_in = dpu_set.scatter(SELECTOR_BUFFER, selector_chunks)
    charge(PHASE_COPY_IN, copy_in.simulated_seconds)

    launch = dpu_set.launch(kernel, per_dpu_kwargs=kwargs_for_kernel_many(layout, batch))
    charge(PHASE_DPXOR, launch.simulated_seconds)

    blocks, copy_out = dpu_set.gather(RESULT_BUFFER, batch * layout.record_size)
    charge(PHASE_COPY_OUT, copy_out.simulated_seconds)
    return [
        np.asarray(block, dtype=np.uint8).reshape(batch, layout.record_size)
        for block in blocks
    ]


def fold_partials(partials: Sequence[np.ndarray], record_size: int) -> np.ndarray:
    """XOR-fold per-DPU sub-results into the server's answer (Algorithm 1 ➏).

    Folds eight bytes per operation through uint64-word views when the record
    size allows it (XOR is bytewise, so the words fold to identical bytes);
    odd record sizes fall back to the uint8 loop.
    """
    from repro.pir.xor_ops import word_view

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
