"""DPU-side kernels.

:class:`DpXorManyKernel` is the Python analogue of the paper's ~200 LoC C
kernel: for every query of the batch it scans the DPU's MRAM-resident database
block, XORs the records whose selector bit is set into per-tasklet
accumulators (Algorithm 1, TASKLETXOR), and lets the master tasklet fold the
partials into the DPU's sub-result (MASTERXOR).  The functional result is
computed with numpy on the real buffers; the simulated duration comes from the
shared cost formula in :mod:`repro.pim.timing`, parameterised by each query's
*actual* selected fraction and the tasklet count of the launch.

The serving backends charge it without launching it
(:func:`~repro.core.partitioning.run_dpu_pipeline_many`); it is the reference
the tests hold that charging to, and what the kernel-level benches run.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.common.errors import CapacityError, KernelError
from repro.pim.config import DPUConfig
from repro.pim.dpu import DPU, DPUExecutionReport, Kernel
from repro.pim.tasklet import TaskletGroup
from repro.pim.timing import (
    INSTRUCTIONS_PER_RECORD_OVERHEAD,
    INSTRUCTIONS_PER_XOR_WORD,
    dpxor_launch_seconds,
)
from repro.pir.xor_ops import dpxor_many, selected_counts, selector_bytes, selector_range

#: Default MRAM buffer names used by the IM-PIR pipeline.
DB_BUFFER = "db"
SELECTOR_BUFFER = "selector"
RESULT_BUFFER = "result"

#: WRAM staging block per tasklet (database records are streamed in blocks of
#: this size, as in the real kernel's DMA loop).
WRAM_BLOCK_BYTES = 2048


def reserve_dpxor_wram(dpu: DPU, num_records: int, record_size: int, tasklets: int) -> None:
    """Reserve the dpXOR working set in WRAM (``CapacityError`` on overflow).

    One staging block + one accumulator per tasklet, plus the packed selector
    slice shared by all tasklets; a batched launch reuses them row by row.
    """
    dpu.wram.reserve("dpxor:blocks", max(1, tasklets * WRAM_BLOCK_BYTES))
    dpu.wram.reserve("dpxor:accumulators", max(1, tasklets * record_size))
    dpu.wram.reserve(
        "dpxor:selector",
        max(1, min(selector_bytes(num_records), dpu.wram.free_bytes // 2 or 1)),
    )


def check_dpxor_wram(dpu: DPUConfig, record_size: int) -> None:
    """The arithmetic of :func:`reserve_dpxor_wram` at ``dpu.tasklets``.

    Serving never launches the kernel, so ``prepare`` asks this instead: the
    staging blocks and accumulators must leave WRAM for at least one
    selector byte, or the reservation raises :class:`CapacityError`.
    """
    fixed = dpu.tasklets * (WRAM_BLOCK_BYTES + record_size)
    if fixed >= dpu.wram_bytes:
        raise CapacityError(
            f"dpXOR working set of {fixed} bytes ({dpu.tasklets} tasklets) leaves no "
            f"room for the selector slice in {dpu.wram_bytes} bytes of WRAM"
        )


class DpXorManyKernel(Kernel):
    """Two-stage parallel-reduction dpXOR over one DPU's database block.

    One launch scans the block for a whole batch: the selector buffer carries
    ``batch`` packed selector slices back to back (the format of
    :mod:`repro.pir.xor_ops`: bit ``j % 8`` of byte ``j // 8`` is the block's
    record ``j``), each tasklet cuts its share with
    :func:`~repro.pir.xor_ops.selector_range`, the batch loop runs
    *inside* the launch via the one-pass :func:`~repro.pir.xor_ops.dpxor_many`
    per tasklet share, and the result buffer returns ``batch`` sub-results.
    Fixed per-dispatch charges (scatter latency, launch overhead) are paid
    once per batch by the caller; the scan itself is still priced per query —
    each row adds exactly the kernel cost a launch of its own would, with its
    own measured selected fraction, so batching never discounts scan work
    (the all-for-one principle).
    """

    name = "dpxor"

    def run(
        self,
        dpu: DPU,
        num_records: int,
        record_size: int,
        batch: int,
        tasklets: Optional[int] = None,
        db_buffer: str = DB_BUFFER,
        selector_buffer: str = SELECTOR_BUFFER,
        result_buffer: str = RESULT_BUFFER,
        **_: Any,
    ) -> DPUExecutionReport:
        if num_records < 0 or record_size <= 0:
            raise KernelError("num_records must be >= 0 and record_size > 0")
        if batch <= 0:
            raise KernelError("batch must be positive")
        tasklets = dpu.config.tasklets if tasklets is None else tasklets
        if not 1 <= tasklets <= dpu.config.hardware_threads:
            raise KernelError(
                f"tasklets must be in [1, {dpu.config.hardware_threads}], got {tasklets}"
            )

        reserve_dpxor_wram(dpu, num_records, record_size, tasklets)
        width = selector_bytes(num_records)
        db_bytes = num_records * record_size
        database = np.zeros((0, record_size), dtype=np.uint8)
        selectors = np.zeros((batch, 0), dtype=np.uint8)
        if num_records:
            database = dpu.load(db_buffer, size_bytes=db_bytes).reshape(num_records, record_size)
            selectors = dpu.load(selector_buffer, size_bytes=batch * width).reshape(batch, width)

        # Stage 1: TASKLETXOR — each tasklet one-pass scans its contiguous
        # share for every batch row at once.
        group = TaskletGroup(num_tasklets=tasklets)
        shares = group.partition(num_records)
        counts = selected_counts(selectors, shares)
        partials = np.zeros((tasklets, batch, record_size), dtype=np.uint8)
        words = -(-record_size // 8)
        for report, (start, stop) in zip(group.reports, shares):
            if start < stop:
                dpxor_many(
                    database[start:stop],
                    selector_range(selectors, start, stop),
                    out=partials[report.tasklet_id],
                )
                report.records_processed = batch * (stop - start)
                report.records_selected = int(counts[:, report.tasklet_id].sum())
                report.instructions = (
                    batch * (stop - start) * INSTRUCTIONS_PER_RECORD_OVERHEAD
                    + report.records_selected * words * INSTRUCTIONS_PER_XOR_WORD
                )
                report.dma_bytes = batch * (
                    (stop - start) * (words * 8) + selector_bytes(stop - start)
                )

        # Stage 2: MASTERXOR — fold the per-tasklet partials per batch row.
        result = np.bitwise_xor.reduce(partials, axis=0)
        dpu.store(result_buffer, result)

        # Per-query kernel cost, summed: the batched launch charges exactly
        # what ``batch`` sequential launches would on this DPU, each with its
        # own row's selected fraction.
        selected = counts.sum(axis=1)
        simulated = float(
            dpxor_launch_seconds(
                dpu.config, [num_records], record_size, selected[:, None], tasklets
            )[0]
        )
        return DPUExecutionReport(
            dpu_id=dpu.dpu_id,
            kernel_name=self.name,
            simulated_seconds=simulated,
            instructions=group.total_instructions,
            dma_bytes=group.total_dma_bytes,
            tasklets_used=tasklets,
            result=result,
            details={
                "batch": batch,
                "records": num_records,
                "records_selected": group.total_records_selected,
            },
        )
