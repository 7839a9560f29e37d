"""Cost formulas for the PIM simulator.

Every simulated second reported by :mod:`repro.pim` is computed here, so the
serving path (which charges from selector popcounts), the functional kernel
and the analytic estimators in :mod:`repro.bench.estimators` (which evaluate
the same formulas at paper-scale database sizes) can never disagree about the
model.

The dpXOR kernel cost is the maximum of two terms, mirroring how a DPU
overlaps DMA with computation:

* a *DMA term*: every database byte plus every selector byte must cross the
  MRAM<->WRAM interface at the per-DPU bandwidth (~700 MB/s), in transfers of
  at least the DMA granularity;
* an *instruction term*: the 32-bit in-order pipeline retires about one
  instruction per cycle once >= 11 tasklets are resident; the kernel spends a
  per-record bookkeeping overhead (loop, selector test, address arithmetic)
  plus a per-8-byte-word XOR cost for selected records.

For the paper's 32-byte records the instruction term dominates, which is why
the effective per-DPU dpXOR rate sits well below the raw 700 MB/s DMA
bandwidth — the same observation the UPMEM characterisation papers make for
lightweight streaming kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.pim.config import DPUConfig, PIMConfig

#: Instructions charged per record for loop control, selector-bit unpacking
#: and test, DMA bookkeeping and address computation in the DPU dpXOR kernel
#: (a 32-bit in-order core without fused load-op instructions).
INSTRUCTIONS_PER_RECORD_OVERHEAD = 28
#: Instructions per 8-byte word XORed into the accumulator (two 32-bit loads,
#: two XORs, plus address bookkeeping emulating 64-bit ops on a 32-bit core).
INSTRUCTIONS_PER_XOR_WORD = 6
#: Instructions per 8-byte word for the master tasklet's final reduction.
INSTRUCTIONS_PER_REDUCE_WORD = 8


@dataclass
class DpuKernelCost:
    """Breakdown of one DPU's dpXOR kernel execution (arrays, per row and DPU,
    inside :func:`dpxor_launch_seconds`)."""

    dma_seconds: float
    compute_seconds: float
    reduction_seconds: float

    @property
    def total_seconds(self) -> float:
        """Kernel wall time: DMA overlaps compute, the reduction is serial."""
        return max(self.dma_seconds, self.compute_seconds) + self.reduction_seconds


def dpxor_kernel_cost(
    dpu: DPUConfig,
    chunk_bytes: int,
    record_size: int,
    selected_fraction: float = 0.5,
    tasklets: int | None = None,
) -> DpuKernelCost:
    """Cost of one DPU running the dpXOR kernel over ``chunk_bytes`` of database.

    The 1 x 1 case of :func:`dpxor_launch_seconds`' formula, used by the
    system-level timing model and the analytic estimators (which price
    expected, not measured, selected fractions).
    """
    if chunk_bytes < 0 or record_size <= 0:
        raise ConfigurationError("chunk_bytes must be >= 0 and record_size > 0")
    if not 0.0 <= selected_fraction <= 1.0:
        raise ConfigurationError("selected_fraction must be in [0, 1]")
    tasklets = dpu.tasklets if tasklets is None else tasklets
    if tasklets <= 0:
        raise ConfigurationError("tasklets must be positive")
    return _dpxor_cost_terms(
        dpu, chunk_bytes // record_size, record_size, selected_fraction, tasklets
    )


def dpxor_launch_seconds(
    dpu: DPUConfig,
    records_per_dpu: np.ndarray,
    record_size: int,
    selected: np.ndarray,
    tasklets: int | None = None,
) -> np.ndarray:
    """Per-DPU kernel seconds of one batched dpXOR launch, from popcounts.

    ``records_per_dpu`` is ``(P,)``, ``selected`` the ``(B, P)`` set-bit
    counts.  The ``(P,)`` result is float-exactly :func:`dpxor_kernel_cost`
    added row by row (fraction 0 on an empty DPU): same float64 operations,
    same order.
    """
    tasklets = dpu.tasklets if tasklets is None else tasklets
    records = np.asarray(records_per_dpu, dtype=np.int64)
    fraction = np.divide(
        selected, records, out=np.zeros(np.shape(selected)), where=records > 0
    )
    cost = _dpxor_cost_terms(dpu, records, record_size, fraction, tasklets)
    rows = np.maximum(cost.dma_seconds, cost.compute_seconds) + cost.reduction_seconds
    # cumsum adds row after row; ndarray.sum is pairwise and would round differently.
    return np.cumsum(rows, axis=0)[-1]


def _dpxor_cost_terms(
    dpu: DPUConfig, num_records, record_size: int, selected_fraction, tasklets: int
) -> DpuKernelCost:
    """The dpXOR cost formula, for scalars or broadcasting numpy arrays alike."""
    granularity = dpu.dma_granularity_bytes
    record_transfer = -(-record_size // granularity) * granularity
    selector_transfer_per_record = 1  # selectors are staged in WRAM in bulk
    dma_bytes = num_records * (record_transfer + selector_transfer_per_record)
    dma_seconds = dma_bytes / dpu.mram_wram_bandwidth

    words_per_record = -(-record_size // 8)
    instructions = num_records * (
        INSTRUCTIONS_PER_RECORD_OVERHEAD
        + selected_fraction * words_per_record * INSTRUCTIONS_PER_XOR_WORD
    )
    pipeline_efficiency = min(1.0, tasklets / dpu.full_pipeline_tasklets)
    instruction_rate = dpu.frequency_hz * pipeline_efficiency
    compute_seconds = instructions / instruction_rate

    reduction_instructions = tasklets * words_per_record * INSTRUCTIONS_PER_REDUCE_WORD
    reduction_seconds = reduction_instructions / dpu.frequency_hz

    return DpuKernelCost(
        dma_seconds=dma_seconds,
        compute_seconds=compute_seconds,
        reduction_seconds=reduction_seconds,
    )


class PIMTimingModel:
    """Derives simulated durations from byte/op counts for a PIM configuration."""

    def __init__(self, config: PIMConfig) -> None:
        self.config = config

    # -- DPU-side -------------------------------------------------------------

    def dpu_dpxor_cost(
        self,
        chunk_bytes: int,
        record_size: int,
        selected_fraction: float = 0.5,
        tasklets: int | None = None,
    ) -> DpuKernelCost:
        """Cost of running the dpXOR kernel over one DPU's database chunk.

        ``chunk_bytes`` is the DPU-resident database block size, ``record_size``
        the record length in bytes and ``selected_fraction`` the expected share
        of records whose selector bit is set (1/2 for a pseudorandom DPF
        share).
        """
        return dpxor_kernel_cost(
            self.config.dpu,
            chunk_bytes,
            record_size,
            selected_fraction=selected_fraction,
            tasklets=tasklets,
        )

    def dpu_effective_dpxor_bandwidth(
        self, record_size: int, selected_fraction: float = 0.5
    ) -> float:
        """Sustained dpXOR bytes/second of one DPU for the given record size."""
        probe_bytes = 4 * (1 << 20)
        cost = self.dpu_dpxor_cost(probe_bytes, record_size, selected_fraction)
        return probe_bytes / cost.total_seconds

    # -- host <-> DPU transfers -------------------------------------------------

    def host_to_dpu_seconds(self, total_bytes: int) -> float:
        """Time to push ``total_bytes`` from host DRAM into DPU MRAM (batched)."""
        if total_bytes < 0:
            raise ConfigurationError("total_bytes must be non-negative")
        transfer = self.config.transfer
        return transfer.transfer_latency_s + total_bytes / transfer.host_to_dpu_bandwidth

    def dpu_to_host_seconds(self, total_bytes: int) -> float:
        """Time to pull ``total_bytes`` of results from DPU MRAM back to the host."""
        if total_bytes < 0:
            raise ConfigurationError("total_bytes must be non-negative")
        transfer = self.config.transfer
        return transfer.transfer_latency_s + total_bytes / transfer.dpu_to_host_bandwidth

    def launch_seconds(self, num_dpus: int | None = None) -> float:
        """Cost of launching a kernel on a set of ``num_dpus`` DPUs."""
        if num_dpus is None:
            num_dpus = self.config.num_dpus
        return self.config.transfer.launch_overhead_s(num_dpus)

    def host_broadcast_seconds(self, total_bytes: int) -> float:
        """Time to broadcast the same ``total_bytes`` buffer to a DPU set."""
        if total_bytes < 0:
            raise ConfigurationError("total_bytes must be non-negative")
        transfer = self.config.transfer
        return transfer.transfer_latency_s + total_bytes / transfer.host_broadcast_bandwidth

    # -- host-side DPF evaluation -------------------------------------------------

    def host_dpf_eval_seconds(
        self,
        num_leaves: int,
        blocks_per_leaf: float = 2.0,
        threads: int | None = None,
    ) -> float:
        """Host-CPU time to expand a full DPF evaluation tree of ``num_leaves``.

        ``blocks_per_leaf`` is the amortised AES-block count per leaf: a full
        GGM tree has ~2N nodes and each expansion costs two AES blocks, but
        half the expansions belong to internal levels whose cost is shared, so
        ~2 blocks/leaf is the right amortised figure (it also matches how the
        paper's baseline library batches AES-NI calls).
        """
        if num_leaves < 0:
            raise ConfigurationError("num_leaves must be non-negative")
        host = self.config.host
        threads = host.total_threads if threads is None else threads
        if threads <= 0:
            raise ConfigurationError("threads must be positive")
        per_thread = host.aes_blocks_per_second_per_thread
        aggregate = per_thread * threads * (
            host.thread_scaling_efficiency if threads > 1 else 1.0
        )
        return num_leaves * blocks_per_leaf / aggregate

    def host_aggregate_xor_seconds(self, num_partials: int, record_size: int) -> float:
        """Host time to XOR-fold per-DPU sub-results into the server answer."""
        if num_partials < 0 or record_size <= 0:
            raise ConfigurationError("invalid aggregation parameters")
        bytes_to_fold = num_partials * record_size
        # Aggregation is a tiny cache-resident XOR loop; charge it at a fixed
        # per-byte rate well below DRAM bandwidth to stay conservative.
        host_xor_bytes_per_second = 4e9
        return bytes_to_fold / host_xor_bytes_per_second
