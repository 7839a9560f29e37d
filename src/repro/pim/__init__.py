"""UPMEM PIM simulator: platform configuration, timing, and two views of the DPUs.

Serving charges a :class:`DPULedger` (per-DPU busy seconds, launches and
transfer bytes as arrays) through :mod:`repro.pim.timing`'s formulas; the
executing model (:class:`DPU` with its MRAM, WRAM, tasklets and
:class:`~repro.pim.kernels.DpXorManyKernel`) runs only in benches and tests,
as the reference the charges are held to.
"""

from repro.pim.config import (
    CHIPS_PER_RANK,
    DPUS_PER_CHIP,
    DPUS_PER_MODULE,
    DPUS_PER_RANK,
    RANKS_PER_MODULE,
    UPMEM_PAPER_CONFIG,
    DPUConfig,
    HostConfig,
    PIMConfig,
    TransferConfig,
    scaled_down_config,
)
from repro.pim.dpu import DPU, DPUExecutionReport, Kernel
from repro.pim.kernels import DB_BUFFER, RESULT_BUFFER, SELECTOR_BUFFER, DpXorManyKernel
from repro.pim.mram import MRAM, MRAMBuffer
from repro.pim.system import DPULedger
from repro.pim.tasklet import TaskletGroup, TaskletReport
from repro.pim.timing import DpuKernelCost, PIMTimingModel, dpxor_kernel_cost
from repro.pim.wram import WRAM

__all__ = [
    "CHIPS_PER_RANK",
    "DPUS_PER_CHIP",
    "DPUS_PER_MODULE",
    "DPUS_PER_RANK",
    "RANKS_PER_MODULE",
    "UPMEM_PAPER_CONFIG",
    "DPUConfig",
    "HostConfig",
    "PIMConfig",
    "TransferConfig",
    "scaled_down_config",
    "DPU",
    "DPUExecutionReport",
    "Kernel",
    "DB_BUFFER",
    "RESULT_BUFFER",
    "SELECTOR_BUFFER",
    "DpXorManyKernel",
    "MRAM",
    "MRAMBuffer",
    "DPULedger",
    "TaskletGroup",
    "TaskletReport",
    "DpuKernelCost",
    "PIMTimingModel",
    "dpxor_kernel_cost",
    "WRAM",
]
