"""UPMEM PIM simulator: DPUs, memories, kernels, transfers, timing."""

from repro.pim.cluster import (
    ClusterPlan,
    DPUCluster,
    make_clusters,
    max_clusters_for_database,
    plan_clusters,
)
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
from repro.pim.kernels import (
    DB_BUFFER,
    RESULT_BUFFER,
    SELECTOR_BUFFER,
    MramFillKernel,
)
from repro.pim.module import PIMChip, PIMModule, PIMRank, build_topology
from repro.pim.mram import MRAM, MRAMBuffer
from repro.pim.system import DPUSet, LaunchReport, UPMEMSystem
from repro.pim.tasklet import TaskletGroup, TaskletReport
from repro.pim.timing import DpuKernelCost, PIMTimingModel, dpxor_kernel_cost
from repro.pim.transfer import TransferEngine, TransferReport
from repro.pim.wram import WRAM

__all__ = [
    "ClusterPlan",
    "DPUCluster",
    "make_clusters",
    "max_clusters_for_database",
    "plan_clusters",
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
    "MramFillKernel",
    "PIMChip",
    "PIMModule",
    "PIMRank",
    "build_topology",
    "MRAM",
    "MRAMBuffer",
    "DPUSet",
    "LaunchReport",
    "UPMEMSystem",
    "TaskletGroup",
    "TaskletReport",
    "DpuKernelCost",
    "PIMTimingModel",
    "dpxor_kernel_cost",
    "TransferEngine",
    "TransferReport",
    "WRAM",
]
