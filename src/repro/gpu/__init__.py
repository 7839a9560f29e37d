"""GPU-accelerated baseline: the GPU-PIR cost model.

The GPU-PIR server is ``create_server("gpu", ...)``: the reference scan
priced by :class:`GPUModel` (``server.backend.model``).
"""

from repro.gpu.config import GPU_BASELINE_CONFIG, GPUConfig
from repro.gpu.model import (
    PHASE_DPXOR,
    PHASE_EVAL,
    PHASE_LAUNCH,
    PHASE_PCIE,
    GPUBatchEstimate,
    GPUModel,
)

__all__ = [
    "GPU_BASELINE_CONFIG",
    "GPUConfig",
    "PHASE_DPXOR",
    "PHASE_EVAL",
    "PHASE_LAUNCH",
    "PHASE_PCIE",
    "GPUBatchEstimate",
    "GPUModel",
]
