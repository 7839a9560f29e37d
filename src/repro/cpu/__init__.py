"""Processor-centric baseline: cache model and the CPU-PIR cost model.

The CPU-PIR server is ``create_server("cpu", ...)``: the reference scan
priced by :class:`CPUModel` (``server.backend.model``).
"""

from repro.cpu.cache import BandwidthEstimate, CacheModel
from repro.cpu.config import CPU_BASELINE_CONFIG, CPUConfig
from repro.cpu.model import (
    BLOCKS_PER_LEAF,
    PHASE_DPXOR,
    PHASE_EVAL,
    CPUBatchEstimate,
    CPUModel,
)

__all__ = [
    "BandwidthEstimate",
    "CacheModel",
    "CPU_BASELINE_CONFIG",
    "CPUConfig",
    "BLOCKS_PER_LEAF",
    "PHASE_DPXOR",
    "PHASE_EVAL",
    "CPUBatchEstimate",
    "CPUModel",
]
