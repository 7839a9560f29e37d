"""CPU <-> DPU transfer engine.

UPMEM has disjoint address spaces for host DRAM and DPU MRAM, so every byte a
DPU processes must be explicitly pushed by the host (and every result pulled
back).  The engine distinguishes three transfer shapes with different
sustained bandwidths:

* **scatter** — a different buffer per DPU (per-query selector shares, and the
  initial database preload);
* **broadcast** — the same buffer replicated to every DPU (used when a DPU
  cluster holds a full database copy smaller than one MRAM bank, and by some
  workloads' metadata);
* **gather** — small per-DPU results pulled back to the host.

Each call performs the functional copy into/out of the DPUs' MRAM and returns
a :class:`TransferReport` carrying the simulated duration from the shared
timing model; the ``charge_*`` methods are that accounting alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.common.errors import TransferError
from repro.pim.dpu import DPU
from repro.pim.timing import PIMTimingModel


@dataclass
class TransferReport:
    """Outcome of one host<->DPU transfer batch."""

    direction: str
    total_bytes: int
    num_dpus: int
    simulated_seconds: float

    @property
    def effective_bandwidth(self) -> float:
        """Achieved bytes/second including the fixed latency component."""
        if self.simulated_seconds <= 0:
            return 0.0
        return self.total_bytes / self.simulated_seconds


class TransferEngine:
    """Moves data between the host and a set of DPUs, with cost accounting."""

    def __init__(self, timing: PIMTimingModel) -> None:
        self.timing = timing
        self.bytes_to_dpus = 0
        self.bytes_from_dpus = 0

    # -- host -> DPU -------------------------------------------------------------

    def scatter(
        self,
        dpus: Sequence[DPU],
        buffer_name: str,
        arrays: Sequence[np.ndarray],
    ) -> TransferReport:
        """Push a distinct buffer to each DPU under the same MRAM name."""
        if len(dpus) != len(arrays):
            raise TransferError(
                f"scatter needs one array per DPU: {len(dpus)} DPUs, {len(arrays)} arrays"
            )
        total_bytes = 0
        for dpu, array in zip(dpus, arrays):
            flat = np.ascontiguousarray(array, dtype=np.uint8).reshape(-1)
            dpu.store(buffer_name, flat)
            total_bytes += int(flat.size)
        return self.charge_scatter(total_bytes, len(dpus))

    def charge_scatter(self, total_bytes: int, num_dpus: int) -> TransferReport:
        """Account a ``total_bytes`` host->DPU scatter without moving data."""
        self.bytes_to_dpus += total_bytes
        return TransferReport(
            direction="host_to_dpu",
            total_bytes=total_bytes,
            num_dpus=num_dpus,
            simulated_seconds=self.timing.host_to_dpu_seconds(total_bytes),
        )

    def broadcast(
        self,
        dpus: Sequence[DPU],
        buffer_name: str,
        array: np.ndarray,
    ) -> TransferReport:
        """Push the same buffer to every DPU (higher sustained bandwidth)."""
        if not dpus:
            raise TransferError("broadcast needs at least one DPU")
        flat = np.ascontiguousarray(array, dtype=np.uint8).reshape(-1)
        for dpu in dpus:
            dpu.store(buffer_name, flat)
        total_bytes = int(flat.size) * len(dpus)
        seconds = self.timing.host_broadcast_seconds(total_bytes)
        self.bytes_to_dpus += total_bytes
        return TransferReport(
            direction="host_to_dpu_broadcast",
            total_bytes=total_bytes,
            num_dpus=len(dpus),
            simulated_seconds=seconds,
        )

    # -- DPU -> host -------------------------------------------------------------

    def gather(
        self,
        dpus: Sequence[DPU],
        buffer_name: str,
        size_bytes: int,
    ) -> tuple:
        """Pull ``size_bytes`` of ``buffer_name`` from every DPU.

        Returns ``(arrays, report)`` where ``arrays`` preserves DPU order.
        """
        if size_bytes <= 0:
            raise TransferError("size_bytes must be positive")
        arrays: List[np.ndarray] = []
        for dpu in dpus:
            arrays.append(dpu.load(buffer_name, size_bytes=size_bytes))
        return arrays, self.charge_gather(size_bytes * len(dpus), len(dpus))

    def charge_gather(self, total_bytes: int, num_dpus: int) -> TransferReport:
        """Account a ``total_bytes`` DPU->host gather without moving data."""
        self.bytes_from_dpus += total_bytes
        return TransferReport(
            direction="dpu_to_host",
            total_bytes=total_bytes,
            num_dpus=num_dpus,
            simulated_seconds=self.timing.dpu_to_host_seconds(total_bytes),
        )
