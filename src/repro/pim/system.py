"""The host's view of a DPU population: per-DPU cost state as arrays.

Serving never runs a simulated DPU: one scan of the database answers a batch
and the DPU phases are *charged* (:func:`~repro.core.partitioning.
run_dpu_pipeline_many`).  What a population accumulates while it is charged
is a :class:`DPULedger`: busy seconds, kernel launches and bytes moved each
way, one ``(P,)`` array apiece, plus the shared timing model.  A cluster is a
slice of the ledger (:meth:`DPULedger.split`): its arrays are views, so
charging a cluster moves the population's entries.  The executing model
(:class:`~repro.pim.dpu.DPU` and its kernels) is for benches and tests.
"""

from __future__ import annotations

import copy
from typing import List

import numpy as np

from repro.common.errors import ConfigurationError
from repro.pim.config import PIMConfig
from repro.pim.timing import PIMTimingModel


class DPULedger:
    """Busy time, launches and transfer bytes of ``P`` DPUs, as arrays."""

    def __init__(self, config: PIMConfig) -> None:
        self.config = config
        self.timing = PIMTimingModel(config)
        self.busy_seconds = np.zeros(config.num_dpus)
        self.launches = np.zeros(config.num_dpus, dtype=np.int64)
        self.bytes_to_dpus = np.zeros(config.num_dpus, dtype=np.int64)
        self.bytes_from_dpus = np.zeros(config.num_dpus, dtype=np.int64)

    @property
    def num_dpus(self) -> int:
        """DPUs covered by this ledger (or slice)."""
        return self.busy_seconds.size

    def __getitem__(self, index: slice) -> "DPULedger":
        """The DPUs ``index`` selects, as a ledger whose arrays are views."""
        view = copy.copy(self)
        for name in ("busy_seconds", "launches", "bytes_to_dpus", "bytes_from_dpus"):
            setattr(view, name, getattr(self, name)[index])
        return view

    def split(self, num_clusters: int) -> List["DPULedger"]:
        """Near-equal contiguous slices, larger ones first (cluster mode)."""
        if not 0 < num_clusters <= self.num_dpus:
            raise ConfigurationError(
                f"cannot split {self.num_dpus} DPUs into {num_clusters} clusters"
            )
        base, remainder = divmod(self.num_dpus, num_clusters)
        stops = np.cumsum(base + (np.arange(num_clusters) < remainder)).tolist()
        return [self[start:stop] for start, stop in zip([0] + stops[:-1], stops)]

    # -- charges ----------------------------------------------------------------

    def charge_scatter(self, per_dpu_bytes: np.ndarray) -> float:
        """Account a host->DPU scatter of ``(P,)`` ``per_dpu_bytes``; its seconds."""
        self.bytes_to_dpus += per_dpu_bytes
        return self.timing.host_to_dpu_seconds(int(per_dpu_bytes.sum()))

    def charge_launch(self, per_dpu_seconds: np.ndarray) -> float:
        """Account one kernel launch on every DPU; overhead plus the slowest DPU."""
        self.busy_seconds += per_dpu_seconds
        self.launches += 1
        return self.timing.launch_seconds(self.num_dpus) + float(per_dpu_seconds.max())

    def charge_gather(self, bytes_per_dpu: int) -> float:
        """Account a DPU->host gather of ``bytes_per_dpu`` from every DPU; its seconds."""
        self.bytes_from_dpus += bytes_per_dpu
        return self.timing.dpu_to_host_seconds(bytes_per_dpu * self.num_dpus)
