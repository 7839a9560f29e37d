"""The IM-PIR server: PIM-accelerated multi-server PIR (paper §3, Algorithm 1).

One IM-PIR server (``create_server("im-pir", ...)``) plays the role of a
single database replica in the two-server protocol.  Its responsibilities,
following Figure 5:

➋ evaluate the received DPF key over the full database domain on the host CPU
   (fixed-key AES through OpenSSL, the paper's AES-NI construction);
➌ split the resulting selector shares into per-DPU packed bit vectors and
   copy them to DPU MRAM;
➍ launch the dpXOR kernel, which scans each DPU's preloaded database block
   with two-stage parallel reduction across its tasklets;
➎ gather the per-DPU sub-results back to the host;
➏ XOR-fold them into the server's sub-result, which is returned to the client.

Steps ➌–➏ are charged, not executed: the answer is the base class's one
:func:`~repro.pir.xor_ops.dpxor_many` over the database, and ``charge_many``
charges the phases through ``run_dpu_pipeline_many`` to the backend's
:class:`~repro.pim.system.DPULedger` (per-DPU arrays; each cluster is a slice
of it).

The protocol half of those steps (validation, key evaluation, answer
assembly) is supplied by the shared :class:`~repro.core.engine.QueryEngine`;
this module contributes :class:`PIMClusterBackend` — the DPU-cluster
execution substrate with the paper's cost model — and
:class:`IMPIRDeployment`, both replicas plus a client wired together.

The database is preloaded into MRAM once, ahead of query processing, exactly
as in the paper (its transfer time is reported separately and not charged to
queries).  MRAM is capacity and cost arithmetic, not storage: ``prepare``
checks each cluster's largest block against usable MRAM and charges the
preload from the layout's byte counts, and ``apply_updates`` charges the
re-copy of the dirty blocks only; no byte is copied.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.common.errors import CapacityError
from repro.common.events import PhaseTimer
from repro.core.config import IMPIRConfig
from repro.core.engine import BackendCapabilities, PIRBackend, create_server
from repro.core.partitioning import (
    PartitionLayout,
    check_mram_capacity,
    run_dpu_pipeline_many,
    usable_mram_bytes,
)
from repro.core.results import PHASE_AGGREGATE
from repro.pim.kernels import check_dpxor_wram
from repro.pim.system import DPULedger
from repro.pir.database import Database

#: Phase name under which partial MRAM re-transfers of bulk updates are billed.
PHASE_UPDATE_COPY = "update_copy"


class PIMClusterBackend(PIRBackend):
    """Execution backend pricing the dpXOR on preloaded DPU clusters.

    Each cluster holds a full copy of the database partitioned across its
    DPUs, so every cluster is an independent execution lane.  A cluster is
    a slice of the backend's :class:`~repro.pim.system.DPULedger`.
    """

    def __init__(self, config: IMPIRConfig) -> None:
        self.config = config
        self.ledger = DPULedger(config.pim)
        self.timing = self.ledger.timing
        self._clusters: List[DPULedger] = self.ledger.split(config.num_clusters)
        self._layouts: List[PartitionLayout] = []

    def _check_fits(self, layout: PartitionLayout) -> None:
        check_mram_capacity(
            layout, self.config.pim.dpu.mram_bytes, self.config.mram_reserve_fraction
        )

    # -- database lifecycle (not charged to queries) ------------------------------

    def prepare(self, database: Database) -> PhaseTimer:
        """Lay the database out across each cluster's DPUs and charge the preload.

        Capacity is arithmetic: each cluster's largest block must fit usable
        MRAM and the kernel's working set WRAM (:class:`CapacityError`
        otherwise).  The preload ships every block (a one-byte placeholder on
        an empty DPU) and is charged from those byte counts; nothing is copied.
        """
        self._database = database
        check_dpxor_wram(self.config.pim.dpu, database.record_size)
        timer = PhaseTimer()
        self._layouts = []
        for cluster in self._clusters:
            layout = PartitionLayout.linear(
                database.num_records, database.record_size, cluster.num_dpus
            )
            self._check_fits(layout)
            timer.record("preload_db", cluster.charge_scatter(layout.db_bytes_per_dpu()))
            self._layouts.append(layout)
        return timer

    def apply_updates(self, database: Database, dirty_indices: Sequence[int]) -> PhaseTimer:
        """Swap in an updated database, charging the re-copy of the dirty blocks only.

        Each dirty record is mapped to its DPU block with one ``searchsorted``
        over the layout's block starts; only those blocks' bytes are charged
        to :data:`PHASE_UPDATE_COPY`, and a cluster with no dirty block
        charges nothing.
        """
        self._database = database
        timer = PhaseTimer()
        indices = np.asarray(dirty_indices, dtype=np.int64)
        if not indices.size:
            return timer
        for cluster, layout in zip(self._clusters, self._layouts):
            dirty = np.zeros(layout.num_dpus, dtype=bool)
            dirty[np.searchsorted(layout.bounds[:, 0], indices, side="right") - 1] = True
            block_bytes = np.where(dirty, layout.records * layout.record_size, 0)
            timer.record(PHASE_UPDATE_COPY, cluster.charge_scatter(block_bytes))
        return timer

    # -- capability metadata --------------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        # The record-count bound depends on the record size, which is only
        # known once a database is prepared; before that the MRAM capacity is
        # enforced by check_mram_capacity inside prepare() (CapacityError), so
        # report no bound rather than a misleading one.
        max_records = None
        if self._database is not None:
            # The last cluster is the smallest, so its blocks are the largest.
            usable = usable_mram_bytes(
                self.config.pim.dpu.mram_bytes, self.config.mram_reserve_fraction
            )
            max_records = (usable // self._database.record_size) * self._clusters[-1].num_dpus
        return BackendCapabilities(
            name="im-pir",
            lanes=len(self._clusters),
            batch_workers=self.config.effective_eval_workers,
            preloaded=True,
            max_records=max_records,
            description="dpXOR on preloaded UPMEM DPU clusters",
        )
    # -- timing hooks -----------------------------------------------------------------

    def latency_eval_seconds(self, num_records: int) -> float:
        return self.timing.host_dpf_eval_seconds(
            num_records,
            blocks_per_leaf=self.config.blocks_per_leaf,
            threads=self.config.effective_latency_threads,
        )

    def batch_eval_seconds(self, num_records: int) -> float:
        return self.timing.host_dpf_eval_seconds(
            num_records, blocks_per_leaf=self.config.blocks_per_leaf, threads=1
        )

    # -- DPU pipeline for a batch, one dispatch per cluster (phases ➌–➏) -------------

    def charge_many(
        self,
        selector_matrix: np.ndarray,
        lanes: np.ndarray,
        costs: Mapping[int, PhaseTimer],
    ) -> None:
        """Charge one DPU dispatch per cluster for the batch.

        Lanes (the engine assigns them round-robin across clusters) pick the
        rows each cluster is charged from: one selector scatter, one batched
        kernel launch and one result gather through
        :func:`~repro.core.partitioning.run_dpu_pipeline_many`, priced into
        the lane's cost.  Per-row kernel costs and the host-side fold
        (phase ➏) stay per query.
        """
        for lane, cost in costs.items():
            layout = self._layouts[lane]
            run_dpu_pipeline_many(
                self._clusters[lane], layout, selector_matrix[lanes == lane], cost
            )
            cost.record(
                PHASE_AGGREGATE,
                self.timing.host_aggregate_xor_seconds(layout.num_dpus, layout.record_size),
            )

    # -- cluster views and capacity checks ------------------------------------------

    @property
    def clusters(self) -> List[DPULedger]:
        """The execution lanes: slices of :attr:`ledger` (read-only use intended)."""
        return self._clusters

    def layout_for_lane(self, lane: int) -> PartitionLayout:
        """Partition layout used by execution lane (DPU cluster) ``lane``."""
        return self._layouts[lane]

    def mram_utilization(self) -> float:
        """Fraction of the allocated DPUs' MRAM occupied by the database."""
        return self._database.size_bytes * len(self._clusters) / self.config.pim.total_mram_bytes

    def can_cluster(self, num_clusters: int) -> bool:
        """Whether ``num_clusters`` clusters could each hold the full database.

        Asks :func:`~repro.core.partitioning.check_mram_capacity` of the
        layout ``prepare`` would build on the smallest cluster.
        """
        if not 0 < num_clusters <= self.config.pim.num_dpus:
            return False
        layout = PartitionLayout.linear(
            self._database.num_records,
            self._database.record_size,
            self.config.pim.num_dpus // num_clusters,
        )
        try:
            self._check_fits(layout)
        except CapacityError:
            return False
        return True


class IMPIRDeployment:
    """Both replicas of an IM-PIR deployment plus the client, wired together.

    A convenience for examples and integration tests: real deployments place
    the two servers in different trust domains, but the message flow is the
    same.  Batched retrieval goes through ``frontend`` (a
    :class:`~repro.pir.frontend.PIRFrontend`), which aggregates requests under
    a batching policy and pairs the replicas' answers by explicit request id.
    """

    def __init__(
        self,
        database: Database,
        config: Optional[IMPIRConfig] = None,
        client_seed: Optional[int] = None,
    ) -> None:
        from repro.pir.client import PIRClient  # local import to avoid a cycle
        from repro.pir.frontend import BatchingPolicy, PIRFrontend

        self.database = database
        self.config = config if config is not None else IMPIRConfig()
        self.servers = [
            create_server("im-pir", database, server_id=server_id, config=self.config)
            for server_id in (0, 1)
        ]
        self.client = PIRClient(
            num_records=database.num_records,
            record_size=database.record_size,
            seed=client_seed,
        )
        self.frontend = PIRFrontend(
            self.client,
            self.servers,
            policy=BatchingPolicy.from_pipeline(
                num_workers=self.config.effective_eval_workers,
                num_clusters=self.config.num_clusters,
            ),
        )

    def retrieve(self, index: int) -> bytes:
        """Privately retrieve one record through both IM-PIR servers."""
        queries = self.client.query(index)
        answers = [self.servers[q.server_id].answer(q).answer for q in queries]
        return self.client.reconstruct(answers)
