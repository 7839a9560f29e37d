"""The IM-PIR server: PIM-accelerated multi-server PIR (paper §3, Algorithm 1).

One IM-PIR server (``create_server("im-pir", ...)``) plays the role of a
single database replica in the two-server protocol.  Its responsibilities,
following Figure 5:

➋ evaluate the received DPF key over the full database domain on the host CPU
   (AES-NI in the paper; a numpy PRG functionally here, costed as AES blocks);
➌ split the resulting selector shares into per-DPU packed bit vectors and
   copy them to DPU MRAM;
➍ launch the dpXOR kernel, which scans each DPU's preloaded database block
   with two-stage parallel reduction across its tasklets;
➎ gather the per-DPU sub-results back to the host;
➏ XOR-fold them into the server's sub-result, which is returned to the client.

Steps ➌–➏ are charged, not executed: the answer is one
:func:`~repro.pir.xor_ops.dpxor_many` over the database, and
:func:`~repro.core.partitioning.run_dpu_pipeline_many` charges the phases.

The protocol half of those steps (validation, key evaluation, answer
assembly) is supplied by the shared :class:`~repro.core.engine.QueryEngine`;
this module contributes :class:`PIMClusterBackend` — the DPU-cluster
execution substrate with the paper's cost model — and
:class:`IMPIRDeployment`, both replicas plus a client wired together.

The database itself is preloaded into MRAM once, ahead of query processing,
exactly as in the paper (its transfer time is reported separately and not
charged to queries).  MRAM is capacity and cost state: serving never reads it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence

import numpy as np

from repro.common.events import PhaseTimer
from repro.core.config import IMPIRConfig
from repro.core.engine import BackendCapabilities, PIRBackend, create_server
from repro.core.partitioning import (
    DatabasePartitioner,
    PartitionLayout,
    reset_pipeline_buffers,
    run_dpu_pipeline_many,
)
from repro.core.results import PHASE_AGGREGATE
from repro.dpf.prf import make_prg
from repro.pim.cluster import DPUCluster, make_clusters
from repro.pim.kernels import DB_BUFFER, DpXorManyKernel
from repro.pim.system import UPMEMSystem
from repro.pir.database import Database
from repro.pir.xor_ops import dpxor_many

#: Phase name under which partial MRAM re-transfers of bulk updates are billed.
PHASE_UPDATE_COPY = "update_copy"


class PIMClusterBackend(PIRBackend):
    """Execution backend running the dpXOR on preloaded DPU clusters.

    Each cluster holds a full copy of the database partitioned across its
    DPUs, so every cluster is an independent execution lane.
    """

    def __init__(self, config: IMPIRConfig, system: UPMEMSystem) -> None:
        self.config = config
        self.system = system
        self.timing = system.timing
        self._dpu_set = system.allocate(config.pim.num_dpus)
        self._clusters: List[DPUCluster] = make_clusters(self._dpu_set, config.num_clusters)
        self._layouts: List[PartitionLayout] = []
        self.database: Optional[Database] = None

    # -- database lifecycle (not charged to queries) ------------------------------

    def prepare(self, database: Database) -> PhaseTimer:
        """Partition the database across each cluster's DPUs and load MRAM."""
        self.database = database
        partitioner = DatabasePartitioner(database)
        timer = PhaseTimer()
        self._layouts = []
        for cluster in self._clusters:
            layout = partitioner.layout(cluster.num_dpus)
            partitioner.check_capacity(
                layout,
                mram_bytes_per_dpu=self.config.pim.dpu.mram_bytes,
                reserve_fraction=self.config.mram_reserve_fraction,
            )
            reset_pipeline_buffers(cluster.dpu_set, layout)
            cluster.dpu_set.load_program(DpXorManyKernel.name)
            chunks = partitioner.database_chunks(layout)
            report = cluster.dpu_set.scatter(DB_BUFFER, chunks)
            timer.record("preload_db", report.simulated_seconds)
            self._layouts.append(layout)
        return timer

    def apply_updates(self, database: Database, dirty_indices: Sequence[int]) -> PhaseTimer:
        """Swap in an updated database, re-copying only the dirty MRAM blocks.

        Each dirty record is mapped to its DPU block with a bisect over the
        layout's block starts (O(u log d)), and only the affected blocks are
        rebuilt and re-transferred — untouched blocks keep their MRAM
        contents and cost nothing.
        """
        self.database = database
        timer = PhaseTimer()
        for cluster, layout in zip(self._clusters, self._layouts):
            starts = [start for start, _ in layout.bounds]
            dirty_dpus = sorted({bisect_right(starts, index) - 1 for index in dirty_indices})
            if not dirty_dpus:
                continue
            affected_dpus = [cluster.dpu_set.dpus[i] for i in dirty_dpus]
            affected_chunks = [
                np.ascontiguousarray(database.chunk(*layout.bounds[i])).reshape(-1)
                for i in dirty_dpus
            ]
            report = cluster.dpu_set.transfer.scatter(affected_dpus, DB_BUFFER, affected_chunks)
            timer.record(PHASE_UPDATE_COPY, report.simulated_seconds)
        return timer

    # -- capability metadata --------------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        # The record-count bound depends on the record size, which is only
        # known once a database is prepared; before that the MRAM capacity is
        # enforced by check_capacity inside prepare() (CapacityError), so
        # report no bound rather than a misleading one.
        max_records = None
        if self.database is not None and self._clusters:
            usable_per_dpu = int(
                self.config.pim.dpu.mram_bytes * (1.0 - self.config.mram_reserve_fraction)
            )
            max_records = (
                usable_per_dpu // max(1, self.database.record_size)
            ) * self._clusters[0].num_dpus
        return BackendCapabilities(
            name="im-pir",
            lanes=len(self._clusters),
            batch_workers=self.config.effective_eval_workers,
            supports_naive=False,
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

    def execute_many(
        self,
        selector_matrix: np.ndarray,
        breakdowns: Sequence[PhaseTimer],
        lanes: Sequence[int],
    ) -> np.ndarray:
        """Batched dpXOR: one scan per batch, one DPU dispatch charged per cluster.

        One :func:`~repro.pir.xor_ops.dpxor_many` over the database answers
        every row of the packed ``selector_matrix``.  Lanes (the engine
        assigns them round-robin across clusters) only pick the rows each
        cluster is charged from: one selector scatter, one batched kernel
        launch and one result gather through
        :func:`~repro.core.partitioning.run_dpu_pipeline_many`.  Per-row
        kernel costs and the host-side fold (phase ➏) stay per query.
        """
        selector_matrix = np.asarray(selector_matrix, dtype=np.uint8)
        out = dpxor_many(self.database.records, selector_matrix)
        rows_by_lane: dict = {}
        for position, lane in enumerate(lanes):
            rows_by_lane.setdefault(lane, []).append(position)
        for lane in sorted(rows_by_lane):
            positions = rows_by_lane[lane]
            layout = self._layouts[lane]
            timers = [breakdowns[position] for position in positions]
            run_dpu_pipeline_many(
                self._clusters[lane].dpu_set, layout, selector_matrix[positions], timers
            )
            aggregate_seconds = self.timing.host_aggregate_xor_seconds(
                layout.num_dpus, layout.record_size
            )
            for timer in timers:
                timer.record(PHASE_AGGREGATE, aggregate_seconds)
        return out

    # -- cluster views and capacity checks ------------------------------------------

    @property
    def clusters(self) -> List[DPUCluster]:
        """The execution lanes (read-only use intended)."""
        return self._clusters

    def layout_for_lane(self, lane: int) -> PartitionLayout:
        """Partition layout used by execution lane (DPU cluster) ``lane``."""
        return self._layouts[lane]

    @property
    def mram_capacity_bytes(self) -> int:
        """Aggregate MRAM capacity of the allocated DPU population."""
        return self._dpu_set.mram_capacity_bytes

    def mram_utilization(self) -> float:
        """Fraction of the allocated DPUs' MRAM occupied by the database."""
        capacity = self.mram_capacity_bytes
        if capacity == 0:
            return 0.0
        return self.database.size_bytes * len(self._clusters) / capacity

    def can_cluster(self, num_clusters: int) -> bool:
        """Whether ``num_clusters`` clusters could each hold the full database."""
        if num_clusters <= 0 or num_clusters > self.config.pim.num_dpus:
            return False
        dpus_per_cluster = self.config.pim.num_dpus // num_clusters
        usable = int(
            self.config.pim.dpu.mram_bytes * (1.0 - self.config.mram_reserve_fraction)
        )
        per_dpu = -(-self.database.size_bytes // dpus_per_cluster)
        return per_dpu <= usable


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
            num_servers=2,
            scheme="dpf",
            prg=make_prg(self.config.prg_backend),
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
