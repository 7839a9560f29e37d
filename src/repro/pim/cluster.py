"""DPU clusters: independent groups of DPUs each serving whole queries.

The paper's §3.4 / §5.4 clustering strategy splits the DPU population into
``C`` clusters.  Each cluster holds a copy of the database (provided it fits
in the cluster's aggregate MRAM) and processes one query at a time, so up to
``C`` queries run concurrently.  With a single cluster every query's dpXOR is
serialised behind the previous one — the configuration used for the large-DB
experiments of Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import CapacityError, ConfigurationError
from repro.pir.database import Database
from repro.pim.system import DPUSet


@dataclass
class ClusterPlan:
    """How a DPU population is divided into query-serving clusters."""

    num_clusters: int
    dpus_per_cluster: int
    db_bytes_per_dpu: int

    @property
    def total_dpus(self) -> int:
        """DPUs used across all clusters."""
        return self.num_clusters * self.dpus_per_cluster


class DPUCluster:
    """One cluster: a DPU set plus the database partition layout it holds."""

    def __init__(self, cluster_id: int, dpu_set: DPUSet) -> None:
        self.cluster_id = cluster_id
        self.dpu_set = dpu_set

    @property
    def num_dpus(self) -> int:
        """DPUs in this cluster."""
        return self.dpu_set.num_dpus

    @property
    def mram_capacity_bytes(self) -> int:
        """Aggregate MRAM capacity of this cluster."""
        return self.dpu_set.mram_capacity_bytes

    def can_hold(self, database: Database, reserve_fraction: float = 0.25) -> bool:
        """Whether the cluster's MRAM can hold ``database`` plus working buffers.

        ``reserve_fraction`` keeps headroom for the per-query selector shares
        and result buffers that must coexist with the database in MRAM.
        """
        usable = self.mram_capacity_bytes * (1.0 - reserve_fraction)
        return database.size_bytes <= usable


def plan_clusters(
    total_dpus: int,
    num_clusters: int,
    database: Database,
    mram_bytes_per_dpu: int,
    reserve_fraction: float = 0.25,
) -> ClusterPlan:
    """Validate and describe a clustering of ``total_dpus`` into ``num_clusters``.

    Raises :class:`~repro.common.errors.CapacityError` if a cluster cannot hold
    the full database — the situation in which the paper falls back to the
    single-cluster (database partitioned across all DPUs) strategy.
    """
    if num_clusters <= 0:
        raise ConfigurationError("num_clusters must be positive")
    if total_dpus < num_clusters:
        raise ConfigurationError(
            f"cannot build {num_clusters} clusters out of {total_dpus} DPUs"
        )
    dpus_per_cluster = total_dpus // num_clusters
    db_bytes_per_dpu = -(-database.size_bytes // dpus_per_cluster)
    usable_per_dpu = int(mram_bytes_per_dpu * (1.0 - reserve_fraction))
    if num_clusters > 1 and db_bytes_per_dpu > usable_per_dpu:
        raise CapacityError(
            f"a cluster of {dpus_per_cluster} DPUs cannot hold a "
            f"{database.size_bytes}-byte database "
            f"({db_bytes_per_dpu} bytes/DPU needed, {usable_per_dpu} usable)"
        )
    return ClusterPlan(
        num_clusters=num_clusters,
        dpus_per_cluster=dpus_per_cluster,
        db_bytes_per_dpu=db_bytes_per_dpu,
    )


def make_clusters(dpu_set: DPUSet, num_clusters: int) -> List[DPUCluster]:
    """Split an allocated DPU set into ``num_clusters`` clusters."""
    subsets = dpu_set.split(num_clusters)
    return [DPUCluster(cluster_id=i, dpu_set=subset) for i, subset in enumerate(subsets)]


def max_clusters_for_database(
    total_dpus: int,
    database: Database,
    mram_bytes_per_dpu: int,
    reserve_fraction: float = 0.25,
    limit: Optional[int] = None,
) -> int:
    """Largest power-of-two cluster count whose clusters each hold the full DB."""
    best = 1
    candidate = 2
    while total_dpus // candidate >= 1 and (limit is None or candidate <= limit):
        try:
            plan_clusters(
                total_dpus,
                candidate,
                database,
                mram_bytes_per_dpu,
                reserve_fraction=reserve_fraction,
            )
        except CapacityError:
            break
        best = candidate
        candidate *= 2
    return best
