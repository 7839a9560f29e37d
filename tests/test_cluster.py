"""DPU clustering: planning and capacity checks.

A cluster is a slice of the backend's :class:`DPULedger`, and every fit
question goes through :func:`check_mram_capacity` on the layout a cluster
would hold: ``ceil(N / P)`` whole records on the first DPUs.
"""

import pytest

from repro.common.errors import CapacityError, ConfigurationError
from repro.common.units import MIB
from repro.core.config import IMPIRConfig
from repro.core.impir import PIMClusterBackend
from repro.core.partitioning import PartitionLayout, check_mram_capacity
from repro.pim.config import DPUConfig, PIMConfig, scaled_down_config
from repro.pim.system import DPULedger
from repro.pir.database import Database

MRAM = 64 * MIB


@pytest.fixture()
def ledger():
    return DPULedger(scaled_down_config(num_dpus=8, tasklets=2))


def _cluster_layout(num_records, record_size, total_dpus, num_clusters):
    """The layout the smallest of ``num_clusters`` clusters would hold."""
    return PartitionLayout.linear(num_records, record_size, total_dpus // num_clusters)


class TestPlanClusters:
    def test_single_cluster_always_allowed(self):
        db = Database.random(1000, 32, seed=1)
        layout = _cluster_layout(db.num_records, db.record_size, 2048, 1)
        assert layout.num_dpus == 2048
        assert check_mram_capacity(layout, MRAM) == 32
        assert IMPIRConfig(num_clusters=1).dpus_per_cluster == 2048

    def test_per_dpu_bytes_computed(self):
        db = Database.random(4096, 32, seed=1)
        layout = _cluster_layout(db.num_records, db.record_size, 8, 2)
        assert layout.num_dpus == 4
        assert check_mram_capacity(layout, MRAM) == -(-db.size_bytes // 4)

    def test_capacity_violation_raises(self):
        # An 8 GB database in 64 clusters of 32 DPUs needs 256 MB per DPU.
        layout = _cluster_layout((8 * 1024 * MIB) // 32, 32, 2048, 64)
        with pytest.raises(CapacityError):
            check_mram_capacity(layout, MRAM)

    def test_rejects_more_clusters_than_dpus(self):
        with pytest.raises(ConfigurationError):
            DPULedger(scaled_down_config(num_dpus=4)).split(8)

    def test_rejects_zero_clusters(self):
        with pytest.raises(ConfigurationError):
            DPULedger(scaled_down_config(num_dpus=4)).split(0)


class TestMakeClusters:
    def test_split_counts(self, ledger):
        clusters = ledger.split(4)
        assert len(clusters) == 4
        assert all(cluster.num_dpus == 2 for cluster in clusters)

    def test_cluster_capacity_check(self, small_db):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=2), num_clusters=2)
        backend = PIMClusterBackend(config)
        backend.prepare(small_db)
        assert backend.can_cluster(2)
        assert backend.clusters[0].num_dpus * config.pim.dpu.mram_bytes == 4 * MRAM

    def test_can_hold_respects_reserve(self):
        layout = _cluster_layout((60 * MIB) // 32, 32, 8, 8)  # one DPU
        with pytest.raises(CapacityError):
            check_mram_capacity(layout, MRAM)

    def test_cluster_is_dpucluster(self, ledger):
        # A cluster is a slice of the ledger: charging it moves the population.
        clusters = ledger.split(2)
        assert all(isinstance(cluster, DPULedger) for cluster in clusters)
        clusters[1].charge_launch(clusters[1].busy_seconds + 1.0)
        assert ledger.launches.tolist() == [0] * 4 + [1] * 4
        assert ledger.busy_seconds.tolist() == [0.0] * 4 + [1.0] * 4


class TestMaxClusters:
    def test_small_database_allows_many_clusters(self):
        db = Database.random(1024, 32, seed=1)
        backend = PIMClusterBackend(IMPIRConfig())
        backend.prepare(db)
        assert all(backend.can_cluster(count) for count in (1, 2, 4, 8))

    def test_huge_database_limits_clusters(self):
        # 90 GB across 2,048 DPUs (48 MB usable each) only fits once: any split
        # into >= 2 clusters overflows per-DPU MRAM.
        num_records = (90 * 1024 * MIB) // 32
        check_mram_capacity(_cluster_layout(num_records, 32, 2048, 1), MRAM)
        with pytest.raises(CapacityError):
            check_mram_capacity(_cluster_layout(num_records, 32, 2048, 2), MRAM)


class TestCanClusterMatchesPrepare:
    """``can_cluster`` asks the question ``prepare`` answers: whole records."""

    def test_whole_records_decide_the_fit(self):
        # 3 records of 32 B on 4 DPUs of 64 B MRAM (48 B usable): 96 B / 2 DPUs
        # is 48 B, but a 2-DPU cluster holds ceil(3 / 2) = 2 records = 64 B.
        pim = PIMConfig(num_dpus=4, dpu=DPUConfig(mram_bytes=64, tasklets=1))
        config = IMPIRConfig(pim=pim)
        db = Database.random(3, 32, seed=1)
        backend = PIMClusterBackend(config)
        backend.prepare(db)
        assert backend.can_cluster(1)
        assert not backend.can_cluster(2)
        with pytest.raises(CapacityError):
            PIMClusterBackend(config.with_clusters(2)).prepare(db)

    @pytest.mark.parametrize("num_records", [1, 3, 5, 7, 8, 9, 12])
    def test_can_cluster_agrees_with_prepare(self, num_records):
        # 75 usable bytes: not a whole number of 32-byte records.
        pim = PIMConfig(num_dpus=6, dpu=DPUConfig(mram_bytes=100, tasklets=1))
        db = Database.random(num_records, 32, seed=2)
        backend = PIMClusterBackend(IMPIRConfig(pim=pim))
        backend.prepare(db)
        for clusters in range(1, 7):
            try:
                PIMClusterBackend(IMPIRConfig(pim=pim, num_clusters=clusters)).prepare(db)
                prepared = True
            except CapacityError:
                prepared = False
            assert backend.can_cluster(clusters) == prepared
