"""The DPU ledger: per-DPU cost state as arrays, clusters as slices, and the
executing DPUs it is charged in place of."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core.partitioning import PartitionLayout
from repro.pim.config import PIMConfig, scaled_down_config
from repro.pim.kernels import DB_BUFFER, RESULT_BUFFER, SELECTOR_BUFFER
from repro.pim.system import DPULedger
from repro.pir.database import Database
from repro.pir.xor_ops import dpxor, pack_selectors
from test_dpu_pipeline_many import ExecutingDPUs, database_chunks, selector_chunks


@pytest.fixture()
def config():
    return scaled_down_config(num_dpus=8, tasklets=4)


@pytest.fixture()
def ledger(config):
    return DPULedger(config)


class TestAllocation:
    def test_split_into_clusters(self, ledger):
        subsets = ledger.split(3)
        assert [s.num_dpus for s in subsets] == [3, 3, 2]
        assert sum(s.num_dpus for s in subsets) == 8

    def test_split_more_than_dpus_rejected(self, ledger):
        with pytest.raises(ConfigurationError):
            ledger.split(9)


class TestTransfers:
    def test_scatter_and_gather_round_trip(self, ledger):
        cluster = ledger.split(2)[0]
        seconds = cluster.charge_scatter(np.full(4, 16))
        assert seconds == ledger.timing.host_to_dpu_seconds(64)
        assert cluster.charge_gather(16) == ledger.timing.dpu_to_host_seconds(64)
        assert ledger.bytes_to_dpus.tolist() == [16] * 4 + [0] * 4
        assert ledger.bytes_from_dpus.tolist() == [16] * 4 + [0] * 4

    def test_scatter_count_mismatch(self, ledger):
        with pytest.raises(ValueError):
            ledger.charge_scatter(np.zeros(3, dtype=np.int64))

    def test_transfer_engine_tracks_totals(self, ledger):
        ledger.charge_scatter(np.full(8, 8))
        ledger.charge_scatter(np.array([0, 5, 0, 0, 0, 0, 7, 0]))
        ledger.charge_gather(8)
        assert ledger.bytes_to_dpus.sum() == 76
        assert ledger.bytes_to_dpus[[1, 6]].tolist() == [13, 15]
        assert ledger.bytes_from_dpus.sum() == 64


class TestCollectiveLaunch:
    def test_distributed_dpxor_matches_reference(self, config):
        db = Database.random(512, 32, seed=13)
        selector = pack_selectors(np.random.default_rng(1).integers(0, 2, (1, 512), np.uint8))
        layout = PartitionLayout.linear(512, 32, config.num_dpus)
        dpus = ExecutingDPUs(config)
        dpus.scatter(DB_BUFFER, database_chunks(layout, db))
        dpus.scatter(SELECTOR_BUFFER, selector_chunks(layout, selector))
        dpus.launch(layout, batch=1)
        partials, _ = dpus.gather(RESULT_BUFFER, 32)
        combined = np.bitwise_xor.reduce(np.stack(partials), axis=0)
        assert np.array_equal(combined, dpxor(db.records, selector[0]))

    def test_empty_dpu_set_rejected(self):
        with pytest.raises(ConfigurationError):
            DPULedger(PIMConfig(num_dpus=0))
