"""UPMEM system: topology, allocation, transfers, collective launches."""

import numpy as np
import pytest

from repro.common.errors import CapacityError, ConfigurationError, KernelError, TransferError
from repro.pim.config import DPUS_PER_CHIP, DPUS_PER_RANK, PIMConfig, scaled_down_config
from repro.pim.dpu import DPU
from repro.pim.kernels import DB_BUFFER, SELECTOR_BUFFER, DpXorManyKernel
from repro.pim.module import build_topology
from repro.pim.system import DPUSet, UPMEMSystem
from repro.pim.timing import PIMTimingModel
from repro.pim.transfer import TransferEngine
from repro.pir.database import Database
from repro.pir.xor_ops import dpxor, pack_selectors


@pytest.fixture()
def system():
    return UPMEMSystem(scaled_down_config(num_dpus=8, tasklets=4))


class TestTopology:
    def test_build_topology_groups_dpus(self):
        dpus = [DPU(i) for i in range(DPUS_PER_RANK * 2 + 5)]
        modules = build_topology(dpus)
        assert modules[0].num_dpus == DPUS_PER_RANK * 2
        assert sum(module.num_dpus for module in modules) == len(dpus)
        assert modules[0].ranks[0].chips[0].num_dpus == DPUS_PER_CHIP

    def test_module_mram_capacity(self):
        dpus = [DPU(i) for i in range(128)]
        modules = build_topology(dpus)
        assert modules[0].mram_bytes == 128 * 64 * 2**20

    def test_system_topology_matches_population(self, system):
        assert sum(module.num_dpus for module in system.modules) == system.num_dpus


class TestAllocation:
    def test_allocate_all(self, system):
        dpu_set = system.allocate()
        assert dpu_set.num_dpus == 8

    def test_allocate_subset_then_exhaust(self, system):
        first = system.allocate(5)
        second = system.allocate(3)
        assert first.num_dpus == 5 and second.num_dpus == 3
        with pytest.raises(CapacityError):
            system.allocate(1)

    def test_release_all(self, system):
        system.allocate(8)
        system.release_all()
        assert system.allocate(8).num_dpus == 8

    def test_aggregate_bandwidth_property(self, system):
        assert system.aggregate_bandwidth == pytest.approx(8 * 700e6)

    def test_split_into_clusters(self, system):
        dpu_set = system.allocate()
        subsets = dpu_set.split(3)
        assert [s.num_dpus for s in subsets] == [3, 3, 2]
        assert sum(s.num_dpus for s in subsets) == 8

    def test_split_more_than_dpus_rejected(self, system):
        dpu_set = system.allocate()
        with pytest.raises(ConfigurationError):
            dpu_set.split(9)


class TestTransfers:
    def test_scatter_and_gather_round_trip(self, system):
        dpu_set = system.allocate(4)
        arrays = [np.full(16, i, dtype=np.uint8) for i in range(4)]
        report = dpu_set.scatter("buf", arrays)
        assert report.total_bytes == 64
        assert report.simulated_seconds > 0
        gathered, gather_report = dpu_set.gather("buf", 16)
        for i, arr in enumerate(gathered):
            assert np.array_equal(arr, arrays[i])
        assert gather_report.direction == "dpu_to_host"

    def test_broadcast(self, system):
        dpu_set = system.allocate(4)
        payload = np.arange(8, dtype=np.uint8)
        report = dpu_set.broadcast("shared", payload)
        assert report.total_bytes == 32
        for dpu in dpu_set.dpus:
            assert np.array_equal(dpu.load("shared"), payload)

    def test_scatter_count_mismatch(self, system):
        dpu_set = system.allocate(4)
        with pytest.raises(TransferError):
            dpu_set.scatter("buf", [np.zeros(4, dtype=np.uint8)] * 3)

    def test_broadcast_faster_than_scatter_per_byte(self, system):
        """Broadcast bandwidth exceeds scatter bandwidth in the cost model."""
        dpu_set = system.allocate(4)
        arrays = [np.zeros(1 << 16, dtype=np.uint8) for _ in range(4)]
        scatter = dpu_set.scatter("a", arrays)
        broadcast = dpu_set.broadcast("b", arrays[0])
        assert broadcast.effective_bandwidth > scatter.effective_bandwidth

    def test_transfer_engine_tracks_totals(self, system):
        dpu_set = system.allocate(2)
        dpu_set.scatter("x", [np.zeros(8, dtype=np.uint8)] * 2)
        dpu_set.gather("x", 8)
        assert dpu_set.transfer.bytes_to_dpus == 16
        assert dpu_set.transfer.bytes_from_dpus == 16

    def test_gather_rejects_zero_bytes(self, system):
        dpu_set = system.allocate(2)
        dpu_set.scatter("x", [np.zeros(8, dtype=np.uint8)] * 2)
        with pytest.raises(TransferError):
            dpu_set.gather("x", 0)


class TestCollectiveLaunch:
    def test_distributed_dpxor_matches_reference(self, system):
        db = Database.random(512, 32, seed=13)
        selector = np.random.default_rng(1).integers(0, 2, 512, dtype=np.uint8)
        dpu_set = system.allocate()
        bounds = db.chunk_bounds(dpu_set.num_dpus)
        dpu_set.load_program("dpxor")
        dpu_set.scatter(DB_BUFFER, [db.chunk(a, b).reshape(-1) for a, b in bounds])
        dpu_set.scatter(SELECTOR_BUFFER, [pack_selectors(selector[a:b]) for a, b in bounds])
        launch = dpu_set.launch(
            DpXorManyKernel(),
            per_dpu_kwargs=[
                {"num_records": b - a, "record_size": 32, "batch": 1} for a, b in bounds
            ],
        )
        combined = np.bitwise_xor.reduce(np.stack(launch.results()), axis=0)[0]
        assert np.array_equal(combined, dpxor(db.records, pack_selectors(selector)))

    def test_launch_report_structure(self, system):
        db = Database.random(64, 16, seed=2)
        dpu_set = system.allocate(4)
        bounds = db.chunk_bounds(4)
        dpu_set.scatter(DB_BUFFER, [db.chunk(a, b).reshape(-1) for a, b in bounds])
        dpu_set.scatter(
            SELECTOR_BUFFER,
            [pack_selectors(np.ones(b - a, dtype=np.uint8)) for a, b in bounds],
        )
        launch = dpu_set.launch(
            DpXorManyKernel(),
            per_dpu_kwargs=[
                {"num_records": b - a, "record_size": 16, "batch": 1} for a, b in bounds
            ],
        )
        assert launch.num_dpus == 4
        assert len(launch.reports) == 4
        assert launch.simulated_seconds >= launch.max_dpu_seconds
        assert launch.launch_overhead_seconds > 0
        assert launch.total_instructions > 0

    def test_per_dpu_kwargs_length_checked(self, system):
        dpu_set = system.allocate(4)
        with pytest.raises(KernelError):
            dpu_set.launch(DpXorManyKernel(), per_dpu_kwargs=[{}] * 3)

    def test_empty_dpu_set_rejected(self, system):
        with pytest.raises(ConfigurationError):
            DPUSet([], PIMTimingModel(PIMConfig()))


class TestTransferEngineDirect:
    def test_scatter_requires_matching_arrays(self):
        engine = TransferEngine(PIMTimingModel(PIMConfig()))
        with pytest.raises(TransferError):
            engine.scatter([DPU(0)], "x", [])

    def test_broadcast_requires_dpus(self):
        engine = TransferEngine(PIMTimingModel(PIMConfig()))
        with pytest.raises(TransferError):
            engine.broadcast([], "x", np.zeros(4, dtype=np.uint8))
