"""Failure injection: capacity limits, misuse and paper-scale boundary cases.

These tests exercise the error paths a deployment would actually hit — a
database that overflows MRAM, WRAM working sets that do not fit, transfers to
missing buffers — and the capacity arithmetic at the paper's real sizes.
"""

import numpy as np
import pytest

from repro.common.errors import CapacityError, TransferError
from repro.common.units import GIB, MIB
from repro.core.config import IMPIRConfig
from repro.core.engine import create_server
from repro.core.partitioning import PartitionLayout, check_mram_capacity
from repro.pim.config import DPUConfig, PIMConfig, scaled_down_config
from repro.pim.dpu import DPU
from repro.pim.kernels import (
    DB_BUFFER,
    SELECTOR_BUFFER,
    DpXorManyKernel,
    check_dpxor_wram,
    reserve_dpxor_wram,
)
from repro.pir.database import Database


def _cluster_layout(size_bytes, num_clusters, total_dpus=2048, record_size=32):
    """The layout one of ``num_clusters`` clusters holds (no huge buffers)."""
    return PartitionLayout.linear(size_bytes // record_size, record_size, total_dpus // num_clusters)


class TestPaperScaleCapacityArithmetic:
    def test_paper_platform_holds_32_gib(self):
        """2,048 DPUs x 64 MB (75% usable) comfortably hold the 32 GB sweep max."""
        block = check_mram_capacity(_cluster_layout(32 * GIB, 1), 64 * MIB)
        assert block <= int(64 * MIB * 0.75)

    def test_eight_clusters_hold_one_gib(self):
        """The Fig. 11 configuration: 8 clusters of 256 DPUs each hold 1 GB."""
        layout = _cluster_layout(1 * GIB, 8)
        assert layout.num_dpus == 256
        assert check_mram_capacity(layout, 64 * MIB) <= int(64 * MIB * 0.75)

    def test_eight_clusters_cannot_hold_96_gib(self):
        with pytest.raises(CapacityError):
            check_mram_capacity(_cluster_layout(96 * GIB, 8), 64 * MIB)

    def test_layout_capacity_check_at_paper_scale(self):
        layout = PartitionLayout(
            num_records=(8 * GIB) // 32,
            record_size=32,
            bounds=tuple(
                (i * ((8 * GIB) // 32 // 2048), (i + 1) * ((8 * GIB) // 32 // 2048))
                for i in range(2048)
            ),
        )
        check_mram_capacity(layout, mram_bytes_per_dpu=64 * MIB)
        with pytest.raises(CapacityError):
            check_mram_capacity(layout, mram_bytes_per_dpu=2 * MIB)


class TestMRAMOverflowPaths:
    def test_scatter_beyond_mram_capacity(self):
        dpu = DPU(0, config=scaled_down_config(num_dpus=2, tasklets=2).dpu)
        with pytest.raises(CapacityError):
            dpu.store("big", np.zeros(65 * MIB, dtype=np.uint8))

    def test_second_allocation_that_no_longer_fits(self):
        dpu = DPU(0, config=DPUConfig())
        dpu.store("a", np.zeros(60 * MIB, dtype=np.uint8))
        with pytest.raises(CapacityError):
            dpu.store("b", np.zeros(10 * MIB, dtype=np.uint8))

    def test_rewriting_existing_buffer_with_larger_payload(self):
        # Batched dispatches legitimately grow a buffer flush to flush, so a
        # larger rewrite reallocates in place — but it is still
        # capacity-checked, never a silent overflow.
        dpu = DPU(0, config=DPUConfig())
        dpu.store("buf", np.zeros(1024, dtype=np.uint8))
        grown = np.arange(2048, dtype=np.uint8) % 251
        dpu.store("buf", grown)
        assert np.array_equal(dpu.load("buf"), grown)
        with pytest.raises(CapacityError):
            dpu.store("buf", np.zeros(65 * MIB, dtype=np.uint8))

    def test_gather_from_missing_buffer(self):
        dpu = DPU(0, config=scaled_down_config(num_dpus=2, tasklets=2).dpu)
        with pytest.raises(TransferError):
            dpu.load("never_written", size_bytes=32)


class TestWRAMOverflowPaths:
    def test_kernel_with_giant_records_overflows_wram(self):
        """Per-tasklet accumulators for multi-KB records exceed 64 KB WRAM."""
        dpu = DPU(0, config=DPUConfig(tasklets=24))
        record_size = 8192
        num_records = 8
        database = np.zeros((num_records, record_size), dtype=np.uint8)
        dpu.store(DB_BUFFER, database.reshape(-1))
        dpu.store(SELECTOR_BUFFER, np.packbits(np.ones(num_records, dtype=np.uint8)))
        with pytest.raises(CapacityError):
            dpu.launch(DpXorManyKernel(), batch=1, num_records=num_records, record_size=record_size)

    def test_same_records_fit_with_fewer_tasklets(self):
        dpu = DPU(0, config=DPUConfig(tasklets=4))
        record_size = 8192
        num_records = 8
        database = np.arange(num_records * record_size, dtype=np.uint8).reshape(num_records, record_size)
        dpu.store(DB_BUFFER, database.reshape(-1))
        dpu.store(SELECTOR_BUFFER, np.packbits(np.ones(num_records, dtype=np.uint8)))
        report = dpu.launch(
            DpXorManyKernel(), batch=1, num_records=num_records, record_size=record_size, tasklets=2
        )
        assert report.result[0].shape == (record_size,)

    @pytest.mark.parametrize(
        "tasklets,record_size",
        [(1, 8), (1, 63487), (1, 63488), (4, 14335), (4, 14336), (16, 2047), (16, 2048),
         (16, 8192), (24, 32), (24, 682), (24, 683)],
    )
    @pytest.mark.parametrize("num_records", [0, 1, 4096])
    def test_prepare_arithmetic_matches_the_kernel_reservation(
        self, tasklets, record_size, num_records
    ):
        """``check_dpxor_wram`` (serving) fails exactly where the executing
        kernel's reservations would, including at the exact-fit boundary."""
        config = DPUConfig(tasklets=tasklets)
        outcomes = []
        for check in (
            lambda: reserve_dpxor_wram(DPU(0, config), num_records, record_size, tasklets),
            lambda: check_dpxor_wram(config, record_size),
        ):
            try:
                check()
                outcomes.append(True)
            except CapacityError:
                outcomes.append(False)
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("kind", ["im-pir", "im-pir-streamed"])
    def test_server_construction_checks_the_working_set(self, kind):
        """Serving never launches the kernel, so prepare reserves its WRAM
        working set: 4 tasklets x (2 KB block + 16 KB accumulator) > 64 KB."""
        with pytest.raises(CapacityError):
            create_server(kind, Database.random(8, 16384, seed=1))
        server = create_server(kind, Database.random(8, 8192, seed=1))
        assert server.database.record_size == 8192


class TestConfigurationBoundaries:
    def test_cannot_build_impir_on_zero_dpus(self):
        with pytest.raises(Exception):
            IMPIRConfig(pim=PIMConfig(num_dpus=0))

    def test_cannot_exceed_available_dpus(self):
        with pytest.raises(Exception):
            PIMConfig(num_dpus=4096, available_dpus=2560)

    def test_full_available_population_is_valid(self):
        config = PIMConfig(num_dpus=2560, available_dpus=2560)
        assert config.total_mram_bytes == 160 * GIB

    def test_cluster_count_cannot_exceed_dpus(self):
        with pytest.raises(Exception):
            IMPIRConfig(pim=scaled_down_config(num_dpus=4), num_clusters=5)
