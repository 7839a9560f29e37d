"""DPU execution: tasklets, kernel launches, and the dpXOR kernel."""

import numpy as np
import pytest

from repro.common.errors import KernelError
from repro.pim.config import DPUConfig
from repro.pim.dpu import DPU
from repro.pim.kernels import (
    DB_BUFFER,
    RESULT_BUFFER,
    SELECTOR_BUFFER,
    DpXorManyKernel,
)
from repro.pim.tasklet import TaskletGroup
from repro.pir.xor_ops import pack_selectors


def selected_xor(database, selector):
    """The oracle, written here and not in the library: XOR of the selected rows."""
    return np.bitwise_xor.reduce(database[selector.astype(bool)], axis=0)


@pytest.fixture()
def loaded_dpu():
    """A DPU with a 128-record x 16-byte database block and a selector in MRAM."""
    rng = np.random.default_rng(5)
    database = rng.integers(0, 256, size=(128, 16), dtype=np.uint8)
    selector = rng.integers(0, 2, size=128, dtype=np.uint8)
    dpu = DPU(dpu_id=0, config=DPUConfig(tasklets=4))
    dpu.store(DB_BUFFER, database.reshape(-1))
    dpu.store(SELECTOR_BUFFER, pack_selectors(selector))
    return dpu, database, selector


class TestTaskletGroup:
    def test_partition_covers_range(self):
        group = TaskletGroup(num_tasklets=4)
        ranges = group.partition(10)
        assert ranges[0] == (0, 3)
        assert ranges[-1][1] == 10
        covered = sum(stop - start for start, stop in ranges)
        assert covered == 10

    def test_partition_with_idle_tasklets(self):
        group = TaskletGroup(num_tasklets=8)
        ranges = group.partition(3)
        non_empty = [r for r in ranges if r[1] > r[0]]
        assert len(non_empty) == 3

    def test_partition_zero_items(self):
        assert all(start == stop for start, stop in TaskletGroup(4).partition(0))

    def test_rejects_zero_tasklets(self):
        with pytest.raises(KernelError):
            TaskletGroup(num_tasklets=0)


class TestDPU:
    def test_store_and_load(self):
        dpu = DPU(0)
        data = np.arange(100, dtype=np.uint8)
        dpu.store("x", data)
        assert np.array_equal(dpu.load("x"), data)

    def test_program_loading_enforced(self):
        dpu = DPU(0)
        dpu.load_program("other-kernel")
        with pytest.raises(KernelError):
            dpu.launch(DpXorManyKernel(), batch=1, num_records=0, record_size=8)

    def test_launch_advances_busy_time(self, loaded_dpu):
        dpu, database, selector = loaded_dpu
        dpu.load_program(DpXorManyKernel.name)
        report = dpu.launch(DpXorManyKernel(), batch=1, num_records=128, record_size=16)
        assert report.simulated_seconds > 0
        assert dpu.busy_seconds == report.simulated_seconds
        assert dpu.launches == 1
        assert np.array_equal(dpu.load(RESULT_BUFFER), selected_xor(database, selector))

    def test_negative_id_rejected(self):
        with pytest.raises(KernelError):
            DPU(-1)


class TestDpXorKernel:
    def test_matches_reference_dpxor(self, loaded_dpu):
        dpu, database, selector = loaded_dpu
        report = dpu.launch(DpXorManyKernel(), batch=1, num_records=128, record_size=16)
        assert np.array_equal(report.result[0], selected_xor(database, selector))
        assert np.array_equal(dpu.load(RESULT_BUFFER), selected_xor(database, selector))

    def test_report_accounting(self, loaded_dpu):
        dpu, database, selector = loaded_dpu
        report = dpu.launch(DpXorManyKernel(), batch=1, num_records=128, record_size=16)
        assert report.kernel_name == "dpxor"
        assert report.tasklets_used == 4
        assert report.details["records"] == 128
        assert report.details["records_selected"] == int(selector.sum())
        assert report.instructions > 0
        assert report.dma_bytes >= 128 * 16
        assert report.simulated_seconds > 0

    def test_all_zero_selector(self):
        dpu = DPU(0, config=DPUConfig(tasklets=2))
        database = np.ones((16, 8), dtype=np.uint8)
        dpu.store(DB_BUFFER, database.reshape(-1))
        dpu.store(SELECTOR_BUFFER, np.packbits(np.zeros(16, dtype=np.uint8)))
        report = dpu.launch(DpXorManyKernel(), batch=1, num_records=16, record_size=8)
        assert np.array_equal(report.result[0], np.zeros(8, dtype=np.uint8))

    def test_empty_block(self):
        dpu = DPU(0)
        report = dpu.launch(DpXorManyKernel(), batch=1, num_records=0, record_size=8)
        assert np.array_equal(report.result[0], np.zeros(8, dtype=np.uint8))
        assert report.instructions == 0

    def test_tasklet_count_override(self, loaded_dpu):
        dpu, database, selector = loaded_dpu
        one = dpu.launch(DpXorManyKernel(), batch=1, num_records=128, record_size=16, tasklets=1)
        many = dpu.launch(DpXorManyKernel(), batch=1, num_records=128, record_size=16, tasklets=16)
        assert np.array_equal(one.result[0], many.result[0])
        # More tasklets -> better pipeline utilisation -> faster kernel.
        assert many.simulated_seconds < one.simulated_seconds

    def test_rejects_too_many_tasklets(self, loaded_dpu):
        dpu, _, _ = loaded_dpu
        with pytest.raises(KernelError):
            dpu.launch(DpXorManyKernel(), batch=1, num_records=128, record_size=16, tasklets=32)

    def test_rejects_negative_records(self, loaded_dpu):
        dpu, _, _ = loaded_dpu
        with pytest.raises(KernelError):
            dpu.launch(DpXorManyKernel(), batch=1, num_records=-1, record_size=16)

    def test_varied_record_sizes(self):
        rng = np.random.default_rng(9)
        for record_size in (8, 24, 32, 64):
            database = rng.integers(0, 256, size=(64, record_size), dtype=np.uint8)
            selector = rng.integers(0, 2, size=64, dtype=np.uint8)
            dpu = DPU(0, config=DPUConfig(tasklets=3))
            dpu.store(DB_BUFFER, database.reshape(-1))
            dpu.store(SELECTOR_BUFFER, pack_selectors(selector))
            report = dpu.launch(DpXorManyKernel(), batch=1, num_records=64, record_size=record_size)
            assert np.array_equal(report.result[0], selected_xor(database, selector))

