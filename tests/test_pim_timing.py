"""PIM timing model: cost formula behaviour and internal consistency."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import MIB
from repro.pim.config import DPUConfig, UPMEM_PAPER_CONFIG
from repro.pim.timing import PIMTimingModel, dpxor_kernel_cost, dpxor_launch_seconds


@pytest.fixture(scope="module")
def timing():
    return PIMTimingModel(UPMEM_PAPER_CONFIG)


class TestDpxorKernelCost:
    def test_scales_linearly_with_chunk_size(self, timing):
        small = timing.dpu_dpxor_cost(1 * MIB, 32).total_seconds
        large = timing.dpu_dpxor_cost(4 * MIB, 32).total_seconds
        assert large == pytest.approx(4 * small, rel=0.05)

    def test_zero_chunk_costs_only_reduction(self, timing):
        cost = timing.dpu_dpxor_cost(0, 32)
        assert cost.dma_seconds == 0.0
        assert cost.compute_seconds == 0.0
        assert cost.reduction_seconds > 0.0

    def test_selected_fraction_increases_compute(self, timing):
        low = timing.dpu_dpxor_cost(1 * MIB, 32, selected_fraction=0.0)
        high = timing.dpu_dpxor_cost(1 * MIB, 32, selected_fraction=1.0)
        assert high.compute_seconds > low.compute_seconds
        assert high.dma_seconds == pytest.approx(low.dma_seconds)

    def test_more_tasklets_reduce_compute_time(self, timing):
        few = timing.dpu_dpxor_cost(1 * MIB, 32, tasklets=2)
        many = timing.dpu_dpxor_cost(1 * MIB, 32, tasklets=16)
        assert many.compute_seconds < few.compute_seconds

    def test_tasklet_benefit_saturates_at_pipeline_depth(self, timing):
        """Beyond ~11 tasklets the pipeline is full — the paper's §5.2 choice of 16."""
        at_11 = timing.dpu_dpxor_cost(1 * MIB, 32, tasklets=11).compute_seconds
        at_16 = timing.dpu_dpxor_cost(1 * MIB, 32, tasklets=16).compute_seconds
        assert at_16 == pytest.approx(at_11, rel=1e-6)

    def test_32_byte_records_are_instruction_bound(self, timing):
        """For the paper's record size the in-order pipeline, not DMA, limits
        throughput — why effective rates sit well below the 700 MB/s DMA peak."""
        cost = timing.dpu_dpxor_cost(4 * MIB, 32)
        assert cost.compute_seconds > cost.dma_seconds

    def test_effective_bandwidth_below_dma_peak(self, timing):
        effective = timing.dpu_effective_dpxor_bandwidth(32)
        assert 50e6 < effective < UPMEM_PAPER_CONFIG.dpu.mram_wram_bandwidth

    def test_invalid_arguments(self, timing):
        with pytest.raises(ConfigurationError):
            timing.dpu_dpxor_cost(-1, 32)
        with pytest.raises(ConfigurationError):
            timing.dpu_dpxor_cost(1024, 0)
        with pytest.raises(ConfigurationError):
            timing.dpu_dpxor_cost(1024, 32, selected_fraction=1.5)
        with pytest.raises(ConfigurationError):
            timing.dpu_dpxor_cost(1024, 32, tasklets=0)

    def test_free_function_matches_method(self, timing):
        via_method = timing.dpu_dpxor_cost(2 * MIB, 32).total_seconds
        via_function = dpxor_kernel_cost(UPMEM_PAPER_CONFIG.dpu, 2 * MIB, 32).total_seconds
        assert via_method == pytest.approx(via_function)


class TestTransfersAndLaunch:
    def test_transfer_time_has_fixed_latency(self, timing):
        assert timing.host_to_dpu_seconds(0) == pytest.approx(
            UPMEM_PAPER_CONFIG.transfer.transfer_latency_s
        )

    def test_transfer_scales_with_bytes(self, timing):
        one = timing.host_to_dpu_seconds(1 << 20)
        four = timing.host_to_dpu_seconds(4 << 20)
        assert four > one

    def test_gather_slower_per_byte_than_scatter(self, timing):
        """DPU->host bandwidth is lower than host->DPU in UPMEM systems."""
        size = 64 << 20
        assert timing.dpu_to_host_seconds(size) > timing.host_to_dpu_seconds(size)

    def test_broadcast_faster_than_scatter(self, timing):
        size = 64 << 20
        assert timing.host_broadcast_seconds(size) < timing.host_to_dpu_seconds(size)

    def test_launch_scales_with_population(self, timing):
        assert timing.launch_seconds(2048) > timing.launch_seconds(256)
        assert timing.launch_seconds() == timing.launch_seconds(UPMEM_PAPER_CONFIG.num_dpus)

    def test_negative_bytes_rejected(self, timing):
        with pytest.raises(ConfigurationError):
            timing.host_to_dpu_seconds(-1)
        with pytest.raises(ConfigurationError):
            timing.dpu_to_host_seconds(-1)


class TestHostModel:
    def test_eval_time_scales_with_leaves(self, timing):
        small = timing.host_dpf_eval_seconds(1 << 20)
        large = timing.host_dpf_eval_seconds(1 << 24)
        assert large == pytest.approx(16 * small, rel=0.01)

    def test_more_threads_faster(self, timing):
        single = timing.host_dpf_eval_seconds(1 << 22, threads=1)
        many = timing.host_dpf_eval_seconds(1 << 22, threads=32)
        assert many < single

    def test_single_thread_has_no_scaling_penalty(self, timing):
        host = UPMEM_PAPER_CONFIG.host
        expected = (1 << 20) * 2.0 / host.aes_blocks_per_second_per_thread
        assert timing.host_dpf_eval_seconds(1 << 20, threads=1) == pytest.approx(expected)

    def test_aggregate_xor_cost_small(self, timing):
        assert timing.host_aggregate_xor_seconds(2048, 32) < 1e-3

    def test_invalid_arguments(self, timing):
        with pytest.raises(ConfigurationError):
            timing.host_dpf_eval_seconds(-1)
        with pytest.raises(ConfigurationError):
            timing.host_dpf_eval_seconds(10, threads=0)
        with pytest.raises(ConfigurationError):
            timing.host_aggregate_xor_seconds(-1, 32)


class TestCrossConsistency:
    def test_kernel_report_uses_same_formula(self):
        """The functional kernel's simulated time equals the analytic cost for
        the same chunk/record/tasklet/selected-fraction parameters."""
        from repro.pim.dpu import DPU
        from repro.pim.kernels import DB_BUFFER, SELECTOR_BUFFER, DpXorManyKernel
        from repro.pir.xor_ops import pack_selectors

        config = DPUConfig(tasklets=8)
        rng = np.random.default_rng(3)
        num_records, record_size = 256, 32
        database = rng.integers(0, 256, size=(num_records, record_size), dtype=np.uint8)
        selector = rng.integers(0, 2, size=num_records, dtype=np.uint8)

        dpu = DPU(0, config=config)
        dpu.store(DB_BUFFER, database.reshape(-1))
        dpu.store(SELECTOR_BUFFER, pack_selectors(selector))
        report = dpu.launch(
            DpXorManyKernel(), batch=1, num_records=num_records, record_size=record_size
        )

        expected = dpxor_kernel_cost(
            config,
            chunk_bytes=num_records * record_size,
            record_size=record_size,
            selected_fraction=float(selector.sum()) / num_records,
            tasklets=8,
        ).total_seconds
        assert report.simulated_seconds == pytest.approx(expected)

    @pytest.mark.parametrize("record_size,tasklets", [(8, 1), (13, 11), (32, 16), (64, 24)])
    def test_launch_seconds_is_the_scalar_formula_row_by_row(self, record_size, tasklets):
        """The vectorised per-DPU launch cost equals adding the scalar cost
        row after row, float-exactly (empty DPUs priced at fraction 0)."""
        config = DPUConfig(tasklets=tasklets)
        rng = np.random.default_rng(record_size)
        records = np.array([0, 1, 7, 100, 513, 0, 4096])
        selected = rng.integers(0, records + 1, size=(17, records.size))
        per_dpu = dpxor_launch_seconds(config, records, record_size, selected)
        for column, num_records in enumerate(records.tolist()):
            expected = 0.0
            for count in selected[:, column].tolist():
                expected += dpxor_kernel_cost(
                    config,
                    chunk_bytes=num_records * record_size,
                    record_size=record_size,
                    selected_fraction=count / num_records if num_records else 0.0,
                ).total_seconds
            assert float(per_dpu[column]).hex() == expected.hex()
