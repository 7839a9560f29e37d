"""Analytic estimators: scaling behaviour and cross-system relationships."""

import pytest

from repro.bench.estimators import (
    CPUEstimator,
    GPUEstimator,
    IMPIREstimator,
    MotivationEstimator,
)
from repro.core.config import IMPIRConfig
from repro.core.results import PHASE_COPY_IN, PHASE_DPXOR, PHASE_EVAL
from repro.workloads.generator import DatabaseSpec

SPEC_1GIB = DatabaseSpec.from_size_gib(1.0)
SPEC_8GIB = DatabaseSpec.from_size_gib(8.0)


class TestIMPIREstimator:
    @pytest.fixture(scope="class")
    def estimator(self):
        return IMPIREstimator()

    def test_latency_grows_with_db_size(self, estimator):
        assert estimator.single_query_latency(SPEC_8GIB) > estimator.single_query_latency(SPEC_1GIB)

    def test_breakdown_is_eval_dominant(self, estimator):
        """Take-away 4: in IM-PIR the host-side DPF evaluation dominates."""
        breakdown = estimator.query_breakdown(SPEC_8GIB)
        fractions = breakdown.fractions()
        assert fractions[PHASE_EVAL] > 0.5
        assert fractions[PHASE_EVAL] > fractions[PHASE_DPXOR]

    def test_dpu_chain_scales_with_fewer_dpus(self, estimator):
        full = estimator.batched_dpu_chain_breakdown(SPEC_1GIB, 1, dpus=2048).get(PHASE_DPXOR)
        quarter = estimator.batched_dpu_chain_breakdown(SPEC_1GIB, 1, dpus=512).get(PHASE_DPXOR)
        assert quarter > full

    def test_batch_throughput_improves_with_batch_size(self, estimator):
        small = estimator.batch_estimate(SPEC_1GIB, 4)
        large = estimator.batch_estimate(SPEC_1GIB, 64)
        assert large.throughput_qps > small.throughput_qps
        assert large.latency_seconds > small.latency_seconds

    def test_clustering_helps_at_one_gib(self):
        single = IMPIREstimator(IMPIRConfig(num_clusters=1)).batch_estimate(SPEC_1GIB, 64)
        clustered = IMPIREstimator(IMPIRConfig(num_clusters=8)).batch_estimate(SPEC_1GIB, 64)
        assert clustered.throughput_qps >= single.throughput_qps

    def test_estimate_has_per_query_breakdown(self, estimator):
        estimate = estimator.batch_estimate(SPEC_1GIB, 32)
        assert estimate.per_query_breakdown.get(PHASE_COPY_IN) > 0
        assert estimate.per_query_latency > 0


class TestCPUEstimator:
    @pytest.fixture(scope="class")
    def estimator(self):
        return CPUEstimator()

    def test_breakdown_is_dpxor_dominant(self, estimator):
        fractions = estimator.query_breakdown(SPEC_8GIB).fractions()
        assert fractions["dpxor"] > fractions["eval"]

    def test_throughput_drops_with_db_size(self, estimator):
        assert (
            estimator.batch_estimate(SPEC_8GIB, 32).throughput_qps
            < estimator.batch_estimate(SPEC_1GIB, 32).throughput_qps
        )


class TestGPUEstimator:
    @pytest.fixture(scope="class")
    def estimator(self):
        return GPUEstimator()

    def test_throughput_drops_with_db_size(self, estimator):
        assert (
            estimator.batch_estimate(SPEC_8GIB, 32).throughput_qps
            < estimator.batch_estimate(SPEC_1GIB, 32).throughput_qps
        )


class TestCrossSystemClaims:
    """The paper's comparative claims, asserted at the model level."""

    def test_impir_beats_cpu_at_every_paper_db_size(self):
        impir, cpu = IMPIREstimator(), CPUEstimator()
        for size in (0.5, 1.0, 2.0, 4.0, 8.0):
            spec = DatabaseSpec.from_size_gib(size)
            assert (
                impir.batch_estimate(spec, 32).throughput_qps
                > cpu.batch_estimate(spec, 32).throughput_qps
            )

    def test_speedup_grows_with_db_size(self):
        """Fig. 9(a): the IM-PIR advantage widens as the database grows."""
        impir, cpu = IMPIREstimator(), CPUEstimator()

        def speedup(size):
            spec = DatabaseSpec.from_size_gib(size)
            return (
                impir.batch_estimate(spec, 32).throughput_qps
                / cpu.batch_estimate(spec, 32).throughput_qps
            )

        assert speedup(8.0) > speedup(2.0) > speedup(0.5)
        assert speedup(0.5) > 1.3
        assert speedup(8.0) > 3.0

    def test_ordering_cpu_gpu_impir_at_one_gib(self):
        """Fig. 12: CPU-PIR < GPU-PIR < IM-PIR on a 1 GB database."""
        impir = IMPIREstimator().batch_estimate(SPEC_1GIB, 32).throughput_qps
        gpu = GPUEstimator().batch_estimate(SPEC_1GIB, 32).throughput_qps
        cpu = CPUEstimator().batch_estimate(SPEC_1GIB, 32).throughput_qps
        assert cpu < gpu < impir


class TestMotivationEstimator:
    def test_fig3_shape(self):
        estimator = MotivationEstimator()
        breakdown = estimator.breakdown(4.0)
        # dpXOR dominates Eval by roughly an order of magnitude; Gen is noise.
        assert breakdown.dpxor_seconds > 5 * breakdown.eval_seconds
        assert breakdown.eval_seconds > 100 * breakdown.gen_seconds
        assert 2.0 < breakdown.total_seconds < 6.0

    def test_scales_linearly(self):
        estimator = MotivationEstimator()
        assert estimator.breakdown(4.0).dpxor_seconds == pytest.approx(
            4 * estimator.breakdown(1.0).dpxor_seconds, rel=0.01
        )
