"""CPU baseline: cache model, cost model and CPU-PIR server."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import GIB, MIB
from repro.core.engine import create_server
from repro.cpu.cache import CacheModel
from repro.cpu.config import CPU_BASELINE_CONFIG, CPUConfig
from repro.cpu.model import PHASE_DPXOR, PHASE_EVAL, CPUModel
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient


class TestCPUConfig:
    def test_paper_baseline_machine(self):
        config = CPU_BASELINE_CONFIG
        assert config.total_cores == 32
        assert config.total_threads == 64
        assert config.llc_bytes == 40 * MIB
        assert config.dram_bytes == 128 * GIB

    def test_with_query_threads(self):
        assert CPU_BASELINE_CONFIG.with_query_threads(16).query_threads == 16

    def test_invalid_contention_rejected(self):
        with pytest.raises(ConfigurationError):
            CPUConfig(stream_contention_alpha=1.5)


class TestCacheModel:
    @pytest.fixture()
    def cache(self):
        return CacheModel(CPU_BASELINE_CONFIG)

    def test_llc_residency(self, cache):
        assert cache.fits_in_llc(10 * MIB)
        assert not cache.fits_in_llc(100 * MIB)

    def test_llc_resident_scan_is_fast(self, cache):
        resident = cache.streaming_bandwidth(8 * MIB, concurrent_streams=1)
        dram = cache.streaming_bandwidth(1 * GIB, concurrent_streams=1)
        assert resident.served_from_llc
        assert not dram.served_from_llc
        assert resident.per_stream_bandwidth > dram.per_stream_bandwidth

    def test_contention_reduces_aggregate_efficiency(self, cache):
        assert cache.dram_efficiency(32) < cache.dram_efficiency(2) <= 1.0

    def test_per_stream_bandwidth_capped_by_single_thread(self, cache):
        estimate = cache.streaming_bandwidth(1 * GIB, concurrent_streams=1)
        assert estimate.per_stream_bandwidth <= CPU_BASELINE_CONFIG.single_thread_stream_bandwidth

    def test_per_stream_bandwidth_shrinks_with_streams(self, cache):
        alone = cache.streaming_bandwidth(1 * GIB, 1).per_stream_bandwidth
        crowded = cache.streaming_bandwidth(1 * GIB, 32).per_stream_bandwidth
        assert crowded < alone

    def test_scan_seconds_unloaded_ignores_contention(self, cache):
        loaded = cache.scan_seconds(1 * GIB, concurrent_streams=32)
        unloaded = cache.scan_seconds(1 * GIB, concurrent_streams=32, unloaded=True)
        assert unloaded < loaded

    def test_zero_bytes_is_free(self, cache):
        assert cache.scan_seconds(0) == 0.0

    def test_invalid_streams_rejected(self, cache):
        with pytest.raises(ConfigurationError):
            cache.dram_efficiency(0)


class TestCPUModel:
    @pytest.fixture()
    def model(self):
        return CPUModel(CPU_BASELINE_CONFIG)

    def test_eval_scales_with_threads(self, model):
        assert model.dpf_eval_seconds(1 << 24, threads=32) < model.dpf_eval_seconds(1 << 24, threads=1)

    def test_dpxor_scales_with_db(self, model):
        assert model.dpxor_seconds(8 * GIB) > model.dpxor_seconds(1 * GIB)

    def test_single_query_breakdown_is_dpxor_dominant(self, model):
        """The paper's Table 1: CPU-PIR spends >60% of a query in dpXOR."""
        breakdown = model.single_query_breakdown(num_records=(8 * GIB) // 32, record_size=32)
        fractions = breakdown.fractions()
        assert fractions[PHASE_DPXOR] > 0.6
        assert fractions[PHASE_EVAL] < 0.4

    def test_batch_latency_grows_with_db_size(self, model):
        small = model.batch_estimate((GIB) // 32, 32, 32)
        large = model.batch_estimate((8 * GIB) // 32, 32, 32)
        assert large.latency_seconds > small.latency_seconds
        assert large.throughput_qps < small.throughput_qps

    def test_batch_throughput_saturates_with_batch_size(self, model):
        """Once every query thread is busy, more queries do not add throughput."""
        num_records = GIB // 32
        at_32 = model.batch_estimate(num_records, 32, 32).throughput_qps
        at_512 = model.batch_estimate(num_records, 32, 512).throughput_qps
        assert at_512 == pytest.approx(at_32, rel=0.25)

    def test_batch_estimate_bounds_consistent(self, model):
        estimate = model.batch_estimate(GIB // 32, 32, 32)
        assert estimate.latency_seconds >= estimate.compute_bound_seconds
        assert estimate.latency_seconds >= estimate.bandwidth_bound_seconds
        assert estimate.latency_seconds >= estimate.critical_path_seconds

    def test_invalid_batch_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.batch_estimate(100, 32, 0)


class TestCPUPIRServer:
    @pytest.fixture()
    def setup(self, small_db):
        client = PIRClient(small_db.num_records, small_db.record_size, seed=3, prg=make_prg())
        server = create_server("cpu", small_db, server_id=0, prg=make_prg())
        return client, server, small_db

    def test_functional_answers_match_reference(self, setup):
        client, server, db = setup
        reference = create_server("reference", db, server_id=0, prg=make_prg())
        query = client.query(321)[0]
        assert server.answer(query).answer.payload == reference.answer(query).answer.payload

    def test_answer_with_breakdown(self, setup):
        client, server, db = setup
        server.answer(client.query(5)[0])
        breakdown = server.backend.model.single_query_breakdown(
            db.num_records, db.record_size
        )
        assert breakdown.total > 0
        assert breakdown.get(PHASE_DPXOR) > 0

    def test_answer_batch(self, setup):
        client, server, db = setup
        queries = [client.query(i)[0] for i in range(4)]
        batch = server.answer_batch(queries)
        assert len(batch.answers) == 4
        assert batch.throughput_qps > 0
        assert batch.latency_seconds > 0

    def test_estimate_helpers_scale(self, setup):
        _, server, _ = setup
        model = server.backend.model
        small = model.batch_estimate(GIB // 32, 32, 32)
        large = model.batch_estimate(4 * GIB // 32, 32, 32)
        assert large.latency_seconds > small.latency_seconds
        assert model.single_query_breakdown(GIB // 32, 32).total > 0
