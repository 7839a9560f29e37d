"""GPU baseline: cost model and GPU-PIR server."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import GIB
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.gpu.config import GPU_BASELINE_CONFIG, GPUConfig
from repro.gpu.model import PHASE_DPXOR, PHASE_EVAL, PHASE_PCIE, GPUModel
from repro.pir.client import PIRClient


class TestGPUConfig:
    def test_paper_platform(self):
        config = GPU_BASELINE_CONFIG
        assert config.vram_bytes == 24 * GIB
        assert config.memory_bandwidth == pytest.approx(1.01e12)

    def test_vram_fit_check(self):
        assert GPU_BASELINE_CONFIG.fits_in_vram(8 * GIB)
        assert not GPU_BASELINE_CONFIG.fits_in_vram(23 * GIB)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(memory_efficiency=0.0)


class TestGPUModel:
    @pytest.fixture()
    def model(self):
        return GPUModel(GPU_BASELINE_CONFIG)

    def test_eval_and_dpxor_scale_with_db(self, model):
        assert model.dpf_eval_seconds(1 << 26) > model.dpf_eval_seconds(1 << 20)
        assert model.dpxor_seconds(8 * GIB) > model.dpxor_seconds(GIB)

    def test_vram_resident_query_has_no_pcie_phase(self, model):
        breakdown = model.single_query_breakdown(GIB // 32, 32)
        assert breakdown.get(PHASE_PCIE) == 0.0
        assert breakdown.get(PHASE_EVAL) > 0
        assert breakdown.get(PHASE_DPXOR) > 0

    def test_vram_overflow_adds_pcie_streaming(self, model):
        breakdown = model.single_query_breakdown((32 * GIB) // 32, 32)
        assert breakdown.get(PHASE_PCIE) > 0
        # PCIe streaming dwarfs the in-VRAM scan: the capacity cliff.
        assert breakdown.get(PHASE_PCIE) > breakdown.get(PHASE_DPXOR)

    def test_batch_estimate_scales(self, model):
        small = model.batch_estimate(GIB // 32, 32, 32)
        large = model.batch_estimate(4 * GIB // 32, 32, 32)
        assert large.latency_seconds > small.latency_seconds
        assert small.vram_resident and large.vram_resident

    def test_batch_throughput_positive(self, model):
        estimate = model.batch_estimate(GIB // 32, 32, 64)
        assert estimate.throughput_qps > 0

    def test_invalid_batch_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.batch_estimate(100, 32, 0)

    def test_gpu_faster_than_cpu_baseline_at_1gib(self, model):
        """Fig. 12's qualitative ordering: GPU-PIR beats CPU-PIR on a 1 GB DB."""
        from repro.cpu.model import CPUModel

        cpu = CPUModel()
        num_records = GIB // 32
        assert (
            model.batch_estimate(num_records, 32, 32).throughput_qps
            > cpu.batch_estimate(num_records, 32, 32).throughput_qps
        )


class TestGPUPIRServer:
    @pytest.fixture()
    def setup(self, small_db):
        client = PIRClient(small_db.num_records, small_db.record_size, seed=9, prg=make_prg())
        server = create_server("gpu", small_db, server_id=1, prg=make_prg())
        return client, server, small_db

    def test_functional_answers_match_reference(self, setup):
        client, server, db = setup
        reference = create_server("reference", db, server_id=1, prg=make_prg())
        query = client.query(17)[1]
        assert server.answer(query).answer.payload == reference.answer(query).answer.payload

    def test_vram_resident_property(self, setup):
        _, server, db = setup
        assert server.backend.model.config.fits_in_vram(db.size_bytes)

    def test_answer_with_breakdown(self, setup):
        client, server, db = setup
        server.answer(client.query(5)[1])
        breakdown = server.backend.model.single_query_breakdown(
            db.num_records, db.record_size
        )
        assert breakdown.total > 0

    def test_answer_batch(self, setup):
        client, server, _ = setup
        queries = [client.query(i)[1] for i in range(3)]
        batch = server.answer_batch(queries)
        assert len(batch.answers) == 3
        assert batch.latency_seconds > 0
        assert batch.throughput_qps > 0
