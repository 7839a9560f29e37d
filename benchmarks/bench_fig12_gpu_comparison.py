"""Figure 12 — comparison with the GPU-PIR baseline of Lam et al.

Paper reference (§5.5): on databases up to 1 GB, IM-PIR achieves up to 1.34x
the throughput of GPU-PIR (and ~1.3x lower latency), while GPU-PIR itself
improves on CPU-PIR by up to 1.36x — i.e. CPU < GPU < PIM.
"""

from __future__ import annotations

import pytest

from repro.bench import paper_reference as paper
from repro.bench.figures import fig12_gpu_comparison
from repro.bench.reporting import render_fig12
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient


class TestRegenerateFigure12:
    def test_fig12_series(self, benchmark):
        result = benchmark(fig12_gpu_comparison)
        print("\n" + render_fig12(result))
        # Ordering CPU < GPU < IM-PIR holds for the 0.5-1 GB range.
        for size in (0.5, 0.75, 1.0):
            cpu = result.series["CPU-PIR"].point_at(size).throughput_qps
            gpu = result.series["GPU-PIR"].point_at(size).throughput_qps
            impir = result.series["IM-PIR"].point_at(size).throughput_qps
            assert cpu < gpu < impir
        assert result.gpu_over_cpu.max_throughput_speedup == pytest.approx(
            paper.FIG12_GPU_OVER_CPU, abs=0.5
        )
        assert result.impir_over_gpu.max_throughput_speedup > 1.0


class TestFunctionalGPUBaseline:
    def test_gpu_server_batch(self, benchmark, bench_db):
        server = create_server("gpu", bench_db, server_id=0, prg=make_prg())
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=4, prg=make_prg())
        queries = [client.query(i * 19 % bench_db.num_records)[0] for i in range(8)]
        result = benchmark(server.answer_batch, queries)
        assert len(result.answers) == 8

    def test_gpu_single_query_breakdown(self, benchmark, bench_db):
        server = create_server("gpu", bench_db, server_id=0, prg=make_prg())
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=5, prg=make_prg())
        query = client.query(99)[0]
        benchmark(server.answer, query)
        breakdown = server.backend.model.single_query_breakdown(
            bench_db.num_records, bench_db.record_size
        )
        assert breakdown.total > 0
