"""Figure 9 — query throughput and latency vs database size and batch size.

Paper reference (§5.3, Fig. 9): with a batch of 32 queries, IM-PIR improves
throughput over CPU-PIR by 1.7x at 0.5 GB, growing to more than 3.7x at 8 GB;
at a fixed 1 GB database the improvement averages ~2.6x across batch sizes.
"""

from __future__ import annotations

import pytest

from repro.bench import paper_reference as paper
from repro.bench.figures import fig9_throughput_latency
from repro.bench.reporting import render_fig9
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient


class TestRegenerateFigure9:
    def test_fig9_series(self, benchmark):
        result = benchmark(
            fig9_throughput_latency,
            batch_sizes=(4, 8, 16, 32, 64, 128, 256, 512),
        )
        print("\n" + render_fig9(result))
        speedups = result.speedup_vs_db_size.throughput_speedups
        assert speedups[8.0] > speedups[0.5] > 1.2
        assert speedups[8.0] == pytest.approx(paper.FIG9_SPEEDUP_AT_8_GIB, abs=1.0)
        assert result.speedup_vs_batch_size.mean_throughput_speedup == pytest.approx(
            paper.FIG9_MEAN_SPEEDUP_AT_1_GIB, abs=0.8
        )


class TestFunctionalBatch:
    """Measured wall-clock of batch answering on the functional simulators."""

    def test_impir_batch_of_8(self, benchmark, bench_db, bench_impir_config):
        server = create_server("im-pir", bench_db, config=bench_impir_config, server_id=0)
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=1, prg=make_prg())
        queries = [client.query(i * 97 % bench_db.num_records)[0] for i in range(8)]
        result = benchmark(server.answer_batch, queries)
        assert result.batch_size == 8

    def test_cpu_batch_of_8(self, benchmark, bench_db):
        server = create_server("cpu", bench_db, server_id=0, prg=make_prg())
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=2, prg=make_prg())
        queries = [client.query(i * 31 % bench_db.num_records)[0] for i in range(8)]
        result = benchmark(server.answer_batch, queries)
        assert len(result.answers) == 8

    def test_impir_single_query(self, benchmark, bench_db, bench_impir_config):
        server = create_server("im-pir", bench_db, config=bench_impir_config, server_id=0)
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=3, prg=make_prg())
        query = client.query(777)[0]
        result = benchmark(server.answer, query)
        assert result.answer.payload == bench_db.record(777) or len(result.answer.payload) == 32
