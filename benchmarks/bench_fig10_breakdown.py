"""Figure 10 — per-phase latency breakdown for IM-PIR and CPU-PIR.

Paper reference (§5.3, Fig. 10): in CPU-PIR the dpXOR scan dominates query
latency; in IM-PIR the in-memory dpXOR shrinks to a minor share and the
host-side DPF evaluation becomes the bottleneck (Take-away 4).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.figures import fig10_breakdown
from repro.bench.reporting import render_fig10
from repro.core.engine import create_server
from repro.core.results import PHASE_DPXOR, PHASE_EVAL
from repro.dpf.prf import make_prg
from repro.pim.dpu import DPU
from repro.pim.config import DPUConfig
from repro.pim.kernels import DB_BUFFER, SELECTOR_BUFFER, DpXorManyKernel
from repro.pir.client import PIRClient
from repro.pir.xor_ops import pack_selectors


class TestRegenerateFigure10:
    def test_fig10_breakdowns(self, benchmark):
        result = benchmark(fig10_breakdown)
        print("\n" + render_fig10(result))
        assert result.impir_fractions["eval"] > result.impir_fractions["dpxor"]
        assert result.cpu_fractions["dpxor"] > result.cpu_fractions["eval"]
        # Latency grows linearly-ish with DB size for both systems.
        impir_totals = result.impir_table.totals()
        assert impir_totals[-1] > 10 * impir_totals[0]


class TestFunctionalPhases:
    """Measured wall-clock of the individual pipeline phases."""

    def test_impir_query_breakdown_phases_present(self, benchmark, bench_db, bench_impir_config):
        server = create_server("im-pir", bench_db, config=bench_impir_config, server_id=0)
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=5, prg=make_prg())
        query = client.query(123)[0]
        result = benchmark(server.answer, query)
        assert result.breakdown.get(PHASE_EVAL) > 0
        assert result.breakdown.get(PHASE_DPXOR) > 0

    def test_cpu_query_breakdown(self, benchmark, bench_db):
        server = create_server("cpu", bench_db, server_id=0, prg=make_prg())
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=6, prg=make_prg())
        query = client.query(55)[0]
        benchmark(server.answer, query)
        breakdown = server.backend.model.single_query_breakdown(
            bench_db.num_records, bench_db.record_size
        )
        assert breakdown.get("dpxor") > 0

    def test_dpu_kernel_phase(self, benchmark):
        """The simulated DPU-side dpXOR kernel on a 1 MB MRAM block."""
        rng = np.random.default_rng(4)
        num_records, record_size = 32768, 32
        database = rng.integers(0, 256, size=(num_records, record_size), dtype=np.uint8)
        selector = rng.integers(0, 2, size=num_records, dtype=np.uint8)
        dpu = DPU(0, config=DPUConfig(tasklets=16))
        dpu.store(DB_BUFFER, database.reshape(-1))
        dpu.store(SELECTOR_BUFFER, pack_selectors(selector))
        report = benchmark(
            dpu.launch, DpXorManyKernel(), batch=1, num_records=num_records, record_size=record_size
        )
        assert report.simulated_seconds > 0
