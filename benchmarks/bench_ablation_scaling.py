"""Ablation — scaling with the DPU population and streamed oversized databases.

Two design questions DESIGN.md calls out but the paper does not plot
directly:

* how IM-PIR's throughput scales as the DPU population grows from a few
  hundred to the full 2,560 the server can host (the "more PIM modules"
  trajectory the paper's §3.3 discussion anticipates); and
* what a query costs when the database does *not* fit in MRAM and must be
  streamed through the DPUs per query (§3.3's batched-evaluation fallback).
"""

from __future__ import annotations

import pytest

from repro.bench.estimators import IMPIREstimator
from repro.core.config import IMPIRConfig
from repro.core.engine import create_server
from repro.core.streaming import PHASE_COPY_DB
from repro.dpf.prf import make_prg
from repro.pim.config import PIMConfig, scaled_down_config
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.workloads.generator import DatabaseSpec

DPU_SWEEP = (256, 512, 1024, 2048, 2560)


class TestDPUPopulationScaling:
    def test_throughput_vs_dpu_count(self, benchmark):
        """Regenerate the DPU-scaling curve at an 8 GB database, batch 32."""
        spec = DatabaseSpec.from_size_gib(8.0)

        def sweep():
            results = {}
            for dpus in DPU_SWEEP:
                config = IMPIRConfig(pim=PIMConfig(num_dpus=dpus))
                results[dpus] = IMPIREstimator(config).batch_estimate(spec, 32).throughput_qps
            return results

        throughputs = benchmark(sweep)
        print("\nIM-PIR throughput vs DPU population (8 GB DB, batch 32):")
        for dpus, qps in throughputs.items():
            print(f"  {dpus:>5} DPUs: {qps:7.1f} QPS")
        # More DPUs never hurt, and the first doubling helps substantially
        # while the last one is limited by the host-side evaluation.
        values = list(throughputs.values())
        assert all(b >= a * 0.999 for a, b in zip(values, values[1:]))
        first_doubling = throughputs[512] / throughputs[256]
        last_step = throughputs[2560] / throughputs[2048]
        assert first_doubling > last_step

    def test_dpxor_phase_shrinks_with_more_dpus(self, benchmark):
        spec = DatabaseSpec.from_size_gib(8.0)

        def dpxor_share(dpus):
            config = IMPIRConfig(pim=PIMConfig(num_dpus=dpus))
            breakdown = IMPIREstimator(config).query_breakdown(spec)
            return breakdown.get("dpxor") / breakdown.total

        shares = benchmark(lambda: {d: dpxor_share(d) for d in (256, 2048)})
        assert shares[2048] < shares[256]


class TestStreamedOversizedDatabase:
    def test_streamed_query(self, benchmark, bench_db):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=4, tasklets=4))
        server = create_server(
            "im-pir-streamed", bench_db, config=config, server_id=0, segment_records=1024
        )
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=1, prg=make_prg())
        query = client.query(1000)[0]
        result = benchmark(server.answer, query)
        assert result.breakdown.get(PHASE_COPY_DB) > 0

    def test_streaming_overhead_report(self, benchmark):
        """Quantify the preloading advantage the paper's design relies on."""
        database = Database.random(2048, 32, seed=9)
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=4, tasklets=4))
        client = PIRClient(database.num_records, database.record_size, seed=2, prg=make_prg())
        query = client.query(5)[0]

        def compare():

            preloaded = create_server("im-pir", database, config=config, server_id=0).answer(query)
            streamed = create_server(
                "im-pir-streamed", database, config=config, server_id=0, segment_records=512
            ).answer(query)
            return preloaded.latency_seconds, streamed.latency_seconds

        preloaded_s, streamed_s = benchmark(compare)
        print(
            f"\npreloaded query: {preloaded_s * 1e3:.3f} ms (model)  "
            f"streamed query: {streamed_s * 1e3:.3f} ms (model)  "
            f"penalty: {streamed_s / preloaded_s:.2f}x"
        )
        assert streamed_s > preloaded_s
