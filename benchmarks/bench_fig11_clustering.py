"""Figure 11 — effect of DPU clustering on batch throughput and latency.

Paper reference (§5.4): splitting the 2,048 DPUs into clusters that each hold
a full copy of the 1 GB database lets queries' dpXOR phases run concurrently,
improving throughput by up to 1.35x over the single-cluster configuration and
reducing batch latency.
"""

from __future__ import annotations

import pytest

from repro.bench import paper_reference as paper
from repro.bench.figures import fig11_clustering
from repro.bench.reporting import render_fig11
from repro.core.config import IMPIRConfig
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient


class TestRegenerateFigure11:
    def test_fig11_series(self, benchmark):
        result = benchmark(fig11_clustering)
        print("\n" + render_fig11(result))
        assert result.max_gain_over_single_cluster >= 1.1
        # More clusters never reduce throughput at any batch size.
        single = result.series_by_clusters[1]
        for clusters, series in result.series_by_clusters.items():
            for point, base in zip(series.points, single.points):
                assert point.throughput_qps >= base.throughput_qps * 0.999

    def test_gain_reported_against_paper(self, benchmark):
        result = benchmark(fig11_clustering, batch_sizes=(32, 64, 128))
        print(
            f"\nmax clustering gain: {result.max_gain_over_single_cluster:.2f}x "
            f"(paper: up to {paper.FIG11_MAX_CLUSTER_GAIN:.2f}x)"
        )
        assert result.max_gain_over_single_cluster > 1.0


class TestFunctionalClustering:
    """Functional batch runs on the scaled-down platform, 1 vs 4 clusters."""

    @pytest.mark.parametrize("clusters", [1, 4])
    def test_clustered_batch(self, benchmark, bench_db, clusters):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4), num_clusters=clusters)
        server = create_server("im-pir", bench_db, config=config, server_id=0)
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=clusters, prg=make_prg())
        queries = [client.query(i * 13 % bench_db.num_records)[0] for i in range(8)]
        result = benchmark(server.answer_batch, queries)
        assert result.batch_size == 8
