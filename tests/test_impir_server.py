"""IM-PIR server: functional correctness, breakdowns, batching, clustering."""

import numpy as np
import pytest

from repro.common.errors import CapacityError, ProtocolError
from repro.core.config import IMPIRConfig
from repro.core.engine import create_server
from repro.core.impir import IMPIRDeployment
from repro.core.results import (
    PHASE_AGGREGATE,
    PHASE_COPY_IN,
    PHASE_COPY_OUT,
    PHASE_DPXOR,
    PHASE_EVAL,
)
from repro.core.streaming import PHASE_COPY_DB
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient
from repro.pir.database import Database


@pytest.fixture()
def setup(small_db, small_impir_config):
    client = PIRClient(small_db.num_records, small_db.record_size, seed=5, prg=make_prg())
    server = create_server("im-pir", small_db, config=small_impir_config, server_id=0)
    return client, server, small_db


class TestConstruction:
    def test_preload_partitions_database(self, setup):
        _, server, db = setup
        assert len(server.backend.clusters) == 1
        layout = server.backend.layout_for_lane(0)
        assert layout.validate_coverage()
        assert server.preload_report is not None
        assert server.preload_report.total > 0
        assert 0 < server.backend.mram_utilization() < 1

    def test_database_too_large_for_platform_rejected(self):
        # 2 DPUs x 64 MB with 25% reserve cannot hold a ~100 MB database... use
        # a smaller synthetic: 2 DPUs, database bigger than usable MRAM.
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=2, tasklets=2))
        too_big = Database.random((97 * (1 << 20)) // 1024, 1024, seed=1)
        with pytest.raises(CapacityError):
            create_server("im-pir", too_big, config=config)

    def test_invalid_server_id_rejected(self, small_db, small_impir_config):
        with pytest.raises(ProtocolError):
            create_server("im-pir", small_db, config=small_impir_config, server_id=2)

    def test_can_cluster_check(self, setup):
        _, server, _ = setup
        assert server.backend.can_cluster(2)
        assert not server.backend.can_cluster(0)
        assert not server.backend.can_cluster(10_000)


class TestSingleQuery:
    def test_answers_match_reference_server(self, setup):
        client, server, db = setup
        reference = create_server("reference", db, server_id=0, prg=make_prg())
        for index in (0, 100, db.num_records - 1):
            query = client.query(index)[0]
            assert server.answer(query).answer.payload == reference.answer(query).answer.payload

    def test_breakdown_has_all_phases(self, setup):
        client, server, _ = setup
        result = server.answer(client.query(50)[0])
        for phase in (PHASE_EVAL, PHASE_COPY_IN, PHASE_DPXOR, PHASE_COPY_OUT, PHASE_AGGREGATE):
            assert result.breakdown.get(phase) > 0
        assert result.latency_seconds == pytest.approx(result.breakdown.total)
        assert result.dpu_pipeline_seconds < result.latency_seconds

    def test_dpu_pipeline_is_every_phase_but_eval_and_aggregate(self):
        # The streamed mode adds the segment copy to the DPU side of the
        # pipeline: it counts there like the selector copy, scan and gather.
        database = Database.random(1000, 16, seed=7)
        server = create_server("im-pir-streamed", database)
        client = PIRClient(1000, 16, seed=8, prg=make_prg())
        result = server.answer(client.query(10)[0])
        breakdown = result.breakdown
        assert breakdown.get(PHASE_COPY_DB) > 0
        assert result.dpu_pipeline_seconds == pytest.approx(
            result.latency_seconds - breakdown.get(PHASE_EVAL) - breakdown.get(PHASE_AGGREGATE)
        )
        scan = (PHASE_COPY_IN, PHASE_DPXOR, PHASE_COPY_OUT)
        assert result.dpu_pipeline_seconds > sum(breakdown.get(phase) for phase in scan)

    def test_phase_fractions_sum_to_one(self, setup):
        client, server, _ = setup
        fractions = server.answer(client.query(1)[0]).phase_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_rejects_wrong_server(self, setup):
        client, server, _ = setup
        query_for_other = client.query(3)[1]
        with pytest.raises(ProtocolError):
            server.answer(query_for_other)

    def test_rejects_wrong_database_shape(self, setup, tiny_db):
        client, server, _ = setup
        other_client = PIRClient(tiny_db.num_records, tiny_db.record_size, seed=1)
        with pytest.raises(ProtocolError):
            server.answer(other_client.query(0)[0])

    def test_rejects_bad_cluster_index(self, setup):
        client, server, _ = setup
        with pytest.raises(ProtocolError):
            server.engine.answer(client.query(0)[0], lane=5)


class TestBatch:
    def test_batch_answers_are_correct(self, setup):
        client, server, db = setup
        reference = create_server("reference", db, server_id=0, prg=make_prg())
        indices = [3, 77, 512, 1023, 0]
        queries = [client.query(i)[0] for i in indices]
        batch = server.answer_batch(queries)
        assert batch.batch_size == len(indices)
        for query, result in zip(queries, batch.results):
            assert result.answer.payload == reference.answer(query).answer.payload

    def test_batch_schedule_consistency(self, setup):
        client, server, _ = setup
        queries = [client.query(i)[0] for i in range(8)]
        batch = server.answer_batch(queries)
        assert batch.latency_seconds > 0
        assert batch.throughput_qps == pytest.approx(8 / batch.latency_seconds)
        assert batch.latency_seconds < sum(r.latency_seconds for r in batch.results)

    def test_batch_mean_breakdown(self, setup):
        client, server, _ = setup
        queries = [client.query(i)[0] for i in range(4)]
        mean = server.answer_batch(queries).mean_breakdown()
        assert mean.get(PHASE_EVAL) > 0
        assert mean.get(PHASE_DPXOR) > 0

    def test_empty_batch_rejected(self, setup):
        _, server, _ = setup
        with pytest.raises(ProtocolError):
            server.answer_batch([])


class TestClustering:
    def test_clustered_server_is_correct(self, small_db):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=2), num_clusters=4)
        server = create_server("im-pir", small_db, config=config, server_id=0)
        client = PIRClient(small_db.num_records, small_db.record_size, seed=2, prg=make_prg())
        reference = create_server("reference", small_db, server_id=0, prg=make_prg())
        queries = [client.query(i)[0] for i in range(8)]
        batch = server.answer_batch(queries)
        assert {r.cluster_id for r in batch.results} == {0, 1, 2, 3}
        for query, result in zip(queries, batch.results):
            assert result.answer.payload == reference.answer(query).answer.payload

    def test_each_cluster_holds_full_database(self, small_db):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=2), num_clusters=2)
        server = create_server("im-pir", small_db, config=config, server_id=0)
        for cluster_index in range(2):
            assert server.backend.layout_for_lane(cluster_index).num_records == small_db.num_records

    def test_clustering_improves_or_matches_batch_latency(self, small_db):
        base = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=2))
        client = PIRClient(small_db.num_records, small_db.record_size, seed=4, prg=make_prg())
        queries = [client.query(i)[0] for i in range(12)]
        single = create_server("im-pir", small_db, config=base, server_id=0).answer_batch(queries)
        clustered = create_server(
            "im-pir", small_db, config=base.with_clusters(4), server_id=0
        ).answer_batch(queries)
        assert clustered.latency_seconds <= single.latency_seconds * 1.001


class TestTransferChargesFromByteCounts:
    """The preload and the updates' partial re-copy move no bytes: each is
    charged from the byte counts of the layout it would ship."""

    def test_preload_charges_every_block_and_placeholders(self):
        # 16 DPUs in two clusters for 5 records: 3 empty DPUs per cluster
        # ship one placeholder byte each.
        db = Database.random(5, 32, seed=4)
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=16, tasklets=2), num_clusters=2)
        server = create_server("im-pir", db, config=config, server_id=0)
        timing = server.backend.timing
        per_cluster = timing.host_to_dpu_seconds(5 * 32 + 3)
        assert server.preload_report.get("preload_db").hex() == (0.0 + per_cluster + per_cluster).hex()
        assert server.backend.ledger.bytes_to_dpus.tolist() == ([32] * 5 + [1] * 3) * 2

    def test_update_copy_charges_the_dirty_blocks(self, small_db):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=2), num_clusters=2)
        server = create_server("im-pir", small_db, config=config, server_id=0)
        before = server.backend.ledger.bytes_to_dpus.copy()
        layout = server.backend.layout_for_lane(0)
        hot, boundary, cold = 77, int(layout.bounds[3][0]), small_db.num_records - 3
        rng = np.random.default_rng(8)
        updates = [
            (index, rng.integers(0, 256, small_db.record_size, dtype=np.uint8).tobytes())
            for index in (hot, boundary, cold, hot)
        ]
        timer = server.apply_updates(updates)
        # Each cluster of 4 DPUs holds 256-record blocks: the writes dirty
        # blocks 0 and 3 once each, whatever the repeats.
        per_cluster = server.backend.timing.host_to_dpu_seconds(2 * 256 * small_db.record_size)
        assert timer.get("update_copy").hex() == (0.0 + per_cluster + per_cluster).hex()
        moved = server.backend.ledger.bytes_to_dpus - before
        assert moved.tolist() == [256 * 32, 0, 0, 256 * 32] * 2
        for index, record in updates[1:]:
            assert server.database.record(index) == record


class TestDeployment:
    def test_end_to_end_retrieval(self, medium_db):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4))
        deployment = IMPIRDeployment(medium_db, config=config, client_seed=1)
        for index in (0, 1234, medium_db.num_records - 1):
            assert deployment.retrieve(index) == medium_db.record(index)

    def test_end_to_end_batch(self, medium_db):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4), num_clusters=2)
        deployment = IMPIRDeployment(medium_db, config=config, client_seed=2)
        indices = [5, 99, 2048, 4095]
        records = deployment.frontend.retrieve_batch(indices)
        assert records == [medium_db.record(i) for i in indices]


class TestConfigValidation:
    def test_rejects_more_clusters_than_dpus(self):
        with pytest.raises(Exception):
            IMPIRConfig(pim=scaled_down_config(num_dpus=4), num_clusters=8)

    def test_with_clusters_copy(self, small_impir_config):
        assert small_impir_config.with_clusters(2).num_clusters == 2
        assert small_impir_config.num_clusters == 1

    def test_effective_workers_default_to_host_threads(self, small_impir_config):
        assert small_impir_config.effective_eval_workers == small_impir_config.pim.host.total_threads
        assert small_impir_config.dpus_per_cluster == 8
