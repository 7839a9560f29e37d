"""Streamed (oversized-database) query evaluation and bulk database updates."""

import pytest

from repro.common.errors import CapacityError, ProtocolError
from repro.core.config import IMPIRConfig
from repro.core.engine import create_server
from repro.core.streaming import PHASE_COPY_DB, streaming_overhead_factor
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient


@pytest.fixture()
def streamed_setup(small_db):
    config = IMPIRConfig(pim=scaled_down_config(num_dpus=4, tasklets=2))
    server = create_server(
        "im-pir-streamed", small_db, config=config, server_id=0, segment_records=200
    )
    client = PIRClient(small_db.num_records, small_db.record_size, seed=5, prg=make_prg())
    return client, server, small_db


class TestStreamedServer:
    def test_multiple_segments_needed(self, streamed_setup):
        _, server, db = streamed_setup
        assert server.backend.num_segments == -(-db.num_records // 200)
        assert server.backend.num_segments > 1

    def test_answers_match_reference(self, streamed_setup):
        client, server, db = streamed_setup
        reference = create_server("reference", db, server_id=0, prg=make_prg())
        for index in (0, 199, 200, 777, db.num_records - 1):
            query = client.query(index)[0]
            assert server.answer(query).answer.payload == reference.answer(query).answer.payload

    def test_breakdown_includes_db_copy_phase(self, streamed_setup):
        client, server, _ = streamed_setup
        result = server.answer(client.query(3)[0])
        assert result.breakdown.get(PHASE_COPY_DB) > 0
        assert 0.0 < streaming_overhead_factor(result) < 1.0

    def test_streaming_costs_more_than_preloaded(self, small_db):
        """The paper's rationale for preloading: per-query DB transfers dominate."""
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=4, tasklets=2))
        client = PIRClient(small_db.num_records, small_db.record_size, seed=6, prg=make_prg())
        query = client.query(11)[0]
        preloaded = create_server("im-pir", small_db, config=config, server_id=0).answer(query)
        streamed = create_server(
            "im-pir-streamed", small_db, config=config, server_id=0
        ).answer(query)
        assert streamed.latency_seconds > preloaded.latency_seconds

    def test_batch_answers(self, streamed_setup):
        client, server, db = streamed_setup
        queries = [client.query(i)[0] for i in (1, 500, 1000)]
        results = server.answer_batch(queries).results
        assert len(results) == 3
        for query_index, result in zip((1, 500, 1000), results):
            assert result.answer.payload == db.record(query_index) or len(result.answer.payload) == 32

    def test_rejects_wrong_server(self, streamed_setup):
        client, server, _ = streamed_setup
        with pytest.raises(ProtocolError):
            server.answer(client.query(0)[1])

    def test_rejects_empty_batch(self, streamed_setup):
        _, server, _ = streamed_setup
        with pytest.raises(ProtocolError):
            server.answer_batch([])

    def test_segment_too_large_for_mram_rejected(self, small_db):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=2, tasklets=2))
        huge_segment = 2 * (64 * 2**20 // 32) * 2  # far beyond two DPUs' MRAM
        with pytest.raises(CapacityError):
            create_server("im-pir-streamed", small_db, config=config, segment_records=huge_segment)

    def test_reconstruction_through_two_streamed_servers(self, small_db):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=4, tasklets=2))
        client = PIRClient(small_db.num_records, small_db.record_size, seed=8, prg=make_prg())
        servers = [
            create_server(
                "im-pir-streamed", small_db, config=config, server_id=i, segment_records=300
            )
            for i in (0, 1)
        ]
        queries = client.query(321)
        answers = [servers[q.server_id].answer(q).answer for q in queries]
        assert client.reconstruct(answers) == small_db.record(321)


class TestBulkUpdates:
    @pytest.fixture()
    def server_and_client(self, small_db, small_impir_config):
        server = create_server("im-pir", small_db, config=small_impir_config, server_id=0)
        client = PIRClient(small_db.num_records, small_db.record_size, seed=9, prg=make_prg())
        return server, client, small_db

    def test_updates_visible_in_subsequent_queries(self, server_and_client):
        server, client, db = server_and_client
        new_record = bytes(range(32))
        cost = server.apply_updates([(100, new_record)])
        assert cost.get("update_copy") > 0

        # A fresh two-server deployment on the updated content must agree.
        query = client.query(100)[0]
        result = server.answer(query)
        updated_db = db.with_updates([(100, new_record)])
        reference = create_server("reference", updated_db, server_id=0, prg=make_prg())
        assert result.answer.payload == reference.answer(query).answer.payload

    def test_untouched_records_unchanged(self, server_and_client):
        server, client, db = server_and_client
        server.apply_updates([(5, bytes(32))])
        query = client.query(900)[0]
        reference = create_server(
            "reference", db.with_updates([(5, bytes(32))]), server_id=0, prg=make_prg()
        )
        assert server.answer(query).answer.payload == reference.answer(query).answer.payload

    def test_empty_update_batch_is_free(self, server_and_client):
        server, _, _ = server_and_client
        assert server.apply_updates([]).total == 0.0

    def test_update_cost_scales_with_dirty_blocks(self, server_and_client):
        server, _, db = server_and_client
        one = server.apply_updates([(0, bytes(32))]).get("update_copy")
        spread_indices = [0, 200, 400, 600, 800, 1000]
        many = server.apply_updates([(i, bytes(32)) for i in spread_indices]).get("update_copy")
        assert many > one

    def test_end_to_end_after_update(self, small_db, small_impir_config):
        from repro.core.impir import IMPIRDeployment

        deployment = IMPIRDeployment(small_db, config=small_impir_config, client_seed=4)
        new_record = b"\x77" * 32
        for server in deployment.servers:
            server.apply_updates([(42, new_record)])
        assert deployment.retrieve(42) == new_record
