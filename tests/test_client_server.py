"""PIR client and reference server."""

import numpy as np
import pytest

from repro.common.errors import ProtocolError
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.messages import DPFQuery, PIRAnswer


@pytest.fixture()
def client(small_db):
    return PIRClient(small_db.num_records, small_db.record_size, seed=7, prg=make_prg())


@pytest.fixture()
def servers(small_db):
    return [
        create_server("reference", small_db, server_id=i, prg=make_prg())
        for i in range(2)
    ]


class TestClientConstruction:
    def test_two_servers_and_no_scheme_option(self, small_db):
        # The DPF is a two-server construction and the only query kind.
        assert PIRClient(small_db.num_records, 32).num_servers == 2
        for option in ({"num_servers": 2}, {"scheme": "dpf"}):
            with pytest.raises(TypeError):
                PIRClient(small_db.num_records, 32, **option)

    def test_seeded_clients_send_identical_keys(self, small_db):
        # The positional-and-keyword form the end-to-end workloads build.
        first = PIRClient(small_db.num_records, 32, prg=make_prg(), seed=3).query(77)
        second = PIRClient(small_db.num_records, 32, prg=make_prg(), seed=3).query(77)
        assert [q.key for q in first] == [q.key for q in second]

    def test_unseeded_clients_send_different_keys(self, small_db):
        first = PIRClient(small_db.num_records, 32).query(77)
        second = PIRClient(small_db.num_records, 32).query(77)
        assert all(a.key != b.key for a, b in zip(first, second))

    def test_domain_bits_cover_database(self, client, small_db):
        assert 2**client.domain_bits >= small_db.num_records


class TestQueryGeneration:
    def test_dpf_queries_have_one_per_server(self, client):
        queries = client.query(100)
        assert [q.server_id for q in queries] == [0, 1]
        assert all(isinstance(q, DPFQuery) for q in queries)
        assert queries[0].query_id == queries[1].query_id

    @pytest.mark.parametrize("num_records", [1, 2, 1000, 1024, 1025])
    def test_each_server_gets_its_own_partys_key(self, num_records):
        client = PIRClient(num_records, 4, seed=num_records, prg=make_prg())
        for index in sorted({0, num_records // 2, num_records - 1}):
            queries = client.query(index)
            assert [q.key.party for q in queries] == [q.server_id for q in queries] == [0, 1]
            assert all(q.num_records == num_records for q in queries)
            assert all(q.key.domain_bits == client.domain_bits for q in queries)

    def test_query_ids_increment(self, client):
        first = client.query(1)[0].query_id
        second = client.query(2)[0].query_id
        assert second == first + 1

    def test_out_of_range_index_rejected(self, client, small_db):
        with pytest.raises(ProtocolError):
            client.query(small_db.num_records)

    def test_query_batch(self, small_db):
        # One batch per server, whose rows are the one-query messages.
        shape = (small_db.num_records, small_db.record_size)
        batched = PIRClient(*shape, seed=7, prg=make_prg())
        single = PIRClient(*shape, seed=7, prg=make_prg())
        batches = batched.query_batch([1, 2, 3])
        expected = [single.query(index) for index in (1, 2, 3)]
        assert [batch.server_id for batch in batches] == [0, 1]
        for server_id, batch in enumerate(batches):
            assert batch.query_ids.tolist() == [0, 1, 2]
            assert list(batch) == [queries[server_id] for queries in expected]
        assert batched.stats == single.stats

    def test_upload_bytes_accounted(self, client):
        before = client.stats.upload_bytes
        client.query(0)
        assert client.stats.upload_bytes > before


class TestServerAnswering:
    def test_two_server_retrieval(self, client, servers, small_db):
        for index in (0, 17, 512, small_db.num_records - 1):
            queries = client.query(index)
            answers = [servers[q.server_id].answer(q).answer for q in queries]
            assert client.reconstruct(answers) == small_db.record(index)

    def test_server_rejects_wrong_addressee(self, client, servers):
        queries = client.query(5)
        with pytest.raises(ProtocolError):
            servers[1].answer(queries[0])

    def test_server_rejects_wrong_database_size(self, client, tiny_db):
        other_server = create_server("reference", tiny_db, server_id=0, prg=make_prg())
        queries = client.query(5)
        with pytest.raises(ProtocolError):
            other_server.answer(queries[0])

    def test_server_stats_accumulate(self, client, servers, small_db):
        queries = client.query(3)
        servers[0].answer(queries[0])
        stats = servers[0].stats
        assert stats.queries_answered == 1
        assert stats.dpxor.records_scanned == small_db.num_records
        assert stats.eval.leaves_evaluated == small_db.num_records

    def test_answer_batch(self, client, servers):
        queries = [client.query(i)[0] for i in range(4)]
        answers = servers[0].answer_batch(queries).answers
        assert len(answers) == 4


class TestReconstruction:
    def test_rejects_wrong_answer_count(self, client, servers):
        queries = client.query(5)
        answers = [servers[0].answer(queries[0]).answer]
        with pytest.raises(ProtocolError):
            client.reconstruct(answers)

    def test_rejects_mixed_query_ids(self, client, servers):
        q1 = client.query(5)
        q2 = client.query(6)
        answers = [servers[0].answer(q1[0]).answer, servers[1].answer(q2[1]).answer]
        with pytest.raises(ProtocolError):
            client.reconstruct(answers)

    def test_rejects_duplicate_servers(self, client, servers):
        queries = client.query(5)
        answer = servers[0].answer(queries[0]).answer
        with pytest.raises(ProtocolError):
            client.reconstruct([answer, answer])

    def test_rejects_wrong_payload_size(self, client):
        answers = [
            PIRAnswer(query_id=0, server_id=0, payload=b"ab"),
            PIRAnswer(query_id=0, server_id=1, payload=b"cd"),
        ]
        with pytest.raises(ProtocolError):
            client.reconstruct(answers)

    @pytest.mark.parametrize("size", [1, 3, 7, 8, 15, 16, 24, 32])
    def test_matrix_reconstruction_all_sizes(self, size):
        # One XOR across the servers' answer matrices equals the one-query
        # form applied row by row, at word-aligned and odd record sizes.
        rng = np.random.default_rng(31)
        shares = rng.integers(0, 256, size=(2, 5, size), dtype=np.uint8)
        matrix_client = PIRClient(64, size)
        row_client = PIRClient(64, size)
        records = matrix_client.reconstruct(shares)
        for row in range(5):
            answers = [
                PIRAnswer(query_id=row, server_id=server, payload=shares[server, row].tobytes())
                for server in (0, 1)
            ]
            expected = bytes(a ^ b for a, b in zip(*(answer.payload for answer in answers)))
            assert row_client.reconstruct(answers) == expected
            assert records[row].tobytes() == expected
        assert matrix_client.stats == row_client.stats

    @pytest.mark.parametrize(
        "shape, dtype",
        [((3, 4, 32), np.uint8), ((2, 4, 16), np.uint8), ((2, 4, 32), np.int16)],
        ids=["servers", "record_size", "dtype"],
    )
    def test_matrix_reconstruction_rejects_bad_shares(self, client, shape, dtype):
        with pytest.raises(ProtocolError):
            client.reconstruct(np.zeros(shape, dtype=dtype))
        assert client.stats.answers_reconstructed == 0
