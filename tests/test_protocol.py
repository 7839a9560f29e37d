"""End-to-end two-server retrieval over reference replicas (Algorithm 1:
key generation -> per-server evaluation -> reconstruction)."""

from repro.core.engine import create_server
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import PIRFrontend


def _deployment(database, seed):
    client = PIRClient(database.num_records, database.record_size, seed=seed)
    servers = [create_server("reference", database, server_id=i) for i in (0, 1)]
    return client, servers


def _retrieve(client, servers, index):
    queries = client.query(index)
    answers = [servers[query.server_id].answer(query).answer for query in queries]
    return client.reconstruct(answers)


class TestDPFProtocol:
    def test_every_record_retrievable(self):
        db = Database.random(128, 16, seed=4)
        client, servers = _deployment(db, seed=1)
        assert all(_retrieve(client, servers, i) == db.record(i) for i in range(128))

    def test_client_accounts_communication(self, small_db):
        client, servers = _deployment(small_db, seed=2)
        queries = client.query(100)
        answers = [servers[query.server_id].answer(query).answer for query in queries]
        assert client.reconstruct(answers) == small_db.record(100)
        assert client.stats.upload_bytes == sum(query.upload_bytes for query in queries) > 0
        assert client.stats.download_bytes == 2 * small_db.record_size

    def test_retrieve_batch(self, small_db):
        client, servers = _deployment(small_db, seed=3)
        indices = [0, 5, 1023]
        records = PIRFrontend(client, servers).retrieve_batch(indices)
        assert records == [small_db.record(i) for i in indices]

    def test_non_power_of_two_database(self):
        db = Database.random(1000, 24, seed=8)
        client, servers = _deployment(db, seed=5)
        for index in (0, 999, 511, 512):
            assert _retrieve(client, servers, index) == db.record(index)

    def test_single_record_database(self):
        db = Database.random(1, 8, seed=9)
        client, servers = _deployment(db, seed=1)
        assert _retrieve(client, servers, 0) == db.record(0)
