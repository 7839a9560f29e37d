"""End-to-end protocol driver (integration tests of the reference path)."""

import pytest

from repro.common.errors import ProtocolError
from repro.pir.database import Database
from repro.pir.frontend import PIRFrontend
from repro.pir.protocol import MultiServerPIRProtocol


class TestDPFProtocol:
    def test_every_record_retrievable(self):
        db = Database.random(128, 16, seed=4)
        protocol = MultiServerPIRProtocol(db, seed=1)
        assert protocol.verify_against_database(range(128))

    def test_trace_reports_communication(self, small_db):
        protocol = MultiServerPIRProtocol(small_db, seed=2)
        trace = protocol.retrieve_with_trace(100)
        assert trace.record == small_db.record(100)
        assert trace.upload_bytes > 0
        assert trace.download_bytes == 2 * small_db.record_size
        assert len(trace.answers) == 2

    def test_retrieve_batch(self, small_db):
        protocol = MultiServerPIRProtocol(small_db, seed=3)
        indices = [0, 5, 1023]
        frontend = PIRFrontend(protocol.client, protocol.servers)
        records = frontend.retrieve_batch(indices)
        assert records == [small_db.record(i) for i in indices]

    def test_one_prg_and_no_backend_option(self):
        db = Database.random(32, 8, seed=6)
        protocol = MultiServerPIRProtocol(db, seed=1)
        assert protocol.retrieve(17) == db.record(17)
        with pytest.raises(TypeError):
            MultiServerPIRProtocol(db, prg_backend="aes", seed=1)

    def test_non_power_of_two_database(self):
        db = Database.random(1000, 24, seed=8)
        protocol = MultiServerPIRProtocol(db, seed=5)
        for index in (0, 999, 511, 512):
            assert protocol.retrieve(index) == db.record(index)

    def test_single_record_database(self):
        db = Database.random(1, 8, seed=9)
        protocol = MultiServerPIRProtocol(db, seed=1)
        assert protocol.retrieve(0) == db.record(0)


class TestNaiveProtocol:
    @pytest.mark.parametrize("num_servers", [2, 3, 4])
    def test_multi_server_naive(self, num_servers):
        db = Database.random(200, 16, seed=11)
        protocol = MultiServerPIRProtocol(db, num_servers=num_servers, scheme="naive", seed=2)
        assert protocol.verify_against_database([0, 42, 199])


class TestValidation:
    def test_rejects_one_server(self, tiny_db):
        with pytest.raises(ProtocolError):
            MultiServerPIRProtocol(tiny_db, num_servers=1)

    def test_rejects_unknown_scheme(self, tiny_db):
        with pytest.raises(ProtocolError):
            MultiServerPIRProtocol(tiny_db, scheme="onion")
