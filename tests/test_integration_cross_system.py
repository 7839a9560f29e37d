"""Cross-system integration: every server implementation answers identically,
and the end-to-end workloads run through IM-PIR."""

import numpy as np
import pytest

from repro.core.config import IMPIRConfig
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.workloads.certificate_transparency import build_ct_workload
from repro.workloads.credentials import build_credential_workload
from repro.workloads.traces import uniform_trace


@pytest.fixture(scope="module")
def shared_db():
    return Database.random(2048, 32, seed=77)


@pytest.fixture(scope="module")
def all_servers(shared_db):
    config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4))
    return {
        "reference": create_server("reference", shared_db, server_id=0, prg=make_prg()),
        "cpu": create_server("cpu", shared_db, server_id=0, prg=make_prg()),
        "gpu": create_server("gpu", shared_db, server_id=0, prg=make_prg()),
        "impir": create_server("im-pir", shared_db, config=config, server_id=0),
    }


class TestAllServersAgree:
    def test_identical_answers_for_same_query(self, shared_db, all_servers):
        client = PIRClient(shared_db.num_records, shared_db.record_size, seed=13, prg=make_prg())
        for index in (0, 511, 1024, 2047):
            query = client.query(index)[0]
            payloads = {
                "reference": all_servers["reference"].answer(query).answer.payload,
                "cpu": all_servers["cpu"].answer(query).answer.payload,
                "gpu": all_servers["gpu"].answer(query).answer.payload,
                "impir": all_servers["impir"].answer(query).answer.payload,
            }
            assert len(set(payloads.values())) == 1

    def test_full_protocol_through_each_architecture(self, shared_db):
        """Run both replicas on each architecture and reconstruct records."""
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=4, tasklets=2))
        builders = {
            "cpu": lambda sid: create_server(
                "cpu", shared_db, server_id=sid, prg=make_prg()
            ),
            "gpu": lambda sid: create_server(
                "gpu", shared_db, server_id=sid, prg=make_prg()
            ),
            "impir": lambda sid: create_server("im-pir", shared_db, config=config, server_id=sid),
        }
        for name, build in builders.items():
            client = PIRClient(shared_db.num_records, shared_db.record_size, seed=3, prg=make_prg())
            servers = [build(0), build(1)]
            queries = client.query(1234)
            answers = [servers[query.server_id].answer(query).answer for query in queries]
            assert client.reconstruct(answers) == shared_db.record(1234), name


class TestWorkloadsThroughIMPIR:
    @pytest.fixture(scope="class")
    def impir_config(self):
        return IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4), num_clusters=2)

    def test_certificate_transparency_audit(self, impir_config):
        log, database, trace = build_ct_workload(num_certificates=512, num_audits=6, seed=4)
        client = PIRClient(database.num_records, database.record_size, seed=8, prg=make_prg())
        servers = [
            create_server("im-pir", database, config=impir_config, server_id=i)
            for i in (0, 1)
        ]
        for index in trace:
            queries = client.query(index)
            answers = [servers[q.server_id].answer(q).answer for q in queries]
            record = client.reconstruct(answers)
            assert log.verify_inclusion(database, index, record)

    def test_credential_checking(self, impir_config):
        corpus, database, trace, candidates, expected = build_credential_workload(
            num_credentials=512, num_checks=8, seed=6
        )
        client = PIRClient(database.num_records, database.record_size, seed=9, prg=make_prg())
        servers = [
            create_server("im-pir", database, config=impir_config, server_id=i)
            for i in (0, 1)
        ]
        verdicts = []
        for index, candidate in zip(trace.indices, candidates):
            queries = client.query(index)
            answers = [servers[q.server_id].answer(q).answer for q in queries]
            record = client.reconstruct(answers)
            verdicts.append(corpus.is_compromised(candidate, record))
        assert verdicts == expected

    def test_batched_uniform_trace(self, impir_config):
        database = Database.random(1024, 32, seed=55)
        trace = uniform_trace(database.num_records, 16, seed=2)
        client = PIRClient(database.num_records, database.record_size, seed=11, prg=make_prg())
        server0 = create_server("im-pir", database, config=impir_config, server_id=0)
        server1 = create_server("im-pir", database, config=impir_config, server_id=1)
        indices = list(trace)
        per_query = [client.query(i) for i in indices]
        batch0 = server0.answer_batch([q[0] for q in per_query])
        batch1 = server1.answer_batch([q[1] for q in per_query])
        for index, a0, a1 in zip(indices, batch0.answers, batch1.answers):
            assert client.reconstruct([a0, a1]) == database.record(index)


class TestQueryPrivacyIndependence:
    def test_server_work_is_index_independent(self, shared_db):
        """The all-for-one principle: the server scans the whole database no
        matter which index the client asked for."""
        client = PIRClient(shared_db.num_records, shared_db.record_size, seed=21, prg=make_prg())
        server = create_server("reference", shared_db, server_id=0, prg=make_prg())
        scans = []
        for index in (0, shared_db.num_records // 2, shared_db.num_records - 1):
            before = server.stats.dpxor.records_scanned
            server.answer(client.query(index)[0])
            scans.append(server.stats.dpxor.records_scanned - before)
        assert len(set(scans)) == 1
        assert scans[0] == shared_db.num_records

    def test_single_query_share_reveals_nothing_obvious(self, shared_db):
        """A single server's selector share has ~N/2 bits set regardless of index."""
        from repro.dpf.dpf import DPF

        client = PIRClient(shared_db.num_records, shared_db.record_size, seed=31, prg=make_prg())
        dpf = DPF(client.domain_bits, prg=make_prg())
        weights = []
        for index in (0, 1, shared_db.num_records - 1):
            query = client.query(index)[0]
            bits = dpf.eval_full_bits(query.key, num_points=shared_db.num_records)
            weights.append(int(bits.sum()))
        n = shared_db.num_records
        for weight in weights:
            assert abs(weight - n / 2) < 5 * np.sqrt(n / 4)
