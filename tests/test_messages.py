"""Wire messages: queries and answers."""

import numpy as np
import pytest

from repro.common.errors import ProtocolError
from repro.dpf.dpf import DPF
from repro.pir.messages import DPFQuery, PIRAnswer, QueryBatch


@pytest.fixture(scope="module")
def dpf_keys():
    dpf = DPF(domain_bits=8, seed=5)
    return dpf.gen(12, 1)


class TestDPFQuery:
    def test_valid_query(self, dpf_keys):
        key0, _ = dpf_keys
        query = DPFQuery(query_id=1, server_id=0, key=key0, num_records=200)
        assert query.upload_bytes == key0.size_bytes

    def test_rejects_bad_server_id(self, dpf_keys):
        key0, _ = dpf_keys
        with pytest.raises(ProtocolError):
            DPFQuery(query_id=1, server_id=2, key=key0, num_records=200)

    def test_rejects_database_larger_than_domain(self, dpf_keys):
        key0, _ = dpf_keys
        with pytest.raises(ProtocolError):
            DPFQuery(query_id=1, server_id=0, key=key0, num_records=10_000)

    def test_rejects_non_positive_records(self, dpf_keys):
        key0, _ = dpf_keys
        with pytest.raises(ProtocolError):
            DPFQuery(query_id=1, server_id=0, key=key0, num_records=0)

    def test_rejects_a_key_addressed_to_the_other_server(self, dpf_keys):
        # Server 1 answering party 0's key returns a share that reconstructs
        # garbage; the message refuses to exist instead.
        for key in dpf_keys:
            with pytest.raises(ProtocolError, match="key of the other party"):
                DPFQuery(query_id=1, server_id=1 - key.party, key=key, num_records=200)


def _dpf_batch(server_id=0, rows=3):
    keys = DPF(domain_bits=8, seed=5).gen_many(list(range(rows)), 1).keys
    return QueryBatch(server_id, np.arange(rows, dtype=np.int64), 200, keys=keys[server_id::2])


def _rows(batch):
    """Comparable contents of a batch's one-row queries."""
    return [(q.query_id, q.server_id, q.key) for q in batch]


class TestQueryBatch:
    def test_stack_of_its_rows_is_the_batch(self):
        batch = _dpf_batch()
        stacked = QueryBatch.stack(list(batch))
        assert stacked.query_ids.tolist() == batch.query_ids.tolist()
        assert _rows(stacked) == _rows(batch)

    def test_stack_refuses_a_row_that_is_not_a_dpf_query(self):
        rows = list(_dpf_batch())
        answer = PIRAnswer(query_id=3, server_id=0, payload=b"\x00")
        with pytest.raises(ProtocolError, match="unsupported query type: PIRAnswer"):
            QueryBatch.stack(rows + [answer])

    def test_stack_of_no_rows_refused(self):
        with pytest.raises(ProtocolError, match="one query batch needs one"):
            QueryBatch.stack([])

    def test_upload_is_every_rows_upload(self):
        batch = _dpf_batch()
        assert batch.upload_bytes == sum(query.upload_bytes for query in batch)

    def test_rows_index_like_a_sequence(self):
        batch = _dpf_batch(server_id=1)
        assert batch[-1].query_id == batch[2].query_id == 2
        assert batch[-1].key == batch.keys[2]
        assert isinstance(batch[0], DPFQuery) and batch[0].server_id == 1
        with pytest.raises(IndexError):
            batch[3]

    def test_keys_are_required(self):
        with pytest.raises(TypeError):
            QueryBatch(0, np.arange(3, dtype=np.int64), 200)

    def test_rejects_a_query_id_per_row_mismatch(self):
        keys = _dpf_batch().keys
        with pytest.raises(ProtocolError):
            QueryBatch(0, np.arange(2, dtype=np.int64), 200, keys=keys)

    def test_batch_obeys_the_one_row_rules(self):
        keys = _dpf_batch().keys
        with pytest.raises(ProtocolError):
            QueryBatch(2, np.arange(3, dtype=np.int64), 200, keys=keys)
        with pytest.raises(ProtocolError):
            QueryBatch(0, np.arange(3, dtype=np.int64), 10_000, keys=keys)
        with pytest.raises(ProtocolError, match="key of the other party"):
            QueryBatch(1, np.arange(3, dtype=np.int64), 200, keys=keys)
        # Party 0's rows with one party-1 row slipped in, all addressed to 0.
        mixed = DPF(domain_bits=8, seed=5).gen_many([1, 2], 1).keys[:3]
        with pytest.raises(ProtocolError, match="key of the other party"):
            QueryBatch(0, np.arange(3, dtype=np.int64), 200, keys=mixed)


class TestPIRAnswer:
    def test_valid_answer(self):
        answer = PIRAnswer(query_id=0, server_id=1, payload=b"\x00" * 32)
        assert answer.download_bytes == 32
        assert answer.payload_array().shape == (32,)

    def test_rejects_empty_payload(self):
        with pytest.raises(ProtocolError):
            PIRAnswer(query_id=0, server_id=0, payload=b"")

    def test_optional_timing_attached(self):
        answer = PIRAnswer(query_id=0, server_id=0, payload=b"x", simulated_seconds=0.5)
        assert answer.simulated_seconds == pytest.approx(0.5)

    def test_dpf_query_upload_much_smaller_than_naive(self, dpf_keys):
        """The communication advantage of DPFs: O(lambda log N) vs the O(N)
        bits of a dense selector share (paper §2.3)."""
        key0, _ = dpf_keys
        dpf_query = DPFQuery(query_id=0, server_id=0, key=key0, num_records=256)
        # At 256 records the DPF key is bigger; the advantage appears at scale.
        big_dpf = DPF(domain_bits=24, seed=1).gen(5)[0]
        big_query = DPFQuery(query_id=0, server_id=0, key=big_dpf, num_records=1 << 24)
        assert big_query.upload_bytes < (1 << 24) // 8
        assert dpf_query.upload_bytes > 256 // 8
