"""Wire messages: queries and answers."""

import numpy as np
import pytest

from repro.common.errors import ProtocolError
from repro.dpf.dpf import DPF
from repro.dpf.naive import NaiveShare
from repro.pir.messages import DPFQuery, NaiveQuery, PIRAnswer, QueryBatch, query_groups


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


class TestNaiveQuery:
    def test_valid_query(self):
        share = NaiveShare(server_id=1, bits=np.zeros(64, dtype=np.uint8))
        query = NaiveQuery(query_id=3, server_id=1, share=share, num_records=64)
        assert query.upload_bytes == 8

    def test_rejects_length_mismatch(self):
        share = NaiveShare(server_id=0, bits=np.zeros(64, dtype=np.uint8))
        with pytest.raises(ProtocolError):
            NaiveQuery(query_id=3, server_id=0, share=share, num_records=100)

    def test_rejects_negative_server(self):
        share = NaiveShare(server_id=0, bits=np.zeros(4, dtype=np.uint8))
        with pytest.raises(ProtocolError):
            NaiveQuery(query_id=0, server_id=-1, share=share, num_records=4)


def _dpf_batch(server_id=0, rows=3):
    keys = DPF(domain_bits=8, seed=5).gen_many(list(range(rows)), 1).keys
    return QueryBatch(server_id, np.arange(rows, dtype=np.int64), 200, keys=keys[server_id::2])


def _rows(batch):
    """Comparable contents of a batch's one-row queries."""
    if batch.is_naive:
        return [(q.query_id, q.server_id, q.share.bits.tolist()) for q in batch]
    return [(q.query_id, q.server_id, q.key) for q in batch]


def _naive_batch(server_id=0, rows=3):
    bits = np.random.default_rng(4).integers(0, 2, size=(rows, 64), dtype=np.uint8)
    return QueryBatch(server_id, np.arange(10, 10 + rows, dtype=np.int64), 64, bits=bits)


class TestQueryBatch:
    @pytest.mark.parametrize("make_batch", [_dpf_batch, _naive_batch], ids=["dpf", "naive"])
    def test_stack_of_its_rows_is_the_batch(self, make_batch):
        batch = make_batch()
        stacked = QueryBatch.stack(list(batch))
        assert stacked.query_ids.tolist() == batch.query_ids.tolist()
        assert _rows(stacked) == _rows(batch)

    @pytest.mark.parametrize("make_batch", [_dpf_batch, _naive_batch], ids=["dpf", "naive"])
    def test_upload_is_every_rows_upload(self, make_batch):
        batch = make_batch()
        assert batch.upload_bytes == sum(query.upload_bytes for query in batch)

    def test_rows_index_like_a_sequence(self):
        batch = _naive_batch(server_id=1)
        assert batch[-1].query_id == batch[2].query_id == 12
        assert np.array_equal(batch[-1].share.bits, batch.bits[2])
        assert isinstance(batch[0], NaiveQuery) and batch[0].server_id == 1
        with pytest.raises(IndexError):
            batch[3]

    @pytest.mark.parametrize("payloads", ["both", "neither"])
    def test_carries_exactly_one_kind_of_row(self, payloads):
        keys = _dpf_batch().keys
        bits = np.zeros((3, 200), dtype=np.uint8)
        kwargs = {"keys": keys, "bits": bits} if payloads == "both" else {}
        with pytest.raises(ProtocolError):
            QueryBatch(0, np.arange(3, dtype=np.int64), 200, **kwargs)

    def test_rejects_non_binary_shares(self):
        bits = np.full((2, 64), 2, dtype=np.uint8)
        with pytest.raises(ProtocolError):
            QueryBatch(0, np.arange(2, dtype=np.int64), 64, bits=bits)

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

    def test_groups_split_one_row_queries_by_server(self):
        rows = list(_dpf_batch(0)) + list(_dpf_batch(1))
        rows = rows[::2] + rows[1::2]
        groups = query_groups(rows)
        assert [batch.server_id for _, batch in groups] == [0, 1]
        for positions, batch in groups:
            assert list(batch) == [rows[position] for position in positions]


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
        """The communication advantage of DPFs: O(lambda log N) vs O(N) bits."""
        key0, _ = dpf_keys
        num_records = 256
        dpf_query = DPFQuery(query_id=0, server_id=0, key=key0, num_records=num_records)
        naive_query = NaiveQuery(
            query_id=0,
            server_id=0,
            share=NaiveShare(server_id=0, bits=np.zeros(num_records, dtype=np.uint8)),
            num_records=num_records,
        )
        # At 256 records the DPF key is bigger; the advantage appears at scale.
        big_dpf = DPF(domain_bits=24, seed=1).gen(5)[0]
        big_query = DPFQuery(query_id=0, server_id=0, key=big_dpf, num_records=1 << 24)
        assert big_query.upload_bytes < (1 << 24) // 8
        assert naive_query.upload_bytes == num_records // 8
        assert dpf_query.upload_bytes > 0
