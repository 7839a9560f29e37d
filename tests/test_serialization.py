"""Wire serialization: round-trips and malformed-input handling."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ProtocolError
from repro.core.engine import create_server
from repro.dpf.dpf import DPF, key_wire_bytes
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.messages import DPFQuery, PIRAnswer
from repro.pir.serialization import (
    WIRE_VERSION,
    deserialize_answer,
    deserialize_key,
    deserialize_query,
    serialize_answer,
    serialize_key,
    serialize_query,
    wire_sizes,
)


@pytest.fixture(scope="module")
def dpf_key():
    return DPF(domain_bits=12, seed=31).gen(1000, 1)[0]


class TestKeyRoundTrip:
    def test_round_trip_preserves_key(self, dpf_key):
        restored = deserialize_key(serialize_key(dpf_key))
        assert restored == dpf_key

    def test_round_trip_key_still_evaluates(self):
        dpf = DPF(domain_bits=9, seed=7)
        key0, key1 = dpf.gen(300, 1)
        restored0 = deserialize_key(serialize_key(key0))
        restored1 = deserialize_key(serialize_key(key1))
        combined = dpf.eval_full(restored0) ^ dpf.eval_full(restored1)
        assert combined[300] == 1 and int(combined.sum()) == 1

    def test_serialized_size_matches_key_estimate(self):
        """``size_bytes`` (what ``ClientStats.upload_bytes`` adds up) is the
        wire size exactly, ``38 + 16 d + ceil(d / 4)`` for ``d`` levels, at
        every tree depth including the zero-level ones."""
        for domain_bits in range(0, 21):
            for output_bits in (1, 8, 64):
                key0, key1 = DPF(domain_bits, output_bits=output_bits, seed=domain_bits).gen(0, 1)
                for key in (key0, key1):
                    depth = key.tree_depth
                    assert len(serialize_key(key)) == key.size_bytes == key_wire_bytes(depth)
                    assert key.size_bytes == 38 + 16 * depth + -(-depth // 4)
                    query = DPFQuery(query_id=0, server_id=key.party, key=key, num_records=1)
                    assert query.upload_bytes == key.size_bytes
        # 6-byte header + root seed + (20 - 7) 16-byte seed corrections + their
        # 26 control-bit corrections in 4 bytes + 16-byte final block.
        assert DPF(20, seed=0).gen(0)[0].size_bytes == 6 + 16 + 13 * 16 + 4 + 16

    def test_truncated_blob_rejected(self, dpf_key):
        blob = serialize_key(dpf_key)
        with pytest.raises(ProtocolError):
            deserialize_key(blob[:10])
        with pytest.raises(ProtocolError):
            deserialize_key(blob[:-3])

    def test_version_2_blob_rejected(self, dpf_key):
        """No v2 decode path: a v2 key (one byte per control-bit correction,
        ``38 + 18 * d`` bytes) and a v1 key fail on their version byte."""
        keys, row = dpf_key.batch, dpf_key.row
        words = np.concatenate((keys.cw_seeds[row], keys.cw_bits[row]), axis=1)
        v2_blob = (
            struct.pack("<2sBBBB", b"DK", 2, dpf_key.party, 12, 1)
            + keys.roots[row].tobytes()
            + words.tobytes()
            + keys.finals[row].tobytes()
        )
        assert len(v2_blob) == 38 + 18 * dpf_key.tree_depth
        with pytest.raises(ProtocolError, match="wire version 2, expected version 3"):
            deserialize_key(v2_blob)
        v1_header = struct.pack("<2sBBBBQ", b"DK", 1, 0, 12, 1, 1)
        with pytest.raises(ProtocolError, match="wire version 1, expected version 3"):
            deserialize_key(v1_header + bytes(16) + bytes(18) * 12)
        relabelled = bytearray(serialize_key(dpf_key))
        relabelled[2] = 2
        with pytest.raises(ProtocolError, match="expected version 3"):
            deserialize_key(bytes(relabelled))
        assert WIRE_VERSION == 3

    def test_control_bits_pack_little_endian_in_level_order(self):
        """Bit ``2l + c`` of the packed bytes is level ``l``'s child-``c`` correction."""
        dpf = DPF(domain_bits=16, seed=11)
        key = dpf.gen(40000, 1)[0]
        blob = serialize_key(key)
        depth = key.tree_depth
        start = 6 + 16 + 16 * depth
        packed = np.frombuffer(blob[start : start + -(-depth // 4)], dtype=np.uint8)
        bits = [(int(packed[j // 8]) >> (j % 8)) & 1 for j in range(8 * packed.size)]
        assert bits[: 2 * depth] == key.batch.cw_bits[key.row].reshape(-1).tolist()
        assert not any(bits[2 * depth :])

    def test_control_bit_padding_rejected(self, dpf_key):
        """Five levels fill 10 of 16 bits: a set padding bit is not a key."""
        blob = bytearray(serialize_key(dpf_key))
        blob[-16 - 1] |= 0x80
        with pytest.raises(ProtocolError, match="padding"):
            deserialize_key(bytes(blob))

    def test_level_count_must_match_tree_depth(self, dpf_key):
        blob = serialize_key(dpf_key)
        assert dpf_key.tree_depth == 5
        one_too_many = blob[:-16] + bytes(18) + blob[-16:]
        one_too_few = blob[:-16 - 18] + blob[-16:]
        for bad in (one_too_many, one_too_few):
            with pytest.raises(ProtocolError, match="5 correction words for a 12-bit domain"):
                deserialize_key(bad)
        # A header claiming another domain makes the same body the wrong length.
        wider = bytearray(blob)
        wider[4] = 13
        with pytest.raises(ProtocolError, match="6 correction words for a 13-bit domain"):
            deserialize_key(bytes(wider))

    @pytest.mark.parametrize("output_bits", [0, 65, 255])
    def test_output_bits_out_of_range_rejected(self, dpf_key, output_bits):
        blob = bytearray(serialize_key(dpf_key))
        blob[5] = output_bits
        with pytest.raises(ProtocolError, match="expected 1..64"):
            deserialize_key(bytes(blob))

    def test_wrong_magic_rejected(self, dpf_key):
        blob = bytearray(serialize_key(dpf_key))
        blob[0:2] = b"ZZ"
        with pytest.raises(ProtocolError):
            deserialize_key(bytes(blob))

    @settings(max_examples=20, deadline=None)
    @given(
        domain_bits=st.integers(min_value=1, max_value=16),
        output_bits=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_property(self, domain_bits, output_bits, seed):
        dpf = DPF(domain_bits, output_bits=output_bits, seed=seed)
        beta = min(3, (1 << output_bits) - 1) or 1
        key0, _ = dpf.gen(seed % dpf.domain_size, beta)
        assert deserialize_key(serialize_key(key0)) == key0


class TestQueryRoundTrip:
    def test_dpf_query(self, dpf_key):
        query = DPFQuery(query_id=17, server_id=0, key=dpf_key, num_records=4000)
        restored = deserialize_query(serialize_query(query))
        assert isinstance(restored, DPFQuery)
        assert restored.query_id == 17
        assert restored.server_id == 0
        assert restored.num_records == 4000
        assert restored.key == dpf_key

    def test_query_ids_past_32_bits_round_trip(self, dpf_key):
        """Query ids are allocated as int64 without bound; the header is u64."""
        query_id = 2**32 + 5
        dpf_query = DPFQuery(query_id=query_id, server_id=0, key=dpf_key, num_records=4000)
        assert deserialize_query(serialize_query(dpf_query)).query_id == query_id

    def test_key_addressed_to_the_other_server_refused(self):
        # A party-0 key relabelled for server 1 would be answered by server 1
        # and reconstruct a wrong record; decoding refuses it instead.
        query = PIRClient(64, 8, seed=3).query(5)[0]
        blob = bytearray(serialize_query(query))
        assert blob[3] == query.server_id == query.key.party == 0
        blob[3] = 1
        with pytest.raises(ProtocolError, match="key of the other party"):
            deserialize_query(bytes(blob))

    def test_party_one_key_addressed_to_server_zero_refused(self):
        query = PIRClient(64, 8, seed=3).query(5)[1]
        blob = bytearray(serialize_query(query))
        assert blob[3] == query.server_id == query.key.party == 1
        blob[3] = 0
        with pytest.raises(ProtocolError, match="key of the other party"):
            deserialize_query(bytes(blob))

    def test_dense_selector_query_tag_refused(self):
        """DPF keys are the only query: a dense selector share under the
        ``NQ`` tag (header, then the N selector bits) is not decoded."""
        header = struct.pack("<2sBBQQ", b"NQ", WIRE_VERSION, 0, 1, 16)
        selector = np.packbits(np.eye(16, dtype=np.uint8)[5]).tobytes()
        with pytest.raises(ProtocolError, match="unknown query magic"):
            deserialize_query(header + selector)

    @pytest.mark.parametrize("num_records", [1, 2, 3, 255, 256, 257, 4096])
    def test_client_queries_round_trip_and_reconstruct(self, num_records):
        # Zero-level trees (one record) through deep ones, at and off powers of two.
        database = Database.random(num_records, 8, seed=num_records)
        client = PIRClient(num_records, 8, seed=11)
        servers = [create_server("reference", database, server_id=i) for i in (0, 1)]
        index = num_records - 1
        answers = []
        for query in client.query(index):
            restored = deserialize_query(serialize_query(query))
            assert restored == query
            answers.append(servers[restored.server_id].answer(restored).answer)
        assert client.reconstruct(answers) == database.record(index)

    def test_truncated_query_rejected(self, dpf_key):
        query = DPFQuery(query_id=1, server_id=0, key=dpf_key, num_records=4000)
        with pytest.raises(ProtocolError):
            deserialize_query(serialize_query(query)[:5])

    def test_unknown_magic_rejected(self, dpf_key):
        blob = bytearray(serialize_query(DPFQuery(query_id=1, server_id=0, key=dpf_key, num_records=10)))
        blob[0:2] = b"XX"
        with pytest.raises(ProtocolError):
            deserialize_query(bytes(blob))


class TestAnswerRoundTrip:
    def test_round_trip(self):
        answer = PIRAnswer(query_id=9, server_id=1, payload=b"\xab" * 32, simulated_seconds=0.125)
        restored = deserialize_answer(serialize_answer(answer))
        assert restored.query_id == 9
        assert restored.server_id == 1
        assert restored.payload == b"\xab" * 32
        assert restored.simulated_seconds == pytest.approx(0.125)

    def test_query_id_past_32_bits_round_trips(self):
        answer = PIRAnswer(query_id=2**32 + 5, server_id=0, payload=b"\x01" * 8)
        assert deserialize_answer(serialize_answer(answer)).query_id == 2**32 + 5

    def test_round_trip_without_timing(self):
        answer = PIRAnswer(query_id=0, server_id=0, payload=b"x")
        restored = deserialize_answer(serialize_answer(answer))
        assert restored.simulated_seconds is None

    def test_corrupted_length_rejected(self):
        blob = bytearray(serialize_answer(PIRAnswer(query_id=0, server_id=0, payload=b"abcd")))
        with pytest.raises(ProtocolError):
            deserialize_answer(bytes(blob[:-1]))


class TestEndToEndOverTheWire:
    def test_full_protocol_through_serialization(self, small_db):
        """Client and servers exchange only serialized bytes."""
        from repro.dpf.prf import make_prg

        client = PIRClient(small_db.num_records, small_db.record_size, seed=3, prg=make_prg())
        servers = [
            create_server("reference", small_db, server_id=i, prg=make_prg())
            for i in range(2)
        ]
        index = 444
        wire_queries = [serialize_query(q) for q in client.query(index)]
        wire_answers = []
        for blob in wire_queries:
            query = deserialize_query(blob)
            wire_answers.append(serialize_answer(servers[query.server_id].answer(query).answer))
        answers = [deserialize_answer(blob) for blob in wire_answers]
        assert client.reconstruct(answers) == small_db.record(index)

    def test_client_upload_accounting_is_the_wire_key_size(self, small_db):
        client = PIRClient(small_db.num_records, small_db.record_size, seed=5)
        queries = [query for index in (0, 7, 444) for query in client.query(index)]
        assert client.stats.upload_bytes == sum(len(serialize_key(q.key)) for q in queries)

    def test_wire_sizes_helper(self, dpf_key):
        query = DPFQuery(query_id=0, server_id=0, key=dpf_key, num_records=4000)
        answer = PIRAnswer(query_id=0, server_id=0, payload=b"\x00" * 32)
        upload, download = wire_sizes(query, answer)
        assert upload > download
        assert download == len(serialize_answer(answer))
