"""The packed selector format of ``repro.pir.xor_ops``, held against unpacked bits.

A batch of selector shares over ``N`` records is a ``(B, ceil(N / 8))`` uint8
matrix: bit ``j % 8`` of byte ``j // 8`` selects record ``j`` and the bits past
``N`` are zero.  Every helper that reads the format is checked here against
the plain 0/1 bits it stands for, at bounds on and off the 8-record grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DatabaseError, KeyMismatchError
from repro.core.engine import available_backends, create_server
from repro.dpf.dpf import DPF
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.xor_ops import (
    GROUP_ROWS,
    dpxor_many,
    pack_selectors,
    selected_counts,
    selector_bytes,
    selector_patterns,
    selector_range,
)


def _unpack(packed, count):
    return np.unpackbits(packed, axis=-1, count=count, bitorder="little")


def _bits(rng, batch, num_records):
    return rng.integers(0, 2, size=(batch, num_records), dtype=np.uint8)


class TestPackSelectors:
    def test_little_bit_order_with_zero_padding(self):
        bits = np.zeros(11, dtype=np.uint8)
        bits[[0, 3, 8, 10]] = 1
        assert pack_selectors(bits).tolist() == [0b1001, 0b101]

    def test_any_non_zero_value_selects(self):
        assert np.array_equal(
            pack_selectors(np.array([[0, 7, 255, 0, 1]], dtype=np.uint8)),
            pack_selectors(np.array([[0, 1, 1, 0, 1]], dtype=np.uint8)),
        )

    @pytest.mark.parametrize("num_records", [0, 1, 7, 8, 9, 64, 65])
    def test_width(self, num_records):
        packed = pack_selectors(np.ones((3, num_records), dtype=np.uint8))
        assert packed.shape == (3, selector_bytes(num_records))


class TestSelectorRange:
    @given(
        num_records=st.integers(min_value=0, max_value=40),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_cut_matches_the_bits(self, num_records, batch, seed):
        bits = _bits(np.random.default_rng(seed), batch, num_records)
        packed = pack_selectors(bits)
        for start in range(num_records + 1):
            for stop in range(start, num_records + 1):
                cut = selector_range(packed, start, stop)
                assert cut.shape == (batch, selector_bytes(stop - start))
                unpacked = _unpack(cut, 8 * cut.shape[1])
                assert np.array_equal(unpacked[:, : stop - start], bits[:, start:stop])
                assert not unpacked[:, stop - start :].any()  # zero padding
                on_grid = start % 8 == 0 and stop % 8 == 0
                assert np.shares_memory(cut, packed) == (on_grid and cut.size > 0)


class TestSelectedCounts:
    @given(
        num_records=st.integers(min_value=0, max_value=300),
        batch=st.integers(min_value=1, max_value=5),
        cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiling_counts_match_the_bits(self, num_records, batch, cuts, seed):
        bits = _bits(np.random.default_rng(seed), batch, num_records)
        edges = sorted({0, num_records, *(cut % (num_records + 1) for cut in cuts)})
        # Repeat an edge so the tiling holds an empty range too.
        bounds = [(edges[0], edges[0])] + list(zip(edges, edges[1:]))
        counts = selected_counts(pack_selectors(bits), bounds)
        expected = np.array(
            [[row[start:stop].sum() for start, stop in bounds] for row in bits]
        ).reshape(batch, len(bounds))
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("num_records", [1, 7, 8, 9, 23, 40])
    def test_every_bound(self, num_records):
        bits = _bits(np.random.default_rng(num_records), 3, num_records)
        bounds = [
            (start, stop)
            for start in range(num_records + 1)
            for stop in range(start, num_records + 1)
        ]
        counts = selected_counts(pack_selectors(bits), bounds)
        expected = np.array([[row[a:b].sum() for a, b in bounds] for row in bits])
        assert np.array_equal(counts, expected)

    def test_counts_of_a_cut(self):
        bits = _bits(np.random.default_rng(4), 2, 50)
        cut = selector_range(pack_selectors(bits), 3, 45)
        assert np.array_equal(
            selected_counts(cut, [(0, 42)])[:, 0], bits[:, 3:45].sum(axis=1)
        )


class TestSelectorPatterns:
    @given(
        batch=st.integers(min_value=1, max_value=20),
        num_records=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_pattern_bit_r_is_row_r_of_the_group(self, batch, num_records, seed):
        bits = _bits(np.random.default_rng(seed), batch, num_records)
        patterns = selector_patterns(pack_selectors(bits), num_records)
        groups = -(-batch // GROUP_ROWS)
        expected = np.zeros((groups, num_records), dtype=np.uint8)
        for row in range(batch):
            expected[row // GROUP_ROWS] |= bits[row] << (row % GROUP_ROWS)
        assert patterns.dtype == np.uint8
        assert np.array_equal(patterns, expected)

    def test_patterns_of_an_off_grid_cut(self):
        bits = _bits(np.random.default_rng(5), 8, 61)
        cut = selector_range(pack_selectors(bits), 13, 58)
        expected = np.bitwise_or.reduce(
            bits[:, 13:58] << np.arange(8, dtype=np.uint8)[:, None], axis=0
        )
        assert np.array_equal(selector_patterns(cut, 45), expected[None])


class TestDpxorManyOnPackedRows:
    NUM_RECORDS = 203  # N % 8 == 3: the last byte is partial

    @staticmethod
    def _per_row(database, bits):
        return np.stack(
            [
                np.bitwise_xor.reduce(database[row.astype(bool)], axis=0)
                if row.any()
                else np.zeros(database.shape[1], dtype=np.uint8)
                for row in bits
            ]
        )

    @pytest.mark.parametrize("record_size", [1, 7, 32, 520])
    @pytest.mark.parametrize("batch", range(1, 21))
    def test_matches_the_per_row_reference(self, batch, record_size):
        rng = np.random.default_rng(batch * 1000 + record_size)
        database = rng.integers(
            0, 256, size=(self.NUM_RECORDS, record_size), dtype=np.uint8
        )
        bits = _bits(rng, batch, self.NUM_RECORDS)
        assert np.array_equal(
            dpxor_many(database, pack_selectors(bits)), self._per_row(database, bits)
        )

    def test_unpacked_matrix_rejected(self):
        database = np.zeros((16, 4), dtype=np.uint8)
        with pytest.raises(DatabaseError):
            dpxor_many(database, np.zeros((2, 16), dtype=np.uint8))


class TestEvalPackedMany:
    DOMAIN_BITS = 9  # 512 points: four 128-point leaf blocks

    @pytest.mark.parametrize("num_points", [1, 7, 9, 100, 127, 129, 200, 255, 257, 511])
    def test_off_grid_points(self, num_points):
        dpf = DPF(self.DOMAIN_BITS, prg=make_prg(), seed=num_points)
        alphas = [0, num_points - 1, num_points // 2, 300 % num_points]
        keys = dpf.gen_many(alphas).keys
        packed = dpf.eval_packed_many(keys, num_points)
        assert packed.shape == (len(keys), selector_bytes(num_points))
        full = _unpack(packed, 8 * packed.shape[1])
        assert not full[:, num_points:].any()  # tail bits are zero
        assert np.array_equal(full[:, :num_points], dpf.eval_full_bits_many(keys, num_points))
        assert np.array_equal(
            full[:, :num_points], dpf.eval_full_many(keys, num_points).astype(np.uint8)
        )
        # The two parties' rows XOR to the point function.
        points = np.bitwise_xor(full[0::2], full[1::2])[:, :num_points]
        expected = np.zeros_like(points)
        expected[np.arange(len(alphas)), alphas] = 1
        assert np.array_equal(points, expected)

    def test_rows_view_the_leaf_blocks(self):
        dpf = DPF(self.DOMAIN_BITS, prg=make_prg(), seed=1)
        packed = dpf.eval_packed_many(dpf.gen_many([3, 77]).keys)
        assert packed.shape == (4, 64) and packed.base is not None

    def test_multi_bit_outputs_rejected(self):
        dpf = DPF(4, output_bits=8, prg=make_prg(), seed=2)
        with pytest.raises(KeyMismatchError):
            dpf.eval_packed_many(dpf.gen_many([1], beta=5).keys)


class TestEngineSelectorMatrix:
    NUM_RECORDS, RECORD_SIZE = 75, 16

    def _queries(self, count):
        client = PIRClient(self.NUM_RECORDS, self.RECORD_SIZE, seed=3, prg=make_prg())
        return client.query_batch(list(range(3, 3 + 7 * count, 7)))[0]

    def test_dpf_flush_is_packed(self):
        database = Database.random(self.NUM_RECORDS, self.RECORD_SIZE, seed=2)
        engine = create_server("reference", database, server_id=0).engine
        matrix = engine.selector_matrix(self._queries(5))
        assert matrix.shape == (5, selector_bytes(self.NUM_RECORDS))
        assert not _unpack(matrix, 8 * matrix.shape[1])[:, self.NUM_RECORDS :].any()

    @pytest.mark.parametrize("kind", sorted(available_backends()))
    def test_every_backend_scans_packed_rows(self, kind):
        database = Database.random(self.NUM_RECORDS, self.RECORD_SIZE, seed=2)
        engine = create_server(kind, database, server_id=0).engine
        shapes = []
        scan = engine.backend.execute_many

        def recording(selector_matrix, lanes, costs):
            shapes.append(np.shape(selector_matrix))
            return scan(selector_matrix, lanes, costs)

        engine.backend.execute_many = recording
        engine.answer_many(self._queries(4))
        assert shapes == [(4, selector_bytes(self.NUM_RECORDS))]
