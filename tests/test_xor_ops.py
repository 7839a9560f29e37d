"""dpXOR kernels: the batched scan and its one-row form."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DatabaseError
from repro.pir.xor_ops import (
    DpXorStats,
    dpxor,
    dpxor_many,
    inner_product_mod,
    pack_selectors,
    selector_range,
    word_view,
)


@pytest.fixture()
def db_and_selector():
    rng = np.random.default_rng(11)
    database = rng.integers(0, 256, size=(200, 32), dtype=np.uint8)
    selector = rng.integers(0, 2, size=200, dtype=np.uint8)
    return database, selector


class TestDpxor:
    def test_single_selection(self):
        database = np.arange(64, dtype=np.uint8).reshape(8, 8)
        selector = np.zeros(8, dtype=np.uint8)
        selector[4] = 1
        assert np.array_equal(dpxor(database, pack_selectors(selector)), database[4])

    def test_no_selection_is_zero(self):
        database = np.ones((5, 3), dtype=np.uint8)
        assert np.array_equal(
            dpxor(database, pack_selectors(np.zeros(5, dtype=np.uint8))), np.zeros(3, dtype=np.uint8)
        )

    def test_xor_of_pair(self):
        database = np.arange(32, dtype=np.uint8).reshape(8, 4)
        selector = np.zeros(8, dtype=np.uint8)
        selector[[2, 5]] = 1
        assert np.array_equal(dpxor(database, pack_selectors(selector)), database[2] ^ database[5])

    def test_one_dimensional_database_rejected(self):
        with pytest.raises(DatabaseError, match="2-D"):
            dpxor(np.zeros(8, dtype=np.uint8), pack_selectors(np.ones(8, dtype=np.uint8)))

    def test_matches_manual_reduction(self, db_and_selector):
        database, selector = db_and_selector
        expected = np.zeros(32, dtype=np.uint8)
        for i in range(200):
            if selector[i]:
                expected ^= database[i]
        assert np.array_equal(dpxor(database, pack_selectors(selector)), expected)

    def test_stats_charge_full_database(self, db_and_selector):
        database, selector = db_and_selector
        stats = DpXorStats()
        dpxor(database, pack_selectors(selector), stats=stats)
        assert stats.records_scanned == 200
        assert stats.db_bytes_read == 200 * 32
        assert stats.records_selected == int(selector.sum())
        assert stats.total_bytes_moved > stats.db_bytes_read

    def test_length_mismatch_rejected(self):
        with pytest.raises(DatabaseError):
            dpxor(np.zeros((4, 2), dtype=np.uint8), pack_selectors(np.zeros(9, dtype=np.uint8)))


class TestInnerProductMod:
    def test_one_hot_selects_record(self):
        database = np.arange(12, dtype=np.uint8).reshape(3, 4)
        weights = np.array([0, 1, 0], dtype=np.uint64)
        result = inner_product_mod(database, weights, modulus=257)
        assert np.array_equal(result, database[1].astype(np.uint64))

    def test_additive_shares_reconstruct(self):
        rng = np.random.default_rng(3)
        database = rng.integers(0, 256, size=(50, 8), dtype=np.uint8)
        index, p = 17, 65537
        share0 = rng.integers(0, p, size=50, dtype=np.uint64)
        share1 = (np.uint64(p) - share0) % np.uint64(p)
        share1[index] = (share1[index] + np.uint64(1)) % np.uint64(p)
        combined = (
            inner_product_mod(database, share0, p) + inner_product_mod(database, share1, p)
        ) % p
        assert np.array_equal(combined, database[index].astype(np.uint64))

    def test_rejects_small_modulus(self):
        with pytest.raises(DatabaseError):
            inner_product_mod(np.zeros((2, 2), dtype=np.uint8), np.zeros(2), modulus=1)

    def test_rejects_weight_mismatch(self):
        with pytest.raises(DatabaseError):
            inner_product_mod(np.zeros((2, 2), dtype=np.uint8), np.zeros(3), modulus=17)


class TestDpxorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        num_records=st.integers(min_value=1, max_value=100),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_linearity_over_selectors(self, num_records, seed):
        """dpxor(v1 ^ v2) == dpxor(v1) ^ dpxor(v2): the property PIR relies on."""
        rng = np.random.default_rng(seed)
        database = rng.integers(0, 256, size=(num_records, 16), dtype=np.uint8)
        v1 = rng.integers(0, 2, size=num_records, dtype=np.uint8)
        v2 = rng.integers(0, 2, size=num_records, dtype=np.uint8)
        combined = dpxor(database, pack_selectors(v1 ^ v2))
        assert np.array_equal(
            combined, dpxor(database, pack_selectors(v1)) ^ dpxor(database, pack_selectors(v2))
        )


class TestDpxorMany:
    def _random_case(self, num_records, record_size, batch, seed):
        rng = np.random.default_rng(seed)
        database = rng.integers(0, 256, size=(num_records, record_size), dtype=np.uint8)
        selectors = pack_selectors(rng.integers(0, 2, size=(batch, num_records), dtype=np.uint8))
        return database, selectors

    @pytest.mark.parametrize("record_size", [1, 3, 7, 8, 24, 32, 40])
    def test_matches_sequential_dpxor(self, record_size):
        database, selectors = self._random_case(100, record_size, 9, seed=21)
        expected = np.stack([dpxor(database, row) for row in selectors])
        assert np.array_equal(dpxor_many(database, selectors), expected)

    def test_single_query_batch(self):
        database, selectors = self._random_case(50, 16, 1, seed=22)
        assert np.array_equal(
            dpxor_many(database, selectors), dpxor(database, selectors[0])[None, :]
        )

    def test_all_zero_selector_row(self):
        database, selectors = self._random_case(60, 8, 4, seed=23)
        selectors[2] = 0
        result = dpxor_many(database, selectors)
        assert np.array_equal(result[2], np.zeros(8, dtype=np.uint8))
        assert np.array_equal(result[0], dpxor(database, selectors[0]))

    def test_chunk_boundary_forced(self):
        # A chunk smaller than the record count forces the multi-chunk walk.
        database, selectors = self._random_case(97, 8, 5, seed=24)
        expected = np.stack([dpxor(database, row) for row in selectors])
        assert np.array_equal(
            dpxor_many(database, selectors, chunk_records=16), expected
        )

    def test_stats_identical_to_sequential(self):
        database, selectors = self._random_case(80, 32, 6, seed=25)
        sequential = DpXorStats()
        for row in selectors:
            dpxor(database, row, stats=sequential)
        batched = DpXorStats()
        dpxor_many(database, selectors, stats=batched)
        assert batched == sequential

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DatabaseError):
            dpxor_many(np.zeros((4, 2), dtype=np.uint8), pack_selectors(np.zeros(4, dtype=np.uint8)))
        with pytest.raises(DatabaseError):
            dpxor_many(
                np.zeros((4, 2), dtype=np.uint8), pack_selectors(np.zeros((2, 9), dtype=np.uint8))
            )

    @given(
        num_records=st.integers(min_value=1, max_value=80),
        record_size=st.integers(min_value=1, max_value=17),
        batch=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_sequential(self, num_records, record_size, batch, seed):
        database, selectors = self._random_case(num_records, record_size, batch, seed)
        expected = np.stack([dpxor(database, row) for row in selectors])
        assert np.array_equal(dpxor_many(database, selectors), expected)


class TestPatternBucketedScan:
    """The batched kernel against an oracle written here, not in the library."""

    ROW_KINDS = ("random", "zeros", "ones", "duplicate", "nonbinary")

    @staticmethod
    def _oracle(database, selectors):
        return np.stack(
            [np.bitwise_xor.reduce(database[row.astype(bool)], axis=0) for row in selectors]
        )

    @given(
        num_records=st.sampled_from([0, 1, 7, 255, 256, 257, 1000]),
        record_size=st.sampled_from([1, 3, 8, 24, 32, 520, 8192]),
        row_kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=20),
        margins=st.tuples(st.integers(0, 9), st.integers(0, 9)),
        window=st.sampled_from([None, 1, 3, "N-1", "N+5"]),
        stale_out=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_oracle(
        self, num_records, record_size, row_kinds, margins, window, stale_out, seed
    ):
        rng = np.random.default_rng(seed)
        batch = len(row_kinds)  # 1..20 crosses the 8/9 and 16/17 group seams
        database = rng.integers(0, 256, size=(num_records, record_size), dtype=np.uint8)
        # A cut of a wider matrix, as the sharded split passes them.
        left, right = margins
        matrix = rng.integers(0, 2, size=(batch, left + num_records + right), dtype=np.uint8)
        selectors = matrix[:, left : left + num_records]
        for row, kind in enumerate(row_kinds):
            if kind == "zeros":
                selectors[row] = 0
            elif kind == "ones":
                selectors[row] = 1
            elif kind == "duplicate":
                selectors[row] = selectors[0]
            elif kind == "nonbinary":  # any non-zero byte selects
                selectors[row] *= rng.integers(1, 256, size=num_records, dtype=np.uint8)
        chunk_records = {"N-1": max(1, num_records - 1), "N+5": num_records + 5}.get(
            window, window
        )
        packed = selector_range(pack_selectors(matrix), left, left + num_records)
        out = np.full((batch, record_size), 0xA5, dtype=np.uint8) if stale_out else None
        stats = DpXorStats()
        got = dpxor_many(database, packed, stats=stats, chunk_records=chunk_records, out=out)
        assert np.array_equal(got, self._oracle(database, selectors))
        if stale_out:
            assert got is out
        # What ``batch`` sequential full scans charge, spelled out.
        assert stats == DpXorStats(
            records_scanned=batch * num_records,
            records_selected=int(np.count_nonzero(selectors)),
            db_bytes_read=batch * num_records * record_size,
            selector_bytes_read=batch * num_records,
            output_bytes_written=batch * record_size,
        )
        sequential = DpXorStats()
        for row in packed:
            dpxor(database, row, stats=sequential)
        assert stats == sequential


class TestWordFastPaths:
    def test_word_view_word_aligned(self):
        aligned = np.zeros((4, 16), dtype=np.uint8)
        view = word_view(aligned)
        assert view is not None and view.dtype == np.uint64

    def test_word_view_odd_and_noncontiguous(self):
        assert word_view(np.zeros((4, 7), dtype=np.uint8)) is None
        strided = np.zeros((4, 32), dtype=np.uint8)[:, ::2]
        assert word_view(strided) is None
