"""PIR database abstraction."""

import numpy as np
import pytest

from repro.common.errors import DatabaseError
from repro.common.rng import make_rng
from repro.pir.database import Database


class TestConstruction:
    def test_random_shape(self):
        db = Database.random(100, 32, seed=1)
        assert db.num_records == 100
        assert db.record_size == 32
        assert db.size_bytes == 3200

    def test_random_is_deterministic(self):
        assert Database.random(50, 16, seed=7) == Database.random(50, 16, seed=7)

    @pytest.mark.parametrize(
        "num_records,record_size",
        [(65536, 32), (4096, 32), (16384, 64), (1000, 13), (7, 3), (1, 1), (3, 5)],
    )
    @pytest.mark.parametrize("seed", [None, 0, 7])
    def test_random_bytes_are_the_uint8_stream(self, num_records, record_size, seed):
        """Drawn as 64-bit words, the records are the bytes a fresh generator's
        ``integers(0, 256, dtype=uint8)`` gives, totals off a multiple of 8
        included (1000 x 13, 7 x 3, 1 x 1, 3 x 5)."""
        expected = make_rng(seed).integers(
            0, 256, size=(num_records, record_size), dtype=np.uint8
        )
        assert np.array_equal(Database.random(num_records, record_size, seed=seed).records, expected)

    def test_from_records(self):
        db = Database.from_records([b"aaaa", b"bbbb", b"cccc"])
        assert db.num_records == 3
        assert db.record(1) == b"bbbb"

    def test_from_records_rejects_mixed_lengths(self):
        with pytest.raises(DatabaseError):
            Database.from_records([b"aaaa", b"bb"])

    def test_from_records_rejects_empty(self):
        with pytest.raises(DatabaseError):
            Database.from_records([])

    def test_zeros(self):
        db = Database.zeros(10, 8)
        assert db.record(3) == bytes(8)

    def test_rejects_empty_dimensions(self):
        with pytest.raises(DatabaseError):
            Database(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(DatabaseError):
            Database.random(0, 32)

    def test_rejects_1d_array(self):
        with pytest.raises(DatabaseError):
            Database(np.zeros(16, dtype=np.uint8))

    def test_records_are_read_only(self):
        db = Database.random(4, 4, seed=1)
        with pytest.raises(ValueError):
            db.records[0, 0] = 7


class TestAccess:
    def test_getitem_matches_record(self, small_db):
        assert small_db[5] == small_db.record(5)

    def test_len_and_iter(self, tiny_db):
        assert len(tiny_db) == 64
        assert sum(1 for _ in tiny_db) == 64

    def test_out_of_range_index(self, tiny_db):
        with pytest.raises(DatabaseError):
            tiny_db.record(64)
        with pytest.raises(DatabaseError):
            tiny_db.record(-1)

    def test_index_bits(self):
        assert Database.random(1024, 8, seed=1).index_bits == 10
        assert Database.random(1025, 8, seed=1).index_bits == 11
        assert Database.random(1, 8, seed=1).index_bits == 1

    def test_repr_mentions_size(self, tiny_db):
        assert "Database(" in repr(tiny_db)


class TestChunking:
    def test_chunk_bounds_cover_everything(self, small_db):
        bounds = small_db.chunk_bounds(7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == small_db.num_records
        total = sum(stop - start for start, stop in bounds)
        assert total == small_db.num_records

    def test_chunk_bounds_near_equal(self, small_db):
        bounds = small_db.chunk_bounds(7)
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_records(self):
        db = Database.random(3, 4, seed=1)
        bounds = db.chunk_bounds(8)
        assert len(bounds) == 8
        assert sum(stop - start for start, stop in bounds) == 3

    def test_chunk_view(self, small_db):
        chunk = small_db.chunk(10, 20)
        assert chunk.shape == (10, small_db.record_size)
        assert np.array_equal(chunk[0], np.frombuffer(small_db.record(10), dtype=np.uint8))

    def test_chunk_invalid_range(self, small_db):
        with pytest.raises(DatabaseError):
            small_db.chunk(20, 10)

    def test_chunk_bounds_rejects_zero(self, small_db):
        with pytest.raises(DatabaseError):
            small_db.chunk_bounds(0)


class TestUpdates:
    def test_with_updates_changes_only_targets(self, tiny_db):
        new_record = bytes(range(tiny_db.record_size))
        updated = tiny_db.with_updates([(5, new_record)])
        assert updated.record(5) == new_record
        assert updated.record(6) == tiny_db.record(6)
        assert tiny_db.record(5) != new_record  # original untouched

    def test_with_updates_rejects_bad_index(self, tiny_db):
        with pytest.raises(DatabaseError):
            tiny_db.with_updates([(1000, bytes(tiny_db.record_size))])

    def test_with_updates_rejects_bad_length(self, tiny_db):
        with pytest.raises(DatabaseError):
            tiny_db.with_updates([(0, b"short")])
