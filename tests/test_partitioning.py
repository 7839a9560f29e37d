"""Database/selector partitioning across DPUs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CapacityError, ConfigurationError
from repro.common.units import MIB
from repro.core.partitioning import PartitionLayout, check_mram_capacity
from repro.pir.database import Database
from repro.pir.xor_ops import pack_selectors
from test_dpu_pipeline_many import database_chunks, selector_chunks


def _layout(database, num_dpus):
    return PartitionLayout.linear(database.num_records, database.record_size, num_dpus)


class TestLayout:
    def test_layout_covers_database(self, small_db):
        layout = _layout(small_db, 7)
        assert layout.validate_coverage()
        assert layout.num_dpus == 7
        assert layout.num_records == small_db.num_records

    def test_max_records_per_dpu_is_ceiling(self, small_db):
        layout = _layout(small_db, 7)
        assert layout.max_records_per_dpu == -(-small_db.num_records // 7)

    def test_records_and_bytes_on_dpu(self, small_db):
        layout = _layout(small_db, 4)
        assert layout.records_on_dpu(0) == 256
        assert layout.bytes_on_dpu(0) == 256 * small_db.record_size

    def test_more_dpus_than_records(self):
        db = Database.random(3, 8, seed=1)
        layout = _layout(db, 8)
        assert layout.validate_coverage()
        assert sum(layout.records_on_dpu(i) for i in range(8)) == 3

    def test_zero_dpus_rejected(self, small_db):
        with pytest.raises(ConfigurationError):
            _layout(small_db, 0)


class TestCapacity:
    def test_fits_in_paper_mram(self, small_db):
        layout = _layout(small_db, 4)
        assert check_mram_capacity(layout, mram_bytes_per_dpu=64 * MIB) == 256 * 32

    def test_overflow_detected(self, small_db):
        layout = _layout(small_db, 1)
        with pytest.raises(CapacityError):
            check_mram_capacity(layout, mram_bytes_per_dpu=1024)


class TestChunks:
    def test_database_chunks_reassemble(self, small_db):
        layout = _layout(small_db, 5)
        chunks = database_chunks(layout, small_db)
        rebuilt = np.concatenate(chunks).reshape(small_db.num_records, small_db.record_size)
        assert np.array_equal(rebuilt, small_db.records)

    def test_selector_chunks_pack_bits(self, small_db):
        layout = _layout(small_db, 5)
        selector = np.random.default_rng(0).integers(0, 2, small_db.num_records, dtype=np.uint8)
        chunks = selector_chunks(layout, pack_selectors(selector[None]))
        assert len(chunks) == 5
        rebuilt = np.concatenate(
            [
                np.unpackbits(chunk[0], bitorder="little")[: stop - start]
                for chunk, (start, stop) in zip(chunks, layout.bounds.tolist())
            ]
        )
        assert np.array_equal(rebuilt, selector)

    def test_selector_length_mismatch_rejected(self, small_db):
        layout = _layout(small_db, 2)
        with pytest.raises(ConfigurationError):
            selector_chunks(layout, np.zeros((1, 10), dtype=np.uint8))

    def test_packed_selector_bytes(self, small_db):
        layout = _layout(small_db, 4)
        total = layout.selector_bytes_per_dpu(1).sum()
        assert total == 4 * (256 // 8)

    def test_kwargs_for_kernel(self, small_db):
        # The kernel's per-DPU ``num_records`` argument is the layout's records.
        layout = _layout(small_db, 3)
        assert layout.records.shape == (3,)
        assert layout.record_size == small_db.record_size
        assert layout.records.sum() == small_db.num_records


class TestPartitioningProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        num_records=st.integers(min_value=1, max_value=2000),
        num_dpus=st.integers(min_value=1, max_value=64),
    )
    def test_layout_tiles_exactly(self, num_records, num_dpus):
        db = Database.zeros(num_records, 4)
        layout = _layout(db, num_dpus)
        assert layout.validate_coverage()
        sizes = [layout.records_on_dpu(i) for i in range(num_dpus)]
        assert sum(sizes) == num_records
        assert max(sizes) - min(sizes) <= 1
