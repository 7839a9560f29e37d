"""Naive additive-share query scheme (paper §2.3, Fig. 2)."""

import numpy as np
import pytest

from repro.dpf.naive import NaiveShare, NaiveXorQueryScheme, xor_select


class TestNaiveShare:
    def test_valid_share(self):
        share = NaiveShare(server_id=0, bits=np.array([0, 1, 1, 0], dtype=np.uint8))
        assert share.num_items == 4
        assert share.size_bytes == 1

    def test_size_bytes_rounds_up(self):
        share = NaiveShare(server_id=0, bits=np.zeros(9, dtype=np.uint8))
        assert share.size_bytes == 2

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            NaiveShare(server_id=0, bits=np.array([0, 2], dtype=np.uint8))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            NaiveShare(server_id=0, bits=np.zeros((2, 2), dtype=np.uint8))


class TestScheme:
    def test_paper_example_shape(self):
        """The Fig. 2 example: 4-item DB, index 1, two servers."""
        scheme = NaiveXorQueryScheme(num_items=4, seed=0)
        shares = scheme.share(1)
        assert len(shares) == 2
        indicator = NaiveXorQueryScheme.reconstruct_indicator(shares)
        assert list(indicator) == [0, 1, 0, 0]

    def test_recover_index(self):
        scheme = NaiveXorQueryScheme(num_items=100, seed=3)
        shares = scheme.share(42)
        assert NaiveXorQueryScheme.recover_index(shares) == 42

    def test_three_servers(self):
        scheme = NaiveXorQueryScheme(num_items=50, num_servers=3, seed=1)
        shares = scheme.share(7)
        assert len(shares) == 3
        assert NaiveXorQueryScheme.recover_index(shares) == 7

    def test_single_share_is_not_one_hot(self):
        """Any individual share must not reveal the index (it is uniform)."""
        scheme = NaiveXorQueryScheme(num_items=256, seed=5)
        shares = scheme.share(100)
        for share in shares:
            assert int(share.bits.sum()) > 1

    def test_unseeded_schemes_draw_independent_shares(self):
        # A fixed default stream would hand every unseeded client the same
        # shares: a server knowing the default regenerates the other share.
        first = NaiveXorQueryScheme(num_items=256).share(5)
        second = NaiveXorQueryScheme(num_items=256).share(5)
        assert not np.array_equal(first[0].bits, second[0].bits)
        assert NaiveXorQueryScheme.recover_index(first) == 5
        assert NaiveXorQueryScheme.recover_index(second) == 5

    def test_unseeded_naive_clients_send_different_shares(self):
        from repro.pir.client import PIRClient

        first = PIRClient(256, 8, scheme="naive").query(5)
        second = PIRClient(256, 8, scheme="naive").query(5)
        assert not np.array_equal(first[0].share.bits, second[0].share.bits)

    def test_seeded_shares_are_pinned(self):
        shares = NaiveXorQueryScheme(num_items=64, seed=7).share(5)
        packed = [np.packbits(share.bits, bitorder="little").tobytes().hex() for share in shares]
        assert packed == ["9df9ca5870d40e95", "bdf9ca5870d40e95"]

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            NaiveXorQueryScheme(num_items=10, seed=1).share(10)

    def test_requires_two_servers(self):
        with pytest.raises(ValueError):
            NaiveXorQueryScheme(num_items=10, num_servers=1)

    def test_recover_rejects_non_one_hot(self):
        scheme = NaiveXorQueryScheme(num_items=8, seed=2)
        share0, _ = scheme.share(3)
        with pytest.raises(ValueError):
            NaiveXorQueryScheme.recover_index([share0, share0])

    def test_reconstruct_rejects_empty(self):
        with pytest.raises(ValueError):
            NaiveXorQueryScheme.reconstruct_indicator([])

    def test_mismatched_share_lengths_rejected(self):
        a = NaiveShare(server_id=0, bits=np.zeros(4, dtype=np.uint8))
        b = NaiveShare(server_id=1, bits=np.zeros(5, dtype=np.uint8))
        with pytest.raises(ValueError):
            NaiveXorQueryScheme.reconstruct_indicator([a, b])


class TestXorSelect:
    def test_selects_single_record(self):
        database = np.arange(40, dtype=np.uint8).reshape(10, 4)
        selector = np.zeros(10, dtype=np.uint8)
        selector[3] = 1
        assert np.array_equal(xor_select(database, selector), database[3])

    def test_empty_selection_is_zero(self):
        database = np.ones((5, 4), dtype=np.uint8)
        assert np.array_equal(xor_select(database, np.zeros(5, dtype=np.uint8)), np.zeros(4, dtype=np.uint8))

    def test_xor_of_pair(self):
        database = np.array([[1, 2], [4, 8], [16, 32]], dtype=np.uint8)
        selector = np.array([1, 0, 1], dtype=np.uint8)
        assert np.array_equal(xor_select(database, selector), np.array([17, 34], dtype=np.uint8))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_select(np.zeros((4, 2), dtype=np.uint8), np.zeros(5, dtype=np.uint8))

    def test_rejects_1d_database(self):
        with pytest.raises(ValueError):
            xor_select(np.zeros(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8))
