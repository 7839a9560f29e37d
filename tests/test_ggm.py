"""GGM tree helpers: correction-word arrays, level expansion, tree arithmetic."""

import numpy as np
import pytest

from repro.dpf.dpf import DPF, DPFKeys
from repro.dpf.ggm import GGMTree, expand_level
from repro.dpf.prf import SEED_BYTES, make_prg


def _cw(seed_byte: int = 0, t_left: int = 0, t_right: int = 0, keys: int = 1):
    """One level's ``(keys, 16)`` seed and ``(keys, 2)`` bit corrections."""
    return (
        np.full((keys, SEED_BYTES), seed_byte, dtype=np.uint8),
        np.tile(np.asarray([t_left, t_right], dtype=np.uint8), (keys, 1)),
    )


def _one_key(domain_bits: int, party: int, cw_seeds, cw_bits) -> DPFKeys:
    """A one-row batch rooted at ``arange(16)`` with the given word arrays."""
    return DPFKeys(
        domain_bits,
        1,
        roots=np.arange(SEED_BYTES, dtype=np.uint8)[None],
        parties=np.asarray([party], dtype=np.uint8),
        cw_seeds=np.asarray(cw_seeds, dtype=np.uint8)[None],
        cw_bits=np.asarray(cw_bits, dtype=np.uint8)[None],
        finals=np.zeros((1, SEED_BYTES), dtype=np.uint8),
    )


class TestCorrectionWord:
    """Correction words are rows of a key batch's ``cw_seeds`` / ``cw_bits``."""

    def test_valid_construction(self):
        seeds = np.full((3, SEED_BYTES), 7, dtype=np.uint8)
        keys = _one_key(10, 0, seeds, [[0, 0], [1, 0], [0, 1]])
        assert keys.cw_bits[0, 1].tolist() == [1, 0]
        assert keys.cw_seeds[0].shape == (3, SEED_BYTES)
        assert keys[0].tree_depth == 3 and keys[0].party == 0

    def test_rejects_short_seed(self):
        with pytest.raises(ValueError, match="correction word seed must be 16 bytes"):
            _one_key(10, 0, np.zeros((3, 8)), np.zeros((3, 2)))

    def test_rejects_non_bit_corrections(self):
        with pytest.raises(ValueError, match="0 or 1"):
            _one_key(10, 0, np.zeros((3, SEED_BYTES)), [[0, 0], [2, 0], [0, 0]])


class TestExpandLevel:
    def test_output_shapes(self):
        seeds = np.zeros((2, 3, SEED_BYTES), dtype=np.uint8)
        children, child_bits = expand_level(
            make_prg(), seeds, np.zeros((2, 3), dtype=np.uint8), *_cw(keys=2)
        )
        assert children.shape == (2, 3, 2, SEED_BYTES)
        assert child_bits.shape == (2, 3, 2)

    def test_children_are_interleaved(self):
        prg = make_prg()
        seeds = np.arange(2 * SEED_BYTES, dtype=np.uint8).reshape(1, 2, SEED_BYTES)
        children, _ = expand_level(prg, seeds, np.zeros((1, 2), dtype=np.uint8), *_cw())
        child_seeds = children.reshape(-1, SEED_BYTES)
        left, right = make_prg().children(seeds[0]).transpose(1, 0, 2)
        assert np.array_equal(child_seeds[0], left[0])
        assert np.array_equal(child_seeds[1], right[0])
        assert np.array_equal(child_seeds[2], left[1])
        assert np.array_equal(child_seeds[3], right[1])
        assert prg.expand_calls == 2

    def test_correction_applied_only_when_control_set(self):
        seeds = np.arange(2 * SEED_BYTES, dtype=np.uint8).reshape(2, 1, SEED_BYTES)
        # Key 0 carries 0xFF / (1, 1), key 1 0x0F / (0, 1): each key's own word.
        cw_seeds = np.asarray([[0xFF] * SEED_BYTES, [0x0F] * SEED_BYTES], dtype=np.uint8)
        cw_bits = np.asarray([[1, 1], [0, 1]], dtype=np.uint8)
        plain = expand_level(make_prg(), seeds, np.zeros((2, 1), np.uint8), cw_seeds, cw_bits)
        fixed = expand_level(make_prg(), seeds, np.ones((2, 1), np.uint8), cw_seeds, cw_bits)
        mixed = expand_level(make_prg(), seeds, np.asarray([[1], [0]], np.uint8), cw_seeds, cw_bits)
        assert np.array_equal(plain[0][0] ^ 0xFF, fixed[0][0])
        assert np.array_equal(plain[0][1] ^ 0x0F, fixed[0][1])
        assert np.array_equal(plain[1] ^ cw_bits[:, None, :], fixed[1])
        assert np.array_equal(mixed[0][0], fixed[0][0]) and np.array_equal(mixed[0][1], plain[0][1])
        assert np.array_equal(mixed[1], np.stack([fixed[1][0], plain[1][1]]))

    def test_rejects_mismatched_control_bits(self):
        with pytest.raises(ValueError):
            expand_level(
                make_prg(),
                np.zeros((1, 2, SEED_BYTES), dtype=np.uint8),
                np.zeros((1, 3), dtype=np.uint8),
                *_cw(),
            )

    def test_descend_one_matches_expand_level(self):
        """One level of :meth:`DPF.descend` keeps the chosen child of
        :func:`expand_level`, corrections included."""
        keys = _one_key(8, 1, np.full((1, SEED_BYTES), 3), [[1, 0]])
        dpf = DPF(8)
        children, child_bits = expand_level(
            make_prg(),
            keys.roots[:, None],
            keys.parties[:, None],
            keys.cw_seeds[:, 0],
            keys.cw_bits[:, 0],
        )
        for direction in (0, 1):
            seeds, bits = dpf.descend(keys, [direction])
            assert np.array_equal(seeds[0], children[0, 0, direction])
            assert int(bits[0]) == int(child_bits[0, 0, direction])

    def test_descend_one_rejects_bad_direction(self):
        keys = _one_key(8, 0, np.zeros((1, SEED_BYTES)), [[0, 0]])
        with pytest.raises(ValueError, match="outside level 1"):
            DPF(8).descend(keys, [2])
        with pytest.raises(ValueError, match="outside level 1"):
            DPF(8).descend(keys, [-1])


class TestGGMTree:
    def test_leaf_and_node_counts(self):
        tree = GGMTree(depth=4)
        assert tree.num_leaves == 16
        assert tree.num_internal_nodes == 15
        assert tree.num_nodes == 31

    def test_nodes_at_level(self):
        tree = GGMTree(depth=3)
        assert [tree.nodes_at_level(level) for level in range(4)] == [1, 2, 4, 8]

    def test_nodes_at_level_out_of_range(self):
        with pytest.raises(ValueError):
            GGMTree(depth=3).nodes_at_level(4)

    def test_level_memory(self):
        assert GGMTree(depth=5).level_memory_bytes(5) == 32 * (SEED_BYTES + 1)

    def test_prg_call_counts(self):
        tree = GGMTree(depth=6)
        assert tree.prg_calls_level_by_level() == 63
        assert tree.prg_calls_branch_parallel() == 64 * 6
        assert tree.prg_calls_branch_parallel() > tree.prg_calls_level_by_level()

    def test_memory_bounded_interpolates(self):
        tree = GGMTree(depth=10)
        full = tree.prg_calls_level_by_level()
        bounded = tree.prg_calls_memory_bounded(chunk_leaves=64)
        redundant = tree.prg_calls_branch_parallel()
        assert full <= bounded <= redundant

    def test_memory_bounded_full_chunk_equals_level_by_level_plus_zero_descent(self):
        tree = GGMTree(depth=5)
        assert tree.prg_calls_memory_bounded(chunk_leaves=32) == tree.prg_calls_level_by_level()

    def test_memory_bounded_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            GGMTree(depth=3).prg_calls_memory_bounded(0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            GGMTree(depth=-1)
