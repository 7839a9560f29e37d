"""The fused level kernel against the one-key level walk it replaced.

Full-domain evaluation used to walk one key at a time in effect: per level a
``prg.expand`` call, each child corrected on its own, and the two children
interleaved through a fresh array — ``_oracle_level`` below, with the path
walk (``_oracle_descend``) of the same code.  The oracle walks run on the
block-at-a-time pure-Python AES (``aes_oracle.OracleAESPRG``), the array walk
(:meth:`DPF.expand_front`, :meth:`DPF.descend`, the traversals) on the
OpenSSL-backed fixed-key PRG, and the latter must reproduce the former's leaf
seeds, control bits, PRG counters and :class:`EvalStats` exactly, from the
root and from a mid-tree front, and at point counts off the 128-point block
grid.
"""

import numpy as np
import pytest
from aes_oracle import OracleAESPRG

from repro.dpf.dpf import DPF, EvalStats
from repro.dpf.prf import SEED_BYTES
from repro.dpf.traversal import TraversalStats, make_traversal


def _oracle_level(prg, seeds, controls, cw_seed, cw_bits):
    """One key's level: expand, correct the children of set parents, interleave."""
    left, right, t_left, t_right = (np.array(part) for part in prg.expand(seeds))
    gate = controls[:, None]
    left ^= gate * cw_seed
    right ^= gate * cw_seed
    t_left ^= controls * cw_bits[0]
    t_right ^= controls * cw_bits[1]
    child_seeds = np.empty((2 * len(seeds), SEED_BYTES), dtype=np.uint8)
    child_bits = np.empty(2 * len(seeds), dtype=np.uint8)
    child_seeds[0::2], child_seeds[1::2] = left, right
    child_bits[0::2], child_bits[1::2] = t_left, t_right
    return child_seeds, child_bits


def _root(keys, row):
    """Key row ``row``'s one-node level-0 front."""
    return keys.roots[row : row + 1], keys.parties[row : row + 1]


def _oracle_front(prg, keys, row, seeds, controls, first_level, last_level):
    for level in range(first_level, last_level):
        seeds, controls = _oracle_level(
            prg, seeds, controls, keys.cw_seeds[row, level], keys.cw_bits[row, level]
        )
    return seeds, controls


def _oracle_descend(prg, keys, row, node, depth):
    """One path, one node per level: expand it and keep the child on the path."""
    seed, control = _root(keys, row)
    for level in range(depth):
        children, bits = _oracle_level(
            prg, seed, control, keys.cw_seeds[row, level], keys.cw_bits[row, level]
        )
        direction = (node >> (depth - 1 - level)) & 1
        seed, control = children[direction : direction + 1], bits[direction : direction + 1]
    return seed, control


def _oracle_values(prg, dpf, keys, row, seeds, controls, num_points):
    blocks = prg.convert(seeds) ^ controls[:, None] * keys.finals[row]
    return dpf.slot_values(blocks[None], num_points)[0]


#: (domain_bits, output_bits, queries, num_points).
_SHAPES = [
    (14, 1, 3, (1 << 14) - 77),
    (9, 64, 2, 301),
    (11, 8, 4, 1 << 11),
    (6, 1, 2, 50),
    (10, 1, 2, 1000),
    (6, 8, 1, 37),
]


def _keys(domain_bits, output_bits, queries):
    dpf = DPF(domain_bits, output_bits, seed=domain_bits + queries)
    alphas = np.random.default_rng(domain_bits).integers(0, dpf.domain_size, size=queries)
    return dpf, dpf.gen_many(alphas.tolist(), (1 << output_bits) - 1).keys


@pytest.mark.parametrize("domain_bits,output_bits,queries,num_points", _SHAPES)
def test_full_walk_matches_the_one_key_oracle(
    domain_bits, output_bits, queries, num_points
):
    dpf, keys = _keys(domain_bits, output_bits, queries)
    dpf.prg.reset_counters()
    seeds, controls = dpf.expand_front(keys, keys.roots, keys.parties)
    walk_expansions = dpf.prg.expand_calls
    stats = EvalStats()
    values = dpf.eval_full_many(keys, num_points, stats=stats)

    oracle = OracleAESPRG()
    fronts = [
        _oracle_front(oracle, keys, row, *_root(keys, row), 0, dpf.tree_depth)
        for row in range(len(keys))
    ]
    assert np.array_equal(seeds, np.concatenate([front[0] for front in fronts]))
    assert np.array_equal(controls, np.concatenate([front[1] for front in fronts]))
    assert walk_expansions == oracle.expand_calls
    oracle.reset_counters()
    needed = dpf.num_blocks(num_points)
    for row, (leaf_seeds, leaf_controls) in enumerate(fronts):
        expected = _oracle_values(
            oracle, dpf, keys, row, leaf_seeds[:needed], leaf_controls[:needed], num_points
        )
        assert np.array_equal(values[row], expected)
    assert oracle.expand_calls == 0 and dpf.prg.convert_calls == oracle.convert_calls
    assert stats == EvalStats(
        prg_expansions=walk_expansions,
        aes_block_equivalents=2 * walk_expansions + oracle.convert_calls,
        peak_nodes_in_memory=1 << dpf.tree_depth,
        leaves_evaluated=len(keys) * num_points,
    )


@pytest.mark.parametrize("domain_bits,output_bits,queries,num_points", _SHAPES)
def test_mid_tree_fronts_match_the_oracle(domain_bits, output_bits, queries, num_points):
    """``first_level > 0``: a batch resumes from every intermediate level."""
    dpf, keys = _keys(domain_bits, output_bits, queries)
    oracle = OracleAESPRG()
    rows = range(len(keys))
    def front(row, level):
        return _oracle_front(oracle, keys, row, *_root(keys, row), 0, level)

    leaves = [front(row, dpf.tree_depth) for row in rows]
    for first_level in range(1, dpf.tree_depth):
        mid = [front(row, first_level) for row in rows]
        dpf.prg.reset_counters()
        seeds, controls = dpf.expand_front(
            keys,
            np.concatenate([front[0] for front in mid]),
            np.concatenate([front[1] for front in mid]),
            first_level=first_level,
        )
        assert np.array_equal(seeds, np.concatenate([leaf[0] for leaf in leaves]))
        assert np.array_equal(controls, np.concatenate([leaf[1] for leaf in leaves]))
        width = (1 << dpf.tree_depth) - (1 << first_level)
        assert dpf.prg.expand_calls == len(keys) * width


def _oracle_traversal(name, chunk_leaves, prg, dpf, keys, num_blocks):
    """Leaf seeds/controls of key row 0 the way each strategy visits them."""
    depth = dpf.tree_depth
    if name == "level_by_level":
        return _oracle_front(prg, keys, 0, *_root(keys, 0), 0, depth)
    if name == "branch_parallel":
        paths = [_oracle_descend(prg, keys, 0, block, depth) for block in range(num_blocks)]
    else:
        chunk_blocks = min(max(1, chunk_leaves // dpf.slots_per_block), 1 << depth)
        descent = depth - (chunk_blocks.bit_length() - 1)
        chunk_roots = [
            _oracle_descend(prg, keys, 0, chunk, descent)
            for chunk in range(-(-num_blocks // chunk_blocks))
        ]
        paths = [_oracle_front(prg, keys, 0, *root, descent, depth) for root in chunk_roots]
    return tuple(np.concatenate(parts) for parts in zip(*paths))


@pytest.mark.parametrize("domain_bits,output_bits,queries,num_points", _SHAPES)
@pytest.mark.parametrize("name", ["level_by_level", "branch_parallel", "memory_bounded"])
def test_traversals_match_the_oracle(name, domain_bits, output_bits, queries, num_points):
    dpf, keys = _keys(domain_bits, output_bits, queries)
    chunk_leaves = 4 * dpf.slots_per_block
    options = {"chunk_leaves": chunk_leaves} if name == "memory_bounded" else {}
    strategy = make_traversal(name, **options)
    dpf.prg.reset_counters()
    stats = TraversalStats()
    values = strategy.eval_full(dpf, keys[0], num_points, stats=stats)

    oracle = OracleAESPRG()
    num_blocks = dpf.num_blocks(num_points)
    seeds, controls = _oracle_traversal(name, chunk_leaves, oracle, dpf, keys, num_blocks)
    expected = _oracle_values(
        oracle, dpf, keys, 0, seeds[:num_blocks], controls[:num_blocks], num_points
    )
    assert np.array_equal(values, expected)
    assert stats.prg_calls == dpf.prg.expand_calls == oracle.expand_calls
    assert dpf.prg.convert_calls == oracle.convert_calls == num_blocks
    assert (stats.leaves_evaluated, stats.leaf_nodes) == (num_points, num_blocks)
