"""GGM computation-tree helpers shared by DPF evaluation strategies.

The paper (§3.2, Fig. 6) evaluates the DPF through a Goldreich-Goldwasser-
Micali (GGM) binary tree: every node holds a 128-bit seed and a control bit,
and expanding a node with the length-doubling PRG yields its two children.
Correction words (one per level, part of the DPF key) are conditionally mixed
into the children depending on the parent's control bit.

Every walk of the correction-word DPF (:mod:`repro.dpf.dpf`) runs on a
*key-major front* — ``(K, n, 16)`` seeds and ``(K, n)`` control bits, key
``k``'s nodes in row ``k``.  A walk tables its keys' correction words once
(:func:`correction_tables`), and :func:`corrected_children` takes the front
one level down: one call to the PRG's fused kernel, then one table lookup and
XOR per correction array; :func:`expand_level` is the one-level case.
:class:`GGMTree` answers the structural questions (node counts, depths) used
in tests and analysis.  The DPF's tree is early-terminated — its leaves are
128-bit output blocks, so a domain of ``2**n`` one-bit points has a tree of
depth ``n - 7`` — and ``GGMTree(depth)`` describes a tree by that depth,
whatever a leaf stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.dpf.prf import SEED_BYTES, LengthDoublingPRG, control_bits


def _table_rows(controls: np.ndarray) -> np.ndarray:
    """Row ``2k + t`` of a two-row-per-key table for each node of a ``(K, n)``
    front, where ``t`` is the node's control bit."""
    return controls + np.arange(0, 2 * controls.shape[0], 2)[:, None]


def gated(controls: np.ndarray, corrections: np.ndarray) -> np.ndarray:
    """Key ``k``'s ``(K, 16)`` correction wherever row ``k`` of a ``(K, n)``
    front has its bit set: ``(K, n, 16)`` with zeros under unset bits.

    For a correction applied once per walk (the leaves' final blocks); a
    walk's per-level corrections go through :func:`correction_tables`.
    """
    table = np.zeros((corrections.shape[0], 2, SEED_BYTES), dtype=np.uint8)
    table[:, 1] = corrections
    return np.take(table.reshape(-1, SEED_BYTES), _table_rows(controls), axis=0)


def correction_tables(cw_seeds: np.ndarray, cw_bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A walk's correction words as per-level lookup tables, built once.

    ``cw_seeds`` / ``cw_bits`` are ``(K, L, 16)`` / ``(K, L, 2)``: ``K``
    keys' corrections for the ``L`` levels a walk expands.  The result is the
    level-major ``(L, 2K, 32)`` seed table and ``(L, 2K, 2)`` bit table: row
    ``2k + t`` of level ``l`` holds key ``k``'s seed correction for both
    children (and its (left, right) control-bit corrections) when ``t = 1``,
    zeros when ``t = 0``.  A node of key ``k`` with control bit ``t`` then
    finds its correction at row ``2k + t`` (:func:`corrected_children`): one
    ``np.take`` of flat rows, where a broadcast multiply over 16-byte rows,
    or fancy indexing with the row shape kept, costs 3-5x more on a wide
    level.
    """
    keys, levels = cw_bits.shape[:2]
    seed_tables = np.zeros((levels, keys, 2, 2, SEED_BYTES), dtype=np.uint8)
    seed_tables[:, :, 1] = cw_seeds.swapaxes(0, 1)[:, :, None]
    bit_tables = np.zeros((levels, keys, 2, 2), dtype=np.uint8)
    bit_tables[:, :, 1] = cw_bits.swapaxes(0, 1)
    return (
        seed_tables.reshape(levels, 2 * keys, 2 * SEED_BYTES),
        bit_tables.reshape(levels, 2 * keys, 2),
    )


def corrected_children(
    prg: LengthDoublingPRG,
    seeds: np.ndarray,
    controls: np.ndarray,
    seed_table: np.ndarray,
    bit_table: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand a ``(K, n)`` key-major front one level through one level's tables.

    ``seed_table`` / ``bit_table`` are one level of :func:`correction_tables`.
    Returns the ``(K, n, 2, 16)`` child seeds and ``(K, n, 2)`` control bits;
    reshaped to ``(K, 2n, ...)`` they are each key's next level in sibling
    order, so leaf order equals natural index order when path bits are
    consumed MSB first.  A set parent control bit XORs its key's seed
    correction into both children and its bit corrections into their (left,
    right) control bits, which are read before the seed correction changes
    byte 8: one PRG call, two ``np.take``s and two XORs.
    """
    children = prg.children(seeds.reshape(-1, SEED_BYTES)).reshape(
        controls.shape + (2, SEED_BYTES)
    )
    child_controls = control_bits(children)
    picks = _table_rows(controls)
    children ^= np.take(seed_table, picks, axis=0).reshape(children.shape)
    child_controls ^= np.take(bit_table, picks, axis=0)
    return children, child_controls


def expand_level(
    prg: LengthDoublingPRG,
    seeds: np.ndarray,
    controls: np.ndarray,
    cw_seeds: np.ndarray,
    cw_bits: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand a ``(K, n)`` key-major front one corrected level.

    The one-level case of a walk: ``cw_seeds`` / ``cw_bits`` are each key's
    ``(K, 16)`` / ``(K, 2)`` correction word for this level, tabled
    (:func:`correction_tables`) and applied (:func:`corrected_children`).
    """
    seed_tables, bit_tables = correction_tables(cw_seeds[:, None], cw_bits[:, None])
    return corrected_children(prg, seeds, controls, seed_tables[0], bit_tables[0])


@dataclass
class GGMTree:
    """Shape of the GGM computation tree for a domain of ``2**depth`` leaves.

    The class does not hold node values; it answers structural questions the
    paper's parallelisation discussion relies on (how many nodes a level has,
    how many PRG calls a traversal performs, how much memory a level needs).
    """

    depth: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("depth must be non-negative")

    @property
    def num_leaves(self) -> int:
        """Number of leaves (domain size)."""
        return 1 << self.depth

    @property
    def num_internal_nodes(self) -> int:
        """Number of non-leaf nodes."""
        return (1 << self.depth) - 1

    @property
    def num_nodes(self) -> int:
        """Total node count including leaves."""
        return (1 << (self.depth + 1)) - 1

    def nodes_at_level(self, level: int) -> int:
        """Number of nodes at ``level`` (0 is the root)."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level must be in [0, {self.depth}]")
        return 1 << level

    def level_memory_bytes(self, level: int, per_node_bytes: int = SEED_BYTES + 1) -> int:
        """Bytes required to materialise all nodes of ``level``."""
        return self.nodes_at_level(level) * per_node_bytes

    def prg_calls_level_by_level(self) -> int:
        """PRG expansions for a full level-by-level traversal (one per internal node)."""
        return self.num_internal_nodes

    def prg_calls_branch_parallel(self) -> int:
        """PRG expansions when every leaf path is recomputed independently."""
        return self.num_leaves * self.depth

    def prg_calls_memory_bounded(self, chunk_leaves: int) -> int:
        """PRG expansions for the memory-bounded traversal with ``chunk_leaves``-leaf chunks."""
        if chunk_leaves <= 0:
            raise ValueError("chunk_leaves must be positive")
        chunk_leaves = min(chunk_leaves, self.num_leaves)
        chunk_depth = max(0, (chunk_leaves - 1).bit_length())
        descent_depth = self.depth - chunk_depth
        num_chunks = -(-self.num_leaves // chunk_leaves)
        per_chunk_internal = (1 << chunk_depth) - 1
        return num_chunks * (descent_depth + per_chunk_internal)
