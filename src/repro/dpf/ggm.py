"""GGM computation-tree helpers shared by DPF evaluation strategies.

The paper (§3.2, Fig. 6) evaluates the DPF through a Goldreich-Goldwasser-
Micali (GGM) binary tree: every node holds a 128-bit seed and a control bit,
and expanding a node with the length-doubling PRG yields its two children.
Correction words (one per level, part of the DPF key) are conditionally mixed
into the children depending on the parent's control bit.

This module provides the vectorised "expand one level" primitive
(:func:`expand_level_many`; :func:`expand_level` is its one-key form) that
every walk of the correction-word DPF (:mod:`repro.dpf.dpf`) is built on,
plus a small :class:`GGMTree` convenience used in tests and analysis to
reason about node counts and depths.  The DPF's tree is early-terminated —
its leaves are 128-bit output blocks, so a domain of ``2**n`` one-bit points
has a tree of depth ``n - 7`` — and ``GGMTree(depth)`` describes a tree by
that depth, whatever a leaf stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.dpf.prf import SEED_BYTES, LengthDoublingPRG


@dataclass(frozen=True)
class CorrectionWord:
    """Per-level correction word of the correction-word DPF.

    Attributes
    ----------
    seed:
        16-byte seed correction XORed into a child when the parent's control
        bit is set.
    t_left, t_right:
        Control-bit corrections for the left and right child respectively.
    """

    seed: bytes
    t_left: int
    t_right: int

    def __post_init__(self) -> None:
        if len(self.seed) != SEED_BYTES:
            raise ValueError("correction word seed must be 16 bytes")
        if self.t_left not in (0, 1) or self.t_right not in (0, 1):
            raise ValueError("control-bit corrections must be 0 or 1")

    def seed_array(self) -> np.ndarray:
        """The seed correction as a ``(16,)`` uint8 array."""
        return np.frombuffer(self.seed, dtype=np.uint8)


def expand_level(
    prg: LengthDoublingPRG,
    seeds: np.ndarray,
    control_bits: np.ndarray,
    correction: CorrectionWord,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand one GGM level for a batch of nodes.

    Parameters
    ----------
    prg:
        Length-doubling PRG backend.
    seeds:
        ``(m, 16)`` uint8 array holding the seeds of ``m`` sibling-ordered
        nodes at the current level.
    control_bits:
        ``(m,)`` uint8 array of the nodes' control bits.
    correction:
        The level's correction word from the DPF key.

    Returns
    -------
    (child_seeds, child_bits):
        ``(2m, 16)`` and ``(2m,)`` arrays with children interleaved as
        ``[node0.left, node0.right, node1.left, node1.right, ...]`` so that
        leaf order equals natural index order when bits are consumed MSB
        first.
    """
    return expand_level_many(prg, seeds, control_bits, [correction], len(seeds))


def expand_level_many(
    prg: LengthDoublingPRG,
    seeds: np.ndarray,
    control_bits: np.ndarray,
    corrections: Sequence[CorrectionWord],
    nodes_per_key: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand one GGM level for several keys' node fronts in one PRG sweep.

    The fronts are stacked key-major: key ``i``'s ``nodes_per_key`` sibling-
    ordered nodes occupy rows ``[i * nodes_per_key, (i+1) * nodes_per_key)``
    of ``seeds``/``control_bits``, and ``corrections[i]`` is that key's
    correction word for this level.  One :meth:`prg.expand` call covers every
    node of every key (``B x 2^level`` seeds instead of ``2^level`` seeds
    ``B`` times), with each key's correction broadcast over its rows.

    Children come back key-major, each key's interleaved as
    ``[node0.left, node0.right, node1.left, node1.right, ...]``, so each
    key's slice of the output is bit-identical to expanding that key alone.
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.uint8)
    control_bits = np.ascontiguousarray(control_bits, dtype=np.uint8)
    num_keys = len(corrections)
    if nodes_per_key < 0:
        raise ValueError("nodes_per_key must be non-negative")
    if seeds.ndim != 2 or seeds.shape[1] != SEED_BYTES:
        raise ValueError("seeds must have shape (m, 16)")
    if seeds.shape[0] != num_keys * nodes_per_key:
        raise ValueError(
            f"seeds hold {seeds.shape[0]} nodes, expected "
            f"{num_keys} keys x {nodes_per_key} nodes"
        )
    if control_bits.shape != (seeds.shape[0],):
        raise ValueError("control_bits must have shape (m,)")

    left, right, t_left, t_right = prg.expand(seeds)

    if control_bits.any():
        # The fronts are key-major and contiguous, so a reshape exposes the
        # (key, node) structure and one broadcast XOR applies every key's
        # correction at once: ``control_bits`` gates each node (0 or 1) and
        # multiplying it into the per-key correction rows zeroes the rows of
        # unset nodes.  No per-key Python loop, no masked gather/scatter —
        # those dominate the level cost once fronts hold thousands of nodes.
        cw_seeds = np.stack([word.seed_array() for word in corrections])
        t_left_cw = np.fromiter(
            (word.t_left for word in corrections), dtype=np.uint8, count=num_keys
        )
        t_right_cw = np.fromiter(
            (word.t_right for word in corrections), dtype=np.uint8, count=num_keys
        )
        gate = control_bits.reshape(num_keys, nodes_per_key, 1)
        seed_correction = gate * cw_seeds[:, None, :]
        left.reshape(num_keys, nodes_per_key, SEED_BYTES)[...] ^= seed_correction
        right.reshape(num_keys, nodes_per_key, SEED_BYTES)[...] ^= seed_correction
        t_left = t_left.copy()
        t_right = t_right.copy()
        bit_gate = control_bits.reshape(num_keys, nodes_per_key)
        t_left.reshape(num_keys, nodes_per_key)[...] ^= bit_gate * t_left_cw[:, None]
        t_right.reshape(num_keys, nodes_per_key)[...] ^= bit_gate * t_right_cw[:, None]

    count = seeds.shape[0]
    child_seeds = np.empty((2 * count, SEED_BYTES), dtype=np.uint8)
    child_bits = np.empty(2 * count, dtype=np.uint8)
    child_seeds[0::2] = left
    child_seeds[1::2] = right
    child_bits[0::2] = t_left
    child_bits[1::2] = t_right
    return child_seeds, child_bits


def descend_one(
    prg: LengthDoublingPRG,
    seed: np.ndarray,
    control_bit: int,
    correction: CorrectionWord,
    direction: int,
) -> Tuple[np.ndarray, int]:
    """Expand a single node and keep only one child.

    ``direction`` is 0 for the left child and 1 for the right child.  Used by
    the branch-parallel and memory-bounded traversals, which walk single paths
    rather than whole levels.
    """
    if direction not in (0, 1):
        raise ValueError("direction must be 0 (left) or 1 (right)")
    seeds = np.ascontiguousarray(seed, dtype=np.uint8).reshape(1, SEED_BYTES)
    bits = np.asarray([control_bit], dtype=np.uint8)
    child_seeds, child_bits = expand_level(prg, seeds, bits, correction)
    index = direction
    return child_seeds[index].copy(), int(child_bits[index])


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
