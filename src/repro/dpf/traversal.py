"""Full-domain DPF evaluation strategies (paper §3.2, Fig. 7).

The paper contrasts three ways of evaluating every leaf of the GGM tree:

* **branch-parallel** — each worker recomputes the full root-to-leaf path of
  its leaves.  Maximally parallel and needs almost no shared state, but every
  level is recomputed once per leaf (``L * log L`` PRG calls for ``L`` leaves)
  and the working set per worker is the whole path.  The paper rules it out
  for UPMEM DPUs because the per-DPU WRAM (64 KB) cannot hold the needed
  buffers.
* **level-by-level** — expand the tree breadth-first, keeping one whole level
  in memory (``L - 1`` PRG calls but ``O(L * lambda)`` intermediate memory and
  a synchronisation barrier per level).  On UPMEM this would require
  inter-DPU communication through the host, which the paper shows is
  prohibitive.
* **memory-bounded** — the hybrid used by Lam et al.: split the leaf range
  into fixed-size chunks, descend from the root to each chunk's subtree root,
  then expand that subtree level by level.  Memory is bounded by the chunk
  size at the cost of re-descending ``log(L / chunk)`` levels per chunk.

The tree is the early-terminated one of :mod:`repro.dpf.dpf`: a leaf is a
128-bit block of ``dpf.slots_per_block`` points, so ``L = N /
slots_per_block``.  The strategies only choose *which nodes to expand in
which order* — the walks themselves (:meth:`DPF.expand_front`,
:meth:`DPF.descend`) and the leaf-to-output step live in the DPF.  All three
produce bit-identical outputs; they differ only in PRG-call count and peak
memory, which :class:`TraversalStats` captures so the trade-off can be
demonstrated quantitatively (see ``benchmarks/bench_ablation_traversal.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro.dpf.dpf import DPF, DPFKey, DPFKeys, key_batch
from repro.dpf.prf import SEED_BYTES


@dataclass
class TraversalStats:
    """Cost profile of one full-domain evaluation."""

    prg_calls: int = 0
    peak_nodes_in_memory: int = 0
    #: Domain points produced.
    leaves_evaluated: int = 0
    #: Tree leaves (128-bit blocks) those points were read from.
    leaf_nodes: int = 0

    @property
    def peak_memory_bytes(self) -> int:
        """Approximate peak working-set size (seed + control bit per node)."""
        return self.peak_nodes_in_memory * (SEED_BYTES + 1)

    @property
    def redundancy_factor(self) -> float:
        """PRG calls relative to the level-by-level optimum (``leaf_nodes - 1``)."""
        optimum = max(1, self.leaf_nodes - 1)
        return self.prg_calls / optimum


class TraversalStrategy:
    """Base class: evaluate a DPF key over the full domain, tracking costs."""

    name = "abstract"

    def eval_full(
        self,
        dpf: DPF,
        key: DPFKey,
        num_points: Optional[int] = None,
        stats: Optional[TraversalStats] = None,
    ) -> np.ndarray:
        """Return the uint64 share vector of length ``num_points``."""
        num_points = dpf.domain_size if num_points is None else num_points
        num_blocks = dpf.num_blocks(num_points)
        keys = key_batch([key])
        before = dpf.prg.expand_calls
        seeds, controls, peak = self._leaves(dpf, keys, num_blocks)
        blocks = dpf.leaf_blocks(keys, seeds[:num_blocks], controls[:num_blocks])
        if stats is not None:
            stats.prg_calls += dpf.prg.expand_calls - before
            stats.peak_nodes_in_memory = max(stats.peak_nodes_in_memory, peak)
            stats.leaves_evaluated += num_points
            stats.leaf_nodes += num_blocks
        return dpf.slot_values(blocks, num_points)[0]

    def _leaves(
        self, dpf: DPF, keys: DPFKeys, num_blocks: int
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Leaf ``(seeds, controls)`` of at least the first ``num_blocks`` blocks
        of the one key in ``keys``, and the most tree nodes the walk held at
        once."""
        raise NotImplementedError


class LevelByLevelTraversal(TraversalStrategy):
    """Breadth-first expansion keeping one full level resident."""

    name = "level_by_level"

    def _leaves(self, dpf, keys, num_blocks):
        seeds, controls = dpf.expand_front(keys, keys.roots, keys.parties)
        return seeds, controls, seeds.shape[0]


class BranchParallelTraversal(TraversalStrategy):
    """Recompute the root-to-leaf path independently for every leaf.

    The evaluation is vectorised across leaves per level, but unlike the
    level-by-level strategy every leaf carries its own copy of the path state,
    so the PRG is invoked once per (leaf, level) pair — the redundancy the
    paper points out.
    """

    name = "branch_parallel"

    def _leaves(self, dpf, keys, num_blocks):
        seeds, controls = dpf.descend(keys, np.arange(num_blocks))
        # Each level materialises both children of every path before picking.
        return seeds, controls, num_blocks * (2 if dpf.tree_depth else 1)


class MemoryBoundedTraversal(TraversalStrategy):
    """Chunked traversal bounding peak memory to one chunk's leaves (besides
    the chunk roots, one node per chunk).

    ``chunk_leaves`` is counted in domain points; a chunk never shrinks below
    one leaf block.
    """

    name = "memory_bounded"

    def __init__(self, chunk_leaves: int = 4096) -> None:
        if chunk_leaves <= 0:
            raise ValueError("chunk_leaves must be positive")
        if chunk_leaves & (chunk_leaves - 1):
            raise ValueError("chunk_leaves must be a power of two")
        self.chunk_leaves = chunk_leaves

    def _leaves(self, dpf, keys, num_blocks):
        chunk_blocks = min(max(1, self.chunk_leaves // dpf.slots_per_block), 1 << dpf.tree_depth)
        descent_depth = dpf.tree_depth - (chunk_blocks.bit_length() - 1)
        num_chunks = -(-num_blocks // chunk_blocks)
        seeds = np.empty((num_chunks * chunk_blocks, SEED_BYTES), dtype=np.uint8)
        controls = np.empty(num_chunks * chunk_blocks, dtype=np.uint8)
        # Descend to every chunk's subtree root in one walk (the paths are
        # independent), then expand one subtree at a time, level by level.
        roots, root_controls = dpf.descend(keys, np.arange(num_chunks), depth=descent_depth)
        for chunk_index in range(num_chunks):
            span = slice(chunk_index * chunk_blocks, (chunk_index + 1) * chunk_blocks)
            root = slice(chunk_index, chunk_index + 1)
            seeds[span], controls[span] = dpf.expand_front(
                keys, roots[root], root_controls[root], first_level=descent_depth
            )
        return seeds, controls, chunk_blocks


_STRATEGIES: Dict[str, Type[TraversalStrategy]] = {
    LevelByLevelTraversal.name: LevelByLevelTraversal,
    BranchParallelTraversal.name: BranchParallelTraversal,
    MemoryBoundedTraversal.name: MemoryBoundedTraversal,
}


def make_traversal(name: str, **kwargs) -> TraversalStrategy:
    """Instantiate a traversal strategy by name.

    Valid names: ``"level_by_level"``, ``"branch_parallel"``,
    ``"memory_bounded"`` (the latter accepts ``chunk_leaves=...``).
    """
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown traversal strategy {name!r}; valid: {sorted(_STRATEGIES)}"
        ) from None
    return cls(**kwargs)


def available_strategies() -> tuple:
    """Names of all registered traversal strategies."""
    return tuple(sorted(_STRATEGIES))
