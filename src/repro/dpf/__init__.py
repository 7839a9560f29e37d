"""Distributed point functions: the fixed-key AES PRG, GGM tree, DPF, traversals."""

from repro.dpf.dpf import DPF, DPFKey, DPFKeyPairs, DPFKeys, EvalStats, verify_keys
from repro.dpf.ggm import GGMTree, expand_level
from repro.dpf.prf import (
    BLOCKS_PER_EXPAND,
    SEED_BYTES,
    FixedKeyAESPRG,
    LengthDoublingPRG,
    make_prg,
)
from repro.dpf.traversal import (
    BranchParallelTraversal,
    LevelByLevelTraversal,
    MemoryBoundedTraversal,
    TraversalStats,
    TraversalStrategy,
    available_strategies,
    make_traversal,
)

__all__ = [
    "DPF",
    "DPFKey",
    "DPFKeyPairs",
    "DPFKeys",
    "EvalStats",
    "verify_keys",
    "GGMTree",
    "expand_level",
    "BLOCKS_PER_EXPAND",
    "SEED_BYTES",
    "FixedKeyAESPRG",
    "LengthDoublingPRG",
    "make_prg",
    "BranchParallelTraversal",
    "LevelByLevelTraversal",
    "MemoryBoundedTraversal",
    "TraversalStats",
    "TraversalStrategy",
    "available_strategies",
    "make_traversal",
]
