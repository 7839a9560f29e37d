"""Full-domain evaluation strategies: equivalence and cost profiles."""

import numpy as np
import pytest

from repro.dpf.dpf import DPF
from repro.dpf.traversal import (
    BranchParallelTraversal,
    LevelByLevelTraversal,
    MemoryBoundedTraversal,
    TraversalStats,
    available_strategies,
    make_traversal,
)


@pytest.fixture(scope="module")
def dpf_and_key():
    # 2^14 points = 128 leaf blocks under a 7-level tree: deep enough for the
    # strategies' costs to separate (a 2^9 domain would be 4 blocks).
    dpf = DPF(domain_bits=14, seed=42)
    key0, _ = dpf.gen(9311, 1)
    return dpf, key0


class TestFactory:
    def test_available_strategies(self):
        assert set(available_strategies()) == {
            "branch_parallel",
            "level_by_level",
            "memory_bounded",
        }

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_traversal("depth_first_magic")

    def test_memory_bounded_requires_power_of_two(self):
        with pytest.raises(ValueError):
            MemoryBoundedTraversal(chunk_leaves=100)

    def test_memory_bounded_requires_positive_chunk(self):
        with pytest.raises(ValueError):
            MemoryBoundedTraversal(chunk_leaves=0)


class TestEquivalence:
    def test_all_strategies_agree(self, dpf_and_key):
        dpf, key = dpf_and_key
        reference = LevelByLevelTraversal().eval_full(dpf, key)
        assert np.array_equal(reference, BranchParallelTraversal().eval_full(dpf, key))
        for chunk in (32, 1024):  # below one 128-point block (clamped) and 8 blocks
            assert np.array_equal(
                reference, MemoryBoundedTraversal(chunk_leaves=chunk).eval_full(dpf, key)
            )

    def test_agree_with_dpf_eval_full(self, dpf_and_key):
        dpf, key = dpf_and_key
        assert np.array_equal(dpf.eval_full(key), LevelByLevelTraversal().eval_full(dpf, key))

    def test_truncated_domain(self, dpf_and_key):
        dpf, key = dpf_and_key
        # 9300 is neither a multiple of the block (128) nor of the chunk (512).
        reference = dpf.eval_full(key, num_points=9300)
        for strategy in (
            LevelByLevelTraversal(),
            BranchParallelTraversal(),
            MemoryBoundedTraversal(chunk_leaves=512),
        ):
            assert np.array_equal(strategy.eval_full(dpf, key, num_points=9300), reference)

    def test_chunk_larger_than_domain(self, dpf_and_key):
        dpf, key = dpf_and_key
        big_chunk = MemoryBoundedTraversal(chunk_leaves=1 << 16).eval_full(dpf, key)
        assert np.array_equal(big_chunk, dpf.eval_full(key))


class TestCostProfiles:
    def test_branch_parallel_is_redundant(self, dpf_and_key):
        dpf, key = dpf_and_key
        level_stats, branch_stats = TraversalStats(), TraversalStats()
        LevelByLevelTraversal().eval_full(dpf, key, stats=level_stats)
        BranchParallelTraversal().eval_full(dpf, key, stats=branch_stats)
        blocks = dpf.domain_size // 128
        assert level_stats.prg_calls == blocks - 1
        assert branch_stats.prg_calls == blocks * dpf.tree_depth
        assert branch_stats.redundancy_factor > 2.0
        assert level_stats.redundancy_factor == 1.0

    def test_memory_bounded_limits_peak_memory(self, dpf_and_key):
        dpf, key = dpf_and_key
        level_stats, bounded_stats = TraversalStats(), TraversalStats()
        LevelByLevelTraversal().eval_full(dpf, key, stats=level_stats)
        # chunk_leaves counts points: 2048 points are 16 leaf blocks.
        MemoryBoundedTraversal(chunk_leaves=2048).eval_full(dpf, key, stats=bounded_stats)
        assert bounded_stats.peak_nodes_in_memory == 16
        assert level_stats.peak_nodes_in_memory == dpf.domain_size // 128

    def test_memory_bounded_cost_between_extremes(self, dpf_and_key):
        dpf, key = dpf_and_key
        stats = {name: TraversalStats() for name in ("level", "bounded", "branch")}
        LevelByLevelTraversal().eval_full(dpf, key, stats=stats["level"])
        MemoryBoundedTraversal(chunk_leaves=2048).eval_full(dpf, key, stats=stats["bounded"])
        BranchParallelTraversal().eval_full(dpf, key, stats=stats["branch"])
        assert stats["level"].prg_calls < stats["bounded"].prg_calls < stats["branch"].prg_calls
        # 8 chunks, each a 3-level descent plus a 16-leaf subtree.
        assert stats["bounded"].prg_calls == 8 * (3 + 15)

    def test_stats_leaves_evaluated(self, dpf_and_key):
        dpf, key = dpf_and_key
        stats = TraversalStats()
        LevelByLevelTraversal().eval_full(dpf, key, num_points=200, stats=stats)
        assert stats.leaves_evaluated == 200
        assert stats.leaf_nodes == 2  # 200 points span two 128-point blocks

    def test_peak_memory_bytes_property(self):
        stats = TraversalStats(prg_calls=10, peak_nodes_in_memory=100, leaves_evaluated=64)
        assert stats.peak_memory_bytes == 100 * 17
