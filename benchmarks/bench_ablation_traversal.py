"""Ablation — DPF full-domain traversal strategies (paper §3.2, Fig. 7).

Not a figure in the paper, but the design discussion it quantifies: the
branch-parallel traversal recomputes every root-to-leaf path (L log L PRG
calls over the L = N/128 leaf blocks of the early-terminated tree, and a
per-leaf working set that does not fit in a DPU's 64 KB WRAM),
the level-by-level traversal is PRG-optimal but needs the whole level in
memory, and the memory-bounded traversal trades a little recomputation for a
bounded working set — the reason IM-PIR keeps evaluation on the host CPU.
"""

from __future__ import annotations

import pytest

from repro.dpf.dpf import DPF
from repro.dpf.traversal import (
    BranchParallelTraversal,
    LevelByLevelTraversal,
    MemoryBoundedTraversal,
    TraversalStats,
)
from repro.pim.config import DPUConfig

#: 2^19 points = 4096 leaf blocks: the smallest domain whose full level of
#: (seed, control bit) nodes — 4096 x 17 B — exceeds a DPU's 64 KB WRAM.
DOMAIN_BITS = 19
#: Memory-bounded chunk, in points: 16384 points = 128 leaf blocks.
CHUNK_POINTS = 16384


@pytest.fixture(scope="module")
def dpf_and_key():
    dpf = DPF(domain_bits=DOMAIN_BITS, seed=77)
    key0, _ = dpf.gen(4097, 1)
    return dpf, key0


class TestTraversalWallClock:
    def test_level_by_level(self, benchmark, dpf_and_key):
        dpf, key = dpf_and_key
        benchmark(LevelByLevelTraversal().eval_full, dpf, key)

    def test_branch_parallel(self, benchmark, dpf_and_key):
        dpf, key = dpf_and_key
        benchmark(BranchParallelTraversal().eval_full, dpf, key)

    @pytest.mark.parametrize("chunk", [4096, CHUNK_POINTS])
    def test_memory_bounded(self, benchmark, dpf_and_key, chunk):
        dpf, key = dpf_and_key
        benchmark(MemoryBoundedTraversal(chunk_leaves=chunk).eval_full, dpf, key)


class TestTraversalCostProfile:
    def test_prg_calls_and_memory_report(self, benchmark, dpf_and_key):
        """Regenerate the strategy-comparison table (PRG calls, peak memory)."""
        dpf, key = dpf_and_key

        def profile():
            rows = {}
            for name, strategy in (
                ("level_by_level", LevelByLevelTraversal()),
                ("memory_bounded", MemoryBoundedTraversal(chunk_leaves=CHUNK_POINTS)),
                ("branch_parallel", BranchParallelTraversal()),
            ):
                stats = TraversalStats()
                strategy.eval_full(dpf, key, stats=stats)
                rows[name] = stats
            return rows

        rows = benchmark(profile)
        wram = DPUConfig().wram_bytes
        print("\nTraversal ablation (domain 2^%d):" % DOMAIN_BITS)
        for name, stats in rows.items():
            fits = "fits" if stats.peak_memory_bytes <= wram else "exceeds"
            print(
                f"  {name:>22}: prg_calls={stats.prg_calls:>7}  "
                f"peak_memory={stats.peak_memory_bytes:>9} B ({fits} 64 KB WRAM)  "
                f"redundancy={stats.redundancy_factor:.2f}x"
            )
        assert (
            rows["level_by_level"].prg_calls
            < rows["memory_bounded"].prg_calls
            < rows["branch_parallel"].prg_calls
        )
        assert rows["memory_bounded"].peak_memory_bytes < rows["level_by_level"].peak_memory_bytes
        # The paper's WRAM argument: a full level at this domain size already
        # exceeds a DPU's WRAM, while the bounded traversal stays inside it.
        assert rows["level_by_level"].peak_memory_bytes > wram
        assert rows["memory_bounded"].peak_memory_bytes <= wram
