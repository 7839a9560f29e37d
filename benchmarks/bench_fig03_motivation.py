"""Figure 3 — motivation: DPF-PIR cost breakdown and roofline placement.

Paper reference (§2.3, Fig. 3): on a single CPU thread, dpXOR takes ~10x
longer than DPF evaluation, which is itself ~1000x longer than key
generation; the roofline model places both server-side kernels deep in the
memory-bound region.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.figures import fig3_motivation
from repro.bench.reporting import render_fig3
from repro.dpf.dpf import DPF
from repro.pir.xor_ops import dpxor, pack_selectors


class TestRegenerateFigure3:
    def test_fig3_series(self, benchmark):
        """Regenerate Fig. 3(a)/(b) from the calibrated cost model."""
        result = benchmark(fig3_motivation)
        print("\n" + render_fig3(result))
        largest = result.breakdowns[-1]
        assert largest.dpxor_seconds > largest.eval_seconds > largest.gen_seconds
        assert all(point.memory_bound for point in result.roofline_points if point.name == "dpXOR")


class TestFunctionalCounterparts:
    """Measured wall-clock of the real kernels behind Fig. 3's three phases."""

    def test_gen_cost(self, benchmark):
        dpf = DPF(domain_bits=20, seed=1)
        benchmark(dpf.gen, 12345, 1)

    def test_eval_full_cost(self, benchmark):
        dpf = DPF(domain_bits=14, seed=2)
        key0, _ = dpf.gen(999, 1)
        result = benchmark(dpf.eval_full_bits, key0)
        assert result.shape == (1 << 14,)

    def test_dpxor_cost(self, benchmark, bench_db):
        selector = np.random.default_rng(0).integers(0, 2, bench_db.num_records, dtype=np.uint8)
        result = benchmark(dpxor, bench_db.records, pack_selectors(selector))
        assert result.shape == (bench_db.record_size,)

    def test_gen_much_cheaper_than_eval(self, bench_db):
        """The asymptotic claim behind Fig. 3: Gen is O(log N), Eval is O(N).

        Shown at 2^20: with 128 points per leaf block Eval is N/128 - 1 =
        8191 expansions against Gen's 2 x 13.
        """
        dpf = DPF(domain_bits=20, seed=3)
        key0, _ = dpf.gen(1, 1)
        stats_before = dpf.prg.expand_calls
        dpf.gen(2, 1)
        gen_expansions = dpf.prg.expand_calls - stats_before
        stats_before = dpf.prg.expand_calls
        dpf.eval_full(key0)
        eval_expansions = dpf.prg.expand_calls - stats_before
        assert eval_expansions > 100 * gen_expansions
