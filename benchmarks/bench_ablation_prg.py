"""Ablation — PRG backend cost (AES-128 vs the vectorised numpy PRG).

The paper's DPF uses AES-128 via AES-NI; this reproduction defaults to a
vectorised numpy PRG for functional speed while charging AES-block costs in
the performance model.  This ablation measures the real gap between the two
Python backends and checks that the block accounting is identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dpf.dpf import DPF
from repro.dpf.prf import AESPRG, NumpyPRG, make_prg


class TestBackendWallClock:
    def test_numpy_backend_full_eval(self, benchmark):
        dpf = DPF(domain_bits=14, prg=make_prg("numpy"), seed=1)
        key0, _ = dpf.gen(100, 1)
        benchmark(dpf.eval_full_bits, key0)

    def test_aes_backend_full_eval_small_domain(self, benchmark):
        # 2^10 points = 8 leaf blocks: the smallest domain where the pure-
        # Python AES still walks a tree (2^7 would be one conversion).
        dpf = DPF(domain_bits=10, prg=make_prg("aes"), seed=1)
        key0, _ = dpf.gen(100, 1)
        benchmark(dpf.eval_full_bits, key0)

    def test_numpy_bulk_expand(self, benchmark):
        prg = NumpyPRG()
        seeds = np.random.default_rng(0).integers(0, 256, size=(4096, 16), dtype=np.uint8)
        benchmark(prg.expand, seeds)

    def test_aes_bulk_expand(self, benchmark):
        prg = AESPRG()
        seeds = np.random.default_rng(0).integers(0, 256, size=(16, 16), dtype=np.uint8)
        benchmark(prg.expand, seeds)


class TestBlockAccountingAgreement:
    def test_both_backends_charge_identical_blocks(self, benchmark):
        """Cost-model fidelity does not depend on the functional backend."""

        def count_blocks():
            counts = {}
            for backend in ("numpy", "aes"):
                prg = make_prg(backend)
                dpf = DPF(domain_bits=10, prg=prg, seed=9)
                key0, _ = dpf.gen(11, 1)
                prg.reset_counters()
                dpf.eval_full(key0)
                counts[backend] = prg.blocks_consumed
            return counts

        counts = benchmark(count_blocks)
        assert counts["numpy"] == counts["aes"]
        # 8 leaf blocks: two AES blocks per internal node, one per leaf conversion.
        blocks = 2**10 // 128
        assert counts["numpy"] == 2 * (blocks - 1) + blocks
