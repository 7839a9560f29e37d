"""Ablation — the fixed-key AES PRG against its block-at-a-time oracle.

Every DPF runs on one PRG, fixed-key AES-128 in Matyas–Meyer–Oseas form
through OpenSSL (:class:`repro.dpf.prf.FixedKeyAESPRG`), the construction the
paper runs with AES-NI.  This ablation times it against the tests' pure-Python
FIPS-197 oracle of the same PRG (``tests/aes_oracle.py``, one block per
Python call), checks that the two produce the same keys and selectors, and
checks that the block accounting the cost model charges is identical.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.dpf.dpf import DPF
from repro.dpf.prf import make_prg

# The oracle lives with the tests it serves; benches import it from there.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from aes_oracle import OracleAESPRG

_PRGS = {"fast": make_prg, "oracle": OracleAESPRG}


class TestWallClock:
    def test_fast_full_eval(self, benchmark):
        dpf = DPF(domain_bits=14, prg=make_prg(), seed=1)
        key0, _ = dpf.gen(100, 1)
        benchmark(dpf.eval_full_bits, key0)

    def test_oracle_full_eval_small_domain(self, benchmark):
        # 2^10 points = 8 leaf blocks: the smallest domain where the pure-
        # Python AES still walks a tree (2^7 would be one conversion).
        dpf = DPF(domain_bits=10, prg=OracleAESPRG(), seed=1)
        key0, _ = dpf.gen(100, 1)
        benchmark(dpf.eval_full_bits, key0)

    def test_fast_bulk_children(self, benchmark):
        prg = make_prg()
        seeds = np.random.default_rng(0).integers(0, 256, size=(4096, 16), dtype=np.uint8)
        benchmark(prg.children, seeds)

    def test_oracle_bulk_children(self, benchmark):
        prg = OracleAESPRG()
        seeds = np.random.default_rng(0).integers(0, 256, size=(16, 16), dtype=np.uint8)
        benchmark(prg.children, seeds)


class TestBlockAccountingAgreement:
    def test_both_prgs_charge_identical_blocks(self, benchmark):
        """Cost-model fidelity does not depend on how the PRG is computed,
        and the fast PRG's selectors are the oracle's, bit for bit."""

        def count_blocks():
            counts, selectors = {}, {}
            for name, make in _PRGS.items():
                prg = make()
                dpf = DPF(domain_bits=10, prg=prg, seed=9)
                key0, _ = dpf.gen(11, 1)
                prg.reset_counters()
                selectors[name] = dpf.eval_full(key0)
                counts[name] = prg.blocks_consumed
            return counts, selectors

        counts, selectors = benchmark(count_blocks)
        assert np.array_equal(selectors["fast"], selectors["oracle"])
        assert counts["fast"] == counts["oracle"]
        # 8 leaf blocks: two AES blocks per internal node, one per leaf conversion.
        blocks = 2**10 // 128
        assert counts["fast"] == 2 * (blocks - 1) + blocks

