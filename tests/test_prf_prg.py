"""The length-doubling PRG: determinism, structure, statistics, accounting."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from aes_oracle import OracleAESPRG

import repro
from repro.dpf.prf import SEED_BYTES, FixedKeyAESPRG, control_bits, make_prg


def _expand(prg, seeds):
    """``(left, right, t_left, t_right)`` of ``prg.children(seeds)``."""
    children = prg.children(seeds)
    bits = control_bits(children)
    return children[:, 0], children[:, 1], bits[:, 0], bits[:, 1]


class TestFactory:
    def test_one_prg(self):
        assert isinstance(make_prg(), FixedKeyAESPRG)

    def test_backend_names_are_gone(self):
        with pytest.raises(TypeError):
            make_prg("numpy")

    def test_missing_cryptography_is_a_clear_import_error(self):
        """No fallback PRG: without ``cryptography`` the import fails, naming it."""
        probe = "import sys; sys.modules['cryptography'] = None; import repro.dpf.prf"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parent.parent)},
            timeout=60,
        )
        assert result.returncode != 0
        assert "ImportError: repro.dpf needs the 'cryptography' package" in result.stderr


class TestFixedKeyAESPRG:
    def test_deterministic(self):
        seeds = np.arange(4 * SEED_BYTES, dtype=np.uint8).reshape(4, SEED_BYTES)
        a = _expand(make_prg(), seeds.copy())
        b = _expand(make_prg(), seeds.copy())
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_left_and_right_children_differ(self):
        seeds = np.arange(SEED_BYTES, dtype=np.uint8).reshape(1, SEED_BYTES)
        left, right, _, _ = _expand(make_prg(), seeds)
        assert not np.array_equal(left, right)

    def test_conversion_differs_from_both_children(self):
        seeds = np.arange(SEED_BYTES, dtype=np.uint8).reshape(1, SEED_BYTES)
        prg = make_prg()
        left, right, _, _ = _expand(prg, seeds)
        block = prg.convert(seeds)
        assert not np.array_equal(block, left) and not np.array_equal(block, right)

    def test_distinct_seeds_give_distinct_children(self):
        rng = np.random.default_rng(0)
        seeds = rng.integers(0, 256, size=(64, SEED_BYTES), dtype=np.uint8)
        left, _, _, _ = _expand(make_prg(), seeds)
        unique_rows = {row.tobytes() for row in left}
        assert len(unique_rows) == 64

    def test_control_bits_are_bits(self):
        rng = np.random.default_rng(1)
        seeds = rng.integers(0, 256, size=(256, SEED_BYTES), dtype=np.uint8)
        _, _, t_left, t_right = _expand(make_prg(), seeds)
        assert set(np.unique(t_left)).issubset({0, 1})
        assert set(np.unique(t_right)).issubset({0, 1})

    def test_control_bits_roughly_balanced(self):
        rng = np.random.default_rng(2)
        seeds = rng.integers(0, 256, size=(2048, SEED_BYTES), dtype=np.uint8)
        _, _, t_left, t_right = _expand(make_prg(), seeds)
        assert 800 < int(t_left.sum()) < 1250
        assert 800 < int(t_right.sum()) < 1250

    def test_output_bytes_look_uniform(self):
        rng = np.random.default_rng(3)
        seeds = rng.integers(0, 256, size=(512, SEED_BYTES), dtype=np.uint8)
        left, right, _, _ = _expand(make_prg(), seeds)
        mean = float(np.concatenate([left, right]).mean())
        assert 118.0 < mean < 137.0  # uniform bytes average ~127.5

    def test_counter_increments(self):
        prg = make_prg()
        seeds = np.zeros((5, SEED_BYTES), dtype=np.uint8)
        prg.children(seeds)
        prg.children(seeds)
        prg.convert(seeds)
        assert (prg.expand_calls, prg.convert_calls) == (10, 5)
        assert prg.blocks_consumed == 25

    def test_reset_counters(self):
        prg = make_prg()
        prg.children(np.zeros((5, SEED_BYTES), dtype=np.uint8))
        prg.reset_counters()
        assert prg.expand_calls == 0

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            make_prg().children(np.zeros((1, 8), dtype=np.uint8))

    def test_accepts_non_contiguous_seeds(self):
        seeds = np.random.default_rng(4).integers(0, 256, size=(6, 2, SEED_BYTES), dtype=np.uint8)
        view = seeds[:, 1]
        assert np.array_equal(make_prg().children(view), make_prg().children(view.copy()))


class TestPRGsAgreeOnStructure:
    """The fast PRG and the test oracle implement the same interface contract."""

    @pytest.mark.parametrize("factory", [make_prg, OracleAESPRG])
    def test_same_seed_same_output(self, factory):
        prg_a = factory()
        prg_b = factory()
        seed = np.arange(SEED_BYTES, dtype=np.uint8).reshape(1, SEED_BYTES)
        out_a = _expand(prg_a, seed)
        out_b = _expand(prg_b, seed)
        assert np.array_equal(out_a[0], out_b[0])
        assert np.array_equal(out_a[1], out_b[1])

    @pytest.mark.parametrize("factory", [make_prg, OracleAESPRG])
    def test_blocks_per_expand_constant(self, factory):
        prg = factory()
        assert (prg.blocks_per_expand, prg.blocks_per_convert) == (2, 1)
