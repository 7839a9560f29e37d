"""The fixed-key AES PRG against its pure-Python FIPS-197 oracle.

The oracle (``aes_oracle.py``) is checked against the FIPS-197 / NIST
SP 800-38A known-answer vectors, then the OpenSSL-backed
:class:`~repro.dpf.prf.FixedKeyAESPRG` must equal it byte for byte: its level
kernels at every width, from two threads sharing one instance, and whole DPFs
(keys and full-domain evaluations) built on each.
"""

import sys
import threading
import time

import numpy as np
import pytest
from aes_oracle import OracleAESPRG, aes128_encrypt_block

from repro.dpf.dpf import DPF
from repro.dpf.prf import FIXED_KEY, SEED_BYTES, FixedKeyAESPRG, make_prg
from repro.pir.serialization import serialize_key


def _seeds(count, seed=0):
    return np.random.default_rng([count, seed]).integers(
        0, 256, size=(count, SEED_BYTES), dtype=np.uint8
    )


class TestKnownAnswers:
    def test_fips197_appendix_c1(self):
        key = bytes(range(16))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert aes128_encrypt_block(key, plaintext) == expected

    def test_nist_sp800_38a_ecb_vector(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        expected = bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")
        assert aes128_encrypt_block(key, plaintext) == expected

    def test_all_zero_key_and_block(self):
        # Well-known AES-128(0, 0) value.
        expected = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")
        assert aes128_encrypt_block(bytes(16), bytes(16)) == expected


class TestBlockInterface:
    def test_rejects_short_key(self):
        with pytest.raises(ValueError):
            aes128_encrypt_block(b"short", bytes(16))

    def test_rejects_short_block(self):
        with pytest.raises(ValueError):
            aes128_encrypt_block(bytes(16), b"short")

    def test_deterministic(self):
        key, block = bytes(range(16)), bytes(range(16, 32))
        assert aes128_encrypt_block(key, block) == aes128_encrypt_block(key, block)

    def test_key_sensitivity(self):
        block = bytes(16)
        out1 = aes128_encrypt_block(bytes(16), block)
        out2 = aes128_encrypt_block(bytes([1]) + bytes(15), block)
        assert out1 != out2

    def test_output_length(self):
        assert len(aes128_encrypt_block(bytes(16), bytes(16))) == 16


class TestOraclePRG:
    def test_expand_shapes(self):
        prg = OracleAESPRG()
        seeds = np.arange(2 * SEED_BYTES, dtype=np.uint8).reshape(2, SEED_BYTES)
        left, right, t_left, t_right = prg.expand(seeds)
        assert left.shape == (2, SEED_BYTES)
        assert right.shape == (2, SEED_BYTES)
        assert t_left.shape == (2,)
        assert t_right.shape == (2,)

    def test_children_match_direct_aes(self):
        """``G_c(s) = AES_k(s ^ c) ^ s ^ c`` spelt out on bytes: ``c`` is
        XORed into byte 0 (the tweak is a little-endian integer)."""
        prg = OracleAESPRG()
        seed = bytes(range(16))
        children = prg.children(np.frombuffer(seed, dtype=np.uint8).reshape(1, 16))
        for tweak, child in enumerate(children[0]):
            whitened = bytes([seed[0] ^ tweak]) + seed[1:]
            cipher = aes128_encrypt_block(FIXED_KEY, whitened)
            assert child.tobytes() == bytes(a ^ b for a, b in zip(cipher, whitened))
        converted = prg.convert(np.frombuffer(seed, dtype=np.uint8).reshape(1, 16))
        whitened = bytes([seed[0] ^ 2]) + seed[1:]
        cipher = aes128_encrypt_block(FIXED_KEY, whitened)
        assert converted[0].tobytes() == bytes(a ^ b for a, b in zip(cipher, whitened))

    def test_counter_increments(self):
        prg = OracleAESPRG()
        seeds = np.zeros((3, SEED_BYTES), dtype=np.uint8)
        prg.expand(seeds)
        assert prg.expand_calls == 3
        assert prg.blocks_consumed == 6

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            OracleAESPRG().expand(np.zeros((2, 8), dtype=np.uint8))


class TestFastPRGEqualsTheOracle:
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 64, 1000])
    def test_children_and_convert(self, count):
        fast, oracle = make_prg(), OracleAESPRG()
        seeds = _seeds(count)
        children = fast.children(seeds)
        assert children.shape == (count, 2, SEED_BYTES) and children.dtype == np.uint8
        assert np.array_equal(children, oracle.children(seeds))
        blocks = fast.convert(seeds)
        assert blocks.shape == (count, SEED_BYTES) and blocks.dtype == np.uint8
        assert np.array_equal(blocks, oracle.convert(seeds))
        assert (fast.expand_calls, fast.convert_calls) == (count, count)
        assert fast.blocks_consumed == oracle.blocks_consumed == 3 * count

    def test_inputs_are_not_modified(self):
        seeds = _seeds(9)
        before = seeds.copy()
        prg = make_prg()
        prg.children(seeds)
        prg.convert(seeds)
        assert np.array_equal(seeds, before)

    def test_threads_sharing_one_instance(self):
        """Replica worker threads and overlapping async flushes may share a
        PRG: concurrent ``children`` calls (more threads than cores, switching
        as often as the interpreter allows) each get their own seeds' output,
        no worker raises, and no expansion goes uncounted."""
        prg = make_prg()
        inputs = [_seeds(256, seed) for seed in range(4)]
        expected = [OracleAESPRG().children(seeds) for seeds in inputs]
        failures = []
        start = threading.Barrier(len(inputs))

        def work(seeds, want):
            start.wait()
            try:
                for _ in range(100):
                    if not np.array_equal(prg.children(seeds), want):
                        failures.append("wrong output")
                        return
            except BaseException as error:  # a dead worker must fail the test
                failures.append(repr(error))

        threads = [threading.Thread(target=work, args=pair) for pair in zip(inputs, expected)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert prg.expand_calls == len(inputs) * 100 * 256

    def test_one_thread_at_a_time_in_the_cipher(self):
        """The encryptor context is not re-entrant, so an instance lets one
        thread into it at a time.  A stand-in encryptor that sleeps inside
        ``update_into`` makes any overlap certain, not a rare race."""

        class OverlapCountingEncryptor:
            def __init__(self, inner):
                self._inner = inner
                self._guard = threading.Lock()
                self.inside = 0
                self.overlaps = 0

            def update_into(self, data, buf):
                with self._guard:
                    self.inside += 1
                    self.overlaps += self.inside > 1
                time.sleep(0.005)
                with self._guard:
                    self.inside -= 1
                    return self._inner.update_into(data, buf)

        prg = make_prg()
        encryptor = OverlapCountingEncryptor(prg._encryptor)
        prg._encryptor = encryptor
        inputs = [_seeds(16, seed) for seed in range(4)]
        expected = [OracleAESPRG().children(seeds) for seeds in inputs]
        failures = []
        start = threading.Barrier(len(inputs))

        def work(seeds, want):
            start.wait()
            try:
                for _ in range(3):
                    if not np.array_equal(prg.children(seeds), want):
                        failures.append("wrong output")
            except BaseException as error:
                failures.append(repr(error))

        threads = [threading.Thread(target=work, args=pair) for pair in zip(inputs, expected)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert encryptor.overlaps == 0
        assert prg.expand_calls == len(inputs) * 3 * 16

    @pytest.mark.parametrize("output_bits", [1, 8, 64])
    @pytest.mark.parametrize("domain_bits", range(11))
    def test_keys_and_evaluations(self, domain_bits, output_bits):
        """``gen_many`` and full-domain evaluation on a DPF over each PRG."""
        beta = (1 << output_bits) - 1
        fast = DPF(domain_bits, output_bits, prg=make_prg(), seed=domain_bits)
        slow = DPF(domain_bits, output_bits, prg=OracleAESPRG(), seed=domain_bits)
        alphas = sorted({0, fast.domain_size - 1, fast.domain_size // 3})
        fast_keys, slow_keys = fast.gen_many(alphas, beta).keys, slow.gen_many(alphas, beta).keys
        assert [serialize_key(key) for key in fast_keys] == [
            serialize_key(key) for key in slow_keys
        ]
        num_points = max(1, fast.domain_size - 5)
        if output_bits == 1:
            values = fast.eval_full_bits_many(fast_keys, num_points)
            assert np.array_equal(values, slow.eval_full_bits_many(slow_keys, num_points))
        else:
            values = fast.eval_full_many(fast_keys, num_points)
            assert np.array_equal(values, slow.eval_full_many(slow_keys, num_points))
        assert fast.prg.blocks_consumed == slow.prg.blocks_consumed


def test_make_prg_builds_independent_fixed_key_instances():
    first, second = make_prg(), make_prg()
    assert isinstance(first, FixedKeyAESPRG) and first is not second
    first.children(_seeds(4))
    assert (first.expand_calls, second.expand_calls) == (4, 0)
