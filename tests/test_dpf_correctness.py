"""Correction-word DPF: key generation and evaluation correctness."""

import numpy as np
import pytest
from aes_oracle import OracleAESPRG

from repro.common.errors import KeyMismatchError
from repro.dpf.dpf import DPF, DPFKeys, EvalStats, verify_keys
from repro.dpf.prf import SEED_BYTES
from repro.pir.client import PIRClient
from repro.pir.serialization import serialize_key


class TestGen:
    def test_unseeded_roots_are_unpredictable(self):
        """Without a seed, key roots come from the OS: two processes (or two
        instances) never emit the same roots, so one server cannot
        regenerate the other party's key.  A seed stays deterministic."""
        first, second = DPF(12).gen(37), DPF(12).gen(37)
        for party in (0, 1):
            assert first[party].root_seed != second[party].root_seed
        assert DPF(12, seed=4).gen(37) == DPF(12, seed=4).gen(37)
        unseeded = [PIRClient(4096, 32).query(9)[0].key for _ in range(2)]
        assert unseeded[0].root_seed != unseeded[1].root_seed
        seeded = [PIRClient(4096, 32, seed=6).query(9)[0].key for _ in range(2)]
        assert serialize_key(seeded[0]) == serialize_key(seeded[1])

    def test_keys_have_expected_structure(self):
        dpf = DPF(domain_bits=12, seed=1)
        key0, key1 = dpf.gen(37, 1)
        assert key0.party == 0 and key1.party == 1
        # One correction word per *expanded* level: the tree stops 7 levels
        # above the points and a leaf block carries 128 of them.
        assert dpf.tree_depth == key0.tree_depth == 12 - 7
        # Both keys are rows of one array batch and share its correction
        # words and final block.
        keys = key0.batch
        assert key1.batch is keys and (key0.row, key1.row) == (0, 1)
        assert keys.cw_seeds.shape == (2, 12 - 7, 16) and keys.cw_bits.shape == (2, 12 - 7, 2)
        assert np.array_equal(keys.cw_seeds[0], keys.cw_seeds[1])
        assert np.array_equal(keys.cw_bits[0], keys.cw_bits[1])
        assert keys.finals.shape == (2, 16)
        assert np.array_equal(keys.finals[0], keys.finals[1])
        assert key0.root_seed != key1.root_seed

    @pytest.mark.parametrize(
        "output_bits,slot_bits", [(1, 7), (2, 6), (7, 4), (8, 4), (13, 3), (32, 2), (64, 1)]
    )
    def test_tree_depth_follows_output_width(self, output_bits, slot_bits):
        assert DPF(domain_bits=10, output_bits=output_bits).tree_depth == 10 - slot_bits
        assert DPF(domain_bits=1, output_bits=output_bits).tree_depth == 0

    def test_key_size_grows_logarithmically(self):
        small = DPF(domain_bits=12, seed=1).gen(3)[0].size_bytes
        large = DPF(domain_bits=24, seed=1).gen(3)[0].size_bytes
        assert large > small
        assert large < 4 * small  # log-scale growth (domain grew 4096x), not linear
        # One 16-byte seed correction per doubling, and the two control-bit
        # corrections of 17 levels pack into 5 bytes where 5 levels take 2.
        assert large - small == 12 * 16 + (5 - 2)

    def test_alpha_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            DPF(domain_bits=4, seed=1).gen(16)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            DPF(domain_bits=4, seed=1).gen(3, beta=0)

    def test_beta_too_wide_rejected(self):
        with pytest.raises(ValueError):
            DPF(domain_bits=4, output_bits=4, seed=1).gen(3, beta=16)

    def test_invalid_output_bits_rejected(self):
        with pytest.raises(ValueError):
            DPF(domain_bits=4, output_bits=65)


def _sequential_gen(dpf, alpha, beta=1):
    """The two-row walk ``DPF.gen`` ran before ``gen_many``: one query, one
    ``(2, 16)`` root draw, scalar path bits.  Kept as the loop reference the
    batched walk must reproduce bit for bit."""
    roots = dpf._rng.integers(0, 256, size=(2, SEED_BYTES), dtype=np.uint8)
    parties = np.asarray([0, 1], dtype=np.uint8)
    seeds, controls = roots, parties
    cw_seeds = np.zeros((dpf.tree_depth, SEED_BYTES), dtype=np.uint8)
    cw_bits = np.zeros((dpf.tree_depth, 2), dtype=np.uint8)
    for level in range(dpf.tree_depth):
        bit = (alpha >> (dpf.domain_bits - 1 - level)) & 1
        left, right, t_left, t_right = dpf.prg.expand(seeds)
        keep, lose = (right, left) if bit else (left, right)
        seed_cw = lose[0] ^ lose[1]
        t_left_cw = int(t_left[0] ^ t_left[1]) ^ bit ^ 1
        t_right_cw = int(t_right[0] ^ t_right[1]) ^ bit
        cw_seeds[level], cw_bits[level] = seed_cw, (t_left_cw, t_right_cw)
        seeds = keep ^ (controls[:, None] * seed_cw)
        controls = (t_right if bit else t_left) ^ (
            controls * np.uint8(t_right_cw if bit else t_left_cw)
        )
    blocks = dpf.prg.convert(seeds)
    slots_per_lane = dpf.slots_per_block // 2
    slot = alpha % dpf.slots_per_block
    payload = [0, 0]
    payload[slot // slots_per_lane] = beta << ((slot % slots_per_lane) * dpf.output_bits)
    final = blocks[0] ^ blocks[1] ^ np.asarray(payload, dtype=np.uint64).view(np.uint8)
    shared = (np.stack([row, row]) for row in (cw_seeds, cw_bits, final))
    return tuple(DPFKeys(dpf.domain_bits, dpf.output_bits, roots, parties, *shared))


class TestGenMany:
    @pytest.mark.parametrize("output_bits", [1, 8, 64])
    @pytest.mark.parametrize("domain_bits", range(21))
    def test_batch_is_bit_identical_to_the_sequential_walk(self, domain_bits, output_bits):
        """Covers ``tree_depth == 0`` (small domains, wide outputs) and the
        one-draw root layout: a *following* call must stay aligned with the
        sequential stream too."""
        beta = (1 << output_bits) - 1
        picks = np.random.default_rng(domain_bits).integers(0, 1 << domain_bits, size=19)
        alphas = [0, (1 << domain_bits) - 1] + [int(alpha) for alpha in picks]
        # The two-row reference walks on the block-at-a-time AES oracle.
        reference = DPF(domain_bits, output_bits, prg=OracleAESPRG(), seed=77)
        batched, one_by_one = (DPF(domain_bits, output_bits, seed=77) for _ in range(2))
        expected = [_sequential_gen(reference, alpha, beta) for alpha in alphas]
        assert batched.gen_many(alphas, beta) == expected
        assert [one_by_one.gen(alpha, beta) for alpha in alphas] == expected
        follow_up = [_sequential_gen(reference, alpha, beta) for alpha in alphas[:3]]
        assert batched.gen_many(alphas[:3], beta) == follow_up

    def test_empty_batch_draws_nothing(self):
        dpf, fresh = DPF(domain_bits=9, seed=5), DPF(domain_bits=9, seed=5)
        assert dpf.gen_many([]) == []
        assert dpf.gen(3) == fresh.gen(3)

    @pytest.mark.parametrize(
        "alphas,beta,message",
        [
            ([3, 16, 5], 1, "alpha=16 outside domain of size 16"),
            ([3, -1], 1, "alpha=-1 outside domain of size 16"),
            ([3, 5], 0, "beta must be non-zero"),
            ([3, 5], 16, "beta=16 does not fit in 4 bits"),
        ],
    )
    def test_bad_input_raises_before_any_randomness_is_drawn(self, alphas, beta, message):
        dpf, fresh = (DPF(domain_bits=4, output_bits=4, seed=1) for _ in range(2))
        with pytest.raises(ValueError, match=message):
            dpf.gen_many(alphas, beta)
        with pytest.raises(ValueError, match=message):
            dpf.gen(alphas[1], beta)
        assert dpf.prg.expand_calls == dpf.prg.convert_calls == 0
        assert dpf.gen_many([3, 5], 7) == fresh.gen_many([3, 5], 7)

    def test_no_two_rows_of_a_batch_share_a_root_seed(self):
        pairs = DPF(domain_bits=12, seed=3).gen_many([9] * 40 + list(range(24)))
        roots = [key.root_seed for pair in pairs for key in pair]
        assert len(set(roots)) == len(roots) == 128
        assert all(key0.root_seed != key1.root_seed for key0, key1 in pairs)
        assert all((key0.party, key1.party) == (0, 1) for key0, key1 in pairs)

    @pytest.mark.parametrize("domain_bits,output_bits", [(0, 1), (7, 1), (12, 1), (20, 1), (9, 8)])
    def test_batch_made_keys_account_their_wire_size(self, domain_bits, output_bits):
        dpf = DPF(domain_bits, output_bits, seed=11)
        alphas = [0, dpf.domain_size - 1, dpf.domain_size // 3]
        for alpha, (key0, key1) in zip(alphas, dpf.gen_many(alphas)):
            assert verify_keys(dpf, key0, key1, alpha)
            for key in (key0, key1):
                assert key.size_bytes == len(serialize_key(key))


class TestPointEval:
    @pytest.mark.parametrize("alpha", [0, 1, 100, 255])
    def test_xor_of_shares_is_point_function(self, alpha):
        dpf = DPF(domain_bits=8, seed=7)
        key0, key1 = dpf.gen(alpha, 1)
        for x in (0, alpha, 255, (alpha + 1) % 256):
            combined = dpf.eval(key0, x) ^ dpf.eval(key1, x)
            assert combined == (1 if x == alpha else 0)

    def test_point_out_of_domain_rejected(self):
        dpf = DPF(domain_bits=4, seed=1)
        key0, _ = dpf.gen(3)
        with pytest.raises(ValueError):
            dpf.eval(key0, 16)

    def test_eval_points_batch(self):
        dpf = DPF(domain_bits=6, seed=2)
        key0, _ = dpf.gen(9)
        values = dpf.eval_points(key0, [0, 9, 63])
        full = dpf.eval_full(key0)
        assert values[0] == full[0] and values[1] == full[9] and values[2] == full[63]

    def test_mismatched_key_rejected(self):
        dpf_a = DPF(domain_bits=4, seed=1)
        dpf_b = DPF(domain_bits=6, seed=1)
        key0, _ = dpf_a.gen(2)
        with pytest.raises(KeyMismatchError):
            dpf_b.eval(key0, 1)


class TestFullDomainEval:
    def test_verify_keys_helper(self):
        dpf = DPF(domain_bits=10, seed=5)
        key0, key1 = dpf.gen(517, 1)
        assert verify_keys(dpf, key0, key1, 517, 1)

    def test_full_eval_truncation(self):
        dpf = DPF(domain_bits=7, seed=3)
        key0, _ = dpf.gen(12)
        assert dpf.eval_full(key0, num_points=100).shape == (100,)

    def test_full_eval_matches_point_eval(self):
        dpf = DPF(domain_bits=8, seed=11)
        key0, _ = dpf.gen(200)
        full = dpf.eval_full(key0)
        for x in (0, 1, 37, 200, 255):
            assert full[x] == dpf.eval(key0, x)

    def test_bits_helper_returns_uint8(self):
        dpf = DPF(domain_bits=6, seed=4)
        key0, key1 = dpf.gen(10)
        bits = dpf.eval_full_bits(key0) ^ dpf.eval_full_bits(key1)
        assert bits.dtype == np.uint8
        assert bits.sum() == 1 and bits[10] == 1

    def test_bits_helper_rejects_wide_output(self):
        dpf = DPF(domain_bits=6, output_bits=8, seed=4)
        key0, _ = dpf.gen(10, beta=5)
        with pytest.raises(KeyMismatchError):
            dpf.eval_full_bits(key0)

    def test_stats_accumulation(self):
        dpf = DPF(domain_bits=12, seed=1)
        key0, _ = dpf.gen(7)
        stats = EvalStats()
        dpf.eval_full(key0, stats=stats)
        blocks = 4096 // 128
        assert stats.leaves_evaluated == 4096
        assert stats.prg_expansions == blocks - 1  # one per internal node of the block tree
        assert stats.aes_block_equivalents == 2 * (blocks - 1) + blocks  # + one conversion per leaf
        assert stats.peak_nodes_in_memory == blocks

    def test_domain_bits_zero(self):
        dpf = DPF(domain_bits=0, seed=1)
        key0, key1 = dpf.gen(0, 1)
        assert (dpf.eval(key0, 0) ^ dpf.eval(key1, 0)) == 1


class TestPayloads:
    @pytest.mark.parametrize("output_bits,beta", [(8, 0xAB), (32, 0xDEADBEEF), (64, (1 << 63) + 5)])
    def test_wide_payloads(self, output_bits, beta):
        dpf = DPF(domain_bits=7, output_bits=output_bits, seed=9)
        alpha = 66
        key0, key1 = dpf.gen(alpha, beta)
        combined = dpf.eval_full(key0) ^ dpf.eval_full(key1)
        assert int(combined[alpha]) == beta
        assert np.count_nonzero(combined) == 1


class TestAESBackedDPF:
    def test_correctness_with_real_aes(self):
        dpf = DPF(domain_bits=5, prg=OracleAESPRG(), seed=21)
        alpha = 19
        key0, key1 = dpf.gen(alpha, 1)
        combined = dpf.eval_full(key0) ^ dpf.eval_full(key1)
        expected = np.zeros(32, dtype=np.uint64)
        expected[alpha] = 1
        assert np.array_equal(combined, expected)


def _key_arrays(domain_bits, output_bits=1, **overrides):
    """A valid one-row :class:`DPFKeys` argument set, with ``overrides``."""
    depth = DPF(domain_bits, output_bits).tree_depth
    arrays = dict(
        roots=np.zeros((1, SEED_BYTES), dtype=np.uint8),
        parties=np.zeros(1, dtype=np.uint8),
        cw_seeds=np.zeros((1, depth, SEED_BYTES), dtype=np.uint8),
        cw_bits=np.zeros((1, depth, 2), dtype=np.uint8),
        finals=np.zeros((1, SEED_BYTES), dtype=np.uint8),
    )
    arrays.update(overrides)
    return dict(domain_bits=domain_bits, output_bits=output_bits, **arrays)


class TestKeyValidation:
    def test_key_rejects_wrong_seed_length(self):
        with pytest.raises(ValueError, match="root seed must be 16 bytes"):
            DPFKeys(**_key_arrays(0, roots=np.zeros((1, 5), dtype=np.uint8)))

    def test_key_rejects_bad_party(self):
        with pytest.raises(ValueError, match="party must be 0 or 1"):
            DPFKeys(**_key_arrays(0, parties=np.asarray([2], dtype=np.uint8)))

    def test_key_rejects_wrong_correction_count(self):
        # A 10-bit domain expands 3 levels, a 3-bit one none: neither zero
        # words, nor the old one-per-domain-bit count, is accepted.
        for domain_bits, count in ((10, 0), (10, 10), (3, 3)):
            words = dict(
                cw_seeds=np.zeros((1, count, SEED_BYTES), dtype=np.uint8),
                cw_bits=np.zeros((1, count, 2), dtype=np.uint8),
            )
            with pytest.raises(ValueError, match="per expanded level"):
                DPFKeys(**_key_arrays(domain_bits, **words))

    def test_key_rejects_wrong_final_block_length(self):
        with pytest.raises(ValueError, match="16-byte block"):
            DPFKeys(**_key_arrays(3, finals=np.zeros((1, 8), dtype=np.uint8)))

    def test_key_rejects_non_uint8_arrays_and_negative_domains(self):
        with pytest.raises(ValueError, match="uint8"):
            DPFKeys(**_key_arrays(3, parties=np.zeros(1, dtype=np.int64)))
        with pytest.raises(ValueError, match="non-negative"):
            DPFKeys(**dict(_key_arrays(0), domain_bits=-1))


class TestKeyViews:
    def test_keys_compare_and_hash_by_content_across_batches(self):
        dpf = DPF(domain_bits=11, seed=4)
        pairs, other = dpf.gen_many([5, 700, 5]), dpf.gen_many([9])
        key = pairs[1][0]
        restacked = DPFKeys.stack([pairs[2][1], other[0][1], key])
        assert restacked[2] == key and hash(restacked[2]) == hash(key)
        assert restacked[0] == pairs[2][1] != pairs[0][1]
        assert restacked[1] == other[0][1]
        assert len({key, restacked[2]}) == 1
        assert np.array_equal(
            dpf.eval_full_bits_many(restacked),
            dpf.eval_full_bits_many([pairs[2][1], other[0][1], key]),
        )

    def test_pairs_index_like_a_sequence(self):
        pairs = DPF(domain_bits=9, seed=8).gen_many([1, 2, 3])
        assert len(pairs) == 3 and len(pairs.keys) == 6
        assert pairs[-1] == pairs[2] == (pairs.keys[4], pairs.keys[5])
        assert pairs != [pairs[0]] and pairs != "abc"
        with pytest.raises(IndexError):
            pairs[3]
        with pytest.raises(IndexError):
            pairs.keys[6]

    def test_stack_rejects_mixed_shapes(self):
        small, wide = DPF(domain_bits=9, seed=1).gen(3), DPF(domain_bits=10, seed=1).gen(3)
        with pytest.raises(KeyMismatchError):
            DPFKeys.stack([small[0], wide[0]])
        with pytest.raises(KeyMismatchError):
            DPF(domain_bits=10).eval_full_many([small[0]])
