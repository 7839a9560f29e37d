"""Property-based tests (hypothesis) for the DPF, the two servers' selector
shares and the dpXOR scan."""

import numpy as np
from aes_oracle import OracleAESPRG
from hypothesis import given, settings, strategies as st

from repro.core.engine import create_server
from repro.dpf.dpf import DPF, EvalStats, key_batch, verify_keys
from repro.dpf.prf import make_prg
from repro.dpf.traversal import TraversalStats, make_traversal
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.messages import QueryBatch
from repro.pir.xor_ops import dpxor, pack_selectors

_SETTINGS = dict(max_examples=30, deadline=None)

#: Output widths covering every slots-per-block shape: 128 (1 bit), 64, 16
#: with 16 unused bits (7), 16 (8), 8 with 24 unused bits (13), 4 and 2.
_OUTPUT_BITS = st.sampled_from([1, 2, 7, 8, 13, 32, 64])


class TestDPFProperties:
    @settings(**_SETTINGS)
    @given(
        domain_bits=st.integers(min_value=1, max_value=9),
        alpha_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_shares_reconstruct_point_function(self, domain_bits, alpha_fraction, seed):
        dpf = DPF(domain_bits, seed=seed)
        alpha = int(alpha_fraction * dpf.domain_size)
        key0, key1 = dpf.gen(alpha, 1)
        combined = dpf.eval_full(key0) ^ dpf.eval_full(key1)
        assert combined[alpha] == 1
        assert int(combined.sum()) == 1

    @settings(**_SETTINGS)
    @given(
        domain_bits=st.integers(min_value=4, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_single_share_is_roughly_balanced(self, domain_bits, seed):
        """One share alone should look pseudorandom (close to half the bits
        set) under the fixed-key AES PRG every DPF runs on."""
        dpf = DPF(domain_bits, prg=make_prg(), seed=seed)
        alpha = dpf.domain_size // 3
        key0, _ = dpf.gen(alpha, 1)
        share = dpf.eval_full(key0)
        ones = int(share.sum())
        n = dpf.domain_size
        # Loose 4-sigma-style bound; tiny domains get a wide allowance.
        slack = max(4, int(2.5 * np.sqrt(n)))
        assert abs(ones - n / 2) <= slack

    @settings(**_SETTINGS)
    @given(
        domain_bits=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
        beta=st.integers(min_value=1, max_value=2**16 - 1),
    )
    def test_payload_round_trip(self, domain_bits, seed, beta):
        dpf = DPF(domain_bits, output_bits=16, seed=seed)
        alpha = (seed * 7) % dpf.domain_size
        key0, key1 = dpf.gen(alpha, beta)
        combined = dpf.eval_full(key0) ^ dpf.eval_full(key1)
        assert int(combined[alpha]) == beta

    @settings(**_SETTINGS)
    @given(
        domain_bits=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
        chunk_exp=st.integers(min_value=0, max_value=13),
        short_by=st.integers(min_value=0, max_value=200),
    )
    def test_traversals_agree(self, domain_bits, seed, chunk_exp, short_by):
        """Same outputs, ordered costs; ``chunk_leaves`` is counted in points,
        so chunks range from below one 128-point block to above the domain."""
        dpf = DPF(domain_bits, seed=seed)
        alpha = dpf.domain_size - 1
        key0, _ = dpf.gen(alpha, 1)
        num_points = max(1, dpf.domain_size - short_by)
        stats = {name: TraversalStats() for name in ("level", "bounded", "branch")}
        reference = make_traversal("level_by_level").eval_full(
            dpf, key0, num_points, stats=stats["level"]
        )
        branch = make_traversal("branch_parallel").eval_full(
            dpf, key0, num_points, stats=stats["branch"]
        )
        bounded = make_traversal("memory_bounded", chunk_leaves=2**chunk_exp).eval_full(
            dpf, key0, num_points, stats=stats["bounded"]
        )
        assert np.array_equal(reference, dpf.eval_full(key0, num_points))
        assert np.array_equal(reference, branch)
        assert np.array_equal(reference, bounded)
        if num_points == dpf.domain_size:
            assert (
                stats["level"].prg_calls
                <= stats["bounded"].prg_calls
                <= stats["branch"].prg_calls
            )
        chunk_blocks = max(1, 2**chunk_exp // 128)
        assert stats["bounded"].peak_nodes_in_memory <= chunk_blocks
        assert stats["level"].peak_nodes_in_memory == max(1, dpf.domain_size // 128)


class TestEarlyTerminatedConstruction:
    """The 128-bit-leaf construction, at every block shape and tree depth."""

    @settings(**_SETTINGS)
    @given(
        domain_bits=st.integers(min_value=0, max_value=12),
        output_bits=_OUTPUT_BITS,
        alpha_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        beta_seed=st.integers(min_value=0, max_value=2**64 - 1),
        short_by=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_shares_xor_to_point_function_on_every_read_path(
        self, domain_bits, output_bits, alpha_fraction, beta_seed, short_by, seed
    ):
        dpf = DPF(domain_bits, output_bits=output_bits, seed=seed)
        alpha = int(alpha_fraction * dpf.domain_size)
        beta = beta_seed % ((1 << output_bits) - 1) + 1
        keys = dpf.gen(alpha, beta)
        # Rarely a multiple of the block size; sometimes cuts alpha off.
        num_points = max(1, dpf.domain_size - short_by)

        many = dpf.eval_full_many(keys, num_points)
        assert many.shape == (2, num_points) and many.dtype == np.uint64
        expected = np.zeros(num_points, dtype=np.uint64)
        if alpha < num_points:
            expected[alpha] = beta
        assert np.array_equal(many[0] ^ many[1], expected)

        assert dpf.eval(keys[0], alpha) ^ dpf.eval(keys[1], alpha) == beta
        probes = sorted({0, min(alpha, num_points - 1), num_points - 1, num_points // 2})
        for row, key in enumerate(keys):
            assert np.array_equal(many[row], dpf.eval_full(key, num_points))
            assert np.array_equal(many[row][probes], dpf.eval_points(key, probes))
            assert int(many[row][probes[-1]]) == dpf.eval(key, probes[-1])
        if output_bits == 1:
            bits = dpf.eval_full_bits_many(keys, num_points)
            assert bits.dtype == np.uint8 and np.array_equal(bits, many)
            assert np.array_equal(bits[1], dpf.eval_full_bits(keys[1], num_points))

    @settings(**_SETTINGS)
    @given(
        domain_bits=st.integers(min_value=0, max_value=12),
        output_bits=_OUTPUT_BITS,
        alpha_fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=9
        ),
        beta_seed=st.integers(min_value=0, max_value=2**64 - 1),
        short_by=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_gen_many_rows_xor_to_their_own_point_functions(
        self, domain_bits, output_bits, alpha_fractions, beta_seed, short_by, seed
    ):
        """Mixed alphas (repeats included) in one batch: every row pair is a
        correct, independent key pair on every read path."""
        dpf = DPF(domain_bits, output_bits=output_bits, seed=seed)
        alphas = [int(fraction * dpf.domain_size) for fraction in alpha_fractions]
        beta = beta_seed % ((1 << output_bits) - 1) + 1
        pairs = dpf.gen_many(alphas, beta)
        assert len(pairs) == len(alphas)
        num_points = max(1, dpf.domain_size - short_by)
        # All 2B keys in one evaluation sweep, as a flush's queries are.
        many = dpf.eval_full_many([key for pair in pairs for key in pair], num_points)
        for row, (alpha, keys) in enumerate(zip(alphas, pairs)):
            assert verify_keys(dpf, *keys, alpha, beta)
            expected = np.zeros(num_points, dtype=np.uint64)
            if alpha < num_points:
                expected[alpha] = beta
            assert np.array_equal(many[2 * row] ^ many[2 * row + 1], expected)
            assert dpf.eval(keys[0], alpha) ^ dpf.eval(keys[1], alpha) == beta
            if output_bits == 1:
                bits = dpf.eval_full_bits_many(keys, num_points)
                assert np.array_equal(bits, many[2 * row:2 * row + 2])

    @settings(max_examples=12, deadline=None)
    @given(
        domain_bits=st.integers(min_value=0, max_value=9),
        output_bits=_OUTPUT_BITS,
        short_by=st.integers(min_value=0, max_value=100),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_fast_and_oracle_prgs_charge_identical_counts(
        self, domain_bits, output_bits, short_by, seed
    ):
        """Cost accounting is a property of the tree, not of the PRG behind it."""
        charged = {}
        for backend, make in (("fast", make_prg), ("oracle", OracleAESPRG)):
            prg = make()
            dpf = DPF(domain_bits, output_bits=output_bits, prg=prg, seed=seed)
            num_points = max(1, dpf.domain_size - short_by)
            keys = dpf.gen(dpf.domain_size // 2, 1)
            assert (prg.expand_calls, prg.convert_calls) == (2 * dpf.tree_depth, 2)
            prg.reset_counters()
            stats = EvalStats()
            combined = np.bitwise_xor.reduce(dpf.eval_full_many(keys, num_points, stats=stats))
            assert int(combined.sum()) == (1 if dpf.domain_size // 2 < num_points else 0)
            charged[backend] = (
                prg.expand_calls,
                prg.convert_calls,
                prg.blocks_consumed,
                stats.prg_expansions,
                stats.aes_block_equivalents,
                stats.peak_nodes_in_memory,
                stats.leaves_evaluated,
            )
        assert charged["fast"] == charged["oracle"]
        expansions, conversions, blocks, *_ = charged["fast"]
        assert expansions == 2 * ((1 << dpf.tree_depth) - 1)
        assert conversions == 2 * dpf.num_blocks(num_points)
        assert blocks == 2 * expansions + conversions

    def test_every_in_block_position_is_balanced(self):
        """Over many keys each of the 128 positions of a leaf block is a fair
        coin, and a share bit says nothing about its leaf's control bit.

        Position 64 is singled out because the control bit *is* bit 64 of the
        leaf seed: a construction that read shares out of the seed itself
        (instead of out of a dedicated ``prg.convert`` block) would tie the
        two together.
        """
        dpf = DPF(domain_bits=10, prg=make_prg(), seed=2024)  # 8 blocks per key
        keys = key_batch([dpf.gen(int(alpha), 1)[alpha & 1] for alpha in range(0, 1024, 3)])
        assert len(keys) >= 256
        seeds, controls = dpf.expand_front(keys, keys.roots, keys.parties)
        blocks = dpf.leaf_blocks(keys, seeds, controls)
        bits = np.unpackbits(blocks, axis=-1, bitorder="little").reshape(-1, 128)
        assert np.array_equal(
            bits.reshape(len(keys), -1), dpf.eval_full_bits_many(keys)
        )
        frequency = bits.mean(axis=0)
        assert frequency.shape == (128,)
        assert np.all(np.abs(frequency - 0.5) <= 0.1)
        assert 0.4 <= controls.mean() <= 0.6
        agreement = float((bits[:, 64] == controls).mean())
        assert abs(agreement - 0.5) <= 0.1


    def test_every_in_block_position_is_balanced_across_one_batch(self):
        """The same coin-fairness over the rows of a single ``gen_many`` call
        (mixed alphas, alternating parties): batching must not correlate the
        rows of one walk with each other."""
        dpf = DPF(domain_bits=10, seed=2025)
        alphas = list(range(0, 1024, 3))
        keys = key_batch([pair[alpha & 1] for alpha, pair in zip(alphas, dpf.gen_many(alphas))])
        seeds, controls = dpf.expand_front(keys, keys.roots, keys.parties)
        blocks = dpf.leaf_blocks(keys, seeds, controls)
        bits = np.unpackbits(blocks, axis=-1, bitorder="little").reshape(-1, 128)
        assert np.all(np.abs(bits.mean(axis=0) - 0.5) <= 0.1)
        assert 0.4 <= controls.mean() <= 0.6
        assert abs(float((bits[:, 64] == controls).mean()) - 0.5) <= 0.1


    def test_party_zero_share_says_nothing_about_alpha(self):
        """What one server sees: party 0's packed share, per bit position of
        a leaf block, is a fair coin for two disjoint sets of targets alike,
        and the two sets' per-position frequencies agree within the same
        bound (a share that leaned toward its ``alpha`` would split them)."""
        dpf = DPF(domain_bits=10, prg=make_prg(), seed=2026)
        frequencies = []
        for alphas in (range(0, 1024, 6), range(3, 1024, 6)):
            party0 = key_batch([pair[0] for pair in dpf.gen_many(list(alphas))])
            blocks = dpf.eval_packed_many(party0).reshape(-1, 16)
            bits = np.unpackbits(blocks, axis=-1, bitorder="little")
            frequency = bits.mean(axis=0)
            assert frequency.shape == (128,)
            assert np.all(np.abs(frequency - 0.5) <= 0.1)
            frequencies.append(frequency)
        assert np.all(np.abs(frequencies[0] - frequencies[1]) <= 0.1)


class TestDpXorProperties:
    @settings(**_SETTINGS)
    @given(
        num_records=st.integers(min_value=1, max_value=200),
        record_size=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_dpxor_linear_in_shares(self, num_records, record_size, seed):
        """dpXOR(v1) XOR dpXOR(v2) == the record selected by v1 XOR v2 (§2.3)."""
        rng = np.random.default_rng(seed)
        database = rng.integers(0, 256, size=(num_records, record_size), dtype=np.uint8)
        index = int(rng.integers(0, num_records))
        share0 = rng.integers(0, 2, size=num_records, dtype=np.uint8)
        share1 = share0.copy()
        share1[index] ^= 1
        answer = dpxor(database, pack_selectors(share0)) ^ dpxor(database, pack_selectors(share1))
        assert np.array_equal(answer, database[index])


class TestTwoServerSelectors:
    @settings(**_SETTINGS)
    @given(
        num_records=st.integers(min_value=1, max_value=512),
        seed=st.integers(min_value=0, max_value=2**31),
        index_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_server_selectors_xor_to_one_hot(self, num_records, seed, index_fraction):
        """The two servers' expanded selector shares of one client query
        XOR to the one-hot vector of its index, over exactly N records."""
        database = Database.random(num_records, 1, seed=seed)
        client = PIRClient(num_records, 1, seed=seed, prg=make_prg())
        index = int(index_fraction * num_records)
        shares = [
            create_server("reference", database, server_id=query.server_id).engine.selector_matrix(
                QueryBatch.stack([query])
            )[0]
            for query in client.query(index)
        ]
        assert shares[0].shape == shares[1].shape == (-(-num_records // 8),)
        selector = np.unpackbits(shares[0] ^ shares[1], bitorder="little")
        assert np.flatnonzero(selector).tolist() == [index]
