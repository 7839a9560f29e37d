"""Two-party distributed point function (DPF) with correction words.

This is the construction of Boyle, Gilboa and Ishai (CCS'16) as deployed by
Google's ``distributed_point_functions`` library (the paper's CPU baseline)
and by Lam et al. (the GPU baseline), including their *early termination*:
the GGM tree stops ``k`` levels above the points, and every leaf is turned
into one 128-bit block that packs the outputs of ``2**k`` consecutive points
(``k = floor(log2(128 // output_bits))`` — 7 for the 1-bit PIR selectors, so
a leaf carries 128 selector bits).  A key is therefore

    root seed  +  (log2 N - k) correction words  +  one 128-bit final block

and a full-domain evaluation costs ``N / 2**k - 1`` PRG expansions plus one
leaf conversion per block, instead of ``N - 1`` expansions.  Each key
individually is pseudorandom and hides both the target index ``alpha`` and
the payload ``beta``; XORing the two parties' evaluations yields the point
function

    P(x) = beta  if x == alpha else 0.

The payload lives in the XOR group of ``output_bits``-bit strings (1 bit by
default, which is what the PIR selector vectors need; up to 64 bits are
supported so the same code covers payload-carrying DPFs).

Block layout: a block is two little-endian 64-bit lanes of ``2**(k-1)``
slots each; point ``x`` lives in block ``x >> k``, slot ``j = x mod 2**k``,
i.e. bits ``[(j mod 2**(k-1)) * w, ... + w)`` of lane ``j >> (k-1)``.  For
``w = 1`` that is simply bit ``j`` of the block, which is why the selector
path is a single ``np.unpackbits(..., bitorder="little")``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import KeyMismatchError
from repro.common.rng import make_rng
from repro.dpf.ggm import CorrectionWord, expand_level, expand_level_many
from repro.dpf.prf import SEED_BYTES, LengthDoublingPRG, make_prg

MAX_OUTPUT_BITS = 64
BLOCK_BITS = 8 * SEED_BYTES

#: Wire layout of a key, shared with :mod:`repro.pir.serialization` so the
#: accounted size and the serialized size cannot drift apart: this header
#: (magic, version, party, domain_bits, output_bits), the root seed,
#: ``tree_depth`` correction words and the final correction block.
KEY_HEADER = struct.Struct("<2sBBBB")
CORRECTION_WORD_BYTES = SEED_BYTES + 2  # seed correction + two control-bit corrections


def slot_bits(output_bits: int) -> int:
    """``k``: a leaf block packs ``2**k`` outputs of ``output_bits`` bits."""
    if not 1 <= output_bits <= MAX_OUTPUT_BITS:
        raise ValueError("output_bits must be in [1, 64]")
    return (BLOCK_BITS // output_bits).bit_length() - 1


def tree_depth(domain_bits: int, output_bits: int) -> int:
    """Levels the GGM tree expands: it stops ``slot_bits`` above the points."""
    return max(0, domain_bits - slot_bits(output_bits))


def key_wire_bytes(levels: int) -> int:
    """Serialized size of a key carrying ``levels`` correction words."""
    return KEY_HEADER.size + SEED_BYTES + levels * CORRECTION_WORD_BYTES + SEED_BYTES


@dataclass(frozen=True)
class DPFKey:
    """One party's DPF key.

    Attributes
    ----------
    party:
        0 or 1; evaluation is symmetric but the two keys differ.
    domain_bits:
        The domain is ``[0, 2**domain_bits)``.
    root_seed:
        This party's 16-byte root seed.
    correction_words:
        One :class:`~repro.dpf.ggm.CorrectionWord` per *expanded* tree level
        (:attr:`tree_depth` of them).
    final_correction:
        16-byte block XORed into a converted leaf when its control bit is
        set; carries ``beta`` in the target's slot.
    output_bits:
        Width of the payload group in bits (1..64).
    """

    party: int
    domain_bits: int
    root_seed: bytes
    correction_words: Tuple[CorrectionWord, ...]
    final_correction: bytes
    output_bits: int = 1

    def __post_init__(self) -> None:
        if self.party not in (0, 1):
            raise ValueError("party must be 0 or 1")
        if self.domain_bits < 0:
            raise ValueError("domain_bits must be non-negative")
        if len(self.root_seed) != SEED_BYTES:
            raise ValueError("root seed must be 16 bytes")
        if len(self.correction_words) != self.tree_depth:
            raise ValueError(
                f"need exactly one correction word per expanded level "
                f"({self.tree_depth} for {self.domain_bits} domain bits and "
                f"{self.output_bits}-bit outputs), got {len(self.correction_words)}"
            )
        if len(self.final_correction) != SEED_BYTES:
            raise ValueError("final correction must be a 16-byte block")

    @property
    def domain_size(self) -> int:
        """Number of points in the DPF domain."""
        return 1 << self.domain_bits

    @property
    def tree_depth(self) -> int:
        """Expanded GGM levels (see :func:`tree_depth`)."""
        return tree_depth(self.domain_bits, self.output_bits)

    @property
    def size_bytes(self) -> int:
        """Exact serialized key size (``len(serialize_key(key))``).

        Matches the paper's observation that keys are O(lambda * log N) — the
        quantity shipped from the client to each server.
        """
        return key_wire_bytes(len(self.correction_words))

    def root_seed_array(self) -> np.ndarray:
        """Root seed as a ``(16,)`` uint8 array."""
        return np.frombuffer(self.root_seed, dtype=np.uint8)


@dataclass
class EvalStats:
    """Operation counts gathered during a full-domain evaluation.

    ``aes_block_equivalents`` is ``2 * prg_expansions + 1 * leaf
    conversions``; ``peak_nodes_in_memory`` counts tree nodes (one per leaf
    block at the widest level), ``leaves_evaluated`` counts domain points.
    """

    prg_expansions: int = 0
    aes_block_equivalents: int = 0
    peak_nodes_in_memory: int = 0
    leaves_evaluated: int = 0

    def merge(self, other: "EvalStats") -> None:
        """Accumulate another stats object into this one."""
        self.prg_expansions += other.prg_expansions
        self.aes_block_equivalents += other.aes_block_equivalents
        self.peak_nodes_in_memory = max(self.peak_nodes_in_memory, other.peak_nodes_in_memory)
        self.leaves_evaluated += other.leaves_evaluated


class DPF:
    """Key generation and evaluation for the two-party correction-word DPF."""

    def __init__(
        self,
        domain_bits: int,
        output_bits: int = 1,
        prg: Optional[LengthDoublingPRG] = None,
        seed: Optional[int] = None,
    ) -> None:
        if domain_bits < 0:
            raise ValueError("domain_bits must be non-negative")
        self.domain_bits = domain_bits
        self.output_bits = output_bits
        #: ``k``: points per leaf block is ``2**slot_bits``.
        self.slot_bits = slot_bits(output_bits)
        self.slots_per_block = 1 << self.slot_bits
        #: Levels the GGM tree actually expands.
        self.tree_depth = tree_depth(domain_bits, output_bits)
        self.prg = prg if prg is not None else make_prg("numpy")
        self._rng = make_rng(seed)

    @property
    def domain_size(self) -> int:
        """Number of points in the DPF domain."""
        return 1 << self.domain_bits

    def num_blocks(self, num_points: int) -> int:
        """Leaf blocks covering the first ``num_points`` points."""
        return -(-num_points // self.slots_per_block)

    # -- key generation -----------------------------------------------------

    def gen(self, alpha: int, beta: int = 1) -> Tuple[DPFKey, DPFKey]:
        """Generate the two keys hiding the point function ``P_{alpha,beta}``."""
        return self.gen_many([alpha], beta)[0]

    def gen_many(self, alphas: Sequence[int], beta: int = 1) -> List[Tuple[DPFKey, DPFKey]]:
        """One key pair per entry of ``alphas``, generated in a single walk.

        Every ``alpha`` must lie in the domain and ``beta`` must fit in
        ``output_bits`` bits (and be non-zero, otherwise the function is
        identically zero and reconstruction becomes ambiguous).

        A path holds two nodes per level, so walking one query at a time is
        all call overhead; here the ``B`` queries' paths ride in one
        ``2B``-row front (rows ``2q`` and ``2q + 1`` are query ``q``'s two
        parties) and a level is one PRG call.  All roots come from one draw,
        which consumes the generator exactly as ``B`` successive two-row
        draws do: the result equals ``[gen(alpha, beta) for alpha in alphas]``
        on a same-seeded instance, bit for bit.
        """
        alphas = [int(alpha) for alpha in alphas]
        for alpha in alphas:
            if not 0 <= alpha < self.domain_size:
                raise ValueError(f"alpha={alpha} outside domain of size {self.domain_size}")
        if beta == 0:
            raise ValueError("beta must be non-zero")
        if beta >= (1 << self.output_bits):
            raise ValueError(f"beta={beta} does not fit in {self.output_bits} bits")
        count, depth = len(alphas), self.tree_depth
        if not count:
            return []

        paths = np.asarray(alphas, dtype=np.int64)
        roots = self._rng.integers(0, 256, size=(2 * count, SEED_BYTES), dtype=np.uint8)
        # Invariant: exactly one of a query's two rows has its control bit set.
        seeds = roots.reshape(count, 2, SEED_BYTES)
        controls = np.tile(np.asarray([0, 1], dtype=np.uint8), (count, 1))
        seed_cws = np.empty((count, depth, SEED_BYTES), dtype=np.uint8)
        bit_cws = np.empty((count, depth, 2), dtype=np.uint8)
        for level in range(depth):
            # One path bit per query (1 = turn right), as a ``(B, 1)`` column;
            # the PRG's outputs as ``(B, 2, 16)`` seeds, ``(B, 2, 1)`` bits.
            bits = ((paths >> (self.domain_bits - 1 - level)) & 1).astype(np.uint8)[:, None]
            left, right, t_left, t_right = (
                part.reshape(count, 2, -1)
                for part in self.prg.expand(seeds.reshape(-1, SEED_BYTES))
            )
            keep = np.where(bits[:, :, None], right, left)
            lose = np.where(bits[:, :, None], left, right)
            seed_cw = lose[:, 0] ^ lose[:, 1]
            t_left_cw = t_left[:, 0] ^ t_left[:, 1] ^ bits ^ 1
            t_right_cw = t_right[:, 0] ^ t_right[:, 1] ^ bits
            seed_cws[:, level] = seed_cw
            bit_cws[:, level, :1] = t_left_cw
            bit_cws[:, level, 1:] = t_right_cw
            seeds = keep ^ (controls[:, :, None] * seed_cw[:, None, :])
            controls = np.where(bits, t_right[:, :, 0], t_left[:, :, 0]) ^ (
                controls * np.where(bits, t_right_cw, t_left_cw)
            )

        blocks = self.prg.convert(seeds.reshape(-1, SEED_BYTES)).reshape(count, 2, SEED_BYTES)
        finals = blocks[:, 0] ^ blocks[:, 1] ^ self._payload_blocks(paths, beta)

        def rows(array: np.ndarray) -> List[bytes]:
            data = array.tobytes()
            return [data[at:at + SEED_BYTES] for at in range(0, len(data), SEED_BYTES)]

        root_rows, cw_rows, final_rows = rows(roots), rows(seed_cws), rows(finals)
        cw_bits = bit_cws.tolist()
        pairs = []
        for query in range(count):
            words = tuple(
                CorrectionWord(cw_rows[query * depth + level], *cw_bits[query][level])
                for level in range(depth)
            )
            pairs.append(
                tuple(
                    DPFKey(
                        party=party,
                        domain_bits=self.domain_bits,
                        root_seed=root_rows[2 * query + party],
                        correction_words=words,
                        final_correction=final_rows[query],
                        output_bits=self.output_bits,
                    )
                    for party in (0, 1)
                )
            )
        return pairs

    def _payload_blocks(self, alphas: np.ndarray, beta: int) -> np.ndarray:
        """Per alpha, the all-zero block with ``beta`` in its slot: ``(B, 16)`` uint8."""
        slots_per_lane = self.slots_per_block // 2
        slots = alphas % self.slots_per_block
        lanes = np.zeros((alphas.shape[0], 2), dtype=np.uint64)
        shifts = ((slots % slots_per_lane) * self.output_bits).astype(np.uint64)
        lanes[np.arange(alphas.shape[0]), slots // slots_per_lane] = np.uint64(beta) << shifts
        return lanes.view(np.uint8)

    # -- tree walks -----------------------------------------------------------

    def _check_key(self, key: DPFKey) -> None:
        if key.domain_bits != self.domain_bits or key.output_bits != self.output_bits:
            raise KeyMismatchError(
                "key parameters do not match this DPF instance "
                f"(key: {key.domain_bits} bits/{key.output_bits}-bit output, "
                f"instance: {self.domain_bits} bits/{self.output_bits}-bit output)"
            )

    @staticmethod
    def roots(keys: Sequence[DPFKey]) -> Tuple[np.ndarray, np.ndarray]:
        """The level-0 front of ``keys``: ``(B, 16)`` seeds and ``(B,)`` control bits."""
        seeds = np.stack([key.root_seed_array() for key in keys])
        controls = np.asarray([key.party for key in keys], dtype=np.uint8)
        return seeds, controls

    def expand_front(
        self,
        keys: Sequence[DPFKey],
        seeds: np.ndarray,
        controls: np.ndarray,
        first_level: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expand a key-major node front breadth-first down to the leaves.

        ``seeds``/``controls`` hold each key's sibling-ordered nodes at
        ``first_level`` (:meth:`roots` for the whole tree, a subtree root for
        a chunked walk).  This is the only level loop of full-domain
        evaluation: :meth:`eval_full`, :meth:`eval_full_many`,
        :meth:`eval_full_bits`, the engine's selector path and the
        :mod:`repro.dpf.traversal` strategies all read its leaves.  Every
        level is one :func:`~repro.dpf.ggm.expand_level_many` call, so the
        PRG sees ``B x 2^level`` seeds per level instead of ``2^level`` seeds
        ``B`` times.
        """
        nodes_per_key = seeds.shape[0] // len(keys)
        for level in range(first_level, self.tree_depth):
            seeds, controls = expand_level_many(
                self.prg,
                seeds,
                controls,
                [key.correction_words[level] for key in keys],
                nodes_per_key,
            )
            nodes_per_key *= 2
        return seeds, controls

    def descend(
        self, key: DPFKey, nodes: np.ndarray, depth: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Walk one independent root-to-node path per entry of ``nodes``.

        ``nodes`` are node indices at level ``depth`` (default: leaf-block
        indices).  Every path re-expands its own ancestors — ``len(nodes) *
        depth`` PRG expansions — which is what point evaluation and the
        branch-parallel / memory-bounded traversals want.
        """
        depth = self.tree_depth if depth is None else depth
        nodes = np.asarray(nodes, dtype=np.int64)
        count = nodes.shape[0]
        seeds = np.repeat(key.root_seed_array().reshape(1, SEED_BYTES), count, axis=0)
        controls = np.full(count, key.party, dtype=np.uint8)
        even = np.arange(count, dtype=np.int64) * 2
        for level in range(depth):
            children, child_controls = expand_level(
                self.prg, seeds, controls, key.correction_words[level]
            )
            pick = even + ((nodes >> (depth - 1 - level)) & 1)
            seeds, controls = children[pick], child_controls[pick]
        return seeds, controls

    # -- leaves to outputs -----------------------------------------------------

    def leaf_blocks(
        self, keys: Sequence[DPFKey], seeds: np.ndarray, controls: np.ndarray
    ) -> np.ndarray:
        """Convert key-major leaf nodes into corrected ``(B, M, 16)`` output blocks."""
        num_keys = len(keys)
        blocks = self.prg.convert(seeds).reshape(num_keys, -1, SEED_BYTES)
        finals = np.stack(
            [np.frombuffer(key.final_correction, dtype=np.uint8) for key in keys]
        )
        blocks ^= controls.reshape(num_keys, -1, 1) * finals[:, None, :]
        return blocks

    def slot_values(self, blocks: np.ndarray, num_points: int) -> np.ndarray:
        """Unpack ``(B, M, 16)`` blocks into the ``(B, num_points)`` uint64 outputs."""
        lanes = np.ascontiguousarray(blocks).view(np.uint64)
        shifts = np.arange(self.slots_per_block // 2, dtype=np.uint64) * np.uint64(
            self.output_bits
        )
        values = lanes[..., None] >> shifts
        if self.output_bits < 64:
            values &= np.uint64((1 << self.output_bits) - 1)
        return np.ascontiguousarray(values.reshape(blocks.shape[0], -1)[:, :num_points])

    # -- point evaluation ----------------------------------------------------

    def eval(self, key: DPFKey, x: int) -> int:
        """Evaluate one party's share at a single point ``x``."""
        return int(self.eval_points(key, [x])[0])

    def eval_points(self, key: DPFKey, points: Sequence[int]) -> np.ndarray:
        """Evaluate one party's share at several points (returns uint64 array)."""
        self._check_key(key)
        points = np.asarray(points, dtype=np.int64).reshape(-1)
        if points.size and not (0 <= points.min() and points.max() < self.domain_size):
            raise ValueError(f"point outside domain of size {self.domain_size}")
        seeds, controls = self.descend(key, points >> self.slot_bits)
        blocks = self.leaf_blocks([key], seeds, controls)
        slots = self.slot_values(blocks, blocks.shape[1] * self.slots_per_block)
        picked = np.arange(points.size) * self.slots_per_block + (
            points & (self.slots_per_block - 1)
        )
        return slots[0, picked]

    # -- full-domain evaluation ----------------------------------------------

    def _eval_blocks(
        self,
        keys: Sequence[DPFKey],
        num_points: Optional[int],
        stats: Optional[EvalStats],
    ) -> Tuple[np.ndarray, int]:
        """One batched walk: the ``(B, ceil(num_points / 2^k), 16)`` leaf blocks."""
        keys = list(keys)
        if not keys:
            raise ValueError("full-domain evaluation needs at least one key")
        for key in keys:
            self._check_key(key)
        if num_points is None:
            num_points = self.domain_size
        if not 0 <= num_points <= self.domain_size:
            raise ValueError("num_points outside the DPF domain")

        expansions_before = self.prg.expand_calls
        blocks_before = self.prg.blocks_consumed
        seeds, controls = self.expand_front(keys, *self.roots(keys))
        needed = self.num_blocks(num_points)
        blocks = self.leaf_blocks(
            keys,
            seeds.reshape(len(keys), -1, SEED_BYTES)[:, :needed].reshape(-1, SEED_BYTES),
            controls.reshape(len(keys), -1)[:, :needed],
        )
        if stats is not None:
            stats.merge(
                EvalStats(
                    prg_expansions=self.prg.expand_calls - expansions_before,
                    aes_block_equivalents=self.prg.blocks_consumed - blocks_before,
                    peak_nodes_in_memory=1 << self.tree_depth,
                    leaves_evaluated=len(keys) * num_points,
                )
            )
        return blocks, num_points

    def eval_full_many(
        self,
        keys: Sequence[DPFKey],
        num_points: Optional[int] = None,
        stats: Optional[EvalStats] = None,
    ) -> np.ndarray:
        """Evaluate several keys' shares over the whole domain in one sweep.

        The ``B`` keys' node fronts are stacked key-major and walked together
        (:meth:`expand_front`).  Returns a ``(B, num_points)`` uint64 matrix
        (default: the full domain); row ``i`` is what ``eval_full(keys[i])``
        returns.  This is the host-side "Eval" step of Algorithm 1; the
        strategies discussed in §3.2 are available through
        :mod:`repro.dpf.traversal`.

        ``stats`` is charged exactly what ``B`` sequential evaluations
        charge: the PRG counters are seed-counted (identical either way) and
        ``peak_nodes_in_memory`` keeps the per-key meaning — batching is a
        wall-clock optimisation, not a cost-model change.
        """
        blocks, num_points = self._eval_blocks(keys, num_points, stats)
        return self.slot_values(blocks, num_points)

    def eval_full(
        self,
        key: DPFKey,
        num_points: Optional[int] = None,
        stats: Optional[EvalStats] = None,
    ) -> np.ndarray:
        """One key's share over the whole domain: a ``(num_points,)`` uint64 array."""
        return self.eval_full_many([key], num_points, stats)[0]

    def eval_full_bits_many(
        self,
        keys: Sequence[DPFKey],
        num_points: Optional[int] = None,
        stats: Optional[EvalStats] = None,
    ) -> np.ndarray:
        """Full-domain evaluation as a ``(B, num_points)`` uint8 0/1 selector matrix.

        Only valid for single-bit payloads, where a leaf block *is* 128
        selector bits; this is the representation the dpXOR scan consumes.
        """
        if self.output_bits != 1:
            raise KeyMismatchError("selector vectors require a 1-bit output group")
        blocks, num_points = self._eval_blocks(keys, num_points, stats)
        return np.unpackbits(
            blocks.reshape(blocks.shape[0], -1), axis=1, count=num_points, bitorder="little"
        )

    def eval_full_bits(self, key: DPFKey, num_points: Optional[int] = None) -> np.ndarray:
        """One key's uint8 0/1 selector vector (see :meth:`eval_full_bits_many`)."""
        return self.eval_full_bits_many([key], num_points)[0]


def verify_keys(dpf: DPF, key0: DPFKey, key1: DPFKey, alpha: int, beta: int = 1) -> bool:
    """Check that two keys reconstruct ``P_{alpha,beta}`` over the full domain.

    Intended for tests and examples; a real client never holds both keys of a
    deployed server pair.
    """
    combined = dpf.eval_full(key0) ^ dpf.eval_full(key1)
    expected = np.zeros(dpf.domain_size, dtype=np.uint64)
    expected[alpha] = beta
    return bool(np.array_equal(combined, expected))
