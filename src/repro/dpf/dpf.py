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
``w = 1`` that is simply bit ``j`` of the block, which is why the leaf blocks
*are* the packed selector rows the scan consumes (:meth:`DPF.eval_packed_many`).

Keys are arrays.  A :class:`DPFKeys` batch of ``B`` keys is ``roots (B, 16)``,
``parties (B,)``, ``cw_seeds (B, depth, 16)``, ``cw_bits (B, depth, 2)`` and
``finals (B, 16)``; :meth:`DPF.gen_many` returns one (wrapped as
:class:`DPFKeyPairs`), every walk reads its correction words straight from
those arrays.  A flush's per-server message carries its party's rows as a
slice of the batch (``keys[party::2]``), and a :class:`DPFKey` is a one-row
view of one — what a one-query message carries and the wire codec encodes.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import KeyMismatchError
from repro.common.rng import make_rng
from repro.dpf.ggm import corrected_children, correction_tables, gated
from repro.dpf.prf import SEED_BYTES, LengthDoublingPRG, control_bits, make_prg

MAX_OUTPUT_BITS = 64
BLOCK_BITS = 8 * SEED_BYTES

#: Wire layout of a key, shared with :mod:`repro.pir.serialization` so the
#: accounted size and the serialized size cannot drift apart: this header
#: (magic, version, party, domain_bits, output_bits), the root seed, the
#: ``tree_depth`` 16-byte seed corrections, their ``2 * tree_depth`` control-bit
#: corrections packed into bits (:func:`pack_control_corrections`) and the
#: final correction block.
KEY_HEADER = struct.Struct("<2sBBBB")


def slot_bits(output_bits: int) -> int:
    """``k``: a leaf block packs ``2**k`` outputs of ``output_bits`` bits."""
    if not 1 <= output_bits <= MAX_OUTPUT_BITS:
        raise ValueError("output_bits must be in [1, 64]")
    return (BLOCK_BITS // output_bits).bit_length() - 1


def tree_depth(domain_bits: int, output_bits: int) -> int:
    """Levels the GGM tree expands: it stops ``slot_bits`` above the points."""
    return max(0, domain_bits - slot_bits(output_bits))


def key_wire_bytes(levels: int) -> int:
    """Serialized size of a key carrying ``levels`` correction words:
    ``38 + 16 * levels + ceil(levels / 4)`` bytes."""
    return KEY_HEADER.size + SEED_BYTES + levels * SEED_BYTES + -(-levels // 4) + SEED_BYTES


def pack_control_corrections(cw_bits: np.ndarray) -> np.ndarray:
    """``(..., L, 2)`` control-bit corrections as ``(..., ceil(L / 4))`` bytes.

    The ``2L`` (left, right) bits go in level order, little bit order: bit
    ``j % 8`` of byte ``j // 8`` is bit ``j`` of the flattened ``(L, 2)``
    array, and the padding bits of the last byte are zero.
    """
    return np.packbits(cw_bits.reshape(cw_bits.shape[:-2] + (-1,)), axis=-1, bitorder="little")


def unpack_control_corrections(packed: np.ndarray, levels: int) -> np.ndarray:
    """Inverse of :func:`pack_control_corrections`: ``(..., levels, 2)`` uint8 bits."""
    bits = np.unpackbits(packed, axis=-1, count=2 * levels, bitorder="little")
    return bits.reshape(packed.shape[:-1] + (levels, 2))


#: The per-row arrays of a :class:`DPFKeys`, in constructor order.
_KEY_ARRAYS = ("roots", "parties", "cw_seeds", "cw_bits", "finals")


@dataclass(frozen=True, eq=False)
class DPFKeys(SequenceABC):
    """``B`` keys of one DPF shape as uint8 arrays; row ``i`` is one key.

    Attributes
    ----------
    domain_bits, output_bits:
        The domain is ``[0, 2**domain_bits)``, outputs are ``output_bits``
        wide (1..64); every row shares them.
    roots:
        ``(B, 16)`` root seeds.
    parties:
        ``(B,)`` parties (0 or 1), which are also the roots' control bits.
    cw_seeds, cw_bits:
        ``(B, depth, 16)`` seed corrections and ``(B, depth, 2)`` (left,
        right) control-bit corrections, one word per *expanded* tree level.
    finals:
        ``(B, 16)`` blocks XORed into a converted leaf when its control bit is
        set; they carry ``beta`` in the target's slot.

    Indexing gives a :class:`DPFKey` view of one row, slicing a
    :class:`DPFKeys` of views.
    """

    domain_bits: int
    output_bits: int
    roots: np.ndarray
    parties: np.ndarray
    cw_seeds: np.ndarray
    cw_bits: np.ndarray
    finals: np.ndarray

    def __post_init__(self) -> None:
        if self.domain_bits < 0:
            raise ValueError("domain_bits must be non-negative")
        depth = tree_depth(self.domain_bits, self.output_bits)
        arrays = (self.roots, self.parties, self.cw_seeds, self.cw_bits, self.finals)
        if any(array.dtype != np.uint8 for array in arrays):
            raise ValueError("key arrays must be uint8")
        count = self.parties.shape[0]
        if self.parties.shape != (count,) or self.parties.max(initial=0) > 1:
            raise ValueError("party must be 0 or 1")
        if self.roots.shape != (count, SEED_BYTES):
            raise ValueError("root seed must be 16 bytes")
        if self.cw_seeds.shape[:2] != (count, depth) or self.cw_bits.shape[:2] != (count, depth):
            raise ValueError(
                f"need exactly one correction word per expanded level "
                f"({depth} for {self.domain_bits} domain bits and "
                f"{self.output_bits}-bit outputs), got {self.cw_seeds.shape[1:2]}"
            )
        if self.cw_seeds.shape[2:] != (SEED_BYTES,):
            raise ValueError("correction word seed must be 16 bytes")
        if self.cw_bits.shape[2:] != (2,) or self.cw_bits.max(initial=0) > 1:
            raise ValueError("control-bit corrections must be 0 or 1")
        if self.finals.shape != (count, SEED_BYTES):
            raise ValueError("final correction must be a 16-byte block")

    @classmethod
    def stack(cls, keys: Sequence["DPFKey"]) -> "DPFKeys":
        """One batch holding ``keys``' rows in order (they must share a shape).

        For keys held as one-row views (a flush travels as a slice of its
        :meth:`DPF.gen_many` batch and needs no stacking): the distinct
        batches are concatenated and the rows gathered with one fancy index
        per array.
        """
        batches = {id(key.batch): key.batch for key in keys}
        shapes = {(batch.domain_bits, batch.output_bits) for batch in batches.values()}
        if len(shapes) != 1:
            raise KeyMismatchError(f"one key batch needs one DPF shape, got {sorted(shapes)}")
        starts = np.cumsum([0] + [len(batch) for batch in batches.values()]).tolist()
        first_row = dict(zip(batches, starts))
        rows = [first_row[id(key.batch)] + key.row for key in keys]
        return cls(
            *shapes.pop(),
            *(
                np.concatenate([getattr(batch, name) for batch in batches.values()])[rows]
                for name in _KEY_ARRAYS
            ),
        )

    def __len__(self) -> int:
        return self.parties.shape[0]

    def __getitem__(self, row: Union[int, slice]) -> Union["DPFKey", "DPFKeys"]:
        """Row ``row`` as a :class:`DPFKey` view; a slice is a sub-batch of
        views into these arrays (one party's rows of a :meth:`DPF.gen_many`
        batch are ``[party::2]``)."""
        if isinstance(row, slice):
            return DPFKeys(
                self.domain_bits,
                self.output_bits,
                *(getattr(self, name)[row] for name in _KEY_ARRAYS),
            )
        return DPFKey(self, range(len(self))[row])


class DPFKey:
    """One party's DPF key: row :attr:`row` of the :class:`DPFKeys` :attr:`batch`.

    Equal keys hold equal bytes, whichever batch they view.
    """

    __slots__ = ("batch", "row")

    def __init__(self, batch: DPFKeys, row: int) -> None:
        self.batch = batch
        self.row = row

    @property
    def party(self) -> int:
        """0 or 1; evaluation is symmetric but the two keys differ."""
        return int(self.batch.parties[self.row])

    @property
    def domain_bits(self) -> int:
        return self.batch.domain_bits

    @property
    def output_bits(self) -> int:
        return self.batch.output_bits

    @property
    def domain_size(self) -> int:
        """Number of points in the DPF domain."""
        return 1 << self.batch.domain_bits

    @property
    def tree_depth(self) -> int:
        """Expanded GGM levels (see :func:`tree_depth`)."""
        return self.batch.cw_seeds.shape[1]

    @property
    def root_seed(self) -> bytes:
        """This party's 16-byte root seed."""
        return self.batch.roots[self.row].tobytes()

    @property
    def size_bytes(self) -> int:
        """Exact serialized key size (``len(serialize_key(key))``).

        Matches the paper's observation that keys are O(lambda * log N) — the
        quantity shipped from the client to each server.
        """
        return key_wire_bytes(self.tree_depth)

    def _contents(self) -> tuple:
        batch, row = self.batch, self.row
        return (batch.domain_bits, batch.output_bits) + tuple(
            array[row].tobytes()
            for array in (batch.parties, batch.roots, batch.cw_seeds, batch.cw_bits, batch.finals)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DPFKey):
            return NotImplemented
        return self._contents() == other._contents()

    def __hash__(self) -> int:
        return hash(self._contents())


class DPFKeyPairs(SequenceABC):
    """:meth:`DPF.gen_many`'s ``Q`` key pairs over one ``2Q``-row :attr:`keys`.

    Rows ``2q`` and ``2q + 1`` are query ``q``'s parties 0 and 1; item ``q``
    is that ``(key0, key1)`` pair, and a pair sequence equals any sequence of
    equal pairs.
    """

    __slots__ = ("keys",)

    def __init__(self, keys: DPFKeys) -> None:
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys) // 2

    def __getitem__(self, query: int) -> Tuple[DPFKey, DPFKey]:
        query = range(len(self))[query]
        return self.keys[2 * query], self.keys[2 * query + 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return list(self) == list(other)


KeysLike = Union[DPFKeys, Sequence[DPFKey]]


def key_batch(keys: KeysLike) -> DPFKeys:
    """``keys`` as one :class:`DPFKeys` (stacked once if given as views)."""
    return keys if isinstance(keys, DPFKeys) else DPFKeys.stack(keys)


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
        self.prg = prg if prg is not None else make_prg()
        # Unseeded, key roots come from the OS: a fixed default would let
        # every process (and so either server) regenerate the other key.
        self._rng = make_rng(seed) if seed is not None else None

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

    def gen_many(self, alphas: Sequence[int], beta: int = 1) -> DPFKeyPairs:
        """One key pair per entry of ``alphas``, generated in a single walk.

        Every ``alpha`` must lie in the domain and ``beta`` must fit in
        ``output_bits`` bits (and be non-zero, otherwise the function is
        identically zero and reconstruction becomes ambiguous).

        A path holds two nodes per level, so walking one query at a time is
        all call overhead; here the ``Q`` queries' paths ride in one
        ``(Q, 2)`` front (column ``p`` is party ``p``, and both parties share
        their query's correction word) and a level is one
        :meth:`~repro.dpf.prf.LengthDoublingPRG.children` call.  The
        correction words land in the result's arrays as they are derived;
        nothing is cut into per-key objects.  All roots come from one draw
        (``os.urandom`` unless the instance was given a ``seed``), which
        consumes a seeded generator exactly as ``Q`` successive two-row
        draws do: the result equals ``[gen(alpha, beta) for alpha in
        alphas]`` on a same-seeded instance, bit for bit.
        """
        alphas = [int(alpha) for alpha in alphas]
        size = self.domain_size
        for alpha in alphas:
            if not 0 <= alpha < size:
                raise ValueError(f"alpha={alpha} outside domain of size {size}")
        if beta == 0:
            raise ValueError("beta must be non-zero")
        if beta >= (1 << self.output_bits):
            raise ValueError(f"beta={beta} does not fit in {self.output_bits} bits")
        count, depth = len(alphas), self.tree_depth

        paths = np.asarray(alphas, dtype=np.int64)
        queries = np.arange(count)
        roots = self._roots(2 * count)
        parties = np.tile(np.asarray([0, 1], dtype=np.uint8), count)
        # Invariant: exactly one of a query's two nodes has its control bit set.
        seeds, controls = roots.reshape(count, 2, SEED_BYTES), parties.reshape(count, 2)
        cw_seeds = np.empty((count, depth, SEED_BYTES), dtype=np.uint8)
        cw_bits = np.empty((count, depth, 2), dtype=np.uint8)
        for level in range(depth):
            # The child on each query's path (1 = right), and the ``(Q,
            # party, child, 16)`` children with their control bits.
            keep = (paths >> (self.domain_bits - 1 - level)) & 1
            children = self.prg.children(seeds.reshape(-1, SEED_BYTES)).reshape(
                count, 2, 2, SEED_BYTES
            )
            child_controls = control_bits(children)
            lose = children[queries, :, 1 - keep]
            np.bitwise_xor(lose[:, 0], lose[:, 1], out=cw_seeds[:, level])
            np.bitwise_xor(child_controls[:, 0], child_controls[:, 1], out=cw_bits[:, level])
            cw_bits[queries, level, keep] ^= 1
            # The parent whose control bit is set corrects its kept child.
            seeds = children[queries, :, keep] ^ controls[..., None] * cw_seeds[:, level, None]
            controls = child_controls[queries, :, keep] ^ (
                controls * cw_bits[queries, level, keep][:, None]
            )

        blocks = self.prg.convert(seeds.reshape(-1, SEED_BYTES)).reshape(count, 2, SEED_BYTES)
        finals = blocks[:, 0] ^ blocks[:, 1] ^ self._payload_blocks(paths, beta)
        # Both parties of a query carry its correction words and final block.
        shared = (np.repeat(array, 2, axis=0) for array in (cw_seeds, cw_bits, finals))
        return DPFKeyPairs(DPFKeys(self.domain_bits, self.output_bits, roots, parties, *shared))

    def _roots(self, count: int) -> np.ndarray:
        """``(count, 16)`` fresh root seeds: seeded draws, else ``os.urandom``."""
        if self._rng is None:
            entropy = bytearray(os.urandom(count * SEED_BYTES))
            return np.frombuffer(entropy, dtype=np.uint8).reshape(count, SEED_BYTES)
        return self._rng.integers(0, 256, size=(count, SEED_BYTES), dtype=np.uint8)

    def _payload_blocks(self, alphas: np.ndarray, beta: int) -> np.ndarray:
        """Per alpha, the all-zero block with ``beta`` in its slot: ``(B, 16)`` uint8."""
        slots_per_lane = self.slots_per_block // 2
        slots = alphas % self.slots_per_block
        lanes = np.zeros((alphas.shape[0], 2), dtype=np.uint64)
        shifts = ((slots % slots_per_lane) * self.output_bits).astype(np.uint64)
        lanes[np.arange(alphas.shape[0]), slots // slots_per_lane] = np.uint64(beta) << shifts
        return lanes.view(np.uint8)

    # -- tree walks -----------------------------------------------------------

    def _check_keys(self, keys: DPFKeys) -> None:
        if keys.domain_bits != self.domain_bits or keys.output_bits != self.output_bits:
            raise KeyMismatchError(
                "key parameters do not match this DPF instance "
                f"(key: {keys.domain_bits} bits/{keys.output_bits}-bit output, "
                f"instance: {self.domain_bits} bits/{self.output_bits}-bit output)"
            )

    def expand_front(
        self,
        keys: DPFKeys,
        seeds: np.ndarray,
        controls: np.ndarray,
        first_level: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expand a key-major node front breadth-first down to the leaves.

        ``seeds``/``controls`` hold each key's sibling-ordered nodes at
        ``first_level`` (``keys.roots`` / ``keys.parties`` for the whole
        tree, a subtree root for a chunked walk) and come back as the
        ``(B * leaves, 16)`` / ``(B * leaves,)`` leaf front.  This is the only
        level loop of full-domain evaluation: :meth:`eval_full`,
        :meth:`eval_full_many`, :meth:`eval_packed_many`, the engine's selector
        path and the :mod:`repro.dpf.traversal` strategies all read its
        leaves.  The keys' correction words for the levels below
        ``first_level`` are tabled once (:func:`~repro.dpf.ggm.correction_tables`),
        and every level is one :func:`~repro.dpf.ggm.corrected_children` call,
        so the PRG sees ``B x 2^level`` seeds per level instead of
        ``2^level`` seeds ``B`` times.
        """
        seeds = seeds.reshape(len(keys), -1, SEED_BYTES)
        controls = controls.reshape(len(keys), -1)
        levels = slice(first_level, self.tree_depth)
        for seed_table, bit_table in zip(
            *correction_tables(keys.cw_seeds[:, levels], keys.cw_bits[:, levels])
        ):
            children, child_controls = corrected_children(
                self.prg, seeds, controls, seed_table, bit_table
            )
            seeds = children.reshape(len(keys), -1, SEED_BYTES)
            controls = child_controls.reshape(len(keys), -1)
        return seeds.reshape(-1, SEED_BYTES), controls.reshape(-1)

    def descend(
        self, keys: DPFKeys, nodes: np.ndarray, depth: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Walk one independent root-to-node path per key and entry of ``nodes``.

        ``nodes`` are node indices at level ``depth`` (default: leaf-block
        indices).  Every path re-expands its own ancestors — ``B *
        len(nodes) * depth`` PRG expansions — which is what point evaluation
        and the branch-parallel / memory-bounded traversals want.  The
        correction words of the ``depth`` levels are tabled once, as in
        :meth:`expand_front`.  Returns key-major ``(B * len(nodes), 16)``
        seeds and control bits.
        """
        depth = self.tree_depth if depth is None else depth
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and not (0 <= nodes.min() and nodes.max() < 1 << depth):
            raise ValueError(f"node index outside level {depth} of the tree")
        paths = np.arange(nodes.shape[0])
        seeds = np.repeat(keys.roots[:, None, :], nodes.shape[0], axis=1)
        controls = np.repeat(keys.parties[:, None], nodes.shape[0], axis=1)
        tables = correction_tables(keys.cw_seeds[:, :depth], keys.cw_bits[:, :depth])
        for level, (seed_table, bit_table) in enumerate(zip(*tables)):
            children, child_controls = corrected_children(
                self.prg, seeds, controls, seed_table, bit_table
            )
            pick = (nodes >> (depth - 1 - level)) & 1
            seeds, controls = children[:, paths, pick], child_controls[:, paths, pick]
        return seeds.reshape(-1, SEED_BYTES), controls.reshape(-1)

    # -- leaves to outputs -----------------------------------------------------

    def leaf_blocks(self, keys: DPFKeys, seeds: np.ndarray, controls: np.ndarray) -> np.ndarray:
        """Convert key-major leaf nodes into corrected ``(B, M, 16)`` output blocks."""
        blocks = self.prg.convert(seeds).reshape(len(keys), -1, SEED_BYTES)
        blocks ^= gated(controls.reshape(len(keys), -1), keys.finals)
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
        keys = key_batch([key])
        self._check_keys(keys)
        points = np.asarray(points, dtype=np.int64).reshape(-1)
        if points.size and not (0 <= points.min() and points.max() < self.domain_size):
            raise ValueError(f"point outside domain of size {self.domain_size}")
        seeds, controls = self.descend(keys, points >> self.slot_bits)
        blocks = self.leaf_blocks(keys, seeds, controls)
        slots = self.slot_values(blocks, blocks.shape[1] * self.slots_per_block)
        picked = np.arange(points.size) * self.slots_per_block + (
            points & (self.slots_per_block - 1)
        )
        return slots[0, picked]

    # -- full-domain evaluation ----------------------------------------------

    def _eval_blocks(
        self,
        keys: KeysLike,
        num_points: Optional[int],
        stats: Optional[EvalStats],
    ) -> Tuple[np.ndarray, int]:
        """One batched walk: the ``(B, ceil(num_points / 2^k), 16)`` leaf blocks."""
        if not len(keys):
            raise ValueError("full-domain evaluation needs at least one key")
        keys = key_batch(keys)
        self._check_keys(keys)
        if num_points is None:
            num_points = self.domain_size
        if not 0 <= num_points <= self.domain_size:
            raise ValueError("num_points outside the DPF domain")

        expansions_before = self.prg.expand_calls
        blocks_before = self.prg.blocks_consumed
        seeds, controls = self.expand_front(keys, keys.roots, keys.parties)
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
        keys: KeysLike,
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

    def eval_packed_many(
        self,
        keys: KeysLike,
        num_points: Optional[int] = None,
        stats: Optional[EvalStats] = None,
    ) -> np.ndarray:
        """Full-domain evaluation as ``(B, ceil(num_points / 8))`` packed selector rows.

        Only valid for single-bit payloads, where a leaf block *is* 128
        selector bits in little bit order: the rows are a view of the leaf
        blocks themselves, cut to the bytes covering ``num_points`` with the
        bits past ``num_points`` cleared.  This is the selector format the
        scan consumes (:mod:`repro.pir.xor_ops`).
        """
        if self.output_bits != 1:
            raise KeyMismatchError("selector vectors require a 1-bit output group")
        blocks, num_points = self._eval_blocks(keys, num_points, stats)
        packed = blocks.reshape(blocks.shape[0], -1)[:, : -(-num_points // 8)]
        if num_points % 8:
            packed[:, -1] &= (1 << (num_points % 8)) - 1
        return packed

    def eval_full_bits_many(
        self,
        keys: KeysLike,
        num_points: Optional[int] = None,
        stats: Optional[EvalStats] = None,
    ) -> np.ndarray:
        """:meth:`eval_packed_many` unpacked into a ``(B, num_points)`` uint8 0/1 matrix."""
        packed = self.eval_packed_many(keys, num_points, stats)
        count = self.domain_size if num_points is None else num_points
        return np.unpackbits(packed, axis=1, count=count, bitorder="little")

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
