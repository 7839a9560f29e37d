"""Pseudorandom primitives used by the GGM-tree DPF.

Two backends implement the same :class:`LengthDoublingPRG` interface:

* :class:`AESPRG` — a correct pure-Python AES-128 (FIPS-197).  This is the
  PRF the paper uses (via AES-NI on the host CPU).  It is slow in Python and
  is therefore only exercised on small domains, mainly to pin down the exact
  cost accounting (AES block counts) and to cross-check the fast backend's
  structure.
* :class:`NumpyPRG` — a vectorised splitmix64-based expansion that processes
  whole tree levels as numpy arrays.  It is not a cryptographic PRF, but the
  DPF's correctness and the system's performance behaviour are independent of
  the concrete PRF, and the cost model separately accounts AES-block
  equivalents (see :attr:`LengthDoublingPRG.blocks_per_expand`).

Both backends expand a 128-bit seed into two 128-bit child seeds plus two
control bits, which is exactly the ``G`` used in the correction-word DPF of
Boyle-Gilboa-Ishai as deployed by Google's ``distributed_point_functions``
library and by Lam et al. (the GPU-PIR baseline the paper compares against).
:meth:`LengthDoublingPRG.children` is the one level kernel every tree walk
calls: ``m`` seeds in, their ``(m, 2, 16)`` children out, already in tree
order, with each child's control bit in bit 0 of its byte 8
(:func:`control_bits`).  A third, independent output —
:meth:`LengthDoublingPRG.convert` — turns a *leaf* seed into the 128-bit
output block of the early-terminated DPF (:mod:`repro.dpf.dpf`); it costs one
AES block and is counted separately.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

SEED_BYTES = 16
#: A child's control bit is bit 0 of this byte of the child (bit 64 of the block).
CONTROL_BYTE = 8
#: AES blocks consumed by one length-doubling expansion (two 128-bit outputs).
BLOCKS_PER_EXPAND = 2
#: AES blocks consumed by one leaf conversion (one 128-bit output).
BLOCKS_PER_CONVERT = 1

# ---------------------------------------------------------------------------
# Pure-Python AES-128 (FIPS-197).
# ---------------------------------------------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _expand_key(key: bytes) -> list:
    """AES-128 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != 16:
        raise ValueError("AES-128 requires a 16-byte key")
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    round_keys = []
    for r in range(11):
        round_keys.append([b for w in words[4 * r:4 * r + 4] for b in w])
    return round_keys


def _sub_bytes(state: list) -> None:
    for i in range(16):
        state[i] = _SBOX[state[i]]


def _shift_rows(state: list) -> None:
    # State is column-major: state[r + 4*c].
    for r in range(1, 4):
        row = [state[r + 4 * c] for c in range(4)]
        row = row[r:] + row[:r]
        for c in range(4):
            state[r + 4 * c] = row[c]


def _mix_columns(state: list) -> None:
    for c in range(4):
        col = state[4 * c:4 * c + 4]
        a = col
        b = [_xtime(v) for v in col]
        state[4 * c + 0] = b[0] ^ a[1] ^ b[1] ^ a[2] ^ a[3]
        state[4 * c + 1] = a[0] ^ b[1] ^ a[2] ^ b[2] ^ a[3]
        state[4 * c + 2] = a[0] ^ a[1] ^ b[2] ^ a[3] ^ b[3]
        state[4 * c + 3] = a[0] ^ b[0] ^ a[1] ^ a[2] ^ b[3]


def _add_round_key(state: list, round_key: list) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt a single 16-byte ``block`` under ``key`` with AES-128."""
    if len(block) != 16:
        raise ValueError("AES-128 operates on 16-byte blocks")
    round_keys = _expand_key(key)
    state = list(block)
    _add_round_key(state, round_keys[0])
    for round_index in range(1, 10):
        _sub_bytes(state)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, round_keys[round_index])
    _sub_bytes(state)
    _shift_rows(state)
    _add_round_key(state, round_keys[10])
    return bytes(state)


# ---------------------------------------------------------------------------
# Length-doubling PRG interface and backends.
# ---------------------------------------------------------------------------


def _as_seeds(seeds: np.ndarray) -> np.ndarray:
    """``seeds`` as a C-contiguous ``(k, 16)`` uint8 array, or ``ValueError``."""
    seeds = np.ascontiguousarray(seeds, dtype=np.uint8)
    if seeds.ndim != 2 or seeds.shape[1] != SEED_BYTES:
        raise ValueError("seeds must have shape (k, 16)")
    return seeds


def control_bits(children: np.ndarray) -> np.ndarray:
    """The control bits of ``(..., 16)`` child seeds: bit 0 of byte 8, as uint8."""
    return children[..., CONTROL_BYTE] & 1


class LengthDoublingPRG:
    """Expands 128-bit seeds into two 128-bit child seeds plus two bits.

    Implementations must be deterministic and stateless apart from the
    ``expand_calls`` / ``convert_calls`` / ``blocks_consumed`` counters used
    by the cost model.  A backend implements :meth:`children` and
    :meth:`convert`; :meth:`expand` and :meth:`expand_one` are views of
    :meth:`children`.
    """

    #: AES-block equivalents charged per seed expansion by the cost model.
    blocks_per_expand = BLOCKS_PER_EXPAND
    #: AES-block equivalents charged per leaf conversion.
    blocks_per_convert = BLOCKS_PER_CONVERT

    def __init__(self) -> None:
        self.expand_calls = 0
        self.convert_calls = 0

    @property
    def blocks_consumed(self) -> int:
        """Total AES-block equivalents consumed so far."""
        return (
            self.expand_calls * self.blocks_per_expand
            + self.convert_calls * self.blocks_per_convert
        )

    def reset_counters(self) -> None:
        """Zero the expansion counters (useful between benchmark runs)."""
        self.expand_calls = 0
        self.convert_calls = 0

    def children(self, seeds: np.ndarray) -> np.ndarray:
        """Expand ``(m, 16)`` uint8 seeds into their ``(m, 2, 16)`` children.

        ``[:, 0]`` is each seed's left child and ``[:, 1]`` its right one, so
        reshaping the result to ``(2m, 16)`` is the next tree level in order.
        Counts ``m`` expansions.
        """
        raise NotImplementedError

    def expand(self, seeds: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`children` split into ``(left, right, t_left, t_right)``.

        ``left``/``right`` are ``(k, 16)`` uint8 arrays and
        ``t_left``/``t_right`` ``(k,)`` uint8 arrays of control bits.
        """
        children = self.children(seeds)
        bits = control_bits(children)
        return children[:, 0], children[:, 1], bits[:, 0], bits[:, 1]

    def convert(self, seeds: np.ndarray) -> np.ndarray:
        """Turn leaf seeds into 128-bit output blocks.

        ``seeds`` is ``(k, 16)`` uint8 and so is the result.  The blocks are
        a PRG output independent of both children :meth:`children` derives
        from the same seed, so no output bit coincides with a control bit.
        """
        raise NotImplementedError

    def expand_one(self, seed: bytes) -> Tuple[bytes, bytes, int, int]:
        """Expand a single seed given as 16 raw bytes."""
        array = np.frombuffer(seed, dtype=np.uint8).reshape(1, SEED_BYTES)
        left, right, t_left, t_right = self.expand(array)
        return left[0].tobytes(), right[0].tobytes(), int(t_left[0]), int(t_right[0])


class AESPRG(LengthDoublingPRG):
    """GGM expansion built on the pure-Python AES-128 above.

    The seed acts as the AES key; the left/right children and the leaf
    output block are the encryptions of the constant blocks ``0``, ``1`` and
    ``2`` (a standard PRG-from-PRF construction).  Control bits are bit 64 of
    each child; every bit of a DPF share comes from the dedicated
    :meth:`convert` block — reading shares out of a child seed instead would
    correlate a party's share with its control bit and visibly bias the
    share vector.
    """

    _LEFT_BLOCK = bytes(16)
    _RIGHT_BLOCK = bytes([1] + [0] * 15)
    _CONVERT_BLOCK = bytes([2] + [0] * 15)

    @staticmethod
    def _encrypt_under(seeds: np.ndarray, block: bytes) -> np.ndarray:
        """AES-encrypt the constant ``block`` under every seed as key."""
        out = np.empty_like(seeds)
        for i in range(seeds.shape[0]):
            out[i] = np.frombuffer(aes128_encrypt_block(seeds[i].tobytes(), block), dtype=np.uint8)
        return out

    def children(self, seeds: np.ndarray) -> np.ndarray:
        seeds = _as_seeds(seeds)
        self.expand_calls += seeds.shape[0]
        return np.stack(
            [self._encrypt_under(seeds, block) for block in (self._LEFT_BLOCK, self._RIGHT_BLOCK)],
            axis=1,
        )

    def convert(self, seeds: np.ndarray) -> np.ndarray:
        seeds = _as_seeds(seeds)
        self.convert_calls += seeds.shape[0]
        return self._encrypt_under(seeds, self._CONVERT_BLOCK)


class NumpyPRG(LengthDoublingPRG):
    """Vectorised splitmix64-based expansion for large-domain evaluation.

    Each 128-bit seed is viewed as two 64-bit lanes and each output is produced
    by a short Feistel-like network whose round function is the splitmix64
    finaliser keyed by a per-output constant (``gamma``).  The construction is
    not a cryptographic PRF, but three rounds of cross-lane mixing are enough
    to remove the tree-structured correlations a single mixing pass leaves
    behind (the DPF property tests check share balance explicitly).
    :meth:`_feistel` computes both children (or the :meth:`convert` block) in
    one pass over a gamma axis, ~30 in-place ``out=`` ufuncs whatever the width.
    """

    _EXPAND_GAMMAS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F], dtype=np.uint64)
    _CONVERT_GAMMAS = np.array([0x165667B19E3779F9], dtype=np.uint64)
    _ROUND_2 = np.uint64(0xD6E8FEB86659FD93)
    _ROUND_3 = np.uint64(0xA0761D6478BD642F)
    _MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
    _MIX_2 = np.uint64(0x94D049BB133111EB)

    @classmethod
    def _mix(cls, z: np.ndarray, scratch: np.ndarray) -> None:
        """splitmix64's finaliser, in place on ``z`` (``scratch`` is clobbered)."""
        z ^= np.right_shift(z, 30, out=scratch)
        z *= cls._MIX_1
        z ^= np.right_shift(z, 27, out=scratch)
        z *= cls._MIX_2
        z ^= np.right_shift(z, 31, out=scratch)

    def _feistel(self, seeds: np.ndarray, gammas: np.ndarray) -> np.ndarray:
        """One ``(m, len(gammas), 16)`` uint8 output per seed and gamma."""
        lanes = _as_seeds(seeds).view(np.uint64).reshape(-1, 1, 2)
        out = np.empty((lanes.shape[0], gammas.shape[0], 2), dtype=np.uint64)
        z = np.empty(out.shape[:2], dtype=np.uint64)
        scratch = np.empty_like(z)
        left, right = out[..., 0], out[..., 1]
        # Three Feistel rounds with splitmix64 as the keyed round function;
        # broadcasting the seed lanes over the gamma axis keys round one.
        np.add(lanes[..., 1], gammas, out=z)
        self._mix(z, scratch)
        np.bitwise_xor(lanes[..., 0], z, out=left)
        np.add(left, self._ROUND_2, out=z)
        self._mix(z, scratch)
        np.bitwise_xor(lanes[..., 1], z, out=right)
        np.add(right, self._ROUND_3, out=z)
        self._mix(z, scratch)
        np.bitwise_xor(left, z, out=left)
        return out.view(np.uint8)

    def children(self, seeds: np.ndarray) -> np.ndarray:
        children = self._feistel(seeds, self._EXPAND_GAMMAS)
        self.expand_calls += children.shape[0]
        return children

    def convert(self, seeds: np.ndarray) -> np.ndarray:
        blocks = self._feistel(seeds, self._CONVERT_GAMMAS)
        self.convert_calls += blocks.shape[0]
        return blocks.reshape(-1, SEED_BYTES)


def make_prg(backend: str = "numpy") -> LengthDoublingPRG:
    """Factory for PRG backends.

    ``"numpy"`` (default) returns the fast vectorised backend; ``"aes"``
    returns the exact AES-128 backend used for crypto-fidelity tests.
    """
    normalized = backend.lower()
    if normalized in ("numpy", "fast"):
        return NumpyPRG()
    if normalized in ("aes", "aes128", "aes-128"):
        return AESPRG()
    raise ValueError(f"unknown PRG backend: {backend!r}")
