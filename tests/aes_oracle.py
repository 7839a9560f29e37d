"""The test oracle of :mod:`repro.dpf.prf`: the same PRG, one block at a time.

A pure-Python AES-128 written from FIPS-197 (checked against its known-answer
vectors in ``test_prf_aes.py``) and :class:`OracleAESPRG`, which computes the
fixed-key Matyas–Meyer–Oseas PRG ``G_c(s) = AES_k(s ^ c) ^ s ^ c`` seed by
seed and tweak by tweak over it.  It shares nothing with the fast PRG but the
public key and the :class:`~repro.dpf.prf.LengthDoublingPRG` seam, so a DPF
built on it (``DPF(..., prg=OracleAESPRG())``) is the reference every
OpenSSL-backed result must equal byte for byte.  It is slow (tens of
microseconds per block): keep it to small domains.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dpf.prf import FIXED_KEY, SEED_BYTES, LengthDoublingPRG, control_bits

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


def expand_key(key: bytes) -> List[List[int]]:
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
    return [[b for w in words[4 * r:4 * r + 4] for b in w] for r in range(11)]


#: ``xtime`` of every byte, and where ShiftRows takes each byte of the
#: column-major state (``state[r + 4c]``) from: row ``r`` rotates left by ``r``.
_XTIME = [_xtime(value) for value in range(256)]
_SHIFT_ROWS = [r + 4 * ((c + r) % 4) for c in range(4) for r in range(4)]


def _mix_columns(state: List[int]) -> List[int]:
    mixed = []
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c:c + 4]
        b0, b1, b2, b3 = _XTIME[a0], _XTIME[a1], _XTIME[a2], _XTIME[a3]
        mixed += [
            b0 ^ a1 ^ b1 ^ a2 ^ a3,
            a0 ^ b1 ^ a2 ^ b2 ^ a3,
            a0 ^ a1 ^ b2 ^ a3 ^ b3,
            a0 ^ b0 ^ a1 ^ a2 ^ b3,
        ]
    return mixed


def encrypt_block(round_keys: List[List[int]], block: bytes) -> bytes:
    """Encrypt one 16-byte ``block`` under an expanded AES-128 key.

    SubBytes and ShiftRows commute (one substitutes bytes, the other moves
    them), so each round does both as one table lookup per byte.
    """
    if len(block) != 16:
        raise ValueError("AES-128 operates on 16-byte blocks")
    state = [byte ^ key for byte, key in zip(block, round_keys[0])]
    for round_index in range(1, 11):
        state = [_SBOX[state[source]] for source in _SHIFT_ROWS]
        if round_index < 10:
            state = _mix_columns(state)
        state = [byte ^ key for byte, key in zip(state, round_keys[round_index])]
    return bytes(state)


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt a single 16-byte ``block`` under ``key`` with AES-128."""
    return encrypt_block(expand_key(key), block)


class OracleAESPRG(LengthDoublingPRG):
    """``G_c(s) = AES_k(s ^ c) ^ s ^ c`` block by block over the pure-Python AES.

    :meth:`expand` is the primitive (one seed at a time, left then right);
    :meth:`children` stacks it into the fast PRG's ``(m, 2, 16)`` layout.
    """

    def __init__(self) -> None:
        super().__init__()
        self._round_keys = expand_key(FIXED_KEY)

    def block(self, seed: bytes, tweak: int) -> bytes:
        """``G_tweak(seed)``: the tweak is XORed in as a little-endian integer."""
        whitened = (int.from_bytes(seed, "little") ^ tweak).to_bytes(SEED_BYTES, "little")
        cipher = encrypt_block(self._round_keys, whitened)
        return bytes(a ^ b for a, b in zip(cipher, whitened))

    def _blocks(self, seeds: np.ndarray, tweak: int) -> np.ndarray:
        seeds = np.asarray(seeds, dtype=np.uint8)
        if seeds.ndim != 2 or seeds.shape[1] != SEED_BYTES:
            raise ValueError("seeds must have shape (k, 16)")
        out = np.empty_like(seeds)
        for row, seed in enumerate(seeds):
            out[row] = np.frombuffer(self.block(seed.tobytes(), tweak), dtype=np.uint8)
        return out

    def expand(self, seeds: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(left, right, t_left, t_right)`` of ``(k, 16)`` seeds; counts ``k``."""
        left, right = self._blocks(seeds, 0), self._blocks(seeds, 1)
        self.expand_calls += left.shape[0]
        return left, right, control_bits(left), control_bits(right)

    def children(self, seeds: np.ndarray) -> np.ndarray:
        left, right, _, _ = self.expand(seeds)
        return np.stack([left, right], axis=1)

    def convert(self, seeds: np.ndarray) -> np.ndarray:
        blocks = self._blocks(seeds, 2)
        self.convert_calls += blocks.shape[0]
        return blocks
