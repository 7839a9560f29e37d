"""The pseudorandom generator of the GGM-tree DPF: fixed-key AES-128.

Every tree walk of :mod:`repro.dpf` expands 128-bit seeds with one PRG,
:class:`FixedKeyAESPRG`, in the Matyas–Meyer–Oseas form that Google's
``distributed_point_functions`` (the paper's CPU baseline) and Lam et al.'s
GPU DPF (its GPU baseline) run on AES-NI::

    G_c(s) = AES_k(s ^ c) ^ s ^ c

``k`` is one public constant, :data:`FIXED_KEY` (the first 128 bits of the
fractional part of pi, a nothing-up-my-sleeve value): nothing about a key
depends on it being secret.  The tweak ``c`` is a little-endian 128-bit
integer — ``0`` for a seed's left child, ``1`` for its right child and ``2``
for the leaf conversion — so the three outputs of one seed are the cipher
applied to three distinct inputs.  Guo, Katz, Wang and Yu ("Efficient and
Secure Multiparty Computation from Fixed-Key Block Ciphers", IEEE S&P 2020)
analyse this use of a fixed-key cipher in the random-permutation model
(``x -> pi(x) ^ x`` is their correlation-robust hash): it is the argument for
one public key schedule per process instead of re-keying AES per seed, the
textbook PRG-from-PRF.

:meth:`LengthDoublingPRG.children` is the one level kernel every tree walk
calls: ``m`` seeds in, their ``(m, 2, 16)`` children out, already in tree
order, with each child's control bit in bit 0 of its byte 8
(:func:`control_bits`).  Here it is one ECB ``update_into`` over all ``2m``
blocks, built and XORed as 64-bit lanes.  :meth:`LengthDoublingPRG.convert`
turns *leaf* seeds into the 128-bit output blocks of the early-terminated DPF
(:mod:`repro.dpf.dpf`) with one more call; it costs one AES block per seed
and is counted separately.  An encryptor context is not re-entrant (a second
thread inside it raises ``RuntimeError: Already borrowed``), so each instance
locks its cipher call and counters: threads sharing one take turns.
"""

from __future__ import annotations

import threading

import numpy as np

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
except ImportError as error:
    raise ImportError(
        "repro.dpf needs the 'cryptography' package for its fixed-key AES PRG "
        "(there is no fallback PRG); install it next to numpy"
    ) from error

SEED_BYTES = 16
#: A child's control bit is bit 0 of this byte of the child (bit 64 of the block).
CONTROL_BYTE = 8
#: AES blocks consumed by one length-doubling expansion (two 128-bit outputs).
BLOCKS_PER_EXPAND = 2
#: AES blocks consumed by one leaf conversion (one 128-bit output).
BLOCKS_PER_CONVERT = 1
#: The public AES-128 key of every PRG instance (pi's fractional hex digits).
FIXED_KEY = bytes.fromhex("243f6a8885a308d313198a2e03707344")

#: The tweaks ``c`` of the right child and of a leaf conversion (the left's is 0).
_RIGHT_TWEAK = np.uint64(1)
_CONVERT_TWEAK = np.uint64(2)

#: The one cipher every instance opens its encryptor from.  OpenSSL looks the
#: cipher up on its first use in a process (~1.5 ms): do that at import, not
#: inside the first server's set-up.
_CIPHER = Cipher(algorithms.AES(FIXED_KEY), modes.ECB())
_CIPHER.encryptor()


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
    by the cost model, and implement :meth:`children` and :meth:`convert`.
    :class:`FixedKeyAESPRG` is the one implementation under ``src/``; the
    tests plug a block-at-a-time oracle of it in here.
    """

    #: AES blocks charged per seed expansion by the cost model.
    blocks_per_expand = BLOCKS_PER_EXPAND
    #: AES blocks charged per leaf conversion.
    blocks_per_convert = BLOCKS_PER_CONVERT

    def __init__(self) -> None:
        self.expand_calls = 0
        self.convert_calls = 0

    @property
    def blocks_consumed(self) -> int:
        """Total AES blocks consumed so far."""
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

    def convert(self, seeds: np.ndarray) -> np.ndarray:
        """Turn leaf seeds into 128-bit output blocks.

        ``seeds`` is ``(k, 16)`` uint8 and so is the result.  The blocks are
        a PRG output independent of both children :meth:`children` derives
        from the same seed, so no output bit coincides with a control bit.
        """
        raise NotImplementedError


class FixedKeyAESPRG(LengthDoublingPRG):
    """``G_c(s) = AES_k(s ^ c) ^ s ^ c`` under :data:`FIXED_KEY`, a level per call.

    Each instance owns one OpenSSL ECB encryptor (ECB carries no state
    between blocks, so one context serves every call) and its lock.
    """

    def __init__(self) -> None:
        super().__init__()
        self._encryptor = _CIPHER.encryptor()
        self._lock = threading.Lock()

    def _mmo(self, inputs: np.ndarray, expansions: int = 0, conversions: int = 0) -> np.ndarray:
        """``AES_k(x) ^ x`` of ``(n, 2)`` uint64 inputs ``x = s ^ c``, as ``(n, 16)`` uint8.

        The tweaks are XORed into each seed's low lane (little-endian, so
        ``c`` is the 128-bit integer ``c``); every step is one call on whole
        64-bit lanes, never a broadcast over 16-byte rows.  The counts are
        added under the cipher's lock.
        """
        # ``update_into`` wants one block of slack past the payload.
        outputs = np.empty((inputs.shape[0] + 1, 2), dtype=np.uint64)
        with self._lock:
            self._encryptor.update_into(
                inputs.view(np.uint8).reshape(-1), outputs.view(np.uint8).reshape(-1)
            )
            self.expand_calls += expansions
            self.convert_calls += conversions
        blocks = outputs[:-1]
        blocks ^= inputs
        return blocks.view(np.uint8)

    def children(self, seeds: np.ndarray) -> np.ndarray:
        # Rows 2i and 2i + 1 are seed i under tweak 0 (left) and 1 (right).
        inputs = np.repeat(_as_seeds(seeds).view(np.uint64), 2, axis=0)
        inputs[1::2, 0] ^= _RIGHT_TWEAK
        return self._mmo(inputs, expansions=len(inputs) // 2).reshape(-1, 2, SEED_BYTES)

    def convert(self, seeds: np.ndarray) -> np.ndarray:
        inputs = _as_seeds(seeds).view(np.uint64).copy()
        inputs[:, 0] ^= _CONVERT_TWEAK
        return self._mmo(inputs, conversions=inputs.shape[0])


def make_prg() -> LengthDoublingPRG:
    """A fresh :class:`FixedKeyAESPRG` (its own encryptor and counters)."""
    return FixedKeyAESPRG()
