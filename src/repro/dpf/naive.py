"""Naive additive-share query encoding (paper §2.3, Fig. 2).

Before introducing DPFs the paper describes the textbook two-server XOR-PIR
scheme: the client draws a uniformly random bit vector ``v1`` and sets
``v2 = v1 XOR e_i`` (the one-hot indicator of the desired index).  Each vector
individually is uniform, so neither server learns anything, but together they
reconstruct the indicator.  Communication is O(N) bits per server instead of
the DPF's O(lambda * log N); the scheme is kept here as a correctness oracle
for the DPF-based path and as the simplest possible example of the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.common.rng import make_rng


@dataclass(frozen=True)
class NaiveShare:
    """One server's share of a naive query: a dense 0/1 selector vector."""

    server_id: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError("share bits must be a 1-D vector")
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("share bits must be 0/1")
        object.__setattr__(self, "bits", bits)

    @property
    def num_items(self) -> int:
        """Length of the selector vector (database size)."""
        return int(self.bits.shape[0])

    @property
    def size_bytes(self) -> int:
        """Upload size if bits were packed (one bit per database item)."""
        return (self.num_items + 7) // 8


class NaiveXorQueryScheme:
    """Generates and recombines naive additive shares for ``num_servers`` >= 2.

    For more than two servers the shares XOR to the indicator vector jointly;
    any ``num_servers - 1`` of them remain uniformly random, which is the
    standard t = n - 1 privacy threshold of XOR secret sharing.
    """

    def __init__(self, num_items: int, num_servers: int = 2, seed: Optional[int] = None) -> None:
        if num_items <= 0:
            raise ValueError("num_items must be positive")
        if num_servers < 2:
            raise ValueError("at least two servers are required")
        self.num_items = num_items
        self.num_servers = num_servers
        # Unseeded shares draw OS entropy: shares from the fixed library
        # default would let one server regenerate the others' shares and
        # recover the index.
        self._rng = make_rng(seed) if seed is not None else np.random.default_rng()

    def share(self, index: int) -> List[NaiveShare]:
        """Split the one-hot indicator of ``index`` into per-server shares."""
        return [
            NaiveShare(server_id=i, bits=bits) for i, bits in enumerate(self.share_many([index])[:, 0])
        ]

    def share_many(self, indices: Sequence[int]) -> np.ndarray:
        """Every index's shares as one ``(num_servers, B, num_items)`` 0/1 matrix.

        Row ``b`` of server ``s``'s slice is what :meth:`share` gives server
        ``s`` for ``indices[b]``: the indices draw in order, each one
        ``num_servers - 1`` uniform vectors, and the last server's share makes
        the column XOR to the indicator.
        """
        indices = list(indices)
        for index in indices:
            if not 0 <= index < self.num_items:
                raise ValueError(f"index {index} out of range [0, {self.num_items})")
        shares = np.empty((self.num_servers, len(indices), self.num_items), dtype=np.uint8)
        for column in range(len(indices)):
            for server in range(self.num_servers - 1):
                shares[server, column] = self._rng.integers(
                    0, 2, size=self.num_items, dtype=np.uint8
                )
        np.bitwise_xor.reduce(shares[:-1], axis=0, out=shares[-1])
        shares[-1, np.arange(len(indices)), np.asarray(indices, dtype=np.int64)] ^= 1
        return shares

    @staticmethod
    def reconstruct_indicator(shares: List[NaiveShare]) -> np.ndarray:
        """XOR the shares back into the one-hot indicator (test/diagnostic use)."""
        if not shares:
            raise ValueError("need at least one share")
        combined = np.zeros(shares[0].num_items, dtype=np.uint8)
        for share in shares:
            if share.num_items != combined.shape[0]:
                raise ValueError("shares have mismatched lengths")
            combined ^= share.bits
        return combined

    @staticmethod
    def recover_index(shares: List[NaiveShare]) -> int:
        """Return the index encoded by ``shares`` (raises if not one-hot)."""
        indicator = NaiveXorQueryScheme.reconstruct_indicator(shares)
        positions = np.flatnonzero(indicator)
        if positions.size != 1:
            raise ValueError("shares do not reconstruct a one-hot indicator")
        return int(positions[0])


def xor_select(database: np.ndarray, selector_bits: np.ndarray) -> np.ndarray:
    """XOR together the database rows whose selector bit is 1.

    ``database`` is ``(N, record_size)`` uint8; ``selector_bits`` is ``(N,)``
    of 0/1.  This is the reference (single pass, numpy) implementation of the
    paper's ``dpXOR`` operation used by the naive scheme and by tests.
    """
    database = np.asarray(database, dtype=np.uint8)
    selector_bits = np.asarray(selector_bits, dtype=np.uint8)
    if database.ndim != 2:
        raise ValueError("database must be 2-D (records x bytes)")
    if selector_bits.shape != (database.shape[0],):
        raise ValueError("selector length must equal the number of records")
    selected = database[selector_bits.astype(bool)]
    if selected.size == 0:
        return np.zeros(database.shape[1], dtype=np.uint8)
    return np.bitwise_xor.reduce(selected, axis=0)
