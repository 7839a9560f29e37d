"""PIR database abstraction.

A PIR database is a table ``D`` of ``N`` fixed-size records.  The paper's
evaluation uses 32-byte records (SHA-256 hashes, as found in certificate
transparency logs and compromised-credential services); the abstraction is
record-size agnostic.

The backing store is a single contiguous ``(N, record_size)`` uint8 numpy
array so that the dpXOR kernels can stream it exactly the way the paper's
servers stream DRAM/MRAM.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.common.errors import DatabaseError
from repro.common.rng import make_rng
from repro.common.units import format_bytes

DEFAULT_RECORD_SIZE = 32


class Database:
    """An immutable table of ``num_records`` fixed-size byte records."""

    def __init__(self, records: np.ndarray) -> None:
        array = np.ascontiguousarray(records, dtype=np.uint8)
        if array.ndim != 2:
            raise DatabaseError("records must be a 2-D array (num_records x record_size)")
        if array.shape[0] == 0 or array.shape[1] == 0:
            raise DatabaseError("database must contain at least one non-empty record")
        self._records = array
        self._records.setflags(write=False)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def random(
        cls,
        num_records: int,
        record_size: int = DEFAULT_RECORD_SIZE,
        seed: Optional[int] = None,
    ) -> "Database":
        """A database of uniformly random records (the paper's synthetic DB).

        One full-range 64-bit word is drawn per 8 bytes and read as
        little-endian bytes: on the fresh generator this is exactly the byte
        stream of ``rng.integers(0, 256, dtype=np.uint8)``, drawn in less than
        half the time at 128 MiB.
        """
        if num_records <= 0 or record_size <= 0:
            raise DatabaseError("num_records and record_size must be positive")
        total = num_records * record_size
        words = make_rng(seed).integers(
            0, 2**64 - 1, size=-(-total // 8), dtype=np.uint64, endpoint=True
        )
        records = words.astype("<u8", copy=False).view(np.uint8)[:total]
        return cls(records.reshape(num_records, record_size))

    @classmethod
    def from_records(cls, records: Sequence[bytes]) -> "Database":
        """Build a database from equal-length byte strings."""
        if not records:
            raise DatabaseError("cannot build a database from zero records")
        record_size = len(records[0])
        if record_size == 0:
            raise DatabaseError("records must be non-empty")
        array = np.empty((len(records), record_size), dtype=np.uint8)
        for i, record in enumerate(records):
            if len(record) != record_size:
                raise DatabaseError(
                    f"record {i} has length {len(record)}, expected {record_size}"
                )
            array[i] = np.frombuffer(record, dtype=np.uint8)
        return cls(array)

    @classmethod
    def zeros(cls, num_records: int, record_size: int = DEFAULT_RECORD_SIZE) -> "Database":
        """An all-zero database (useful as an explicit placeholder in tests)."""
        if num_records <= 0 or record_size <= 0:
            raise DatabaseError("num_records and record_size must be positive")
        return cls(np.zeros((num_records, record_size), dtype=np.uint8))

    # -- accessors ------------------------------------------------------------

    @property
    def records(self) -> np.ndarray:
        """The read-only ``(N, record_size)`` uint8 backing array."""
        return self._records

    @property
    def num_records(self) -> int:
        """Number of records ``N``."""
        return int(self._records.shape[0])

    @property
    def record_size(self) -> int:
        """Record size in bytes ``L``."""
        return int(self._records.shape[1])

    @property
    def size_bytes(self) -> int:
        """Total database size in bytes."""
        return self.num_records * self.record_size

    @property
    def index_bits(self) -> int:
        """Bits needed to address any record (the DPF domain size)."""
        return max(1, (self.num_records - 1).bit_length())

    def record(self, index: int) -> bytes:
        """The record at ``index`` as raw bytes."""
        if not 0 <= index < self.num_records:
            raise DatabaseError(f"record index {index} out of range [0, {self.num_records})")
        return self._records[index].tobytes()

    def __getitem__(self, index: int) -> bytes:
        return self.record(index)

    def __len__(self) -> int:
        return self.num_records

    def __iter__(self) -> Iterator[bytes]:
        return (row.tobytes() for row in self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return bool(np.array_equal(self._records, other._records))

    def __repr__(self) -> str:
        return (
            f"Database(num_records={self.num_records}, record_size={self.record_size}, "
            f"size={format_bytes(self.size_bytes)})"
        )

    # -- partitioning ----------------------------------------------------------

    def chunk_bounds(self, num_chunks: int) -> List[tuple]:
        """Split ``[0, N)`` into ``num_chunks`` contiguous ``(start, stop)`` ranges.

        The first ``N mod num_chunks`` chunks get one extra record, matching
        the paper's ceil-based block size ``B_d = ceil(N / P)`` while never
        producing empty leading chunks.  Chunks beyond the record count are
        empty ``(stop, stop)`` ranges so a fixed DPU population can always be
        addressed.
        """
        if num_chunks <= 0:
            raise DatabaseError("num_chunks must be positive")
        base = self.num_records // num_chunks
        remainder = self.num_records % num_chunks
        bounds = []
        start = 0
        for chunk_index in range(num_chunks):
            size = base + (1 if chunk_index < remainder else 0)
            bounds.append((start, start + size))
            start += size
        return bounds

    def chunk(self, start: int, stop: int) -> np.ndarray:
        """A read-only view of records ``[start, stop)``."""
        if not 0 <= start <= stop <= self.num_records:
            raise DatabaseError(f"invalid chunk range [{start}, {stop})")
        return self._records[start:stop]

    def with_updates(self, updates: Iterable[tuple]) -> "Database":
        """Return a new database with ``(index, record_bytes)`` updates applied.

        Models the paper's bulk-update path (updates applied by the host while
        DPUs are idle); the original database is left untouched.
        """
        array = self._records.copy()
        array.setflags(write=True)
        for index, record in updates:
            if not 0 <= index < self.num_records:
                raise DatabaseError(f"update index {index} out of range")
            if len(record) != self.record_size:
                raise DatabaseError(
                    f"update record has length {len(record)}, expected {self.record_size}"
                )
            array[index] = np.frombuffer(record, dtype=np.uint8)
        return Database(array)
