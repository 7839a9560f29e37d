"""dpXOR kernels: the linear "select-and-XOR" scan at the heart of the server.

The paper calls the combination of the inner product with the selector vector
and the XOR accumulation "dpXOR".  For an XOR-group database the operation is

    r = XOR_{j : v[j] = 1}  D[j]

which every PIR server must evaluate over the *entire* database for every
query (the all-for-one principle).  This module provides the numpy scan —
:func:`dpxor_many`, with :func:`dpxor` as its one-row form — and a small
operation counter used by the cost models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.errors import DatabaseError


@dataclass
class DpXorStats:
    """Byte/record traffic of a dpXOR evaluation, consumed by the cost models."""

    records_scanned: int = 0
    records_selected: int = 0
    db_bytes_read: int = 0
    selector_bytes_read: int = 0
    output_bytes_written: int = 0

    def merge(self, other: "DpXorStats") -> None:
        """Accumulate another stats object into this one."""
        self.records_scanned += other.records_scanned
        self.records_selected += other.records_selected
        self.db_bytes_read += other.db_bytes_read
        self.selector_bytes_read += other.selector_bytes_read
        self.output_bytes_written += other.output_bytes_written

    @property
    def total_bytes_moved(self) -> int:
        """All bytes that crossed the memory interface."""
        return self.db_bytes_read + self.selector_bytes_read + self.output_bytes_written


#: Word width of the fast XOR path: eight uint8 lanes folded per operation.
WORD_BYTES = 8

#: Slab of the batched scan, in database bytes: the selected records one
#: ``np.take`` gathers before they are folded.  Cache-sized, so the fold
#: re-reads hot lines instead of streaming the rows back from DRAM.
BATCH_CHUNK_BYTES = 1 << 18

#: Batch rows per gather; their selector bits are one byte per record, the
#: record's *pattern* (which of the rows want it).
GROUP_ROWS = 8

#: Default sort window of the batched scan, in records: long enough that each
#: of the 255 live patterns forms a long run, short enough that the window's
#: temporaries (8 bytes of sort index per record) stay cache-resident and
#: under malloc's mmap threshold — at 65536 they page-fault on every call.
WINDOW_RECORDS = 1 << 14

#: Rows this wide (bytes) fold each equal-pattern run with ``reduce(axis=0)``,
#: which streams wide rows 3-5x faster than ``reduceat`` but costs a Python
#: step per run; narrower rows fold a slab's runs with one ``reduceat``.
RUN_REDUCE_MIN_BYTES = 512

_PATTERN_SHIFTS = np.arange(GROUP_ROWS, dtype=np.uint8)[:, None]


def word_view(array: np.ndarray) -> Optional[np.ndarray]:
    """View ``array``'s last axis as uint64 words, or ``None`` when it can't.

    The fast path needs the byte count along the last axis to be a multiple
    of the word width and the buffer to be C-contiguous; odd record sizes and
    strided views take the uint8 fallback instead.
    """
    if array.shape[-1] % WORD_BYTES or array.shape[-1] == 0:
        return None
    if not array.flags["C_CONTIGUOUS"]:
        return None
    return array.view(np.uint64)


def _validate(database: np.ndarray, selector: np.ndarray) -> tuple:
    database = np.asarray(database, dtype=np.uint8)
    selector = np.asarray(selector, dtype=np.uint8)
    if database.ndim != 2:
        raise DatabaseError("database chunk must be 2-D (records x bytes)")
    if selector.ndim != 1 or selector.shape[0] != database.shape[0]:
        raise DatabaseError(
            f"selector length {selector.shape} does not match database rows {database.shape[0]}"
        )
    return database, selector


def _validate_many(database: np.ndarray, selectors: np.ndarray) -> tuple:
    database = np.asarray(database, dtype=np.uint8)
    selectors = np.asarray(selectors, dtype=np.uint8)
    if database.ndim != 2:
        raise DatabaseError("database chunk must be 2-D (records x bytes)")
    if selectors.ndim != 2 or selectors.shape[1] != database.shape[0]:
        raise DatabaseError(
            f"selector matrix {selectors.shape} does not match database rows "
            f"{database.shape[0]} (expected (batch, records))"
        )
    return database, selectors


def dpxor(
    database: np.ndarray,
    selector: np.ndarray,
    stats: Optional[DpXorStats] = None,
) -> np.ndarray:
    """Reference dpXOR: XOR of database rows whose selector bit is set.

    ``database`` is ``(N, record_size)`` uint8, ``selector`` is ``(N,)`` of
    0/1 values.  Returns the ``(record_size,)`` XOR accumulator: the one-row
    form of :func:`dpxor_many`, so there is one scan body.  The whole
    database is charged to ``stats`` regardless of how many bits are set: the
    all-for-one principle means a real server touches every record.
    """
    database, selector = _validate(database, selector)
    return dpxor_many(database, selector[None], stats=stats)[0]


def _bucket_window(
    block: np.ndarray, selectors: np.ndarray, table: np.ndarray, scratch: np.ndarray, per_run: bool
) -> None:
    """XOR every selected record of ``block`` into ``table[its pattern]``.

    ``selectors`` is one row group's ``(rows, len(block))`` slice: bit ``r`` of
    a record's pattern is set when row ``r`` selects it.  ``scratch`` is the
    slab the gathers land in.
    """
    bits = np.not_equal(selectors, 0).view(np.uint8)
    np.left_shift(bits, _PATTERN_SHIFTS[: bits.shape[0]], out=bits)
    patterns = np.bitwise_or.reduce(bits, axis=0)
    order = np.argsort(patterns, kind="stable")
    order = order[patterns.size - np.count_nonzero(patterns) :]
    if not order.size:
        return
    sorted_patterns = patterns[order]
    slab = scratch.shape[0]
    # A cut opens every run of equal pattern and every slab, so that no run
    # straddles two gathers and a slab holds each pattern at most once.
    is_cut = np.empty(order.size, dtype=bool)
    np.not_equal(sorted_patterns[1:], sorted_patterns[:-1], out=is_cut[1:])
    is_cut[::slab] = True
    cuts = np.flatnonzero(is_cut)
    cut_patterns = sorted_patterns[cuts]
    offsets = cuts % slab
    edges = np.flatnonzero(offsets == 0).tolist() + [cuts.size]
    for first, last, lo in zip(edges, edges[1:], range(0, order.size, slab)):
        picks = order[lo : lo + slab]
        gathered = scratch[: picks.size]
        # mode="raise" (the default) makes take() buffer ``out``.
        np.take(block, picks, axis=0, out=gathered, mode="clip")
        if per_run:
            bounds = offsets[first:last].tolist() + [picks.size]
            for pattern, begin, end in zip(cut_patterns[first:last].tolist(), bounds, bounds[1:]):
                table[pattern] ^= np.bitwise_xor.reduce(gathered[begin:end], axis=0)
        else:
            folded = np.bitwise_xor.reduceat(gathered, offsets[first:last], axis=0)
            table[cut_patterns[first:last]] ^= folded


def dpxor_many(
    database: np.ndarray,
    selectors: np.ndarray,
    stats: Optional[DpXorStats] = None,
    chunk_records: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched dpXOR: serve a whole batch of selectors in one database pass.

    ``database`` is ``(N, record_size)`` uint8 and ``selectors`` is
    ``(B, N)`` of 0/1 values — one selector share per row.  Returns the
    ``(B, record_size)`` matrix of XOR accumulators, bit-identical to calling
    :func:`dpxor` on each row.

    The scan is pattern-bucketed.  Batch rows are taken :data:`GROUP_ROWS` at
    a time; the group's selector bits make one byte per record, its *pattern*
    (which rows want it).  Inside a *window* of ``chunk_records`` records
    (default :data:`WINDOW_RECORDS`) the patterns are stable-sorted, pattern 0
    is dropped, and the sorted order is walked in *slabs* of
    ~:data:`BATCH_CHUNK_BYTES`: one ``np.take`` gathers each selected record
    once for the whole group, and every run of equal pattern is XOR-folded
    into its row of a ``(2**rows, words)`` bucket table (per run above
    :data:`RUN_REDUCE_MIN_BYTES`, one ``reduceat`` per slab below).  After the
    last window the table folds into the group's accumulators by halving.
    Records move as uint64 words when the record size is a multiple of
    :data:`WORD_BYTES` (uint8 fallback otherwise).  Batching is a wall-clock
    optimisation only: ``stats`` is charged exactly what ``B`` sequential
    full scans charge (the all-for-one principle holds per query).

    ``out``, when given, is a caller-owned C-contiguous ``(B, record_size)``
    uint8 accumulator block the scan writes into (and returns) instead of
    allocating — what lets the sharded backend land each shard's
    sub-results straight into its slab of one preallocated array.  It is
    zeroed first, so reuse across batches needs no caller-side reset.
    """
    database, selectors = _validate_many(database, selectors)
    num_records, record_size = database.shape
    batch = selectors.shape[0]
    if out is None:
        out = np.zeros((batch, record_size), dtype=np.uint8)
    else:
        if out.shape != (batch, record_size) or out.dtype != np.uint8:
            raise DatabaseError(
                f"out buffer {out.shape}/{out.dtype} does not match "
                f"({batch}, {record_size}) uint8"
            )
        out[:] = 0
    if num_records and batch and record_size:
        if chunk_records is None:
            chunk_records = WINDOW_RECORDS
        elif chunk_records <= 0:
            raise DatabaseError("chunk_records must be positive")
        db_words = word_view(database)
        scan_db = db_words if db_words is not None else database
        accumulators = out.view(np.uint64) if db_words is not None else out
        slab = min(max(1, BATCH_CHUNK_BYTES // record_size), chunk_records, num_records)
        scratch = np.empty((slab, scan_db.shape[1]), dtype=scan_db.dtype)
        buckets = np.empty((1 << min(GROUP_ROWS, batch), scan_db.shape[1]), dtype=scan_db.dtype)
        per_run = record_size >= RUN_REDUCE_MIN_BYTES
        for group in range(0, batch, GROUP_ROWS):
            group_selectors = selectors[group : group + GROUP_ROWS]
            rows = group_selectors.shape[0]
            table = buckets[: 1 << rows]
            table[:] = 0
            for start in range(0, num_records, chunk_records):
                window = slice(start, start + chunk_records)
                _bucket_window(scan_db[window], group_selectors[:, window], table, scratch, per_run)
            # Row r's answer is the XOR of the buckets whose pattern has bit r
            # set: peel the top bit off the table, halving it, row by row.
            for row in reversed(range(rows)):
                half = 1 << row
                upper = table[half : 2 * half]
                np.bitwise_xor.reduce(upper, axis=0, out=accumulators[group + row])
                table[:half] ^= upper
    if stats is not None:
        stats.merge(
            DpXorStats(
                records_scanned=batch * num_records,
                records_selected=int(np.count_nonzero(selectors)),
                db_bytes_read=batch * num_records * record_size,
                selector_bytes_read=batch * num_records,
                output_bytes_written=batch * record_size,
            )
        )
    return out


def xor_bytes(left: bytes, right: bytes) -> bytes:
    """XOR two equal-length byte strings (client-side reconstruction step)."""
    if len(left) != len(right):
        raise DatabaseError("cannot XOR byte strings of different lengths")
    if len(left) % WORD_BYTES == 0 and len(left):
        # XOR is bytewise, so folding eight lanes per uint64 operation leaves
        # the output bytes identical regardless of host endianness.
        left_words = np.frombuffer(left, dtype=np.uint64)
        right_words = np.frombuffer(right, dtype=np.uint64)
        return (left_words ^ right_words).tobytes()
    left_arr = np.frombuffer(left, dtype=np.uint8)
    right_arr = np.frombuffer(right, dtype=np.uint8)
    return (left_arr ^ right_arr).tobytes()


def inner_product_mod(
    database: np.ndarray,
    weights: np.ndarray,
    modulus: int,
    stats: Optional[DpXorStats] = None,
) -> np.ndarray:
    """Weighted sum of database rows modulo ``modulus``.

    The paper's formal model works over a field F_p; XOR is the special case
    p = 2 applied bitwise.  This generalised inner product backs the n-server
    additive-sharing variant of the protocol and the F_p examples.
    """
    database = np.asarray(database, dtype=np.uint8)
    weights = np.asarray(weights)
    if database.ndim != 2:
        raise DatabaseError("database chunk must be 2-D (records x bytes)")
    if weights.shape != (database.shape[0],):
        raise DatabaseError("weights length must equal the number of records")
    if modulus < 2:
        raise DatabaseError("modulus must be at least 2")
    accumulator = (
        database.astype(np.uint64) * weights.astype(np.uint64)[:, None]
    ).sum(axis=0) % np.uint64(modulus)
    if stats is not None:
        stats.merge(
            DpXorStats(
                records_scanned=database.shape[0],
                records_selected=int(np.count_nonzero(weights)),
                db_bytes_read=database.shape[0] * database.shape[1],
                selector_bytes_read=weights.nbytes,
                output_bytes_written=database.shape[1] * 8,
            )
        )
    return accumulator.astype(np.uint64)
