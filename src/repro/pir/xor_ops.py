"""dpXOR kernels: the linear "select-and-XOR" scan at the heart of the server.

The paper calls the combination of the inner product with the selector vector
and the XOR accumulation "dpXOR".  For an XOR-group database the operation is

    r = XOR_{j : v[j] = 1}  D[j]

which every PIR server must evaluate over the *entire* database for every
query (the all-for-one principle).  This module provides the numpy scan —
:func:`dpxor_many`, with :func:`dpxor` as its one-row form — and a small
operation counter used by the cost models.

It is also the one home of the selector format.  A batch of selector shares
over ``N`` records is a ``(B, ceil(N / 8))`` uint8 matrix of *packed rows*:
bit ``j % 8`` of byte ``j // 8`` selects record ``j`` (little bit order, the
DPF's own leaf layout), and bits at ``j >= N`` are zero.  The DPF produces
those bytes (:meth:`~repro.dpf.dpf.DPF.eval_packed_many`), benches and
tests pack hand-made 0/1 selectors with :func:`pack_selectors`, and every
consumer — the scan, the shard and segment splits, the per-DPU selector copy
and the DPU cost charge — reads them through :func:`selector_patterns`,
:func:`selector_range` and :func:`selected_counts`.
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

#: The 8 x 8 bit transpose as three masked shift-swaps on a little-endian
#: 64-bit word whose byte ``r`` is row ``r``'s selector byte: bit ``8r + j``
#: trades places with bit ``8j + r``, so byte ``j`` becomes record ``j``'s
#: pattern.  Each round is ``(mask, shift, 1 + 2**shift)``: a masked ``t``
#: never overlaps ``t << shift`` (nor leaves the word), so
#: ``t ^ (t << shift)`` is one multiply.
_TRANSPOSE_ROUNDS = tuple(
    (mask, shift, 1 + (1 << shift))
    for mask, shift in (
        (0x00AA00AA00AA00AA, 7),
        (0x0000CCCC0000CCCC, 14),
        (0x00000000F0F0F0F0, 28),
    )
)

#: ``_LOW_BITS[k]`` keeps the bits of a byte's first ``k`` records.
_LOW_BITS = np.array([(1 << k) - 1 for k in range(8)], dtype=np.uint8)


def selector_bytes(num_records: int) -> int:
    """Width of a packed selector row over ``num_records`` records."""
    return -(-num_records // 8)


def pack_selectors(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 selector bits along the last axis into packed rows.

    Any non-zero value selects; the padding bits of the last byte are zero.
    """
    return np.packbits(np.asarray(bits), axis=-1, bitorder="little")


def selector_patterns(selectors: np.ndarray, num_records: int) -> np.ndarray:
    """``(ceil(B / 8), num_records)`` record patterns of ``B`` packed rows.

    Bit ``r`` of ``patterns[g, j]`` is set when row ``8 g + r`` selects
    record ``j``.  Row group ``g``'s bytes over one 8-record column form one
    ``<u8`` word (byte ``r`` is row ``8 g + r``'s byte), and one bit
    transpose of every group's words at once turns each word into its
    column's eight patterns.
    """
    batch, width = selectors.shape
    groups = -(-batch // GROUP_ROWS)
    lanes = np.zeros((width, groups * GROUP_ROWS), dtype=np.uint8)
    lanes[:, :batch] = selectors.T
    words = lanes.view("<u8")
    for mask, shift, both_ends in _TRANSPOSE_ROUNDS:
        swap = words >> shift
        swap ^= words
        swap &= mask
        swap *= both_ends
        words ^= swap
    # Byte j of word (k, g) is group g's pattern of record 8k + j.
    patterns = lanes.reshape(width, groups, GROUP_ROWS).transpose(1, 0, 2)
    return patterns.reshape(groups, -1)[:, :num_records]


def selector_range(selectors: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Records ``[start, stop)`` of packed rows, re-based so ``start`` is bit 0.

    On the 8-record grid (both ends multiples of 8) the cut is a zero-copy
    view; off the grid the bits are shifted into a new array whose padding
    bits are cleared.
    """
    first, shift = divmod(start, 8)
    width = selector_bytes(stop - start)
    tail = (stop - start) % 8
    if not shift and not tail:
        return selectors[:, first : first + width]
    window = selectors[:, first : first + width + 1]
    cut = window[:, :width] >> shift
    if shift:
        carry = window[:, 1 : width + 1] << (8 - shift)
        cut[:, : carry.shape[1]] |= carry
    if tail:
        cut[:, -1] &= (1 << tail) - 1
    return cut


def selected_counts(selectors: np.ndarray, bounds) -> np.ndarray:
    """``(B, len(bounds))`` counts of each packed row's set bits per record range.

    ``bounds`` are ``(start, stop)`` record ranges.  One ``reduceat`` sums
    the byte popcounts of ``[start // 8, stop // 8)``; a bound off the
    8-record grid then trades the bits of its partial byte that lie before
    ``start`` for those before ``stop``.  Empty ranges count zero.
    """
    points = np.asarray(bounds, dtype=np.intp).reshape(-1)
    whole, partial = points >> 3, points & 7
    batch, width = selectors.shape
    # A spare zero column, so that a range ending at the last record can end
    # at byte ``width``.
    popcounts = np.zeros((batch, width + 1), dtype=np.uint8)
    np.bitwise_count(selectors, out=popcounts[:, :width])
    counts = np.add.reduceat(popcounts, whole, axis=1, dtype=np.int64)[:, 0::2]
    # reduceat returns the first element, not 0, for a range of no bytes.
    counts *= whole[0::2] < whole[1::2]
    if partial.any():
        partial_bytes = np.take(selectors, np.minimum(whole, width - 1), axis=1)
        before = np.bitwise_count(partial_bytes & _LOW_BITS[partial])
        counts += before[:, 1::2]
        counts -= before[:, 0::2]
    return counts


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


def _validate_many(database: np.ndarray, selectors: np.ndarray) -> tuple:
    database = np.asarray(database, dtype=np.uint8)
    selectors = np.asarray(selectors, dtype=np.uint8)
    if database.ndim != 2:
        raise DatabaseError("database chunk must be 2-D (records x bytes)")
    width = selector_bytes(database.shape[0])
    if selectors.ndim != 2 or selectors.shape[1] != width:
        raise DatabaseError(
            f"selector matrix {selectors.shape} does not match database rows "
            f"{database.shape[0]} (expected packed (batch, {width}))"
        )
    return database, selectors


def dpxor(
    database: np.ndarray,
    selector: np.ndarray,
    stats: Optional[DpXorStats] = None,
) -> np.ndarray:
    """Reference dpXOR: XOR of database rows whose selector bit is set.

    ``database`` is ``(N, record_size)`` uint8, ``selector`` is one packed
    ``(ceil(N / 8),)`` row.  Returns the ``(record_size,)`` XOR accumulator:
    the one-row form of :func:`dpxor_many`, so there is one scan body.  The
    whole database is charged to ``stats`` regardless of how many bits are
    set: the all-for-one principle means a real server touches every record.
    """
    selector = np.asarray(selector, dtype=np.uint8)
    if selector.ndim != 1:
        raise DatabaseError(f"selector must be one packed row, got shape {selector.shape}")
    return dpxor_many(database, selector[None], stats=stats)[0]


def _bucket_window(
    block: np.ndarray, patterns: np.ndarray, table: np.ndarray, scratch: np.ndarray, per_run: bool
) -> None:
    """XOR every selected record of ``block`` into ``table[its pattern]``.

    ``patterns`` holds one row group's pattern per record of ``block``: bit
    ``r`` is set when row ``r`` selects the record.  ``scratch`` is the slab
    the gathers land in.
    """
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

    ``database`` is ``(N, record_size)`` uint8 and ``selectors`` is the packed
    ``(B, ceil(N / 8))`` matrix — one selector share per row (see the module
    docstring for the format).  Returns the ``(B, record_size)`` matrix of
    XOR accumulators, bit-identical to calling :func:`dpxor` on each row.

    The scan is pattern-bucketed.  Batch rows are taken :data:`GROUP_ROWS` at
    a time, and one bit transpose of the packed bytes makes one byte per
    record and group, its *pattern* (which of the group's rows want it;
    :func:`selector_patterns`).
    Inside a *window* of ``chunk_records`` records (default
    :data:`WINDOW_RECORDS`) the patterns are stable-sorted, pattern 0 is
    dropped, and the sorted order is walked in *slabs* of
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
    allocating — what lets the executing DPU kernel model
    (:mod:`repro.pim.kernels`) land each tasklet's partial results straight
    into its slab of one preallocated array.  It is zeroed first, so reuse
    across batches needs no caller-side reset.
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
        patterns = selector_patterns(selectors, num_records)
        for group, group_patterns in zip(range(0, batch, GROUP_ROWS), patterns):
            rows = min(GROUP_ROWS, batch - group)
            table = buckets[: 1 << rows]
            table[:] = 0
            for start in range(0, num_records, chunk_records):
                window = slice(start, start + chunk_records)
                _bucket_window(scan_db[window], group_patterns[window], table, scratch, per_run)
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
                records_selected=int(np.bitwise_count(selectors).sum(dtype=np.int64)),
                db_bytes_read=batch * num_records * record_size,
                selector_bytes_read=batch * num_records,
                output_bytes_written=batch * record_size,
            )
        )
    return out


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
