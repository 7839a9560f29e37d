"""Wire messages exchanged between the PIR client and servers.

The unit of exchange is the flush.  The client sends each server one
:class:`QueryBatch`: the flush's query ids as an array, plus that server's
rows of the flush's DPF keys (the compact O(lambda log N) encoding used by
IM-PIR and both baselines, sliced out of one
:meth:`~repro.dpf.dpf.DPF.gen_many` batch) or of its dense selector-bit shares
(the naive scheme of §2.3).  Each server answers with one
:class:`~repro.core.results.IMPIRBatchResult` holding its XOR sub-results as a
``(B, record_size)`` payload matrix.

:class:`DPFQuery`, :class:`NaiveQuery` and :class:`PIRAnswer` are the one-row
forms, as a :class:`~repro.dpf.dpf.DPFKey` is one row of a
:class:`~repro.dpf.dpf.DPFKeys`: indexing a batch gives them, the wire codec
encodes them, and a latency-mode ``answer`` serves one.  Sizes are exposed so
the examples and benchmarks can report upload/download communication costs.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import ProtocolError
from repro.dpf.dpf import DPFKey, DPFKeys, key_wire_bytes
from repro.dpf.naive import NaiveShare


def _check_dpf_rows(server_id: int, num_records: int, domain_bits: int) -> None:
    """The rules every DPF-encoded query obeys, row or batch."""
    if server_id not in (0, 1):
        raise ProtocolError("DPF queries are defined for a two-server deployment")
    if num_records <= 0:
        raise ProtocolError("num_records must be positive")
    if num_records > 1 << domain_bits:
        raise ProtocolError(
            f"database of {num_records} records does not fit in a "
            f"{domain_bits}-bit DPF domain"
        )


def _check_naive_rows(server_id: int, num_records: int, share_items: int) -> None:
    """The rules every naive selector-share query obeys, row or batch."""
    if server_id < 0:
        raise ProtocolError("server_id must be non-negative")
    if share_items != num_records:
        raise ProtocolError("selector share length must match the database size")


@dataclass(frozen=True)
class DPFQuery:
    """A DPF-encoded query for one server."""

    query_id: int
    server_id: int
    key: DPFKey
    num_records: int

    def __post_init__(self) -> None:
        _check_dpf_rows(self.server_id, self.num_records, self.key.domain_bits)

    @property
    def upload_bytes(self) -> int:
        """Bytes sent from the client to this server."""
        return self.key.size_bytes


@dataclass(frozen=True)
class NaiveQuery:
    """A dense selector-share query for one server (naive scheme)."""

    query_id: int
    server_id: int
    share: NaiveShare
    num_records: int

    def __post_init__(self) -> None:
        _check_naive_rows(self.server_id, self.num_records, self.share.num_items)

    @property
    def upload_bytes(self) -> int:
        """Bytes sent from the client to this server."""
        return self.share.size_bytes


Query = Union[DPFQuery, NaiveQuery]


@dataclass(frozen=True, eq=False)
class QueryBatch(SequenceABC):
    """One server's queries of a flush as arrays; row ``i`` is one query.

    ``query_ids`` is ``(B,)`` int64.  Exactly one of ``keys`` (this server's
    ``B``-row :class:`~repro.dpf.dpf.DPFKeys`) and ``bits`` (a
    ``(B, num_records)`` 0/1 uint8 matrix of naive selector shares) is set.
    The batch is checked once, against the rules its one-row forms obey;
    indexing gives the row's :class:`DPFQuery` / :class:`NaiveQuery`, and
    :meth:`stack` turns such rows back into a batch.
    """

    server_id: int
    query_ids: np.ndarray
    num_records: int
    keys: Optional[DPFKeys] = None
    bits: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.keys is None) == (self.bits is None):
            raise ProtocolError("a query batch carries either DPF keys or naive shares")
        if self.keys is not None:
            _check_dpf_rows(self.server_id, self.num_records, self.keys.domain_bits)
            rows = len(self.keys)
        else:
            if self.bits.ndim != 2 or self.bits.dtype != np.uint8 or self.bits.max(initial=0) > 1:
                raise ProtocolError("naive shares must be a 2-D 0/1 uint8 matrix")
            _check_naive_rows(self.server_id, self.num_records, self.bits.shape[1])
            rows = self.bits.shape[0]
        if self.query_ids.shape != (rows,):
            raise ProtocolError(f"{rows} queries need {rows} query ids, got {self.query_ids.shape}")

    @classmethod
    def stack(cls, queries: Sequence[Query]) -> "QueryBatch":
        """One batch of one-row queries sharing a kind, server, database size
        and (for DPF queries) key shape — see :func:`query_groups`."""
        first = queries[0]
        query_ids = np.asarray([query.query_id for query in queries], dtype=np.int64)
        if isinstance(first, DPFQuery):
            keys = DPFKeys.stack([query.key for query in queries])
            return cls(first.server_id, query_ids, first.num_records, keys=keys)
        bits = np.stack([query.share.bits for query in queries])
        return cls(first.server_id, query_ids, first.num_records, bits=bits)

    @property
    def is_naive(self) -> bool:
        """Whether the rows are naive selector shares (else DPF keys)."""
        return self.bits is not None

    @property
    def upload_bytes(self) -> int:
        """Bytes sent from the client to this server: every row's upload."""
        if self.keys is not None:
            return len(self) * key_wire_bytes(self.keys.cw_seeds.shape[1])
        return len(self) * -(-self.num_records // 8)

    def __len__(self) -> int:
        return self.query_ids.shape[0]

    def __getitem__(self, row: int) -> Query:
        row = range(len(self))[row]
        query_id = int(self.query_ids[row])
        if self.keys is not None:
            return DPFQuery(query_id, self.server_id, self.keys[row], self.num_records)
        share = NaiveShare(server_id=self.server_id, bits=self.bits[row])
        return NaiveQuery(query_id, self.server_id, share, self.num_records)


Queries = Union[QueryBatch, Sequence[Query]]


def query_groups(queries: Queries) -> List[Tuple[List[int], QueryBatch]]:
    """``queries`` as :class:`QueryBatch` parts, each with its row positions.

    A :class:`QueryBatch` is its own one part.  A sequence of one-row queries
    is grouped by what one batch must share — kind, server, database size and
    DPF key shape — and each group stacked once, so a single-shape sequence
    is one part too.
    """
    if isinstance(queries, QueryBatch):
        return [(list(range(len(queries))), queries)]
    groups: Dict[tuple, List[int]] = {}
    for position, query in enumerate(queries):
        if isinstance(query, DPFQuery):
            shape: Optional[Tuple[int, int]] = (query.key.domain_bits, query.key.output_bits)
        elif isinstance(query, NaiveQuery):
            shape = None
        else:
            raise ProtocolError(f"unsupported query type: {type(query).__name__}")
        groups.setdefault((query.server_id, query.num_records, shape), []).append(position)
    return [
        (positions, QueryBatch.stack([queries[position] for position in positions]))
        for positions in groups.values()
    ]


@dataclass(frozen=True)
class PIRAnswer:
    """A server's sub-result for one query."""

    query_id: int
    server_id: int
    payload: bytes
    simulated_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.payload:
            raise ProtocolError("answer payload must not be empty")

    @property
    def download_bytes(self) -> int:
        """Bytes sent from this server back to the client."""
        return len(self.payload)

    def payload_array(self) -> np.ndarray:
        """The payload as a uint8 numpy array."""
        return np.frombuffer(self.payload, dtype=np.uint8)
