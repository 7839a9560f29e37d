"""Wire messages exchanged between the PIR client and servers.

The unit of exchange is the flush.  The client sends each server one
:class:`QueryBatch`: the flush's query ids as an array, plus that server's
rows of the flush's DPF keys (the compact O(lambda log N) encoding used by
IM-PIR and both baselines, sliced out of one
:meth:`~repro.dpf.dpf.DPF.gen_many` batch).  Each server answers with one
:class:`~repro.core.results.IMPIRBatchResult` holding its XOR sub-results as a
``(B, record_size)`` payload matrix.

:class:`DPFQuery` and :class:`PIRAnswer` are the one-row forms, as a
:class:`~repro.dpf.dpf.DPFKey` is one row of a
:class:`~repro.dpf.dpf.DPFKeys`: indexing a batch gives them, the wire codec
encodes them, and a latency-mode ``answer`` serves one.  Sizes are exposed so
the examples and benchmarks can report upload/download communication costs.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.common.errors import ProtocolError
from repro.dpf.dpf import DPFKey, DPFKeys, key_wire_bytes


def _check_dpf_rows(server_id: int, num_records: int, domain_bits: int, parties) -> None:
    """The rules every DPF-encoded query obeys, row or batch: among them,
    server ``s`` is sent party ``s``'s keys only."""
    if server_id not in (0, 1):
        raise ProtocolError("DPF queries are defined for a two-server deployment")
    if num_records <= 0:
        raise ProtocolError("num_records must be positive")
    if num_records > 1 << domain_bits:
        raise ProtocolError(
            f"database of {num_records} records does not fit in a "
            f"{domain_bits}-bit DPF domain"
        )
    if np.any(parties != server_id):
        raise ProtocolError(f"server {server_id} was sent a key of the other party")


@dataclass(frozen=True)
class DPFQuery:
    """A DPF-encoded query for one server."""

    query_id: int
    server_id: int
    key: DPFKey
    num_records: int

    def __post_init__(self) -> None:
        _check_dpf_rows(self.server_id, self.num_records, self.key.domain_bits, self.key.party)

    @property
    def upload_bytes(self) -> int:
        """Bytes sent from the client to this server."""
        return self.key.size_bytes


@dataclass(frozen=True, eq=False)
class QueryBatch(SequenceABC):
    """One server's queries of a flush as arrays; row ``i`` is one query.

    ``query_ids`` is ``(B,)`` int64 and ``keys`` this server's ``B``-row
    :class:`~repro.dpf.dpf.DPFKeys`.  The batch is checked once, against
    the rules its one-row forms obey; indexing gives the row's
    :class:`DPFQuery`, and :meth:`stack` turns such rows back into a batch.
    """

    server_id: int
    query_ids: np.ndarray
    num_records: int
    keys: DPFKeys

    def __post_init__(self) -> None:
        _check_dpf_rows(self.server_id, self.num_records, self.keys.domain_bits, self.keys.parties)
        rows = len(self.keys)
        if self.query_ids.shape != (rows,):
            raise ProtocolError(f"{rows} queries need {rows} query ids, got {self.query_ids.shape}")

    @classmethod
    def stack(cls, queries: Sequence[DPFQuery]) -> "QueryBatch":
        """One batch of one-row queries, which must share a server, a
        database size and a key shape (:class:`ProtocolError` if not)."""
        for query in queries:
            if not isinstance(query, DPFQuery):
                raise ProtocolError(f"unsupported query type: {type(query).__name__}")
        shapes = {
            (query.server_id, query.num_records, query.key.domain_bits, query.key.output_bits)
            for query in queries
        }
        if len(shapes) != 1:
            raise ProtocolError(
                "one query batch needs one (server, num_records, domain_bits, "
                f"output_bits), got {sorted(shapes)}"
            )
        server_id, num_records, _, _ = shapes.pop()
        query_ids = np.asarray([query.query_id for query in queries], dtype=np.int64)
        keys = DPFKeys.stack([query.key for query in queries])
        return cls(server_id, query_ids, num_records, keys)

    @property
    def upload_bytes(self) -> int:
        """Bytes sent from the client to this server: every row's upload."""
        return len(self) * key_wire_bytes(self.keys.cw_seeds.shape[1])

    def __len__(self) -> int:
        return self.query_ids.shape[0]

    def __getitem__(self, row: int) -> DPFQuery:
        row = range(len(self))[row]
        return DPFQuery(int(self.query_ids[row]), self.server_id, self.keys[row], self.num_records)


Queries = Union[QueryBatch, Sequence[DPFQuery]]


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
