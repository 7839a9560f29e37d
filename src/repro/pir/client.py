"""PIR client: query generation and answer reconstruction.

The client side of the protocol is deliberately lightweight (the paper keeps
it off the critical path): key generation costs O(log N) PRG calls and
reconstruction is a single XOR of the servers' sub-results.  Both work a
flush at a time: :meth:`PIRClient.query_batch` generates every key of a
flush in one walk and returns one :class:`~repro.pir.messages.QueryBatch` per
server, and :meth:`PIRClient.reconstruct` XORs the servers' paired
``(B, record_size)`` answer matrices into the flush's records in one
operation.  :meth:`~PIRClient.query` and :class:`~repro.pir.messages.PIRAnswer`
lists given to :meth:`~PIRClient.reconstruct` are the one-query forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.common.errors import ProtocolError
from repro.dpf.dpf import DPF
from repro.dpf.prf import LengthDoublingPRG
from repro.pir.messages import DPFQuery, PIRAnswer, QueryBatch


@dataclass
class ClientStats:
    """Communication accounting for one client instance.

    ``upload_bytes`` counts the bodies of the queries sent (each server's
    serialized DPF key) and ``download_bytes`` the answer payloads
    received; neither counts message headers
    (:mod:`repro.pir.serialization`) or any per-flush framing.
    """

    queries_generated: int = 0
    upload_bytes: int = 0
    download_bytes: int = 0
    answers_reconstructed: int = 0


class PIRClient:
    """Generates the two servers' queries for an index and reconstructs the record.

    Ownership: the RNG, the query-id counter and :attr:`stats` are
    unsynchronised, so one thread generates.  The frontends call
    :meth:`query_batch` once per flush from the flush's calling thread (the
    event-loop thread on the asyncio frontend), never from a worker.

    Parameters
    ----------
    num_records, record_size:
        Shape of the replicated database (public parameters).
    prg:
        Optional PRG backend shared with the servers (the DPF requires both
        ends to expand seeds identically).
    """

    #: The DPF is a two-server construction: server ``s`` gets party ``s``'s keys.
    num_servers = 2

    def __init__(
        self,
        num_records: int,
        record_size: int,
        prg: Optional[LengthDoublingPRG] = None,
        seed: Optional[int] = None,
    ) -> None:
        if num_records <= 0 or record_size <= 0:
            raise ProtocolError("num_records and record_size must be positive")

        self.num_records = num_records
        self.record_size = record_size
        self.stats = ClientStats()
        self._next_query_id = 0

        domain_bits = max(1, (num_records - 1).bit_length())
        self._dpf = DPF(domain_bits, output_bits=1, prg=prg, seed=seed)

    @property
    def domain_bits(self) -> int:
        """DPF domain bits covering the database index space."""
        return self._dpf.domain_bits

    # -- query generation -----------------------------------------------------

    def check_index(self, index: int) -> None:
        """Raise :class:`ProtocolError` unless ``index`` names a record."""
        if not 0 <= index < self.num_records:
            raise ProtocolError(f"index {index} out of range [0, {self.num_records})")

    def query(self, index: int) -> List[DPFQuery]:
        """Encode a private query for ``index``: one message per server."""
        return [batch[0] for batch in self.query_batch([index])]

    def query_batch(self, indices: Sequence[int]) -> List[QueryBatch]:
        """Encode a flush of queries: one :class:`QueryBatch` per server.

        Every index is checked before any randomness is drawn.  The flush
        takes the next ``len(indices)`` query ids, ascending in index order,
        and server ``s``'s batch holds row ``i`` of every index: party ``s``'s
        rows of one :meth:`~repro.dpf.dpf.DPF.gen_many` batch, taken by
        slice.  :class:`ClientStats` advances once, by what the rows'
        one-query messages would have added.
        """
        indices = [int(index) for index in indices]
        outside = [index for index in indices if not 0 <= index < self.num_records]
        if outside:
            self.check_index(outside[0])
        first = self._next_query_id
        query_ids = np.arange(first, first + len(indices), dtype=np.int64)
        keys = self._dpf.gen_many(indices, 1).keys
        batches = [
            QueryBatch(server_id, query_ids, self.num_records, keys[server_id::2])
            for server_id in range(self.num_servers)
        ]
        self._next_query_id = first + len(indices)
        self.stats.queries_generated += len(indices)
        self.stats.upload_bytes += sum([batch.upload_bytes for batch in batches])
        return batches

    # -- reconstruction ---------------------------------------------------------

    def reconstruct(
        self, answers: Union[Sequence[PIRAnswer], np.ndarray]
    ) -> Union[bytes, np.ndarray]:
        """XOR the servers' sub-results back into the requested records.

        ``answers`` is a flush's ``(num_servers, B, record_size)`` uint8
        answer matrix, already paired by query id (row ``i`` of every
        server's slice answers query ``i``): one XOR across the servers
        returns the ``(B, record_size)`` records.  Its one-query form is one
        :class:`PIRAnswer` per server, checked to share a query id and to
        cover every server, and returns the record's bytes.  Either way
        :class:`ClientStats` advances by every answer's download and one
        reconstruction per record.
        """
        if isinstance(answers, np.ndarray):
            return self._xor_shares(answers)
        if len(answers) != self.num_servers:
            raise ProtocolError(
                f"expected {self.num_servers} answers, got {len(answers)}"
            )
        query_ids = {answer.query_id for answer in answers}
        if len(query_ids) != 1:
            raise ProtocolError(f"answers mix query ids: {sorted(query_ids)}")
        server_ids = sorted(answer.server_id for answer in answers)
        if server_ids != list(range(self.num_servers)):
            raise ProtocolError(f"answers must cover every server exactly once, got {server_ids}")
        lengths = {len(answer.payload) for answer in answers}
        if lengths != {self.record_size}:
            raise ProtocolError(
                f"answer payloads have sizes {sorted(lengths)}, expected {self.record_size}"
            )
        shares = np.stack([answer.payload_array() for answer in answers])
        return self._xor_shares(shares[:, None]).tobytes()

    def _xor_shares(self, shares: np.ndarray) -> np.ndarray:
        expected = (self.num_servers, shares.shape[1] if shares.ndim == 3 else 0, self.record_size)
        if shares.shape != expected or shares.dtype != np.uint8:
            raise ProtocolError(
                f"answer shares are {shares.shape}/{shares.dtype}, expected "
                f"(num_servers={self.num_servers}, B, record_size={self.record_size}) uint8"
            )
        records = np.bitwise_xor.reduce(shares, axis=0)
        self.stats.download_bytes += shares.size
        self.stats.answers_reconstructed += shares.shape[1]
        return records
