"""PIR client: query generation and answer reconstruction.

The client side of the protocol is deliberately lightweight (the paper keeps
it off the critical path): key generation costs O(log N) PRG calls and
reconstruction is a single XOR of the servers' sub-results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.common.errors import ProtocolError
from repro.dpf.dpf import DPF
from repro.dpf.naive import NaiveXorQueryScheme
from repro.dpf.prf import LengthDoublingPRG
from repro.pir.messages import DPFQuery, NaiveQuery, PIRAnswer
from repro.pir.xor_ops import xor_bytes

Query = Union[DPFQuery, NaiveQuery]

SCHEME_DPF = "dpf"
SCHEME_NAIVE = "naive"


@dataclass
class ClientStats:
    """Communication accounting for one client instance."""

    queries_generated: int = 0
    upload_bytes: int = 0
    download_bytes: int = 0
    answers_reconstructed: int = 0


class PIRClient:
    """Generates per-server queries for an index and reconstructs the record.

    Ownership: the RNG, the query-id counter and :attr:`stats` are
    unsynchronised, so one thread generates.  The frontends call
    :meth:`query_batch` once per flush from the flush's calling thread (the
    event-loop thread on the asyncio frontend), never from a worker.

    Parameters
    ----------
    num_records, record_size:
        Shape of the replicated database (public parameters).
    num_servers:
        Number of non-colluding servers.  The DPF scheme supports exactly two;
        the naive scheme supports any ``n >= 2``.
    scheme:
        ``"dpf"`` (default) or ``"naive"``.
    prg:
        Optional PRG backend shared with the servers (the DPF requires both
        ends to expand seeds identically).
    """

    def __init__(
        self,
        num_records: int,
        record_size: int,
        num_servers: int = 2,
        scheme: str = SCHEME_DPF,
        prg: Optional[LengthDoublingPRG] = None,
        seed: Optional[int] = None,
    ) -> None:
        if num_records <= 0 or record_size <= 0:
            raise ProtocolError("num_records and record_size must be positive")
        if num_servers < 2:
            raise ProtocolError("multi-server PIR requires at least two servers")
        if scheme not in (SCHEME_DPF, SCHEME_NAIVE):
            raise ProtocolError(f"unknown scheme {scheme!r}")
        if scheme == SCHEME_DPF and num_servers != 2:
            raise ProtocolError("the DPF scheme is a two-server construction")

        self.num_records = num_records
        self.record_size = record_size
        self.num_servers = num_servers
        self.scheme = scheme
        self.stats = ClientStats()
        self._next_query_id = 0

        domain_bits = max(1, (num_records - 1).bit_length())
        self._dpf = DPF(domain_bits, output_bits=1, prg=prg, seed=seed)
        self._naive = NaiveXorQueryScheme(num_records, num_servers=num_servers, seed=seed)

    @property
    def domain_bits(self) -> int:
        """DPF domain bits covering the database index space."""
        return self._dpf.domain_bits

    def _allocate_query_id(self) -> int:
        query_id = self._next_query_id
        self._next_query_id += 1
        return query_id

    # -- query generation -----------------------------------------------------

    def check_index(self, index: int) -> None:
        """Raise :class:`ProtocolError` unless ``index`` names a record."""
        if not 0 <= index < self.num_records:
            raise ProtocolError(f"index {index} out of range [0, {self.num_records})")

    def query(self, index: int) -> List[Query]:
        """Encode a private query for ``index``: one message per server."""
        return self.query_batch([index])[0]

    def query_batch(self, indices: Sequence[int]) -> List[List[Query]]:
        """Encode a batch of queries; returns one per-server list per index.

        Every index is checked before any randomness is drawn, and the whole
        batch's DPF keys come from one :meth:`~repro.dpf.dpf.DPF.gen_many`
        walk; query ids and :class:`ClientStats` advance in index order.
        """
        indices = list(indices)
        for index in indices:
            self.check_index(index)
        if self.scheme == SCHEME_DPF:
            message, shares = DPFQuery, self._dpf.gen_many(indices, 1)
        else:
            message, shares = NaiveQuery, [self._naive.share(index) for index in indices]
        batch: List[List[Query]] = []
        for per_server in shares:
            query_id = self._allocate_query_id()
            queries = [
                message(query_id, server_id, share, self.num_records)
                for server_id, share in enumerate(per_server)
            ]
            self.stats.queries_generated += 1
            self.stats.upload_bytes += sum(q.upload_bytes for q in queries)
            batch.append(queries)
        return batch

    # -- reconstruction ---------------------------------------------------------

    def reconstruct(self, answers: Sequence[PIRAnswer]) -> bytes:
        """XOR the servers' sub-results back into the requested record."""
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

        record = answers[0].payload
        for answer in answers[1:]:
            record = xor_bytes(record, answer.payload)
        self.stats.download_bytes += sum(answer.download_bytes for answer in answers)
        self.stats.answers_reconstructed += 1
        return record

    def reconstruct_batch(self, answer_groups: Sequence[Sequence[PIRAnswer]]) -> List[bytes]:
        """Reconstruct several records, one per group of per-server answers."""
        return [self.reconstruct(group) for group in answer_groups]

    def group_answers(self, answers: Sequence[PIRAnswer]) -> Dict[int, List[PIRAnswer]]:
        """Group a flat answer stream by query id (utility for batch flows)."""
        grouped: Dict[int, List[PIRAnswer]] = {}
        for answer in answers:
            grouped.setdefault(answer.query_id, []).append(answer)
        return grouped
