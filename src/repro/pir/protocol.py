"""End-to-end protocol driver wiring one client to a set of replica servers.

`MultiServerPIRProtocol` is the simplest way to run the complete flow of
Algorithm 1 (key generation -> per-server evaluation -> reconstruction) in a
single process.  It is used by the quickstart example, by the integration
tests, and as the correctness oracle against which the architecture-specific
servers (CPU, GPU, IM-PIR) are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.common.errors import ProtocolError
from repro.pir.client import SCHEME_DPF, SCHEME_NAIVE, PIRClient
from repro.pir.database import Database
from repro.pir.messages import PIRAnswer


@dataclass
class RetrievalTrace:
    """Everything that happened while retrieving one record (for reporting)."""

    index: int
    record: bytes
    upload_bytes: int
    download_bytes: int
    answers: List[PIRAnswer] = field(default_factory=list)


class MultiServerPIRProtocol:
    """A client plus ``num_servers`` replicas of the same database.

    The servers are reference servers; the other kinds of
    :func:`~repro.core.engine.create_server` (IM-PIR, CPU-PIR, GPU-PIR, ...)
    answer the same client/message types.  Batches go through a
    :class:`~repro.pir.frontend.PIRFrontend` over these servers.
    """

    def __init__(
        self,
        database: Database,
        num_servers: int = 2,
        scheme: str = SCHEME_DPF,
        seed: Optional[int] = None,
    ) -> None:
        if num_servers < 2:
            raise ProtocolError("multi-server PIR requires at least two servers")
        if scheme not in (SCHEME_DPF, SCHEME_NAIVE):
            raise ProtocolError(f"unknown scheme {scheme!r}")
        self.database = database
        self.num_servers = num_servers
        self.scheme = scheme
        # The client and every server run the one fixed-key AES PRG, each on
        # its own instance: a real deployment has no shared state.
        self.client = PIRClient(
            num_records=database.num_records,
            record_size=database.record_size,
            num_servers=num_servers,
            scheme=scheme,
            seed=seed,
        )
        # Imported lazily: the engine module (in repro.core) imports
        # repro.pir wire types at load.
        from repro.core.engine import create_server

        self.servers = [
            create_server("reference", database, server_id=i)
            for i in range(num_servers)
        ]

    def retrieve(self, index: int) -> bytes:
        """Privately retrieve the record at ``index``."""
        return self.retrieve_with_trace(index).record

    def retrieve_with_trace(self, index: int) -> RetrievalTrace:
        """Retrieve a record and report the per-message communication costs."""
        queries = self.client.query(index)
        answers = [self.servers[q.server_id].answer(q).answer for q in queries]
        record = self.client.reconstruct(answers)
        return RetrievalTrace(
            index=index,
            record=record,
            upload_bytes=sum(q.upload_bytes for q in queries),
            download_bytes=sum(a.download_bytes for a in answers),
            answers=answers,
        )

    def verify_against_database(self, indices: Sequence[int]) -> bool:
        """Check PIR answers against direct database reads (testing helper)."""
        for index in indices:
            if self.retrieve(index) != self.database.record(index):
                return False
        return True
