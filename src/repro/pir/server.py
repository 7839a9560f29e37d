"""The PIR server: one replica answering secret-shared queries.

Every architecture runs the same server (Algorithm 1): evaluate the DPF keys
on the host, dpXOR the database under the selector shares, return an XOR
share.  :class:`PIRServer` is that server, for all of them.  The protocol
logic (validation, key evaluation, answer assembly) lives in
:class:`repro.core.engine.QueryEngine`; the substrate and its cost model —
plain numpy, a CPU or GPU model, preloaded or streamed DPUs, a sharded
fleet — is the :class:`~repro.core.engine.PIRBackend` it is built with.
Build one with :func:`repro.core.engine.create_server`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.events import PhaseTimer
from repro.dpf.dpf import EvalStats
from repro.dpf.prf import LengthDoublingPRG
from repro.pir.database import Database
from repro.pir.messages import DPFQuery, Queries
from repro.pir.xor_ops import DpXorStats


@dataclass
class ServerStats:
    """Operation counters accumulated across every answered query.

    ``dpxor`` is charged only on the host kinds (the reference scan and the
    CPU/GPU baselines); the PIM and sharded kinds price their scan instead.
    """

    queries_answered: int = 0
    eval: EvalStats = field(default_factory=EvalStats)
    dpxor: DpXorStats = field(default_factory=DpXorStats)


class PIRServer:
    """One replica of the database: a query engine over one backend."""

    def __init__(
        self,
        backend,
        database: Database,
        server_id: int,
        prg: Optional[LengthDoublingPRG] = None,
        stats: Optional[ServerStats] = None,
    ) -> None:
        # Imported lazily: repro.pir must stay importable on its own, and the
        # engine module (in repro.core) imports repro.pir wire types at load.
        from repro.core.engine import QueryEngine

        self.stats = stats if stats is not None else ServerStats()
        self.backend = backend
        self.engine = QueryEngine(backend, server_id=server_id, prg=prg, stats=self.stats)
        self.engine.prepare(database)

    @property
    def server_id(self) -> int:
        """Identifier of the replica this server plays."""
        return self.engine.server_id

    @property
    def database(self) -> Database:
        """The replica's current database snapshot."""
        return self.engine.database

    @property
    def preload_report(self) -> Optional[PhaseTimer]:
        """Simulated cost of loading the database (not charged to queries)."""
        return self.engine.preload_report

    def answer(self, query: DPFQuery):
        """Answer one query (latency mode): an ``IMPIRQueryResult``."""
        return self.engine.answer(query)

    def answer_batch(self, queries: Queries):
        """Answer a flush's ``QueryBatch`` (or one-row queries; throughput
        mode): an ``IMPIRBatchResult``."""
        return self.engine.answer_many(queries)

    def apply_updates(self, updates) -> PhaseTimer:
        """Apply ``(index, record_bytes)`` updates to the replica in place.

        The paper's update model (§3.3): queries are served from a stable
        snapshot and the host applies bulk updates in idle windows; the
        backend re-copies only what the dirty records touch where it can.
        Returns the simulated cost of the update (e.g. the partial MRAM
        re-transfers under phase ``"update_copy"``).
        """
        updates = list(updates)
        if not updates:
            return PhaseTimer()
        new_database = self.database.with_updates(updates)
        dirty_indices = sorted({index for index, _ in updates})
        timer = self.backend.apply_updates(new_database, dirty_indices)
        self.engine.database = new_database
        return timer
