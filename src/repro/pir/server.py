"""Reference (architecture-agnostic) PIR server.

This server answers queries the way the protocol defines them, with plain
numpy and no hardware model attached: full-domain DPF evaluation followed by
the dpXOR scan.  It is the functional oracle that the CPU, GPU and IM-PIR
servers must agree with bit-for-bit, and the natural starting point for
anyone reading the code base top-down.

All the protocol logic (validation, key evaluation, answer assembly) lives in
:class:`repro.core.engine.QueryEngine`; this module only binds it to the
plain-numpy :class:`~repro.core.engine.ReferenceBackend`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.dpf.dpf import EvalStats
from repro.dpf.prf import LengthDoublingPRG
from repro.pir.database import Database
from repro.pir.messages import DPFQuery, NaiveQuery, PIRAnswer
from repro.pir.xor_ops import DpXorStats

Query = Union[DPFQuery, NaiveQuery]


@dataclass
class ServerStats:
    """Operation counters accumulated across every answered query."""

    queries_answered: int = 0
    eval: EvalStats = field(default_factory=EvalStats)
    dpxor: DpXorStats = field(default_factory=DpXorStats)


class PIRServer:
    """One replica of the database answering secret-shared queries."""

    def __init__(
        self,
        database: Database,
        server_id: int,
        prg: Optional[LengthDoublingPRG] = None,
    ) -> None:
        # Imported lazily: repro.pir must stay importable on its own, and the
        # engine module (in repro.core) imports repro.pir wire types at load.
        from repro.core.engine import QueryEngine, ReferenceBackend

        self.stats = ServerStats()
        self.backend = ReferenceBackend(name="reference", dpxor_stats=self.stats.dpxor)
        self.engine = QueryEngine(
            self.backend, server_id=server_id, prg=prg, stats=self.stats
        )
        self.engine.prepare(database)
        self.database = database
        self.server_id = server_id

    # -- query handling ---------------------------------------------------------

    def answer(self, query: Query) -> PIRAnswer:
        """Answer a single query with this server's XOR sub-result."""
        return self.engine.answer(query).answer

    def answer_batch(self, queries: Sequence[Query]) -> List[PIRAnswer]:
        """Answer several queries through one eval sweep and one batched scan
        (no cost model attached — that is what the other servers add)."""
        return [result.answer for result in self.engine.answer_many(queries).results]
