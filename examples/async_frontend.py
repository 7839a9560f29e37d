#!/usr/bin/env python3
"""Asyncio frontend: real max-wait timers, every batch answered on the loop.

The batching :class:`~repro.pir.frontend.PIRFrontend` runs on a simulated
clock — perfect for deterministic tests, useless in front of live traffic,
where a lone request must flush once its wait elapses.  This walkthrough
drives the wall-clock :class:`~repro.pir.async_frontend.AsyncPIRFrontend`
instead:

1. a burst of concurrent submitters (``asyncio.gather``) splits into size
   batches, each answered by both replica fleets in sequence on the event
   loop's own thread — recorded threads and windows prove it (worker
   threads only add GIL contention in one CPython process);
2. a lone straggler flushes on the *real* max-wait timer, with no follow-up
   arrival needed;
3. the same request stream through the simulated-clock frontend returns
   bit-identical records (both frontends share one flush pipeline).

Run:  python examples/async_frontend.py
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.common.units import format_seconds
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import FLUSH_ON_WAIT, BatchingPolicy, PIRFrontend


class RecordingReplica:
    """Delegates to a replica fleet, recording each batch's thread and window."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.server_id = inner.server_id
        self.threads = []
        self.windows = []

    def answer_batch(self, queries):
        start = time.monotonic()
        result = self._inner.answer_batch(queries)
        self.threads.append(threading.get_ident())
        self.windows.append((start, time.monotonic()))
        return result


def make_client(database: Database, seed: int) -> PIRClient:
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def make_fleets(database: Database):
    return [create_server("sharded", database, server_id=i, num_shards=4) for i in (0, 1)]


def main() -> None:
    database = Database.random(num_records=1024, record_size=32, seed=37)
    burst = [5, 300, 5, 900, 77, 1023]
    straggler = 512
    print(
        f"database: {database.num_records} records of {database.record_size} B, "
        f"two sharded fleets behind an asyncio frontend\n"
    )

    replicas = [RecordingReplica(fleet) for fleet in make_fleets(database)]
    frontend = AsyncPIRFrontend(
        make_client(database, seed=13),
        replicas,
        policy=BatchingPolicy(max_batch_size=3, max_wait_seconds=0.05),
    )

    async def drive():
        # --- 1. concurrent submitters batch on size --------------------------
        records = await asyncio.gather(*(frontend.submit(i) for i in burst))
        # --- 2. a lone straggler flushes on the real timer --------------------
        start = time.monotonic()
        lone = await frontend.submit(straggler)
        return records, lone, time.monotonic() - start, threading.get_ident()

    records, lone, lone_wait, loop_thread = asyncio.run(drive())
    assert records == [database.record(i) for i in burst]
    assert lone == database.record(straggler)
    print(f"burst of {len(burst)} concurrent submitters: every record verified")
    print(
        f"straggler flushed by the max-wait timer after "
        f"{format_seconds(lone_wait)} with no follow-up arrival"
    )
    print(f"flush reasons: {frontend.metrics.flush_reasons}")
    assert frontend.metrics.flush_reasons.get(FLUSH_ON_WAIT, 0) >= 1

    # --- every batch answered on the loop thread, one replica after the other --
    assert {*replicas[0].threads, *replicas[1].threads} == {loop_thread}
    for window_a, window_b in zip(replicas[0].windows, replicas[1].windows):
        assert window_a[1] <= window_b[0]
    print(
        f"all {len(replicas[0].windows)} batches answered on the loop thread, "
        f"replica 0 then replica 1 (recorded threads and windows)\n"
    )

    # --- 3. bit-identical to the simulated-clock frontend ---------------------
    sync_frontend = PIRFrontend(
        make_client(database, seed=13),
        make_fleets(database),
        policy=BatchingPolicy(max_batch_size=3),
    )
    sync_records = sync_frontend.retrieve_batch(burst + [straggler])
    assert sync_records == records + [lone]
    print(
        "sync frontend cross-check: same request stream, bit-identical records "
        "(both frontends share one flush pipeline)"
    )
    print("\nasync frontend verified: timers, loop-thread dispatch and equivalence")


if __name__ == "__main__":
    main()
