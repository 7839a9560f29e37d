#!/usr/bin/env python3
"""Asyncio frontend: real max-wait timers and concurrent fleet dispatch.

The batching :class:`~repro.pir.frontend.PIRFrontend` runs on a simulated
clock — perfect for deterministic tests, useless in front of live traffic,
where a lone request must flush once its wait elapses and the two replica
fleets should be scanned at the same time.  This walkthrough drives the
wall-clock :class:`~repro.pir.async_frontend.AsyncPIRFrontend` instead:

1. a burst of concurrent submitters (``asyncio.gather``) splits into size
   batches, each fanned out to both replicas concurrently
   (``asyncio.to_thread`` per replica) — recorded in-flight windows prove
   the overlap;
2. a lone straggler flushes on the *real* max-wait timer, with no follow-up
   arrival needed;
3. the same request stream through the simulated-clock frontend returns
   bit-identical records (both frontends share one flush pipeline).

Run:  python examples/async_frontend.py
"""

from __future__ import annotations

import asyncio
import time

from repro.common.units import format_seconds
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import FLUSH_ON_WAIT, BatchingPolicy, PIRFrontend


class RecordingReplica:
    """Delegates to a replica fleet, recording each batch's wall-clock window."""

    def __init__(self, inner, hold_seconds: float = 0.02) -> None:
        self._inner = inner
        self._hold_seconds = hold_seconds
        self.server_id = inner.server_id
        self.windows = []

    def answer_batch(self, queries):
        start = time.monotonic()
        time.sleep(self._hold_seconds)  # make the overlap visible at any scale
        result = self._inner.answer_batch(queries)
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
        return records, lone, time.monotonic() - start

    records, lone, lone_wait = asyncio.run(drive())
    assert records == [database.record(i) for i in burst]
    assert lone == database.record(straggler)
    print(f"burst of {len(burst)} concurrent submitters: every record verified")
    print(
        f"straggler flushed by the max-wait timer after "
        f"{format_seconds(lone_wait)} with no follow-up arrival"
    )
    print(f"flush reasons: {frontend.metrics.flush_reasons}")
    assert frontend.metrics.flush_reasons.get(FLUSH_ON_WAIT, 0) >= 1

    # --- replica fan-out genuinely overlapped ---------------------------------
    for window_a, window_b in zip(replicas[0].windows, replicas[1].windows):
        assert max(window_a[0], window_b[0]) < min(window_a[1], window_b[1])
    print(
        f"replica dispatch overlapped in all {len(replicas[0].windows)} batches "
        f"(recorded in-flight windows)\n"
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
    print("\nasync frontend verified: timers, concurrency and equivalence")


if __name__ == "__main__":
    main()
