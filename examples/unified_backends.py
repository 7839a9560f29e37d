#!/usr/bin/env python3
"""One query, every backend: the unified engine/backend/frontend layering.

All five server variants — the reference numpy scan, the CPU and GPU
baselines, preloaded IM-PIR and streamed IM-PIR — answer through the same
:class:`~repro.core.engine.QueryEngine`.  This example walks the registry:

1. build two replicas of every registered backend over one database;
2. answer the same DPF query pair through each variant's engine and verify
   the reconstructed record is bit-identical everywhere;
3. run a batched retrieval through a :class:`~repro.pir.frontend.PIRFrontend`
   per backend and compare the simulated scheduling metrics.

Run:  python examples/unified_backends.py
"""

from __future__ import annotations

from repro.common.units import format_seconds
from repro.core.engine import available_backends, create_server
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy, PIRFrontend


def main() -> None:
    database = Database.random(num_records=2048, record_size=32, seed=13)
    index = 1337
    print(f"database: {database.num_records} records of {database.record_size} B; "
          f"retrieving record {index} on every backend\n")

    # --- the same retrieval through every registered backend ------------------------
    reconstructed = {}
    for name in available_backends():
        kwargs = {"segment_records": 512} if name == "im-pir-streamed" else {}
        client = PIRClient(database.num_records, database.record_size,
                           seed=5, prg=make_prg())
        replicas = [create_server(name, database, server_id=i, **kwargs) for i in (0, 1)]
        queries = client.query(index)
        results = [replicas[q.server_id].engine.answer(q) for q in queries]
        record = client.reconstruct([r.answer for r in results])
        reconstructed[name] = record
        caps = replicas[0].engine.backend.capabilities()
        latency = results[0].breakdown.total
        print(f"  {caps.name:>16}: lanes={caps.lanes} preloaded={caps.preloaded!s:>5} "
              f"latency={'untimed' if latency == 0 else format_seconds(latency)}")

    assert len(set(reconstructed.values())) == 1, "backends disagree!"
    assert reconstructed["im-pir"] == database.record(index)
    print(f"\nall {len(reconstructed)} backends reconstruct the same record (verified)")

    # --- batched retrieval through the frontend, per backend -------------------------
    indices = [0, 512, 1024, 1536, 2047, 3, 700, 1999]
    print(f"\nfrontend batch of {len(indices)} requests per backend:")
    for name in available_backends():
        kwargs = {"segment_records": 512} if name == "im-pir-streamed" else {}
        frontend = PIRFrontend(
            PIRClient(database.num_records, database.record_size,
                      seed=7, prg=make_prg()),
            [create_server(name, database, server_id=i, **kwargs) for i in (0, 1)],
            policy=BatchingPolicy(max_batch_size=4),
        )
        records = frontend.retrieve_batch(indices)
        assert records == [database.record(i) for i in indices]
        metrics = frontend.metrics
        makespan = metrics.total_makespan_seconds
        print(f"  {name:>16}: {metrics.batches_dispatched} batches, "
              f"makespan {'untimed' if makespan == 0 else format_seconds(makespan)}, "
              f"flushes {dict(metrics.flush_reasons)}")
    print("\nevery batch paired, reconstructed and verified through one code path")


if __name__ == "__main__":
    main()
