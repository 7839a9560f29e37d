#!/usr/bin/env python3
"""The observability layer: structured events, metrics, per-request traces.

The fleet built over PRs 1–6 already *measures* everything — PhaseTimer
breakdowns, frontend metrics, heat windows, rebalance reports — but each
piece lives in its own corner.  This example attaches one
:class:`~repro.obs.hub.ObservabilityHub` and gets all of it through a
single pane: a structured event log (ring buffer + JSONL export), a
Prometheus-style metrics registry, and per-request span traces that
reconstruct the paper's Figure 10 pipeline decomposition (host eval,
CPU→DPU copy, dpXOR, DPU→CPU copy, aggregate) *per individual query*.

The walkthrough:

1. build a controlled fleet with the hub wired in one call
   (``controlled_fleet(..., hub=hub)``), JSONL export included;
2. drive a skewed workload on the simulated clock; every flush becomes an
   event, a metrics fold and one trace per request;
3. verify the three load-bearing properties: records are bit-identical to
   an *uninstrumented* run of the same stream, span totals equal the
   engine's ``PhaseTimer`` totals float-exactly, and the JSONL file holds
   one complete JSON line per exported event;
4. render the hub report: event counts, metrics snapshot, slowest traces.

Run:  python examples/observability.py
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.control import controlled_fleet
from repro.dpf.prf import make_prg
from repro.obs import ObservabilityHub
from repro.obs.tracing import KIND_PHASE, KIND_SERVER, KIND_SHARD
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy
from repro.shard import ShardPlan, heats_from_trace
from repro.workloads.traces import zipf_trace


def make_client(database: Database, seed: int) -> PIRClient:
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def drive(database: Database, stream, hub=None):
    """One controlled fleet over ``stream``; identical with or without a hub."""
    plan = ShardPlan.uniform(database.num_records, 4, block_records=8)
    seed_heats = heats_from_trace(
        plan,
        stream[: len(stream) // 2],
        arrival_seconds=[0.02 * i for i in range(len(stream) // 2)],
        window_seconds=0.2,
        decay=0.5,
    )
    router, plane = controlled_fleet(
        make_client(database, seed=37),
        database,
        plan,
        seed_heats,
        window_seconds=0.2,
        decay=0.5,
        rebalance_interval_seconds=0.4,
        cache_capacity=16,
        dedup=True,
        policy=BatchingPolicy(max_batch_size=8, max_wait_seconds=10.0),
        hub=hub,
    )
    request_ids = []
    now = 0.0
    for index in stream:
        request_ids.append(router.submit(index, arrival_seconds=now))
        now += 0.02
    router.close()
    return [router.take_record(request_id) for request_id in request_ids]


def main() -> None:
    database = Database.random(num_records=512, record_size=32, seed=23)
    half = 80
    skew = zipf_trace(database.num_records, 2 * half, exponent=1.4, seed=31)
    stream = [index % database.num_records for index in skew]

    # --- 1. the hub, wired in one call ---------------------------------------------
    # The JSONL export goes to a directory removed once it has been read back.
    with tempfile.TemporaryDirectory(prefix="repro-obs-") as export_dir:
        jsonl_path = os.path.join(export_dir, "events.jsonl")
        hub = ObservabilityHub(jsonl_path=jsonl_path)

        # --- 2. one instrumented run, one bare run of the same stream ------------------
        records = drive(database, stream, hub=hub)
        hub.close()
        bare_records = drive(database, stream, hub=None)

        # --- 3. the load-bearing properties --------------------------------------------
        # Telemetry is strictly read-only: the instrumented data plane returns
        # bit-identical bytes.
        assert records == bare_records == [database.record(i) for i in stream]

        # Span totals equal the engine's PhaseTimer totals float-exactly: both
        # are the same left-to-right sum over the same phase values.
        checked = 0
        for trace in hub.tracer.traces():
            for server in trace.root.find(KIND_SERVER):
                engine_seconds = server.labels.get("engine_seconds")
                if engine_seconds is None:
                    continue
                assert server.seconds == engine_seconds, trace.trace_id
                assert server.find(KIND_PHASE), "server spans carry phase leaves"
                checked += 1
        assert checked > 0, "at least one full pipeline trace was reconstructed"
        assert len(hub.tracer.traces()) == len(stream), "one trace per request"

        # The control plane is visible: rebalance passes reach the ring buffer
        # and cache hits reach the metrics registry.
        assert hub.ring.named("rebalance.pass")
        assert hub.registry.get("repro_cache_hits_total").total() > 0

        # The JSONL export holds only complete JSON lines (each line is
        # serialised before its single write), one per exported event.
        with open(jsonl_path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) == hub.events.events_emitted
        assert all("name" in line and "seq" in line and "now" in line for line in lines)
        assert hub.events.dropped == 0

    shard_spans = sum(
        len(server.find(KIND_SHARD))
        for trace in hub.tracer.traces()
        for server in trace.root.find(KIND_SERVER)
    )
    print(
        f"{len(stream)} records bit-identical to the uninstrumented run; "
        f"{checked} server spans float-equal to their PhaseTimer totals; "
        f"{shard_spans} per-shard scan spans; "
        f"{len(lines)} complete JSONL event lines in the export"
    )

    # --- 4. the report --------------------------------------------------------------
    print()
    print(hub.report(top_n=1))
    print()
    print("observability verified: events, metrics, traces, one hub")


if __name__ == "__main__":
    main()
