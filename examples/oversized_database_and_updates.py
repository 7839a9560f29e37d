#!/usr/bin/env python3
"""Operating IM-PIR beyond the comfortable cases: oversized databases and updates.

Two operational concerns the paper discusses in §3.3 but does not evaluate:

* **Databases larger than MRAM.**  When the database no longer fits in the
  DPU population's MRAM, IM-PIR falls back to streaming it through the DPUs
  segment by segment for every query.  The example quantifies how much that
  costs relative to the preloaded fast path (the reason the paper sizes the
  platform to hold the database resident).
* **Database updates.**  DPUs keep serving queries on a stable snapshot while
  the host applies bulk updates during idle windows, re-copying only the
  affected MRAM blocks.

Run:  python examples/oversized_database_and_updates.py
"""

from __future__ import annotations

from repro import Database, IMPIRConfig
from repro.common.units import format_seconds
from repro.core.engine import create_server
from repro.core.streaming import streaming_overhead_factor
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient


def main() -> None:
    database = Database.random(num_records=16384, record_size=32, seed=3)
    config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4))
    client = PIRClient(
        num_records=database.num_records,
        record_size=database.record_size,
        prg=make_prg(),
        seed=11,
    )
    index = 9000
    query = client.query(index)[0]

    # --- preloaded vs streamed -----------------------------------------------------
    preloaded = create_server("im-pir", database, config=config, server_id=0)
    preloaded_result = preloaded.answer(query)

    streamed = create_server(
        "im-pir-streamed", database, config=config, server_id=0, segment_records=4096
    )
    streamed_result = streamed.answer(query)

    assert preloaded_result.answer.payload == streamed_result.answer.payload
    print("preloaded vs streamed execution of the same query (simulated):")
    print(f"  preloaded (DB resident in MRAM): {format_seconds(preloaded_result.latency_seconds)}")
    print(f"  streamed  ({streamed.backend.num_segments} segments per query): "
          f"{format_seconds(streamed_result.latency_seconds)}")
    print(f"  penalty: {streamed_result.latency_seconds / preloaded_result.latency_seconds:.1f}x, "
          f"{streaming_overhead_factor(streamed_result) * 100:.0f}% of the streamed query "
          f"is database re-copying")

    # --- bulk updates ----------------------------------------------------------------
    print("\napplying a bulk update batch while the DPUs are idle:")
    from repro.core.impir import IMPIRDeployment

    deployment = IMPIRDeployment(database, config=config, client_seed=21)
    updates = [(i, bytes([i % 256]) * database.record_size) for i in range(100, 110)]
    costs = [server.apply_updates(updates) for server in deployment.servers]
    print(f"  {len(updates)} records updated on both replicas, re-copy cost "
          f"{format_seconds(costs[0].get('update_copy'))} per replica (simulated)")

    retrieved = deployment.retrieve(105)
    assert retrieved == bytes([105]) * database.record_size
    print(f"  private retrieval of updated record 105 returns the new contents: "
          f"{retrieved.hex()[:16]}... (verified)")


if __name__ == "__main__":
    main()
