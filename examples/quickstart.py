#!/usr/bin/env python3
"""Quickstart: private retrieval with IM-PIR on a simulated UPMEM platform.

The script walks the complete flow of the paper's Algorithm 1:

1. build a database of 32-byte hash records (the paper's record format);
2. stand up two IM-PIR servers, each on its own simulated PIM platform, with
   the database preloaded into DPU MRAM;
3. have the client encode a query as a pair of DPF keys, one per server;
4. let each server evaluate its key (host CPU), run the dpXOR kernel on its
   DPUs and return a sub-result;
5. reconstruct the record client-side and verify it, printing the simulated
   per-phase cost of the query on the way.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Database, IMPIRConfig, IMPIRDeployment
from repro.common.units import format_bytes, format_seconds
from repro.pim.config import scaled_down_config


def main() -> None:
    # A small database so the functional simulation stays instant; the record
    # format (32-byte hashes) matches the paper's evaluation databases.
    database = Database.random(num_records=8192, record_size=32, seed=42)
    print(f"database: {database.num_records} records of {database.record_size} B "
          f"({format_bytes(database.size_bytes)})")

    # A scaled-down UPMEM platform: 8 DPUs with 4 tasklets each.  Swap in
    # IMPIRConfig() (no arguments) to cost queries on the paper's full
    # 2,048-DPU platform instead.
    config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4))
    deployment = IMPIRDeployment(database, config=config, client_seed=7)
    print(f"platform: {config.pim.num_dpus} DPUs x {config.pim.dpu.tasklets} tasklets, "
          f"{format_bytes(config.pim.total_mram_bytes)} MRAM")

    # --- single private retrieval -------------------------------------------------
    index = 4242
    record = deployment.retrieve(index)
    assert record == database.record(index)
    print(f"\nretrieved record {index} privately: {record.hex()[:32]}... (verified)")

    # --- look inside one server's query execution -----------------------------------
    queries = deployment.client.query(index)
    result = deployment.servers[0].answer(queries[0])
    print("\nserver 0 phase breakdown (simulated time):")
    for phase, seconds in result.breakdown.items():
        share = seconds / result.latency_seconds * 100.0
        print(f"  {phase:>16}: {format_seconds(seconds):>12}  ({share:5.1f}%)")
    print(f"  {'total':>16}: {format_seconds(result.latency_seconds):>12}")

    # --- a batch of queries through the batching frontend ---------------------------
    # The deployment's PIRFrontend: requests aggregate under the batching
    # policy, fan out to both replicas' Fig. 8 pipelines, and the answers are
    # re-paired by request id before reconstruction.
    indices = [1, 17, 4242, 8000, 8191]
    records = deployment.frontend.retrieve_batch(indices)
    assert all(rec == database.record(i) for rec, i in zip(records, indices))
    metrics = deployment.frontend.metrics
    print(f"\nfrontend batch of {len(indices)}: "
          f"{metrics.batches_dispatched} dispatch(es), "
          f"makespan {format_seconds(metrics.total_makespan_seconds)}, "
          f"throughput {metrics.throughput_qps:.1f} queries/s (simulated), "
          f"cluster utilization {metrics.last_cluster_utilization * 100:.0f}%")

    print("\ncommunication per query:")
    print(f"  upload   (per server): {queries[0].upload_bytes} B (DPF key)")
    print(f"  download (per server): {database.record_size} B (XOR sub-result)")


if __name__ == "__main__":
    main()
