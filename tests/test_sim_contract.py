"""The deterministic simulated-cost contract, pinned at fixed rounds.

Simulated costs are a fixed contract: a change that only makes the program
faster must leave every simulated second float-exactly where it was.  This
drives the shape of the ``fleet_zipf_mixed`` benchmark workload — a
``controlled_fleet`` of four PIM shards with dedup, a 128-record hot cache,
live migrations and a hot + cold write every 10th round — at its small
1024 x 64 B shape for a fixed number of rounds, and compares the simulated
makespan, the last flush's cluster utilisation (both as ``float.hex()``) and
the exact counters against recorded values.  A change to the cost model
itself, or a change to which queries reach the fleet, must update the
values below and say why, row by row.  The PIM charges
follow the selector shares' popcounts, so the two simulated values are also
outputs of the DPF's PRG; they were derived with the tests' block-at-a-time
AES oracle (``aes_oracle.OracleAESPRG``) as every party's PRG.
"""

import itertools
from collections import deque

import numpy as np
import pytest

from repro import BatchingPolicy, Database, PIRClient, ShardPlan
from repro.control import controlled_fleet
from repro.shard.fleet import heats_from_trace
from repro.workloads.traces import zipf_trace

NUM_RECORDS, RECORD_SIZE = 1024, 64
ROUNDS, ROUND_SIZE, ROUND_GAP_SECONDS, UPDATE_EVERY = 60, 16, 0.02, 10

#: Recorded values, per seed.
EXPECTED = {
    3: {
        "sim.makespan_s": "0x1.93752927698aap-5",
        "sim.cluster_utilization": "0x1.fd33d7edcfdecp-1",
        "client.queries": 307,
        "cache.hits": 438,
        "cache.misses": 307,
        "cache.evictions": 14,
        "cache.invalidations": 3,
        "shard.migrations": 3,
    },
    9: {
        "sim.makespan_s": "0x1.8f353dc952cdfp-5",
        "sim.cluster_utilization": "0x1.fd602090f4769p-1",
        "client.queries": 309,
        "cache.hits": 455,
        "cache.misses": 309,
        "cache.evictions": 30,
        "cache.invalidations": 6,
        "shard.migrations": 3,
    },
}


def _drive(seed):
    rng = np.random.default_rng([seed, 0x1D5])
    oracle = Database.random(NUM_RECORDS, record_size=RECORD_SIZE, seed=seed)
    client = PIRClient(NUM_RECORDS, RECORD_SIZE, seed=seed + 1)
    plan = ShardPlan.uniform(NUM_RECORDS, 4, block_records=8)
    trace = deque(
        zipf_trace(NUM_RECORDS, ROUND_SIZE * ROUNDS, exponent=1.1, seed=seed * 1000).indices
    )
    # The offline sample prices the cold shards as streamed, so live heat
    # has to migrate them.
    sample = list(itertools.islice(trace, 200))
    seed_heats = heats_from_trace(
        plan,
        sample,
        arrival_seconds=[ROUND_GAP_SECONDS * k for k in range(len(sample))],
        window_seconds=0.2,
        decay=0.5,
    )
    frontend, plane = controlled_fleet(
        client,
        oracle,
        plan,
        seed_heats,
        window_seconds=0.2,
        decay=0.5,
        rebalance_interval_seconds=0.4,
        cache_capacity=128,
        dedup=True,
        policy=BatchingPolicy(ROUND_SIZE, 10.0),
    )
    clock = 0.0
    for round_index in range(ROUNDS):
        frontend.advance_time(clock)
        clock += ROUND_GAP_SECONDS
        indices = [trace.popleft() for _ in range(ROUND_SIZE)]
        records = frontend.retrieve_batch(indices)
        assert records == [oracle.record(index) for index in indices]
        if round_index % UPDATE_EVERY == UPDATE_EVERY - 1:
            cold = int(rng.integers(NUM_RECORDS // 2, NUM_RECORDS))
            updates = [(indices[-1], rng.bytes(RECORD_SIZE)), (cold, rng.bytes(RECORD_SIZE))]
            frontend.apply_updates(updates)
            oracle = oracle.with_updates(updates)
    for fleet in frontend.fleets:
        fleet.backend.close()
    metrics, cache = frontend.metrics, frontend.cache.stats
    return {
        "sim.makespan_s": metrics.total_makespan_seconds.hex(),
        "sim.cluster_utilization": float(metrics.last_cluster_utilization).hex(),
        "client.queries": client.stats.queries_generated,
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "cache.evictions": cache.evictions,
        "cache.invalidations": cache.invalidations,
        "shard.migrations": sum(len(report.migrations) for report in plane.reports),
    }


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_fixed_round_counters_and_simulated_seconds(seed):
    assert _drive(seed) == EXPECTED[seed]
