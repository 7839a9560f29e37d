#!/usr/bin/env python3
"""Private compromised-credential checking (Have-I-Been-Pwned style).

Breach-notification services hold SHA-256 hashes of leaked passwords.  A
password manager wants to warn users whose credentials appear in the corpus —
without shipping the credential (or even a hash prefix) to the service.  With
the corpus replicated on two non-colluding IM-PIR servers, the check becomes
a PIR query: the servers learn nothing about which entry was fetched, and the
client compares the retrieved hash locally.

Run:  python examples/credential_checking.py
"""

from __future__ import annotations

from repro import IMPIRConfig
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient
from repro.workloads.credentials import CompromisedCredentialCorpus


def main() -> None:
    corpus = CompromisedCredentialCorpus(num_credentials=8192)
    database = corpus.build_database()
    print(f"breach corpus: {database.num_records} hashed credentials "
          f"({database.size_bytes / 2**20:.1f} MB)")

    config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4))
    servers = [create_server("im-pir", database, config=config, server_id=i) for i in (0, 1)]
    client = PIRClient(
        num_records=database.num_records,
        record_size=database.record_size,
        prg=make_prg(),
        seed=99,
    )

    # A mix of credentials that are in the corpus (hits) and fresh ones (misses).
    trace, candidates, expected = corpus.check_trace(num_checks=10, hit_fraction=0.5, seed=17)
    print(f"checking {len(candidates)} credentials privately...\n")

    correct = 0
    for index, candidate, should_hit in zip(trace.indices, candidates, expected):
        queries = client.query(index)
        answers = [servers[q.server_id].answer(q).answer for q in queries]
        retrieved_hash = client.reconstruct(answers)
        compromised = corpus.is_compromised(candidate, retrieved_hash)
        correct += compromised == should_hit
        label = "COMPROMISED" if compromised else "not found"
        print(f"  {candidate.decode():>28}: {label:>12} "
              f"({'expected' if compromised == should_hit else 'UNEXPECTED'})")

    print(f"\n{correct}/{len(candidates)} verdicts correct")
    print("the servers saw only DPF keys — never a credential, hash, or index")

    # Batch mode: the password manager checks a whole vault at once.
    vault_queries = client.query_batch(trace.indices)[0]
    batch = servers[0].answer_batch(vault_queries)
    print(f"\nbatched vault check on server 0: {batch.batch_size} queries, "
          f"simulated makespan {batch.latency_seconds * 1e3:.2f} ms, "
          f"throughput {batch.throughput_qps:.0f} queries/s")


if __name__ == "__main__":
    main()
