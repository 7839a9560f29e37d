#!/usr/bin/env python3
"""Private certificate-transparency auditing with IM-PIR.

Certificate-transparency (CT) logs publish the SHA-256 digests of every
issued TLS certificate.  Auditors and domain owners look up specific entries
— but a plaintext lookup tells the log operator exactly which domains someone
is investigating.  Running the lookup as a PIR query removes that leakage:
the log is replicated on two non-colluding servers and neither learns which
certificate was checked.

The script builds a synthetic CT log, serves it through two IM-PIR servers,
runs an audit trace skewed toward recently issued certificates, and verifies
every retrieved digest against the log.

Run:  python examples/certificate_transparency_audit.py
"""

from __future__ import annotations

from repro import IMPIRConfig
from repro.common.units import format_seconds
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient
from repro.workloads.certificate_transparency import CertificateTransparencyLog


def main() -> None:
    # Synthetic CT log: 16,384 certificates, one 32-byte digest each.
    log = CertificateTransparencyLog(num_certificates=16384)
    database = log.build_database()
    print(f"CT log: {database.num_records} certificate digests "
          f"({database.size_bytes / 2**20:.1f} MB)")

    # Two replicas operated by independent parties (simulated PIM platforms).
    config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4), num_clusters=2)
    servers = [create_server("im-pir", database, config=config, server_id=i) for i in (0, 1)]
    client = PIRClient(
        num_records=database.num_records,
        record_size=database.record_size,
        prg=make_prg(),
        seed=2024,
    )

    # An auditor re-checking 12 certificates, biased toward recent issuance.
    trace = log.audit_trace(num_audits=12, seed=5)
    print(f"running {len(trace)} private audit lookups...\n")

    total_upload = 0
    verified = 0
    for position, certificate_index in enumerate(trace):
        queries = client.query(certificate_index)
        total_upload += sum(q.upload_bytes for q in queries)
        answers = [servers[q.server_id].answer(q).answer for q in queries]
        digest = client.reconstruct(answers)
        ok = log.verify_inclusion(database, certificate_index, digest)
        verified += ok
        expected = log.digest_of(certificate_index)[: database.record_size]
        print(f"  audit {position + 1:>2}: cert #{certificate_index:>5}  "
              f"digest {digest.hex()[:16]}...  "
              f"{'MATCHES log' if digest == expected and ok else 'MISMATCH'}")

    print(f"\n{verified}/{len(trace)} audits verified against the log")
    print(f"total upload to both servers: {total_upload} B "
          f"(vs {2 * database.num_records // 8} B for the naive scheme)")

    # What one audited query costs server-side on the paper's full platform.
    from repro.bench.estimators import IMPIREstimator
    from repro.workloads.generator import DatabaseSpec

    paper_scale = DatabaseSpec.from_size_gib(4.0)
    breakdown = IMPIREstimator().query_breakdown(paper_scale)
    print(f"\nprojected single-audit latency on a 4 GB log with 2,048 DPUs: "
          f"{format_seconds(breakdown.total)} "
          f"(eval {breakdown.get('eval') / breakdown.total * 100:.0f}%, "
          f"dpxor {breakdown.get('dpxor') / breakdown.total * 100:.0f}%)")


if __name__ == "__main__":
    main()
