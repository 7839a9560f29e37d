"""Functional kernel benchmarks: the real Python/numpy code paths.

These do not correspond to a specific paper figure; they track the wall-clock
cost of the building blocks every experiment relies on, so regressions in the
functional implementation are visible independently of the cost models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import create_server
from repro.dpf.dpf import DPF
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.xor_ops import dpxor, pack_selectors


class TestXorKernels:
    def test_dpxor_4096x32(self, benchmark, bench_db):
        selector = np.random.default_rng(1).integers(0, 2, bench_db.num_records, dtype=np.uint8)
        benchmark(dpxor, bench_db.records, pack_selectors(selector))

    def test_dpxor_wide_records(self, benchmark):
        db = Database.random(1024, 256, seed=3)
        selector = np.random.default_rng(3).integers(0, 2, 1024, dtype=np.uint8)
        benchmark(dpxor, db.records, pack_selectors(selector))


class TestDPFKernels:
    def test_key_generation(self, benchmark):
        dpf = DPF(domain_bits=20, seed=4)
        benchmark(dpf.gen, 123456, 1)

    def test_full_domain_eval_2_to_12(self, benchmark):
        dpf = DPF(domain_bits=12, seed=5)
        key0, _ = dpf.gen(99, 1)
        benchmark(dpf.eval_full_bits, key0)


class TestEndToEnd:
    def test_reference_protocol_retrieve(self, benchmark, bench_db):
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=7)
        servers = [create_server("reference", bench_db, server_id=i) for i in (0, 1)]

        def retrieve(index):
            queries = client.query(index)
            return client.reconstruct(
                [servers[query.server_id].answer(query).answer for query in queries]
            )

        record = benchmark(retrieve, 2222)
        assert record == bench_db.record(2222)

    def test_impir_preload(self, benchmark, bench_db, bench_impir_config):
        result = benchmark(
            create_server, "im-pir", bench_db, config=bench_impir_config, server_id=0
        )
        assert result.preload_report is not None

    def test_client_query_generation(self, benchmark, bench_db):
        client = PIRClient(bench_db.num_records, bench_db.record_size, seed=8, prg=make_prg())
        queries = benchmark(client.query, 17)
        assert len(queries) == 2
