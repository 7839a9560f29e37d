"""Functional/analytic duality: the simulator and the estimators agree.

DESIGN.md's central claim is that the functional simulation (real buffers,
small databases) and the analytic estimators (paper-scale parameters) share
the same cost formulas.  These tests run both paths on the *same* small
configuration and require the simulated phase durations to match.
"""

import pytest

from repro.bench.estimators import IMPIREstimator
from repro.core.config import IMPIRConfig
from repro.core.engine import create_server
from repro.core.results import (
    PHASE_AGGREGATE,
    PHASE_COPY_IN,
    PHASE_COPY_OUT,
    PHASE_DPXOR,
    PHASE_EVAL,
)
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.workloads.generator import DatabaseSpec


@pytest.fixture(scope="module")
def setting():
    database = Database.random(4096, 32, seed=500)
    config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=16))
    spec = DatabaseSpec(num_records=database.num_records, record_size=database.record_size)
    return database, config, spec


class TestIMPIRDuality:
    def test_single_query_phase_agreement(self, setting):
        """Functional run vs analytic estimate: every phase within 20%."""
        database, config, spec = setting
        server = create_server("im-pir", database, config=config, server_id=0)
        client = PIRClient(database.num_records, database.record_size, seed=1, prg=make_prg())
        functional = server.answer(client.query(123)[0]).breakdown

        analytic = IMPIREstimator(config).query_breakdown(spec)

        for phase in (PHASE_EVAL, PHASE_COPY_IN, PHASE_DPXOR, PHASE_COPY_OUT, PHASE_AGGREGATE):
            measured = functional.get(phase)
            predicted = analytic.get(phase)
            assert measured > 0 and predicted > 0
            assert measured == pytest.approx(predicted, rel=0.20), phase

    def test_total_latency_agreement(self, setting):
        database, config, spec = setting
        server = create_server("im-pir", database, config=config, server_id=0)
        client = PIRClient(database.num_records, database.record_size, seed=2, prg=make_prg())
        functional_total = server.answer(client.query(7)[0]).latency_seconds
        analytic_total = IMPIREstimator(config).query_breakdown(spec).total
        assert functional_total == pytest.approx(analytic_total, rel=0.15)

    def test_batch_makespan_agreement(self, setting):
        database, config, spec = setting
        server = create_server("im-pir", database, config=config, server_id=0)
        client = PIRClient(database.num_records, database.record_size, seed=3, prg=make_prg())
        queries = [client.query(i * 11)[0] for i in range(8)]
        functional = server.answer_batch(queries)
        analytic = IMPIREstimator(config).batch_estimate(spec, 8)
        assert functional.latency_seconds == pytest.approx(analytic.latency_seconds, rel=0.20)
        assert functional.throughput_qps == pytest.approx(analytic.throughput_qps, rel=0.25)


class TestCPUDuality:
    def test_single_query_breakdown_agreement(self, setting):
        database, _, spec = setting
        server = create_server("cpu", database, server_id=0, prg=make_prg())
        client = PIRClient(database.num_records, database.record_size, seed=4, prg=make_prg())
        server.answer(client.query(50)[0])
        model = server.backend.model
        functional = model.single_query_breakdown(database.num_records, database.record_size)
        analytic = model.single_query_breakdown(spec.num_records, spec.record_size)
        assert functional.total == pytest.approx(analytic.total, rel=1e-9)

    def test_batch_estimate_agreement(self, setting):
        database, _, spec = setting
        server = create_server("cpu", database, server_id=0, prg=make_prg())
        client = PIRClient(database.num_records, database.record_size, seed=5, prg=make_prg())
        queries = [client.query(i)[0] for i in range(4)]
        functional = server.answer_batch(queries)
        analytic = server.backend.model.batch_estimate(spec.num_records, spec.record_size, 4)
        assert functional.latency_seconds == pytest.approx(analytic.latency_seconds, rel=1e-9)


class TestSelectorFractionEffect:
    def test_selected_fraction_shifts_kernel_time_slightly(self, setting):
        """The functional kernel uses the query's actual selected fraction, the
        estimator assumes 1/2 — the residual gap must stay small because DPF
        shares are balanced."""
        database, config, spec = setting
        server = create_server("im-pir", database, config=config, server_id=0)
        client = PIRClient(database.num_records, database.record_size, seed=6, prg=make_prg())
        analytic_dpxor = IMPIREstimator(config).query_breakdown(spec).get(PHASE_DPXOR)
        for index in (0, 2048, 4095):
            functional_dpxor = server.answer(client.query(index)[0]).breakdown.get(PHASE_DPXOR)
            assert functional_dpxor == pytest.approx(analytic_dpxor, rel=0.10)
