"""The batching request frontend: policies, pairing, metrics."""

import pytest

from repro.common.errors import ProtocolError
from repro.core.config import IMPIRConfig
from repro.core.engine import create_server
from repro.core.impir import IMPIRDeployment
from repro.common.events import PhaseTimer
from repro.core.results import IMPIRBatchResult, IMPIRQueryResult
from repro.core.scheduler import BatchSchedule
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import (
    FLUSH_ON_CLOSE,
    FLUSH_ON_SIZE,
    FLUSH_ON_WAIT,
    AdaptiveBatchingPolicy,
    BatchingPolicy,
    PIRFrontend,
    RequestRouter,
)
from repro.pir.messages import PIRAnswer


@pytest.fixture(scope="module")
def database():
    return Database.random(512, 32, seed=71)


def make_client(database, seed=3):
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def reference_replicas(database):
    return [
        create_server("reference", database, server_id=i, prg=make_prg())
        for i in (0, 1)
    ]


def impir_replicas(database, num_clusters=2):
    config = IMPIRConfig(
        pim=scaled_down_config(num_dpus=8, tasklets=4), num_clusters=num_clusters
    )
    return [create_server("im-pir", database, config=config, server_id=i) for i in (0, 1)]


class TestBatchingPolicy:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ProtocolError):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ProtocolError):
            BatchingPolicy(max_wait_seconds=-1.0)

    def test_from_pipeline_saturates_the_wider_resource(self):
        policy = BatchingPolicy.from_pipeline(num_workers=4, num_clusters=2, rounds=3)
        assert policy.max_batch_size == 12
        policy = BatchingPolicy.from_pipeline(num_workers=1, num_clusters=8, rounds=2)
        assert policy.max_batch_size == 16


class TestBatchingBehaviour:
    def test_size_flush_and_partial_close(self, database):
        frontend = PIRFrontend(
            make_client(database),
            reference_replicas(database),
            policy=BatchingPolicy(max_batch_size=2),
        )
        records = frontend.retrieve_batch([1, 2, 3, 4, 5])
        assert records == [database.record(i) for i in (1, 2, 3, 4, 5)]
        assert frontend.metrics.batches_dispatched == 3  # 2+2 on size, 1 on close
        assert frontend.metrics.flush_reasons == {FLUSH_ON_SIZE: 2, FLUSH_ON_CLOSE: 1}
        assert frontend.metrics.requests_served == 5

    def test_max_wait_flush_on_late_arrival(self, database):
        frontend = PIRFrontend(
            make_client(database),
            reference_replicas(database),
            policy=BatchingPolicy(max_batch_size=100, max_wait_seconds=0.5),
        )
        first = frontend.submit(10, arrival_seconds=0.0)
        frontend.submit(11, arrival_seconds=0.1)
        assert frontend.pending_count == 2
        # The late arrival proves the oldest request waited past its budget:
        # the pending batch flushes before the new request is admitted.
        frontend.submit(12, arrival_seconds=0.7)
        assert frontend.pending_count == 1
        assert frontend.metrics.flush_reasons == {FLUSH_ON_WAIT: 1}
        assert frontend.take_record(first) == database.record(10)
        frontend.close()
        assert frontend.metrics.flush_reasons == {FLUSH_ON_WAIT: 1, FLUSH_ON_CLOSE: 1}

    def test_advance_time_flushes_without_new_arrivals(self, database):
        frontend = PIRFrontend(
            make_client(database),
            reference_replicas(database),
            policy=BatchingPolicy(max_batch_size=100, max_wait_seconds=0.25),
        )
        request = frontend.submit(42, arrival_seconds=1.0)
        frontend.advance_time(1.1)
        assert frontend.pending_count == 1
        frontend.advance_time(1.3)
        assert frontend.pending_count == 0
        assert frontend.take_record(request) == database.record(42)

    def test_clock_moves_forward_only(self, database):
        frontend = PIRFrontend(make_client(database), reference_replicas(database))
        frontend.submit(0, arrival_seconds=5.0)
        with pytest.raises(ProtocolError):
            frontend.submit(1, arrival_seconds=4.0)

    def test_unknown_request_id_rejected(self, database):
        frontend = PIRFrontend(make_client(database), reference_replicas(database))
        with pytest.raises(ProtocolError):
            frontend.take_record(99)

    def test_empty_retrieve_batch(self, database):
        frontend = PIRFrontend(make_client(database), reference_replicas(database))
        assert frontend.retrieve_batch([]) == []
        assert frontend.metrics.batches_dispatched == 0


class TestInterleavedReplicas:
    def test_pairing_survives_interleaved_batches(self, database):
        """Queries from many requests interleave inside each replica's batch;
        the frontend must still pair every request's two answers by id."""
        frontend = PIRFrontend(
            make_client(database),
            impir_replicas(database),
            policy=BatchingPolicy(max_batch_size=8),
        )
        indices = [7, 7, 100, 511, 0, 100, 8, 9]  # duplicates on purpose
        records = frontend.retrieve_batch(indices)
        assert records == [database.record(i) for i in indices]

    def test_mixed_architecture_replicas(self, database):
        """Replica 0 on PIM, replica 1 on the reference scan: the protocol
        does not care where a replica runs."""
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4))
        replicas = [
            create_server("im-pir", database, config=config, server_id=0),
            create_server("reference", database, server_id=1, prg=make_prg()),
        ]
        frontend = PIRFrontend(make_client(database), replicas)
        assert frontend.retrieve_batch([3, 300]) == [
            database.record(3),
            database.record(300),
        ]

    def test_replica_order_validated(self, database):
        replicas = list(reversed(reference_replicas(database)))
        with pytest.raises(ProtocolError):
            PIRFrontend(make_client(database), replicas)

    def test_replica_count_validated(self, database):
        with pytest.raises(ProtocolError):
            PIRFrontend(make_client(database), reference_replicas(database)[:1])

    def test_replica_without_server_id_rejected(self, database):
        """An object lacking server_id must not slip through the order check."""

        class _Anonymous:
            def answer_batch(self, queries):  # pragma: no cover - never reached
                return []

        replicas = reference_replicas(database)
        replicas[1] = _Anonymous()
        with pytest.raises(ProtocolError, match="server_id"):
            PIRFrontend(make_client(database), replicas)


class _TamperingReplica:
    """A replica whose answer stream can drop or duplicate entries."""

    def __init__(self, inner, drop_first=False, duplicate_first=False):
        self._inner = inner
        self.server_id = inner.server_id
        self._drop_first = drop_first
        self._duplicate_first = duplicate_first

    def answer_batch(self, queries):
        results = [self._inner.answer(query) for query in queries]
        if self._drop_first:
            results = results[1:]
        if self._duplicate_first:
            results = [results[0]] + results
        return IMPIRBatchResult(results=results)


class _ReversingReplica:
    """Answers a batch correctly, but lists the answers last query first."""

    def __init__(self, inner):
        self._inner = inner
        self.server_id = inner.server_id

    def answer_batch(self, queries):
        batch = self._inner.answer_batch(queries)
        return IMPIRBatchResult(
            results=batch.results[::-1],
            schedule=batch.schedule,
            latency_seconds=batch.latency_seconds,
        )


class TestPairingFaults:
    def test_answers_in_reverse_order_still_pair(self, database):
        replicas = reference_replicas(database)
        replicas[1] = _ReversingReplica(replicas[1])
        frontend = PIRFrontend(make_client(database), replicas)
        indices = [5, 6, 300, 5, 511]
        assert frontend.retrieve_batch(indices) == [database.record(i) for i in indices]

    def test_missing_answer_raises(self, database):
        replicas = reference_replicas(database)
        replicas[1] = _TamperingReplica(replicas[1], drop_first=True)
        frontend = PIRFrontend(make_client(database), replicas)
        with pytest.raises(ProtocolError, match="missing answer"):
            frontend.retrieve_batch([5, 6])

    def test_duplicate_answer_raises(self, database):
        replicas = reference_replicas(database)
        replicas[0] = _TamperingReplica(replicas[0], duplicate_first=True)
        frontend = PIRFrontend(make_client(database), replicas)
        with pytest.raises(ProtocolError, match="duplicate answer"):
            frontend.retrieve_batch([5, 6])


class TestSchedulingMetrics:
    def test_metrics_report_via_batch_schedule(self, database):
        frontend = PIRFrontend(
            make_client(database),
            impir_replicas(database),
            policy=BatchingPolicy(max_batch_size=8),
        )
        frontend.retrieve_batch(list(range(8)))
        metrics = frontend.metrics
        assert metrics.batches_dispatched == 1
        assert metrics.total_makespan_seconds > 0
        assert metrics.throughput_qps == pytest.approx(8 / metrics.total_makespan_seconds)
        assert isinstance(metrics.last_schedule, BatchSchedule)
        assert 0 < metrics.last_cluster_utilization <= 1.0

    def test_untimed_replicas_report_infinite_throughput(self, database):
        frontend = PIRFrontend(make_client(database), reference_replicas(database))
        frontend.retrieve_batch([1])
        assert frontend.metrics.total_makespan_seconds == 0.0
        assert frontend.metrics.throughput_qps == float("inf")

    def test_cpu_replicas_report_their_analytic_makespan(self, database):
        """The frontend honours the CPU baseline's batch cost model."""

        replicas = [
            create_server("cpu", database, server_id=i, prg=make_prg())
            for i in (0, 1)
        ]
        expected = replicas[0].backend.model.batch_estimate(
            database.num_records, database.record_size, batch_size=3
        ).latency_seconds
        frontend = PIRFrontend(make_client(database), replicas)
        frontend.retrieve_batch([1, 2, 3])
        assert frontend.metrics.total_makespan_seconds == pytest.approx(expected)

    def test_streamed_replicas_report_sequential_makespan(self, database):
        """Streamed servers run queries in sequence: the makespan sums them."""

        config = IMPIRConfig(pim=scaled_down_config(num_dpus=4, tasklets=2))
        replicas = [
            create_server(
                "im-pir-streamed", database, config=config, server_id=i, segment_records=200
            )
            for i in (0, 1)
        ]
        frontend = PIRFrontend(make_client(database), replicas)
        frontend.retrieve_batch([1, 2])
        assert frontend.metrics.total_makespan_seconds > 0


class TestAgainstSeedBehaviour:
    """PIRFrontend.retrieve_batch matches the seed's pairing semantics."""

    def test_matches_manual_per_query_reconstruction(self, database):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4), num_clusters=2)
        indices = [5, 99, 200, 511, 0]

        manual_client = make_client(database, seed=12)
        servers = [create_server("im-pir", database, config=config, server_id=i) for i in (0, 1)]
        manual = []
        for index in indices:
            queries = manual_client.query(index)
            answers = [servers[q.server_id].answer(q).answer for q in queries]
            manual.append(manual_client.reconstruct(answers))

        frontend = PIRFrontend(
            make_client(database, seed=12),
            [create_server("im-pir", database, config=config, server_id=i) for i in (0, 1)],
            policy=BatchingPolicy(max_batch_size=len(indices)),
        )
        assert frontend.retrieve_batch(indices) == manual

    def test_deployment_routes_through_frontend(self, database):
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4), num_clusters=2)
        deployment = IMPIRDeployment(database, config=config, client_seed=2)
        indices = [5, 99, 248, 495]
        records = deployment.frontend.retrieve_batch(indices)
        assert records == [database.record(i) for i in indices]
        assert deployment.frontend.metrics.batches_dispatched >= 1
        assert deployment.frontend.metrics.total_makespan_seconds > 0
        assert isinstance(deployment.frontend, RequestRouter)


class TestAdaptiveBatchingPolicy:
    def test_additive_increase_under_low_utilization(self):
        policy = AdaptiveBatchingPolicy(
            initial_batch_size=4, increase_step=2, low_utilization=0.5
        )
        for _ in range(3):
            policy.observe_utilization(0.1)
        assert policy.max_batch_size == 10  # 4 -> 6 -> 8 -> 10: additive

    def test_multiplicative_decrease_under_saturation(self):
        policy = AdaptiveBatchingPolicy(
            initial_batch_size=64, decrease_factor=0.5, high_utilization=0.9
        )
        policy.observe_utilization(0.95)
        assert policy.max_batch_size == 32
        policy.observe_utilization(0.99)
        assert policy.max_batch_size == 16  # multiplicative

    def test_decrease_rounds_instead_of_truncating(self):
        """Truncation would jump 3 -> 1, overshooting past the AIMD knee."""
        policy = AdaptiveBatchingPolicy(
            initial_batch_size=3, decrease_factor=0.5, high_utilization=0.9
        )
        sizes = [policy.observe_utilization(0.95) for _ in range(3)]
        assert sizes == [2, 1, 1]  # 3 -> 2 (1.5 rounds up), 2 -> 1, floor at 1

    def test_decrease_sequence_pinned_from_odd_start(self):
        policy = AdaptiveBatchingPolicy(
            initial_batch_size=9, decrease_factor=0.5, high_utilization=0.9
        )
        sizes = [policy.observe_utilization(0.95) for _ in range(5)]
        assert sizes == [5, 3, 2, 1, 1]  # never a >factor jump in one step

    def test_gentle_factor_still_reaches_the_floor(self):
        """Rounding must not turn sustained saturation into a no-op: with
        decrease_factor=0.9, 5 * 0.9 rounds back to 5 — the controller still
        has to step down until it hits min_batch_size."""
        policy = AdaptiveBatchingPolicy(
            initial_batch_size=8, decrease_factor=0.9, high_utilization=0.9
        )
        sizes = [policy.observe_utilization(0.99) for _ in range(8)]
        assert sizes == [7, 6, 5, 4, 3, 2, 1, 1]

    def test_holds_steady_inside_the_band(self):
        policy = AdaptiveBatchingPolicy(
            initial_batch_size=8, low_utilization=0.5, high_utilization=0.9
        )
        policy.observe_utilization(0.7)
        assert policy.max_batch_size == 8

    def test_clamped_to_bounds(self):
        policy = AdaptiveBatchingPolicy(
            initial_batch_size=4,
            min_batch_size=2,
            max_batch_size_limit=6,
            increase_step=10,
            decrease_factor=0.01,
        )
        policy.observe_utilization(0.0)
        assert policy.max_batch_size == 6
        policy.observe_utilization(1.0)
        assert policy.max_batch_size == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ProtocolError):
            AdaptiveBatchingPolicy(initial_batch_size=0)
        with pytest.raises(ProtocolError):
            AdaptiveBatchingPolicy(decrease_factor=1.5)
        with pytest.raises(ProtocolError):
            AdaptiveBatchingPolicy(low_utilization=0.9, high_utilization=0.5)

    def test_frontend_drives_the_policy_up_and_down(self, database):
        """End to end: flushed batches feed cluster utilization back into the
        policy, resizing max_batch_size online."""
        policy = AdaptiveBatchingPolicy(
            initial_batch_size=1,
            increase_step=2,
            low_utilization=0.6,
            high_utilization=0.99,
        )
        frontend = PIRFrontend(make_client(database), impir_replicas(database), policy)
        # One query over two clusters: one cluster is necessarily idle, so
        # utilization <= 0.5 and the policy must grow the batch.
        frontend.retrieve_batch([1])
        assert policy.history, "flush did not report utilization"
        assert policy.history[0][0] <= 0.5
        grown = policy.max_batch_size
        assert grown > 1  # under-utilized -> additive increase
        # The next batch only flushes once it reaches the *new* size.
        for index in range(grown):
            frontend.submit(index)
        assert frontend.metrics.batches_dispatched == 2
        policy.observe_utilization(1.0)
        assert policy.max_batch_size < grown  # saturation -> multiplicative cut


class TestDedup:
    def test_duplicate_indices_scanned_once(self, database):
        replicas = reference_replicas(database)
        scanned = []
        original = replicas[0].answer_batch

        def spying_answer_batch(queries):
            scanned.append(len(queries))
            return original(queries)

        replicas[0].answer_batch = spying_answer_batch
        frontend = PIRFrontend(
            make_client(database),
            replicas,
            policy=BatchingPolicy(max_batch_size=6),
            dedup=True,
        )
        indices = [7, 7, 100, 7, 100, 3]
        records = frontend.retrieve_batch(indices)
        assert records == [database.record(i) for i in indices]
        assert scanned == [3]  # 3 distinct indices, not 6 queries
        assert frontend.metrics.deduped_requests == 3
        assert frontend.metrics.requests_served == 6

    def test_dedup_only_within_a_batch(self, database):
        frontend = PIRFrontend(
            make_client(database),
            reference_replicas(database),
            policy=BatchingPolicy(max_batch_size=2),
            dedup=True,
        )
        records = frontend.retrieve_batch([9, 9, 9])  # batches: [9, 9], [9]
        assert records == [database.record(9)] * 3
        assert frontend.metrics.deduped_requests == 1

    def test_dedup_off_by_default_and_scans_everything(self, database):
        replicas = reference_replicas(database)
        scanned = []
        original = replicas[0].answer_batch

        def spying_answer_batch(queries):
            scanned.append(len(queries))
            return original(queries)

        replicas[0].answer_batch = spying_answer_batch
        frontend = PIRFrontend(
            make_client(database), replicas, policy=BatchingPolicy(max_batch_size=4)
        )
        assert not frontend.dedup
        frontend.retrieve_batch([5, 5, 5, 5])
        assert scanned == [4]
        assert frontend.metrics.deduped_requests == 0

    def test_dedup_with_timed_replicas(self, database):
        frontend = PIRFrontend(
            make_client(database),
            impir_replicas(database),
            policy=BatchingPolicy(max_batch_size=4),
            dedup=True,
        )
        records = frontend.retrieve_batch([11, 11, 200, 11])
        assert records == [database.record(i) for i in (11, 11, 200, 11)]
        assert frontend.metrics.total_makespan_seconds > 0


class TestOrphanAnswers:
    def test_unmatched_answer_raises(self, database):
        class _ExtraAnswerReplica(_TamperingReplica):
            def answer_batch(self, queries):
                results = [self._inner.answer(query) for query in queries]
                extra = PIRAnswer(query_id=10_000, server_id=self.server_id, payload=b"\0" * 32)
                results.append(IMPIRQueryResult(answer=extra, breakdown=PhaseTimer()))
                return IMPIRBatchResult(results=results)

        replicas = reference_replicas(database)
        replicas[1] = _ExtraAnswerReplica(replicas[1])
        frontend = PIRFrontend(make_client(database), replicas)
        with pytest.raises(ProtocolError, match="unmatched"):
            frontend.retrieve_batch([4])
