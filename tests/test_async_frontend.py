"""The asyncio frontend: real wait timers, loop-thread dispatch, equivalence.

Everything runs under ``asyncio.run`` — no extra test dependency.  The
deterministic simulated-clock behaviour of the sync frontend is covered by
``test_frontend.py``; this suite covers what only a real event loop can
show: a wait flush with no follow-up arrival, size flushes racing
concurrent submitters, replicas answered in sequence on the loop thread,
flushes parked behind a writer, and error propagation into every awaiting
``submit``.
"""

import asyncio
import contextvars
import threading
import time

import pytest

from repro.common.errors import ProtocolError
from repro.control.cache import HotRecordCache
from repro.core.engine import create_server
from repro.core.results import IMPIRBatchResult
from repro.dpf.prf import make_prg
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import (
    FLUSH_ON_CLOSE,
    FLUSH_ON_SIZE,
    FLUSH_ON_WAIT,
    BatchingPolicy,
    PIRFrontend,
)


@pytest.fixture(scope="module")
def database():
    return Database.random(256, 24, seed=83)


def make_client(database, seed=5):
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def reference_replicas(database):
    return [
        create_server("reference", database, server_id=i, prg=make_prg())
        for i in (0, 1)
    ]


class _RecordingReplica:
    """Wraps a replica; records each ``answer_batch``'s window and thread."""

    def __init__(self, inner, hold_seconds=0.0):
        self._inner = inner
        self._hold_seconds = hold_seconds
        self.server_id = inner.server_id
        self.windows = []
        self.threads = []
        self.batch_sizes = []

    def answer_batch(self, queries):
        start = time.monotonic()
        if self._hold_seconds:
            time.sleep(self._hold_seconds)
        result = self._inner.answer_batch(queries)
        self.windows.append((start, time.monotonic()))
        self.threads.append(threading.get_ident())
        self.batch_sizes.append(len(queries))
        return result


class _GatedReplica:
    """Wraps a replica; its ``apply_updates`` blocks until ``release`` is set.

    Holds a writer (``AsyncPIRFrontend.apply_updates``) mid-flight, so a test
    can submit while the writer slot is taken.
    """

    def __init__(self, inner, entered, release):
        self._inner = inner
        self._entered = entered
        self._release = release
        self.server_id = inner.server_id
        self.batches = 0

    def answer_batch(self, queries):
        self.batches += 1
        return self._inner.answer_batch(queries)

    def apply_updates(self, updates):
        self._entered.set()
        assert self._release.wait(5.0)
        return self._inner.apply_updates(updates)


class TestWaitTimer:
    def test_lone_submit_flushes_on_the_timer_without_a_follow_up(self, database):
        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=100, max_wait_seconds=0.03),
            )
            start = time.monotonic()
            record = await frontend.submit(42)
            return frontend, record, time.monotonic() - start

        frontend, record, elapsed = asyncio.run(run())
        assert record == database.record(42)
        assert frontend.metrics.flush_reasons == {FLUSH_ON_WAIT: 1}
        assert elapsed >= 0.03  # the wait really elapsed in wall time
        assert frontend.pending_count == 0

    def test_timer_rearms_for_consecutive_lone_submits(self, database):
        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=100, max_wait_seconds=0.02),
            )
            first = await frontend.submit(1)
            second = await frontend.submit(2)
            return frontend, first, second

        frontend, first, second = asyncio.run(run())
        assert (first, second) == (database.record(1), database.record(2))
        assert frontend.metrics.flush_reasons == {FLUSH_ON_WAIT: 2}

    def test_size_flush_preempts_the_timer(self, database):
        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=30.0),
            )
            records = await asyncio.gather(frontend.submit(3), frontend.submit(4))
            return frontend, records

        frontend, records = asyncio.run(run())
        assert records == [database.record(3), database.record(4)]
        # With a 30 s max wait, only the size rule can have fired.
        assert frontend.metrics.flush_reasons == {FLUSH_ON_SIZE: 1}

    def test_a_size_flush_disarms_the_timer(self, database):
        """A timer armed for a batch that then flushed on size must not sleep
        on and wait-flush a later batch in the armed request's context."""
        who = contextvars.ContextVar("who")
        seen = []

        class _ContextReplica:
            def __init__(self, inner):
                self._inner = inner
                self.server_id = inner.server_id

            def answer_batch(self, queries):
                seen.append(who.get())
                return self._inner.answer_batch(queries)

        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database),
                [_ContextReplica(replica) for replica in reference_replicas(database)],
                policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=0.05),
            )

            async def submit_as(name, index):
                who.set(name)
                return await frontend.submit(index)

            first = asyncio.create_task(submit_as("a", 1))
            await asyncio.sleep(0.001)  # a's timer is now asleep on a's deadline
            await submit_as("b", 2)  # size flush
            await first
            await submit_as("c", 3)  # a lone request: the timer flushes it
            return frontend

        frontend = asyncio.run(run())
        assert frontend.metrics.flush_reasons == {FLUSH_ON_SIZE: 1, FLUSH_ON_WAIT: 1}
        assert seen == ["b", "b", "c", "c"]


class TestSizeFlushUnderConcurrency:
    def test_concurrent_submitters_split_into_size_batches(self, database):
        indices = [7, 9, 11, 13, 15, 17, 19, 21]

        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=30.0),
            )
            records = await asyncio.gather(*(frontend.submit(i) for i in indices))
            return frontend, records

        frontend, records = asyncio.run(run())
        assert records == [database.record(i) for i in indices]
        assert frontend.metrics.flush_reasons == {FLUSH_ON_SIZE: 2}
        assert frontend.metrics.requests_served == len(indices)

    def test_retrieve_batch_closes_out_the_trailing_partial(self, database):
        indices = [1, 2, 3, 4, 5]

        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=30.0),
            )
            records = await frontend.retrieve_batch(indices)
            return frontend, records

        frontend, records = asyncio.run(run())
        assert records == [database.record(i) for i in indices]
        assert frontend.metrics.flush_reasons == {FLUSH_ON_SIZE: 2, FLUSH_ON_CLOSE: 1}

    def test_empty_retrieve_batch(self, database):
        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database), reference_replicas(database)
            )
            return await frontend.retrieve_batch([])

        assert asyncio.run(run()) == []


class TestLoopThreadDispatch:
    def test_replicas_answer_on_the_loop_thread_one_after_the_other(self, database):
        """No worker threads: replica 0 answers, then replica 1, on the loop."""

        async def run():
            replicas = [
                _RecordingReplica(replica, hold_seconds=0.01)
                for replica in reference_replicas(database)
            ]
            frontend = AsyncPIRFrontend(
                make_client(database),
                replicas,
                policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=30.0),
            )
            records = await asyncio.gather(frontend.submit(8), frontend.submit(9))
            return replicas, records, threading.get_ident()

        replicas, records, loop_thread = asyncio.run(run())
        assert records == [database.record(8), database.record(9)]
        assert replicas[0].threads == replicas[1].threads == [loop_thread]
        (start_a, end_a), = replicas[0].windows
        (start_b, end_b), = replicas[1].windows
        assert end_a <= start_b

    def test_sync_frontend_calls_the_same_replicas_sequentially(self, database):
        """The sync frontend answers the same replicas in sequence too."""
        replicas = [
            _RecordingReplica(replica, hold_seconds=0.01)
            for replica in reference_replicas(database)
        ]
        frontend = PIRFrontend(
            make_client(database), replicas, policy=BatchingPolicy(max_batch_size=2)
        )
        frontend.retrieve_batch([8, 9])
        (start_a, end_a), = replicas[0].windows
        (start_b, end_b), = replicas[1].windows
        assert max(start_a, start_b) >= min(end_a, end_b)


class TestDedup:
    def test_duplicate_indices_scanned_once_and_fanned_out(self, database):
        indices = [5, 5, 9, 5]

        async def run():
            replicas = [
                _RecordingReplica(replica)
                for replica in reference_replicas(database)
            ]
            frontend = AsyncPIRFrontend(
                make_client(database),
                replicas,
                policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=30.0),
                dedup=True,
            )
            records = await asyncio.gather(*(frontend.submit(i) for i in indices))
            return frontend, replicas, records

        frontend, replicas, records = asyncio.run(run())
        assert records == [database.record(i) for i in indices]
        assert frontend.metrics.deduped_requests == 2
        # Each replica saw one query per *distinct* index, not per request.
        assert replicas[0].batch_sizes == [2]
        assert replicas[1].batch_sizes == [2]


class TestErrorPropagation:
    def test_bad_index_raises_from_submit_without_poisoning_the_batch(self, database):
        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=0.02),
            )
            with pytest.raises(ProtocolError, match="out of range"):
                await frontend.submit(database.num_records + 7)
            # The frontend stays serviceable afterwards.
            record = await frontend.submit(3)
            return frontend, record

        frontend, record = asyncio.run(run())
        assert record == database.record(3)
        assert frontend.pending_count == 0

    def test_answers_in_reverse_order_still_pair(self, database):
        class _ReversingReplica:
            def __init__(self, inner):
                self._inner = inner
                self.server_id = inner.server_id

            def answer_batch(self, queries):
                return IMPIRBatchResult(results=self._inner.answer_batch(queries).results[::-1])

        indices = [4, 5, 200, 4]

        async def run():
            replicas = reference_replicas(database)
            replicas[0] = _ReversingReplica(replicas[0])
            frontend = AsyncPIRFrontend(
                make_client(database),
                replicas,
                policy=BatchingPolicy(max_batch_size=len(indices), max_wait_seconds=30.0),
            )
            return await asyncio.gather(*(frontend.submit(index) for index in indices))

        assert asyncio.run(run()) == [database.record(index) for index in indices]

    def test_replica_fault_rejects_every_awaiting_submit(self, database):
        class _DuplicatingReplica:
            def __init__(self, inner):
                self._inner = inner
                self.server_id = inner.server_id

            def answer_batch(self, queries):
                results = [self._inner.answer(query) for query in queries]
                return IMPIRBatchResult(results=[results[0]] + results)

        async def run():
            replicas = reference_replicas(database)
            replicas[1] = _DuplicatingReplica(replicas[1])
            frontend = AsyncPIRFrontend(
                make_client(database),
                replicas,
                policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=30.0),
            )
            results = await asyncio.gather(
                frontend.submit(4), frontend.submit(5), return_exceptions=True
            )
            return frontend, results

        frontend, results = asyncio.run(run())
        assert len(results) == 2
        for result in results:
            assert isinstance(result, ProtocolError)
            assert "duplicate answer" in str(result)
        # The failed batch was fully drained: no stuck futures, no pending.
        assert frontend.pending_count == 0
        assert frontend.metrics.batches_dispatched == 0

    def test_cancelling_one_submitter_does_not_strand_the_batch(self, database):
        """The flush a submitter triggered must survive that submitter's death.

        The dispatch is cancelled while parked on the writer gate — the only
        place a flush can wait, since it never yields once it runs.
        """
        entered, release = threading.Event(), threading.Event()

        async def run():
            replicas = [
                _GatedReplica(replica, entered, release)
                for replica in reference_replicas(database)
            ]
            frontend = AsyncPIRFrontend(
                make_client(database),
                replicas,
                policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=30.0),
            )
            writer = asyncio.create_task(frontend.apply_updates([(100, bytes(24))]))
            while not entered.is_set():
                await asyncio.sleep(0.001)
            survivor = asyncio.create_task(frontend.submit(8))
            while frontend.pending_count == 0:
                await asyncio.sleep(0)
            trigger = asyncio.create_task(frontend.submit(9))  # size flush
            await asyncio.sleep(0.01)
            # The batch left the queue but no replica answered: parked.
            parked = frontend.pending_count == 0 and replicas[0].batches == 0
            trigger.cancel()
            with pytest.raises(asyncio.CancelledError):
                await trigger
            release.set()
            await writer
            # Without shielding, the cancel would abandon the dispatch and
            # the survivor would hang forever on its future.
            record = await asyncio.wait_for(survivor, timeout=5.0)
            return frontend, replicas, parked, record

        frontend, replicas, parked, record = asyncio.run(run())
        assert parked
        assert record == database.record(8)
        assert frontend.pending_count == 0
        assert frontend.metrics.batches_dispatched == 1
        assert replicas[0].batches == replicas[1].batches == 1

    def test_retrieve_batch_accepts_a_one_shot_iterable(self, database):
        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=30.0),
            )
            return await frontend.retrieve_batch(iter([1, 2, 3]))

        assert asyncio.run(run()) == [database.record(i) for i in (1, 2, 3)]

    def test_replicas_without_server_id_rejected(self, database):
        class _Anonymous:
            def answer_batch(self, queries):  # pragma: no cover - never reached
                return []

        with pytest.raises(ProtocolError, match="server_id"):
            AsyncPIRFrontend(
                make_client(database), [_Anonymous(), _Anonymous()]
            )


class TestEquivalenceWithSyncFrontend:
    def test_identical_records_for_the_same_request_stream(self, database):
        stream = [0, 17, 17, 31, 255, 128, 3, 3, 77, 200, 5]

        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database, seed=21),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=3, max_wait_seconds=30.0),
                dedup=True,
            )
            return await frontend.retrieve_batch(stream)

        async_records = asyncio.run(run())
        sync_frontend = PIRFrontend(
            make_client(database, seed=21),
            reference_replicas(database),
            policy=BatchingPolicy(max_batch_size=3),
            dedup=True,
        )
        sync_records = sync_frontend.retrieve_batch(stream)
        assert async_records == sync_records
        assert async_records == [database.record(i) for i in stream]

    def test_records_metrics_and_observations_agree_field_by_field(self, database):
        # One stream with repeats, dedup and a hot-record cache, flushed in
        # the same batches: the two frontends differ only in dispatch, so
        # everything they report must match — except the flush instant
        # (simulated vs. loop clock).
        from dataclasses import fields

        stream = [4, 9, 4, 4, 200, 9, 31, 4, 9, 200, 77, 4, 31, 9]
        policy = BatchingPolicy(max_batch_size=4, max_wait_seconds=30.0)

        class _Recorder:
            def __init__(self):
                self.observations = []

            def observe_flush(self, observation):
                self.observations.append(observation)

        def make(frontend_class, recorder):
            return frontend_class(
                make_client(database, seed=13),
                reference_replicas(database),
                policy=policy,
                dedup=True,
                observers=[recorder],
                cache=HotRecordCache(capacity=8),
            )

        sync_recorder, async_recorder = _Recorder(), _Recorder()
        sync = make(PIRFrontend, sync_recorder)
        sync_records = sync.retrieve_batch(stream)

        async def run():
            frontend = make(AsyncPIRFrontend, async_recorder)
            return frontend, await frontend.retrieve_batch(stream)

        frontend, async_records = asyncio.run(run())
        assert async_records == sync_records == [database.record(i) for i in stream]
        for field in fields(sync.metrics):
            assert getattr(frontend.metrics, field.name) == getattr(
                sync.metrics, field.name
            ), field.name
        assert sync.metrics.cache_hits > 0 and sync.metrics.deduped_requests > 0
        assert len(async_recorder.observations) == len(sync_recorder.observations) == 4
        for got, want in zip(async_recorder.observations, sync_recorder.observations):
            for field in fields(want):
                if field.name in ("now", "details"):
                    continue
                assert getattr(got, field.name) == getattr(want, field.name), field.name
            assert {key: detail.simulated_seconds for key, detail in got.details.items()} == {
                key: detail.simulated_seconds for key, detail in want.details.items()
            }

    def test_equivalence_over_sharded_fleets(self, database):
        stream = [10, 20, 30, 40]

        def fleets():
            return [
                create_server(
                    "sharded",
                    database,
                    server_id=i,
                    num_shards=3,
                    prg=make_prg(),
                )
                for i in (0, 1)
            ]

        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database, seed=9),
                fleets(),
                policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=30.0),
            )
            return await frontend.retrieve_batch(stream)

        async_records = asyncio.run(run())
        sync_records = PIRFrontend(
            make_client(database, seed=9),
            fleets(),
            policy=BatchingPolicy(max_batch_size=4),
        ).retrieve_batch(stream)
        assert async_records == sync_records == [database.record(i) for i in stream]


class TestFlushesNeverOverlap:
    def test_a_concurrent_stream_hits_the_cache_like_the_sync_frontend(self, database):
        """Regression: batch k+1 must see batch k's cache admissions.

        With flushes overlapping, every batch of a concurrent stream missed
        the records its predecessor was about to admit: 0 hits where the
        sync frontend gets 7, and the replicas scanned the hot indices again.
        """
        stream = [4, 9, 4, 4, 200, 9, 31, 4, 9, 200, 77, 4, 31, 9]
        policy = BatchingPolicy(max_batch_size=4, max_wait_seconds=30.0)

        async def run():
            replicas = [_RecordingReplica(r) for r in reference_replicas(database)]
            frontend = AsyncPIRFrontend(
                make_client(database),
                replicas,
                policy=policy,
                dedup=True,
                cache=HotRecordCache(capacity=8),
            )
            return frontend, replicas, await frontend.retrieve_batch(stream)

        frontend, replicas, records = asyncio.run(run())
        sync = PIRFrontend(
            make_client(database),
            reference_replicas(database),
            policy=policy,
            dedup=True,
            cache=HotRecordCache(capacity=8),
        )
        assert sync.retrieve_batch(stream) == records
        assert records == [database.record(i) for i in stream]
        assert frontend.metrics.cache_hits == sync.metrics.cache_hits == 7
        assert frontend.metrics.deduped_requests == sync.metrics.deduped_requests
        # Leaders only: {4, 9}, {200, 31}, {77}; the last batch is all hits.
        assert replicas[0].batch_sizes == replicas[1].batch_sizes == [2, 2, 1]


class TestClose:
    def test_close_cancels_the_timer_and_flushes(self, database):
        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=100, max_wait_seconds=30.0),
            )
            task = asyncio.create_task(frontend.submit(6))
            while frontend.pending_count == 0:
                await asyncio.sleep(0)
            await frontend.close()
            return frontend, await task

        frontend, record = asyncio.run(run())
        assert record == database.record(6)
        assert frontend.metrics.flush_reasons == {FLUSH_ON_CLOSE: 1}

    def test_close_with_nothing_pending_is_a_noop(self, database):
        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database), reference_replicas(database)
            )
            await frontend.close()
            return frontend

        frontend = asyncio.run(run())
        assert frontend.metrics.batches_dispatched == 0


class _RaisingBatchObserver:
    """An ``observe_batch`` observer that always raises."""

    def __init__(self):
        self.calls = 0

    def observe_batch(self, indices, now):
        self.calls += 1
        raise RuntimeError("observer boom")


class _RaisingFlushObserver:
    """An ``observe_flush`` observer that always raises."""

    def __init__(self):
        self.calls = 0

    def observe_flush(self, observation):
        self.calls += 1
        raise RuntimeError("flush observer boom")


class _FlakyHandle:
    """A file-like handle that raises on every second write."""

    def __init__(self, inner):
        self._inner = inner
        self.writes = 0

    def write(self, line):
        self.writes += 1
        if self.writes % 2 == 0:
            raise OSError("disk full")
        return self._inner.write(line)


class TestObserverFaultIsolation:
    """Telemetry faults must never fail the retrieval they observe."""

    def test_raising_observer_routes_to_the_loop_exception_handler(self, database):
        observer = _RaisingBatchObserver()
        captured = []

        async def run():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: captured.append(context)
            )
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=2),
                observers=[observer],
            )
            return await frontend.retrieve_batch([3, 9])

        records = asyncio.run(run())
        # The retrieval succeeded despite the observer raising on its batch.
        assert records == [database.record(3), database.record(9)]
        assert observer.calls == 1
        assert len(captured) == 1
        assert isinstance(captured[0]["exception"], RuntimeError)

    def test_raising_observe_flush_routes_to_the_loop_exception_handler(
        self, database
    ):
        observer = _RaisingFlushObserver()
        captured = []

        async def run():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: captured.append(context)
            )
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=2),
                observers=[observer],
            )
            return await frontend.retrieve_batch([5, 11])

        records = asyncio.run(run())
        assert records == [database.record(5), database.record(11)]
        assert observer.calls == 1
        assert len(captured) == 1
        assert isinstance(captured[0]["exception"], RuntimeError)

    def test_raising_observer_keeps_every_metric_of_the_flush(self, database):
        # Every metric is folded before any observer runs, so an observer
        # fault cannot drop the flush's dedup count on either frontend.
        stream = [7, 7, 7, 9]

        def make(frontend_class, observer):
            return frontend_class(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=30.0),
                dedup=True,
                observers=[observer],
            )

        sync = make(PIRFrontend, _RaisingBatchObserver())
        with pytest.raises(RuntimeError, match="observer boom"):
            sync.retrieve_batch(stream)

        async def run():
            asyncio.get_running_loop().set_exception_handler(lambda loop, context: None)
            frontend = make(AsyncPIRFrontend, _RaisingBatchObserver())
            return frontend, await frontend.retrieve_batch(stream)

        frontend, records = asyncio.run(run())
        assert records == [database.record(i) for i in stream]
        assert sync.metrics.deduped_requests == 2
        assert frontend.metrics.deduped_requests == 2
        assert frontend.metrics == sync.metrics

    def test_raising_jsonl_sink_never_corrupts_a_flush(self, database, tmp_path):
        import json

        from repro.obs import ObservabilityHub

        path = tmp_path / "events.jsonl"
        handle = open(path, "w", encoding="utf-8")
        flaky = _FlakyHandle(handle)
        hub = ObservabilityHub(jsonl_path=flaky)

        async def run():
            frontend = AsyncPIRFrontend(
                make_client(database),
                reference_replicas(database),
                policy=BatchingPolicy(max_batch_size=2),
            )
            hub.attach(frontend)
            records = await frontend.retrieve_batch([1, 2, 3, 4])
            return frontend, records

        frontend, records = asyncio.run(run())
        handle.close()
        # Every retrieval succeeded even though half the exports raised.
        assert records == [database.record(i) for i in (1, 2, 3, 4)]
        assert frontend.metrics.flush_reasons == {FLUSH_ON_SIZE: 2}
        # The sink chain swallowed the faults (counted, remembered)...
        assert hub.events.dropped > 0
        assert isinstance(hub.events.last_error, OSError)
        # ...and the file holds only complete JSON lines: the whole line is
        # serialised before the single write, so a raising handle can fail
        # only between records, never inside one.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert "name" in record and "seq" in record and "now" in record
        # The healthy sinks kept receiving every event the flaky one dropped.
        assert len(hub.ring.events()) > len(lines)


class TestReplicaElasticityMidFlush:
    """Replica adds and drains racing live flushes stay invisible in records.

    The fleet's :class:`ReplicaGroup` slots plug straight into the async
    frontend (they expose ``server_id``/``answer_batch``), so the
    writer-preferring quiesce is what orders a scale action against
    in-flight flushes: stage runs off-gate in a worker thread while
    submits keep flowing, and only the commit (or the drain) holds the
    writer slot.
    """

    def make_fleet(self, database, initial_replicas=1):
        from repro.shard.fleet import CandidateKind, FleetRouter
        from repro.shard.plan import ShardPlan

        client = make_client(database)
        # Reference-kind children keep the suite fast.  Any kind would do:
        # a flush runs atomically on the loop thread, so flushes never
        # overlap one another, and the writer gate keeps them apart from
        # the commit or the drain.
        reference = CandidateKind(
            kind="reference",
            preloaded=True,
            per_query_seconds=lambda n, r: 0.0,
            preload_seconds=lambda n, r: 0.0,
        )
        router = FleetRouter(
            client,
            database,
            ShardPlan.uniform(database.num_records, 2),
            [0.0, 0.0],
            candidates=[reference],
            policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=100.0),
            initial_replicas=initial_replicas,
        )
        frontend = AsyncPIRFrontend(
            client,
            router.replicas,
            policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=0.01),
        )
        return router, frontend

    def test_replica_add_mid_flush_is_bit_identical(self, database):
        async def run():
            router, frontend = self.make_fleet(database)
            indices = list(range(0, 48))

            async def submit_all():
                return await asyncio.gather(
                    *(frontend.submit(i) for i in indices)
                )

            submits = asyncio.ensure_future(submit_all())
            await asyncio.sleep(0.005)  # let flushes get in flight
            # Stage off-gate (worker thread), commit under the quiesce.
            staged = await asyncio.to_thread(router.stage_replicas)
            await frontend.reconfigure(lambda: router.commit_replicas(staged))
            records = await submits
            await frontend.close()
            return router, frontend, records

        router, frontend, records = asyncio.run(run())
        assert records == [database.record(i) for i in range(0, 48)]
        assert router.replica_count == 2
        assert frontend.metrics.reconfigurations == 1
        assert frontend.pending_count == 0
        # The second member genuinely serves traffic afterwards.
        for group in router.replicas:
            assert group.size == 2

    def test_drain_mid_flush_is_bit_identical(self, database):
        async def run():
            router, frontend = self.make_fleet(database, initial_replicas=2)
            indices = list(range(64, 112))

            async def submit_all():
                return await asyncio.gather(
                    *(frontend.submit(i) for i in indices)
                )

            submits = asyncio.ensure_future(submit_all())
            await asyncio.sleep(0.005)
            # drain_replica's own (structural) gate nests harmlessly inside
            # the async writer gate; the quiesce has already drained every
            # in-flight flush by the time the members are popped.
            await frontend.reconfigure(router.drain_replica)
            records = await submits
            await frontend.close()
            return router, frontend, records

        router, frontend, records = asyncio.run(run())
        assert records == [database.record(i) for i in range(64, 112)]
        assert router.replica_count == 1
        assert frontend.metrics.reconfigurations == 1

    def test_updates_between_stage_and_commit_reach_the_new_member(self, database):
        async def run():
            router, frontend = self.make_fleet(database)
            staged = await asyncio.to_thread(router.stage_replicas)
            # A write lands while the staging is out: journaled and replayed.
            new_bytes = bytes(database.record_size)
            router.apply_updates([(9, new_bytes)])
            await frontend.reconfigure(lambda: router.commit_replicas(staged))
            # Round-robin: consecutive lone submits hit both members.
            first = await frontend.submit(9)
            second = await frontend.submit(9)
            await frontend.close()
            return router, new_bytes, first, second

        router, new_bytes, first, second = asyncio.run(run())
        assert first == second == new_bytes
        assert router.replica_count == 2
