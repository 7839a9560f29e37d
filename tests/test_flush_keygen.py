"""Key generation happens once per flush, on the flushing thread.

Both frontends admit a request after a range check only; the shared flush
(``BatchingFrontend.begin_flush``) asks the client for the whole flush's keys
in one ``query_batch``.  A recording client proves when, how often and on which
thread that call happens, and the regression tests pin the admission bug the
move fixes: with ``dedup=True`` a bad index used to be admitted and poison
its batch at flush time.
"""

import asyncio
import threading
import time

import pytest

from repro.common.errors import ProtocolError
from repro.control.cache import HotRecordCache
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy, PIRFrontend


@pytest.fixture(scope="module")
def database():
    return Database.random(256, 24, seed=29)


class _RecordingClient(PIRClient):
    """A real client that logs ``(method, indices, thread id)`` per call."""

    def __init__(self, database, seed=5):
        super().__init__(
            database.num_records, database.record_size, seed=seed, prg=make_prg()
        )
        self.calls = []

    def query(self, index):
        self.calls.append(("query", [index], threading.get_ident()))
        return super().query(index)

    def query_batch(self, indices):
        indices = list(indices)
        self.calls.append(("query_batch", indices, threading.get_ident()))
        return super().query_batch(indices)

    @property
    def batches(self):
        """The index list of every ``query_batch`` call; no ``query`` allowed."""
        assert all(name == "query_batch" for name, _, _ in self.calls)
        return [indices for _, indices, _ in self.calls]


class _SlowReplica:
    """Holds every ``answer_batch`` long enough that flushes *could* overlap.

    ``log`` (shared by the replicas) gets one ``(start, end)`` wall-clock
    window per call.
    """

    def __init__(self, inner, hold_seconds, log):
        self._inner = inner
        self._hold_seconds = hold_seconds
        self._log = log
        self.server_id = inner.server_id

    def answer_batch(self, queries):
        start = time.monotonic()
        time.sleep(self._hold_seconds)
        result = self._inner.answer_batch(queries)
        self._log.append((start, time.monotonic()))
        return result


def replicas_of(database):
    return [
        create_server("reference", database, server_id=i, prg=make_prg())
        for i in (0, 1)
    ]


def per_request_records(database, indices, seed=5):
    """The per-request reference path: one ``query`` per index, no frontend."""
    client = PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )
    replicas = replicas_of(database)
    return [
        client.reconstruct(
            [replicas[q.server_id].answer(q).answer for q in client.query(index)]
        )
        for index in indices
    ]


class TestSyncFrontendGeneratesPerFlush:
    def test_submit_generates_nothing_and_each_flush_calls_query_batch_once(self, database):
        client = _RecordingClient(database)
        frontend = PIRFrontend(client, replicas_of(database), policy=BatchingPolicy(3, 10.0))
        ids = [frontend.submit(index) for index in (7, 200, 7)]  # third one size-flushes
        assert client.batches == [[7, 200, 7]]
        ids += [frontend.submit(index) for index in (1, 0)]
        assert client.batches == [[7, 200, 7]] and frontend.pending_count == 2
        assert client.stats.queries_generated == 3
        frontend.close()
        assert client.batches == [[7, 200, 7], [1, 0]]
        records = [frontend.take_record(request_id) for request_id in ids]
        assert records == [database.record(index) for index in (7, 200, 7, 1, 0)]

    def test_dedup_asks_for_leaders_in_first_seen_order_and_skips_cached_flushes(self, database):
        client = _RecordingClient(database)
        frontend = PIRFrontend(
            client,
            replicas_of(database),
            policy=BatchingPolicy(5, 10.0),
            dedup=True,
            cache=HotRecordCache(capacity=8),
        )
        assert frontend.retrieve_batch([9, 4, 9, 200, 4]) == [
            database.record(index) for index in (9, 4, 9, 200, 4)
        ]
        assert client.batches == [[9, 4, 200]]
        # A flush served entirely from the cache scans nothing: no call at all.
        assert frontend.retrieve_batch([4, 9, 9]) == [
            database.record(index) for index in (4, 9, 9)
        ]
        assert client.batches == [[9, 4, 200]]
        assert frontend.metrics.cache_hits == 3
        # Mixed: only the uncached leader is generated.
        assert frontend.retrieve_batch([200, 31, 31]) == [
            database.record(index) for index in (200, 31, 31)
        ]
        assert client.batches == [[9, 4, 200], [31]]
        assert client.stats.queries_generated == 4


class TestAsyncFrontendGeneratesPerFlushOnTheLoopThread:
    def test_one_call_per_flush_on_the_loop_thread(self, database):
        indices = [11, 3, 11, 250, 8, 8, 8]

        async def run():
            client = _RecordingClient(database)
            frontend = AsyncPIRFrontend(
                client, replicas_of(database), policy=BatchingPolicy(4, 30.0)
            )
            tasks = [asyncio.create_task(frontend.submit(index)) for index in indices[:3]]
            while frontend.pending_count < 3:
                await asyncio.sleep(0)
            assert client.calls == []  # admitted, nothing generated
            records = await frontend.retrieve_batch(indices[3:])
            records = list(await asyncio.gather(*tasks)) + records
            return client, threading.get_ident(), records

        client, loop_thread, records = asyncio.run(run())
        assert records == [database.record(index) for index in indices]
        assert client.batches == [indices[:4], indices[4:]]
        assert {thread for _, _, thread in client.calls} == {loop_thread}

    def test_flushes_never_overlap_and_generate_on_the_loop_thread(self, database):
        indices = list(range(40, 52))

        async def run():
            client = _RecordingClient(database)
            windows = []
            replicas = [
                _SlowReplica(replica, 0.02, windows) for replica in replicas_of(database)
            ]
            frontend = AsyncPIRFrontend(client, replicas, policy=BatchingPolicy(4, 30.0))
            tasks = [asyncio.create_task(frontend.submit(index)) for index in indices]
            records = await asyncio.gather(*tasks)
            return client, threading.get_ident(), windows, records

        client, loop_thread, windows, records = asyncio.run(run())
        # Three flushes x two replicas, each call ending before the next
        # starts: no two answer_batch calls were ever in flight together.
        assert len(windows) == 6
        for (_, end), (start, _) in zip(windows, windows[1:]):
            assert end <= start
        assert records == [database.record(index) for index in indices]
        assert client.batches == [indices[0:4], indices[4:8], indices[8:12]]
        assert {thread for _, _, thread in client.calls} == {loop_thread}
        # Ids were handed out by one thread, in flush order: no duplicates.
        assert client.stats.queries_generated == 12

    def test_dedup_with_cache_generates_leaders_only(self, database):
        async def run():
            client = _RecordingClient(database)
            frontend = AsyncPIRFrontend(
                client,
                replicas_of(database),
                policy=BatchingPolicy(4, 30.0),
                dedup=True,
                cache=HotRecordCache(capacity=8),
            )
            first = await frontend.retrieve_batch([6, 2, 6, 2])
            second = await frontend.retrieve_batch([2, 6])  # all cache hits
            third = await frontend.retrieve_batch([6, 77])
            return client, first + second + third

        client, records = asyncio.run(run())
        assert records == [database.record(index) for index in (6, 2, 6, 2, 2, 6, 6, 77)]
        assert client.batches == [[6, 2], [77]]


class TestBadIndexIsRejectedAtSubmit:
    """Regression: under ``dedup=True`` the index used to be checked only when
    the flush generated the leader's keys, failing the whole batch."""

    @pytest.mark.parametrize("dedup", [False, True])
    def test_sync_submit_raises_and_registers_nothing(self, database, dedup):
        client = _RecordingClient(database)
        frontend = PIRFrontend(
            client, replicas_of(database), policy=BatchingPolicy(8, 10.0), dedup=dedup
        )
        first = frontend.submit(3, arrival_seconds=1.0)
        for bad in (database.num_records, -1):
            with pytest.raises(ProtocolError, match=f"index {bad} out of range"):
                frontend.submit(bad, arrival_seconds=2.0)
        assert frontend.pending_count == 1
        second = frontend.submit(5, arrival_seconds=1.5)  # the clock did not move either
        assert (first, second) == (0, 1)  # no request id was burnt
        frontend.close()
        assert frontend.take_record(first) == database.record(3)
        assert frontend.take_record(second) == database.record(5)
        assert client.batches == [[3, 5]]
        assert frontend.metrics.requests_served == 2

    @pytest.mark.parametrize("dedup", [False, True])
    def test_async_bad_submit_does_not_poison_its_neighbours(self, database, dedup):
        async def run():
            client = _RecordingClient(database)
            frontend = AsyncPIRFrontend(
                client, replicas_of(database), policy=BatchingPolicy(2, 30.0), dedup=dedup
            )
            results = await asyncio.gather(
                frontend.submit(3),
                frontend.submit(database.num_records + 743),
                frontend.submit(5),
                return_exceptions=True,
            )
            next_id = frontend._next_request_id
            return client, frontend, results, next_id

        client, frontend, results, next_id = asyncio.run(run())
        assert results[0] == database.record(3) and results[2] == database.record(5)
        assert isinstance(results[1], ProtocolError)
        assert "index 999 out of range [0, 256)" in str(results[1])
        assert frontend.pending_count == 0 and next_id == 2
        assert client.batches == [[3, 5]]


class TestRecordsMatchThePerRequestPath:
    @pytest.mark.parametrize("dedup", [False, True])
    def test_sync_async_and_per_request_records_agree(self, database, dedup):
        indices = [5, 17, 5, 255, 0, 17, 17, 90, 31, 5, 128]
        expected = per_request_records(database, indices)
        assert expected == [database.record(index) for index in indices]
        policy = BatchingPolicy(4, 30.0)
        sync = PIRFrontend(_RecordingClient(database), replicas_of(database), policy, dedup=dedup)
        assert sync.retrieve_batch(indices) == expected

        async def run():
            frontend = AsyncPIRFrontend(
                _RecordingClient(database), replicas_of(database), policy, dedup=dedup
            )
            return frontend, await frontend.retrieve_batch(indices)

        frontend, records = asyncio.run(run())
        assert records == expected
        # Same client seed, same flush boundaries: the two frontends drew the
        # same keys, so even the wire accounting matches.
        assert frontend.client.stats == sync.client.stats
        assert frontend.client.batches == sync.client.batches
        assert frontend.metrics.deduped_requests == sync.metrics.deduped_requests
