"""Hot-record cache: LRU + frequency-gated admission, frontend short-circuit, invalidation."""

import asyncio

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.control.cache import SAMPLE_PER_CAPACITY, HotRecordCache
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy, PIRFrontend
from repro.shard.fleet import FleetRouter, heats_from_trace
from repro.shard.plan import ShardPlan
from repro.workloads.traces import zipf_trace


def make_client(database, seed=31):
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def reference_replicas(database):
    return [
        create_server("reference", database, server_id=i, prg=make_prg())
        for i in (0, 1)
    ]


class CountingReplica:
    """Wraps a replica and counts ``answer_batch`` dispatches."""

    def __init__(self, inner):
        self._inner = inner
        self.server_id = inner.server_id
        self.calls = 0

    def answer_batch(self, queries):
        self.calls += 1
        return self._inner.answer_batch(queries)


class TestLRU:
    def test_eviction_order_and_hit_refresh(self):
        cache = HotRecordCache(capacity=2)
        for index, record in ((1, b"a"), (2, b"b")):
            assert cache.get(index) is None
            cache.admit(index, record)
        assert cache.get(1) == b"a"  # refreshes 1 to MRU
        assert cache.get(3) is None
        assert cache.get(3) is None  # 3 now asked for as often as 1, more than 2
        cache.admit(3, b"c")  # evicts 2, the LRU
        assert cache.get(2) is None
        assert cache.get(1) == b"a" and cache.get(3) == b"c"
        assert cache.stats.evictions == 1
        assert cache.resident_indices() == [1, 3]

    def test_re_admission_refreshes_without_double_count(self):
        cache = HotRecordCache(capacity=2)
        cache.admit(1, b"a")
        cache.admit(1, b"a2")
        assert len(cache) == 1
        assert cache.stats.admissions == 1
        assert cache.get(1) == b"a2"

    def test_invalidate_and_clear(self):
        cache = HotRecordCache(capacity=4)
        cache.admit(1, b"a")
        cache.admit(2, b"b")
        assert cache.invalidate([1, 7]) == 1  # 7 was never resident
        assert cache.get(1) is None
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HotRecordCache(capacity=0)


def _replay(cache, indices, round_size):
    """The frontend's lookup pattern: each round looks up its distinct
    indices once, then offers the misses to the cache."""
    for start in range(0, len(indices), round_size):
        misses = {}
        for index in dict.fromkeys(indices[start : start + round_size]):
            if cache.get(index) is None:
                misses[index] = b"r"
        cache.admit_many(misses)


class TestFrequencyGatedAdmission:
    def test_one_off_probes_never_evict_a_twice_requested_resident(self):
        cache = HotRecordCache(capacity=4)
        sample = SAMPLE_PER_CAPACITY * cache.capacity
        for index in range(4):
            cache.get(index)
            cache.get(index)
            cache.admit(index, b"hot")
        # A count of 2 outlives one halving, so for two samples of lookups
        # every probe (count 1) at most ties a resident.
        probes = range(100, 100 + 2 * sample - 8)
        for probe in probes:
            assert cache.get(probe) is None
            assert not cache.admit(probe, b"cold")
        assert cache.resident_indices() == [0, 1, 2, 3]
        assert cache.stats.evictions == 0
        assert cache.stats.rejected_cold == len(probes)
        # Then the residents' counts have halved to nothing and a probe
        # asked for once is the more popular record.
        cache.get(99)
        assert cache.admit(99, b"new")
        assert cache.resident_indices() == [1, 2, 3, 99]

    def test_a_tie_keeps_the_resident(self):
        cache = HotRecordCache(capacity=1)
        cache.get(1)
        cache.admit(1, b"a")
        cache.get(2)
        assert not cache.admit(2, b"b")  # asked for once, like 1
        cache.get(2)
        assert cache.admit(2, b"b")  # now asked for more often than 1
        assert cache.resident_indices() == [2]
        assert cache.stats.evictions == 1

    def test_a_cache_with_room_admits_unconditionally(self):
        cache = HotRecordCache(capacity=2)
        assert cache.admit(5, b"x")  # never looked up
        assert cache.admit(6, b"y")
        assert not cache.admit(7, b"z")  # full: 7 is no hotter than 5

    def test_counts_halve_so_old_popularity_fades(self):
        cache = HotRecordCache(capacity=1)
        for _ in range(8):
            cache.get(1)
        cache.admit(1, b"old")
        # Four samples of lookups halve 1's count 8 -> 4 -> 2 -> 1 -> 0.
        for probe in range(100, 100 + 4 * SAMPLE_PER_CAPACITY - 8):
            cache.get(probe)
        cache.get(2)
        cache.get(2)
        assert cache.admit(2, b"new")
        assert cache.resident_indices() == [2]

    def test_count_table_is_bounded(self):
        cache = HotRecordCache(capacity=8)
        for index in range(100 * cache.capacity):
            cache.get(index)
            cache.admit(index, b"x")
            assert len(cache._counts) <= 2 * SAMPLE_PER_CAPACITY * cache.capacity
        assert len(cache) == cache.capacity

    def test_zipf_replay_hit_rate(self):
        """The frontend's lookup pattern over the ``fleet_zipf_mixed`` trace
        shape (16 384 records, Zipf(1.1), rounds of 16, 128 residents).
        Admitting every miss reads 0.451 here."""
        cache = HotRecordCache(capacity=128)
        trace = zipf_trace(16384, 1500 * 16, exponent=1.1, seed=3000)
        _replay(cache, list(trace.indices), round_size=16)
        assert cache.stats.hit_rate >= 0.53
        assert len(cache._counts) <= 2 * SAMPLE_PER_CAPACITY * cache.capacity


class TestFrontendIntegration:
    @pytest.fixture(scope="class")
    def database(self):
        return Database.random(128, 16, seed=44)

    def test_cache_requires_dedup(self, database):
        cache = HotRecordCache(capacity=4)
        with pytest.raises(ProtocolError):
            PIRFrontend(
                make_client(database), reference_replicas(database), cache=cache
            )
        with pytest.raises(ProtocolError):
            AsyncPIRFrontend(
                make_client(database), reference_replicas(database), cache=cache
            )

    def test_repeat_index_served_without_replica_dispatch(self, database):
        cache = HotRecordCache(capacity=4)
        replicas = [CountingReplica(r) for r in reference_replicas(database)]
        frontend = PIRFrontend(
            make_client(database),
            replicas,
            policy=BatchingPolicy(max_batch_size=2),
            dedup=True,
            cache=cache,
        )
        # Batch 1 scans index 7 and admits it; batch 2 asks only for 7
        # twice, so the whole batch is a cache hit and dispatches nothing.
        assert frontend.retrieve_batch([7, 9]) == [database.record(7), database.record(9)]
        calls_after_first = replicas[0].calls
        assert frontend.retrieve_batch([7, 7]) == [database.record(7)] * 2
        assert replicas[0].calls == calls_after_first
        assert replicas[1].calls == calls_after_first
        assert frontend.metrics.cache_hits == 2  # leader + duplicate follower
        assert cache.stats.hits == 1  # one distinct-index lookup hit
        assert frontend.metrics.requests_served == 4
        # Cache hits are not double-counted as dedup wins: nothing in either
        # batch was answered from another request's *scan*.
        assert frontend.metrics.deduped_requests == 0

    def test_mixed_batch_scans_only_misses(self, database):
        cache = HotRecordCache(capacity=4)
        frontend = PIRFrontend(
            make_client(database),
            reference_replicas(database),
            policy=BatchingPolicy(max_batch_size=2),
            dedup=True,
            cache=cache,
        )
        frontend.retrieve_batch([3, 5])
        records = frontend.retrieve_batch([3, 8])  # 3 cached, 8 scanned
        assert records == [database.record(3), database.record(8)]
        assert frontend.metrics.cache_hits == 1
        assert 8 in cache  # freshly scanned records are offered to the cache

    def test_async_frontend_cache_parity(self, database):
        cache = HotRecordCache(capacity=4)
        replicas = [CountingReplica(r) for r in reference_replicas(database)]
        frontend = AsyncPIRFrontend(
            make_client(database),
            replicas,
            policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=0.01),
            dedup=True,
            cache=cache,
        )

        async def run():
            first = await frontend.retrieve_batch([7, 9])
            calls = replicas[0].calls
            second = await frontend.retrieve_batch([7, 7])
            return first, second, calls

        first, second, calls = asyncio.run(run())
        assert first == [database.record(7), database.record(9)]
        assert second == [database.record(7)] * 2
        assert replicas[0].calls == calls  # all-cached batch dispatched nothing
        assert frontend.metrics.cache_hits == 2

    def test_cache_hits_zero_without_cache(self, database):
        frontend = PIRFrontend(
            make_client(database), reference_replicas(database), dedup=True
        )
        frontend.retrieve_batch([7, 7, 9])
        assert frontend.metrics.cache_hits == 0
        assert frontend.metrics.deduped_requests == 1


class TestAsyncInvalidation:
    def test_async_apply_updates_invalidates_after_replicas_updated(self):

        database = Database.random(64, 8, seed=46)
        cache = HotRecordCache(capacity=4)
        replicas = [
            create_server("sharded", database, server_id=i, num_shards=2, prg=make_prg())
            for i in (0, 1)
        ]
        frontend = AsyncPIRFrontend(
            make_client(database, seed=33),
            replicas,
            policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=0.01),
            dedup=True,
            cache=cache,
        )
        fresh = bytes(8)

        async def run():
            first = await frontend.retrieve_batch([5, 9])
            await frontend.apply_updates([(5, fresh)])
            resident_after_update = 5 in cache
            second = await frontend.retrieve_batch([5, 5])
            return first, resident_after_update, second

        first, resident_after_update, second = asyncio.run(run())
        assert first == [database.record(5), database.record(9)]
        assert not resident_after_update  # dirty index dropped
        assert second == [fresh, fresh]  # re-scanned from the updated replicas

    def test_apply_updates_rejects_replicas_without_the_hook(self):
        """And rejects them *before* any replica is updated: a mid-loop
        failure would leave the replica set permanently inconsistent."""
        database = Database.random(64, 8, seed=47)
        replicas = [CountingReplica(replica) for replica in reference_replicas(database)]
        frontend = PIRFrontend(make_client(database, seed=34), replicas)
        with pytest.raises(ProtocolError):
            frontend.apply_updates([(0, bytes(8))])

    def test_a_flush_waits_for_an_active_writer(self):
        """A flush submitted while an update holds the writer slot waits for
        it: scanning mixed old/new replica states would XOR-reconstruct
        garbage, and scanning the old bytes would re-admit them into the
        cache after the invalidation."""
        import threading

        database = Database.random(64, 8, seed=49)
        entered, release = threading.Event(), threading.Event()

        class GatedReplica:
            """Holds each replica's ``apply_updates`` until the test releases it."""

            def __init__(self, inner):
                self._inner = inner
                self.server_id = inner.server_id
                self.batches = 0

            def answer_batch(self, queries):
                self.batches += 1
                return self._inner.answer_batch(queries)

            def apply_updates(self, updates):
                entered.set()
                assert release.wait(5.0)
                return self._inner.apply_updates(updates)

        cache = HotRecordCache(capacity=4)
        replicas = [
            GatedReplica(
                create_server("sharded", database, server_id=i, num_shards=2, prg=make_prg())
            )
            for i in (0, 1)
        ]
        frontend = AsyncPIRFrontend(
            make_client(database, seed=36),
            replicas,
            policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=5.0),
            dedup=True,
            cache=cache,
        )
        fresh = bytes(8)

        async def run():
            first = await frontend.retrieve_batch([5, 9])  # 5 and 9 now cached
            update_task = asyncio.create_task(frontend.apply_updates([(5, fresh)]))
            while not entered.is_set():  # the writer holds the slot
                await asyncio.sleep(0.001)
            scans_before = replicas[0].batches
            flush_task = asyncio.create_task(frontend.retrieve_batch([5, 33]))
            await asyncio.sleep(0.05)
            blocked = not flush_task.done() and replicas[0].batches == scans_before
            release.set()
            await update_task
            second = await flush_task
            return first, blocked, second

        first, blocked, second = asyncio.run(run())
        assert blocked
        assert first == [database.record(5), database.record(9)]
        assert second == [fresh, database.record(33)]  # scanned after the update
        assert cache.get(5) == fresh  # the pre-update bytes were not re-admitted


class TestObserverFaultContainment:
    def test_async_observer_exception_does_not_fail_the_batch(self):
        database = Database.random(64, 8, seed=48)

        class ExplodingObserver:
            def observe_batch(self, indices, now):
                raise RuntimeError("migration failed")

        frontend = AsyncPIRFrontend(
            make_client(database, seed=35),
            reference_replicas(database),
            policy=BatchingPolicy(max_batch_size=1, max_wait_seconds=0.01),
            observers=[ExplodingObserver()],
        )
        captured = []

        async def run():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, context: captured.append(context))
            # The record arrives even though the observer blows up post-flush.
            return await frontend.submit(5)

        record = asyncio.run(run())
        assert record == database.record(5)
        assert len(captured) == 1
        assert isinstance(captured[0]["exception"], RuntimeError)


class TestFleetInvalidation:
    def test_apply_updates_invalidates_and_reserves_fresh_bytes(self):
        database = Database.random(128, 16, seed=45)
        plan = ShardPlan.uniform(database.num_records, 4)
        heats = heats_from_trace(plan, [0] * 10)
        cache = HotRecordCache(capacity=8)
        router = FleetRouter(
            make_client(database, seed=32),
            database,
            plan,
            heats,
            policy=BatchingPolicy(max_batch_size=2),
            dedup=True,
            cache=cache,
        )
        assert router.retrieve_batch([7, 9]) == [database.record(7), database.record(9)]
        assert 7 in cache
        new_record = bytes(range(16))
        router.apply_updates([(7, new_record)])
        assert 7 not in cache  # dirty index dropped before any re-read
        records = router.retrieve_batch([7, 7])
        assert records == [new_record] * 2  # scanned fresh, then fanned out
        assert cache.stats.invalidations == 1
