"""Heat telemetry: decaying windows, clock discipline, frontend observe hook."""

import asyncio

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.control.telemetry import HeatTracker
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy, PIRFrontend
from repro.shard.fleet import heats_from_trace
from repro.shard.plan import ShardPlan


def make_plan(num_records=100, num_shards=4):
    return ShardPlan.uniform(num_records, num_shards)


class TestWindows:
    def test_first_window_reports_raw_counts(self):
        tracker = HeatTracker(make_plan())
        tracker.observe_batch([0, 1, 2, 99, 99, 50], now=0.0)
        assert tracker.heats() == [3.0, 0.0, 1.0, 2.0]
        assert tracker.windows_completed == 0
        assert tracker.observed_indices == 6

    def test_matches_offline_heats_from_trace(self):
        """The units-reconciliation satellite: offline planning and online
        telemetry produce the same numbers for the same sample."""
        plan = make_plan(256, 4)
        trace = [0, 1, 2, 99, 99, 250, 250, 250]
        tracker = HeatTracker(plan)
        tracker.observe_batch(trace, now=0.0)
        assert tracker.heats() == heats_from_trace(plan, trace)

    def test_completed_windows_fold_with_decay(self):
        tracker = HeatTracker(make_plan(), window_seconds=1.0, decay=0.5)
        tracker.observe_batch([0] * 8, now=0.0)  # window 0: 8 on shard 0
        tracker.observe_batch([99] * 4, now=1.0)  # rolls; window 1 in progress
        # Completed windows only (phase-stable): the in-progress window's 4
        # queries on shard 3 are not visible until it rolls.
        assert tracker.heats() == [8.0, 0.0, 0.0, 0.0]
        assert tracker.windows_completed == 1
        tracker.advance(2.0)  # window 1 completes
        assert tracker.heats() == [4.0, 0.0, 0.0, 2.0]

    def test_heats_are_phase_stable_within_a_window(self):
        """The estimate must not dip right after a roll: a rebalance pass
        firing early vs late in a window must see the same heats."""
        tracker = HeatTracker(make_plan(), window_seconds=1.0, decay=0.5)
        tracker.observe_batch([0] * 8, now=0.0)
        tracker.advance(1.0)
        just_after_roll = tracker.heats()
        tracker.observe_batch([0] * 8, now=1.9)  # late in the same window
        assert tracker.heats() == just_after_roll

    def test_idle_windows_decay_toward_zero(self):
        tracker = HeatTracker(make_plan(), window_seconds=1.0, decay=0.5)
        tracker.observe_batch([0] * 16, now=0.0)
        tracker.advance(3.5)  # rolls 3 windows: one with traffic, two empty
        heat = tracker.heats()[0]
        assert 0 < heat < 16.0
        assert heat == pytest.approx(16.0 * 0.5**2)

    def test_one_batch_may_roll_several_windows(self):
        tracker = HeatTracker(make_plan(), window_seconds=0.5)
        tracker.observe_batch([0], now=0.0)
        tracker.observe_batch([0], now=2.6)
        assert tracker.windows_completed == 5

    def test_reading_heats_does_not_mutate(self):
        tracker = HeatTracker(make_plan())
        tracker.observe_batch([0, 0, 99], now=0.0)
        assert tracker.heats() == tracker.heats()
        tracker.observe_batch([0], now=0.0)
        assert tracker.heats()[0] == 3.0

    def test_shard_heat_helper(self):
        tracker = HeatTracker(make_plan())
        tracker.observe_batch([0, 1, 99], now=0.0)
        assert tracker.shard_heat(0) == 2.0
        assert tracker.shard_heat(3) == 1.0
        with pytest.raises(ConfigurationError):
            tracker.shard_heat(7)


class TestClockDiscipline:
    def test_time_moves_forward(self):
        tracker = HeatTracker(make_plan())
        tracker.observe_batch([0], now=5.0)
        with pytest.raises(ProtocolError):
            tracker.advance(4.0)

    def test_first_observation_anchors_the_window(self):
        """A tracker fed from an event-loop clock (large arbitrary origin)
        must not roll thousands of windows on its first observation."""
        tracker = HeatTracker(make_plan(), window_seconds=1.0)
        tracker.observe_batch([0], now=123456.75)
        assert tracker.windows_completed == 0
        assert tracker.heats()[0] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HeatTracker(make_plan(), window_seconds=0.0)
        with pytest.raises(ConfigurationError):
            HeatTracker(make_plan(), decay=1.0)
        with pytest.raises(ConfigurationError):
            HeatTracker(make_plan(), decay=-0.1)


class TestFrontendObserveHook:
    @pytest.fixture(scope="class")
    def database(self):
        return Database.random(100, 16, seed=11)

    def make_client(self, database, seed=21):
        return PIRClient(
            database.num_records, database.record_size, seed=seed, prg=make_prg()
        )

    def replicas(self, database):
        return [
            create_server("reference", database, server_id=i, prg=make_prg())
            for i in (0, 1)
        ]

    def test_sync_frontend_feeds_tracker_per_flush(self, database):
        tracker = HeatTracker(make_plan(), window_seconds=10.0)
        frontend = PIRFrontend(
            self.make_client(database),
            self.replicas(database),
            policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=100.0),
            observers=[tracker],
        )
        ids = [frontend.submit(i, arrival_seconds=0.1 * n) for n, i in enumerate([0, 1, 99])]
        frontend.close()
        for request_id, index in zip(ids, [0, 1, 99]):
            assert frontend.take_record(request_id) == database.record(index)
        assert tracker.observed_indices == 3
        assert tracker.heats() == [2.0, 0.0, 0.0, 1.0]

    def test_async_frontend_feeds_tracker_per_flush(self, database):
        tracker = HeatTracker(make_plan(), window_seconds=1000.0)
        frontend = AsyncPIRFrontend(
            self.make_client(database),
            self.replicas(database),
            policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=0.01),
            observers=[tracker],
        )

        async def run():
            return await frontend.retrieve_batch([0, 1, 99])

        records = asyncio.run(run())
        assert records == [database.record(i) for i in (0, 1, 99)]
        assert tracker.observed_indices == 3
        assert tracker.heats() == [2.0, 0.0, 0.0, 1.0]

    def test_observers_without_hook_are_ignored(self, database):
        frontend = PIRFrontend(
            self.make_client(database),
            self.replicas(database),
            observers=[object()],
        )
        assert frontend.retrieve_batch([5]) == [database.record(5)]
