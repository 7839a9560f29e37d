"""Online rebalancing: heat-driven migration, edge plans, live equivalence."""

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.control.plane import ControlPlane, controlled_fleet
from repro.control.rebalancer import Rebalancer
from repro.control.telemetry import HeatTracker
from repro.dpf.prf import make_prg
from repro.obs import HealthSignal
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy
from repro.shard.backend import ShardedBackend, bare_backend_factory
from repro.shard.fleet import FleetRouter, heats_from_trace
from repro.shard.plan import ShardPlan
from repro.workloads.traces import zipf_trace


def make_client(database, seed=61):
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def make_router(database, plan, heats, seed=61, **kwargs):
    return FleetRouter(
        make_client(database, seed=seed),
        database,
        plan,
        heats,
        policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=100.0),
        **kwargs,
    )


class TestHeatDrivenMigration:
    @pytest.fixture(scope="class")
    def database(self):
        return Database.random(128, 16, seed=71)

    def test_hot_shard_migrates_to_preloaded_and_back(self, database):
        plan = ShardPlan.uniform(database.num_records, 4)
        router = make_router(database, plan, heats=[50.0, 0.0, 0.0, 0.0])
        assert router.placement_kinds() == [
            "im-pir", "im-pir-streamed", "im-pir-streamed", "im-pir-streamed"
        ]
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(router, tracker, interval_seconds=1.0)

        # Traffic drifts to the last shard; the first goes quiet.
        tracker.observe_batch([120] * 20, now=0.0)
        report = rebalancer.rebalance(now=0.0)
        kinds = {m.shard.index: (m.old_kind, m.new_kind) for m in report.migrations}
        assert kinds[0] == ("im-pir", "im-pir-streamed")  # cooled off
        assert kinds[3] == ("im-pir-streamed", "im-pir")  # newly hot
        assert router.placement_kinds() == [
            "im-pir-streamed", "im-pir-streamed", "im-pir-streamed", "im-pir"
        ]
        # Retrievals after the swap are still bit-exact on every shard.
        indices = [0, 40, 70, 100, 120]
        assert router.retrieve_batch(indices) == [database.record(i) for i in indices]

    def test_migration_cost_is_the_placement_transfer_term(self, database):
        plan = ShardPlan.uniform(database.num_records, 2)
        router = make_router(database, plan, heats=[0.0, 0.0])
        tracker = HeatTracker(plan)
        tracker.observe_batch([0] * 30, now=0.0)
        report = Rebalancer(router, tracker).rebalance(now=0.0)
        (migration,) = report.migrations
        placement = next(
            p for p in router.placements if p.shard.index == migration.shard.index
        )
        assert migration.new_kind == "im-pir"
        assert migration.transfer_seconds == placement.preload_seconds > 0
        assert report.migration_seconds == migration.transfer_seconds

    def test_migration_updates_the_routers_kind_map(self, database):
        """A migrations-only pass must land the new kinds in the router's
        live kind map: a later re-prepare rebuilds children through the
        default factory, which must follow the migrated placements."""
        plan = ShardPlan.uniform(database.num_records, 2)
        router = make_router(database, plan, heats=[50.0, 0.0])
        tracker = HeatTracker(plan)
        tracker.observe_batch([120] * 30, now=0.0)  # heat drifts to shard 1
        report = Rebalancer(router, tracker).rebalance(now=0.0)
        assert report.migrations and report.topology is None
        fleet = router.fleets[0]
        fleet.backend.prepare(fleet.database)
        member_kinds = [
            child.capabilities().name for _, child in fleet.backend.members
        ]
        assert member_kinds == router.placement_kinds()
        assert member_kinds == ["im-pir-streamed", "im-pir"]

    def test_no_migration_when_placement_is_stable(self, database):
        plan = ShardPlan.uniform(database.num_records, 2)
        router = make_router(database, plan, heats=[50.0, 0.0])
        tracker = HeatTracker(plan)
        tracker.observe_batch([0] * 50, now=0.0)  # same shape as the seed heats
        report = Rebalancer(router, tracker).rebalance(now=0.0)
        assert report.migrations == []
        assert "unchanged" in report.describe()

    def test_maybe_rebalance_anchors_then_respects_interval(self, database):
        plan = ShardPlan.uniform(database.num_records, 2)
        router = make_router(database, plan, heats=[50.0, 0.0])
        tracker = HeatTracker(plan)
        rebalancer = Rebalancer(router, tracker, interval_seconds=1.0)
        assert rebalancer.maybe_rebalance(0.0) is None  # anchors only
        assert rebalancer.maybe_rebalance(0.5) is None  # too soon
        assert rebalancer.maybe_rebalance(1.0) is not None
        assert rebalancer.maybe_rebalance(1.5) is None  # interval restarts
        assert len(rebalancer.reports) == 1

    def test_validation(self, database):
        plan = ShardPlan.uniform(database.num_records, 2)
        router = make_router(database, plan, heats=[1.0, 1.0])
        tracker = HeatTracker(plan)
        with pytest.raises(ConfigurationError):
            Rebalancer(router, tracker, interval_seconds=0.0)
        other_plan = ShardPlan.uniform(database.num_records, 2)
        with pytest.raises(ConfigurationError):
            Rebalancer(router, HeatTracker(other_plan))  # not the router's plan


class TestMigrationEdgeCases:
    def test_single_shard_plan_migrates_to_and_from(self):
        database = Database.random(64, 8, seed=72)
        plan = ShardPlan.uniform(database.num_records, 1)
        router = make_router(database, plan, heats=[0.0])
        assert router.placement_kinds() == ["im-pir-streamed"]
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(router, tracker)

        tracker.observe_batch([0] * 40, now=0.0)
        report = rebalancer.rebalance(now=0.0)
        assert [m.new_kind for m in report.migrations] == ["im-pir"]
        assert router.retrieve_batch([0, 63]) == [database.record(0), database.record(63)]

        tracker.advance(8.0)  # traffic stops; the heat decays back to ~0
        report = rebalancer.rebalance(now=8.0)
        assert [m.new_kind for m in report.migrations] == ["im-pir-streamed"]
        assert router.retrieve_batch([5]) == [database.record(5)]

    def test_more_shards_than_records(self):
        database = Database.random(2, 8, seed=73)
        plan = ShardPlan.uniform(database.num_records, 5)
        router = make_router(database, plan, heats=[0.0] * 5)
        tracker = HeatTracker(plan)
        tracker.observe_batch([0, 0, 0, 1], now=0.0)
        report = Rebalancer(router, tracker).rebalance(now=0.0)
        # Only the two non-empty shards are placeable/migratable.
        assert len(report.placements) == 2
        assert all(m.shard.num_records > 0 for m in report.migrations)
        assert router.retrieve_batch([0, 1]) == [database.record(0), database.record(1)]

    def test_apply_updates_mid_window_on_a_migrating_shard(self):
        database = Database.random(64, 8, seed=74)
        plan = ShardPlan.uniform(database.num_records, 2)
        router = make_router(database, plan, heats=[0.0, 0.0])
        tracker = HeatTracker(plan, window_seconds=10.0)
        rebalancer = Rebalancer(router, tracker)

        # Mid-window: shard 1 is heating up but no rebalance has run yet.
        tracker.observe_batch([40] * 20, now=0.5)
        new_record = bytes(8)
        router.apply_updates([(40, new_record)])

        # The migration must stand the new child up from the *updated*
        # database slice, not a stale prepare-time snapshot.
        report = rebalancer.rebalance(now=1.0)
        assert any(m.shard.index == 1 and m.new_kind == "im-pir" for m in report.migrations)
        assert router.retrieve_batch([40]) == [new_record]

        # And an update landing *after* the swap reaches the migrated child.
        newer_record = bytes(range(8))
        router.apply_updates([(40, newer_record)])
        assert router.retrieve_batch([40, 0]) == [newer_record, database.record(0)]

    def test_swap_child_rejects_unknown_or_unprepared(self):
        database = Database.random(64, 8, seed=75)
        plan = ShardPlan.uniform(database.num_records, 2)
        backend = ShardedBackend(bare_backend_factory("reference"), plan=plan)
        with pytest.raises(ProtocolError):
            backend.swap_child(0, bare_backend_factory("reference")(plan.shards[0]))
        backend.prepare(database)
        with pytest.raises(ConfigurationError):
            backend.swap_child(9, bare_backend_factory("reference")(plan.shards[0]))


class TestLiveEquivalence:
    def test_bit_identical_records_across_live_rebalance_under_drift(self):
        """The acceptance property: a controlled fleet under a drifting Zipf
        workload returns byte-for-byte the records of a static fleet."""
        database = Database.random(128, 8, seed=76)
        plan = ShardPlan.uniform(database.num_records, 4)
        first, last = plan.shards[0], plan.shards[-1]
        half = 32
        skew = zipf_trace(database.num_records, 2 * half, exponent=1.4, seed=77)
        offsets = [first.start] * half + [last.start] * half
        stream = [
            (offset + index) % database.num_records
            for offset, index in zip(offsets, skew)
        ]
        seed_heats = heats_from_trace(plan, stream[:half])

        static = make_router(database, plan, seed_heats, seed=62)
        static_records = static.retrieve_batch(stream)

        router, plane = controlled_fleet(
            make_client(database, seed=62),
            database,
            plan,
            seed_heats,
            window_seconds=0.2,
            rebalance_interval_seconds=0.4,
            cache_capacity=8,
            dedup=True,
            policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=100.0),
        )
        now = 0.0
        request_ids = []
        for index in stream:
            request_ids.append(router.submit(index, arrival_seconds=now))
            now += 0.05
        router.close()
        live_records = [router.take_record(request_id) for request_id in request_ids]

        assert live_records == static_records
        assert live_records == [database.record(i) for i in stream]
        assert plane.rebalancer.total_migrations >= 1
        assert router.metrics.cache_hits > 0


class TestControlPlaneWiring:
    def test_observer_feeds_tracker_then_rebalances(self):
        database = Database.random(64, 8, seed=78)
        plan = ShardPlan.uniform(database.num_records, 2)
        router = make_router(database, plan, heats=[10.0, 0.0])
        tracker = HeatTracker(plan, window_seconds=0.5)
        rebalancer = Rebalancer(router, tracker, interval_seconds=1.0)
        plane = ControlPlane(tracker, rebalancer=rebalancer)
        router.observers.append(plane)

        ids = []
        now = 0.0
        for index in [40] * 12:  # shard 1 traffic only
            ids.append(router.submit(index, arrival_seconds=now))
            now += 0.25
        router.close()
        assert [router.take_record(i) for i in ids] == [database.record(40)] * 12
        assert tracker.observed_indices == 12
        assert rebalancer.total_migrations >= 1
        assert router.placement_kinds()[1] == "im-pir"
        assert any("rebalance" in line for line in plane.describe())

    def test_controlled_fleet_without_rebalancer_or_cache(self):
        database = Database.random(64, 8, seed=79)
        plan = ShardPlan.uniform(database.num_records, 2)
        router, plane = controlled_fleet(
            make_client(database, seed=63),
            database,
            plan,
            heats=[1.0, 1.0],
            rebalance_interval_seconds=None,
        )
        assert plane.rebalancer is None and plane.cache is None
        assert plane.reports == []
        assert router.retrieve_batch([3]) == [database.record(3)]
        assert plane.tracker.observed_indices == 1


class TestSloBurnHold:
    """An active SLO burn holds every reshape as a ``slo-burn`` verdict."""

    @pytest.fixture(scope="class")
    def database(self):
        return Database.random(128, 16, seed=83)

    def burning(self, now=0.0):
        return HealthSignal(now=now, burning=True, fast_burn=False,
                            active=("lat/slow",))

    def test_migrations_are_pinned_while_burning(self, database):
        plan = ShardPlan.uniform(database.num_records, 4)
        router = make_router(database, plan, heats=[50.0, 0.0, 0.0, 0.0])
        kinds_before = router.placement_kinds()
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(router, tracker)
        tracker.observe_batch([120] * 20, now=0.0)

        report = rebalancer.rebalance(now=0.0, health=self.burning())
        assert report.migrations == []
        held = [v for v in report.suppressed if v.reason == "slo-burn"]
        assert held and all(v.action == "migrate" for v in held)
        assert all(v.saving_seconds == 0.0 and v.transfer_seconds == 0.0
                   for v in held)
        assert router.placement_kinds() == kinds_before
        assert "slo-burn" in report.describe()
        # Traffic is still served exactly through the pinned placements.
        assert router.retrieve_batch([0, 120]) == [
            database.record(0), database.record(120)
        ]

        # The alerts resolve: the held migrations re-propose themselves.
        recovered = rebalancer.rebalance(now=1.0, health=HealthSignal.healthy(1.0))
        assert recovered.migrations
        assert router.placement_kinds() != kinds_before

    def test_splits_are_held_while_burning(self, database):
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        router = make_router(database, plan, heats=[1.0, 1.0])
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(router, tracker, split_heat_share=0.5,
                                max_shards=4)
        tracker.observe_batch([0] * 20 + [56] * 20, now=0.0)

        report = rebalancer.rebalance(now=0.0, health=self.burning())
        assert report.splits == [] and router.plan.version == 0
        held = [v for v in report.suppressed if v.reason == "slo-burn"]
        assert held and held[0].action == "split"
        assert (held[0].start, held[0].stop) == (0, 64)  # the hot shard's range

        recovered = rebalancer.rebalance(now=1.0)  # no health: no hold
        assert recovered.splits and router.plan.version > 0

    def test_merges_are_held_while_burning(self, database):
        plan = ShardPlan.uniform(database.num_records, 4, block_records=8)
        router = make_router(database, plan, heats=[5.0, 0.0, 0.0, 0.0])
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(router, tracker, merge_heat_floor=0.5,
                                min_shards=2)
        tracker.observe_batch([0] * 10, now=0.0)

        report = rebalancer.rebalance(now=0.0, health=self.burning())
        assert report.merges == [] and router.plan.num_shards == 4
        held = [v for v in report.suppressed if v.reason == "slo-burn"]
        assert held and all(v.action == "merge" for v in held)

        recovered = rebalancer.rebalance(now=1.0)
        assert recovered.merges and router.plan.num_shards == 2

    def test_maybe_rebalance_forwards_health(self, database):
        plan = ShardPlan.uniform(database.num_records, 4)
        router = make_router(database, plan, heats=[50.0, 0.0, 0.0, 0.0])
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(router, tracker, interval_seconds=1.0)
        tracker.observe_batch([120] * 20, now=0.0)
        assert rebalancer.maybe_rebalance(0.0, health=self.burning()) is None
        report = rebalancer.maybe_rebalance(1.0, health=self.burning(1.0))
        assert report is not None and report.migrations == []
        assert any(v.reason == "slo-burn" for v in report.suppressed)
