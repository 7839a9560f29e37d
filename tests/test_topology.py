"""Versioned shard topology: split/merge transforms, live reshape, heat remap.

The topology lifecycle cut through every layer: pure plan transforms
(``split_shard``/``merge_shards`` + :class:`TopologyChange`), the backend's
atomic ``apply_topology`` swap, the tracker's window remap (heat survives a
reshape, never resets), the rebalancer's plan-shape policy, and the
frontends' reconfigure gates — with retrievals bit-identical to a static
fleet throughout, which is the property everything else exists to protect.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.control.plane import controlled_fleet
from repro.control.rebalancer import Rebalancer
from repro.control.telemetry import HeatTracker
from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy, PIRFrontend
from repro.shard.backend import ShardedBackend, bare_backend_factory
from repro.shard.fleet import FleetRouter, heats_from_trace, plan_placements
from repro.shard.plan import ShardPlan, TopologyChange
from repro.workloads.traces import zipf_trace


def make_client(database, seed=91):
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


class TestPlanTransforms:
    def test_split_produces_versioned_block_aligned_plan(self):
        plan = ShardPlan.uniform(64, 2, block_records=8)
        change = plan.split_shard(0, 16)
        assert change.old_plan is plan
        assert change.new_plan.version == plan.version + 1
        assert [(s.start, s.stop) for s in change.new_plan.shards] == [
            (0, 16), (16, 32), (32, 64)
        ]
        # Pure: the old plan is untouched, indices re-derived contiguously.
        assert [(s.start, s.stop) for s in plan.shards] == [(0, 32), (32, 64)]
        assert [s.index for s in change.new_plan.shards] == [0, 1, 2]

    def test_split_rejects_boundary_cuts_as_noops(self):
        plan = ShardPlan.uniform(64, 2, block_records=8)
        for at in (0, 32):  # == start and == stop of shard 0
            with pytest.raises(ConfigurationError, match="no-op"):
                plan.split_shard(0, at)

    def test_split_rejects_unaligned_and_out_of_range(self):
        plan = ShardPlan.uniform(64, 2, block_records=8)
        with pytest.raises(ConfigurationError, match="block boundary"):
            plan.split_shard(0, 12)
        with pytest.raises(ConfigurationError, match="out of range"):
            plan.split_shard(5, 8)

    def test_merge_adjacent_shards(self):
        plan = ShardPlan.uniform(64, 4, block_records=8)
        change = plan.merge_shards(1, 2)
        assert change.new_plan.num_shards == 3
        assert (change.new_plan.shards[1].start, change.new_plan.shards[1].stop) == (
            16, 48,
        )
        assert change.new_plan.version == plan.version + 1

    def test_merge_rejects_non_adjacent_and_out_of_range(self):
        plan = ShardPlan.uniform(64, 4, block_records=8)
        with pytest.raises(ConfigurationError, match="adjacent"):
            plan.merge_shards(0, 2)
        with pytest.raises(ConfigurationError, match="out of range"):
            plan.merge_shards(3, 4)

    def test_merge_empty_trailing_shard(self):
        # More shards than records: trailing shards are empty (stop, stop).
        plan = ShardPlan.uniform(10, 5, block_records=8)
        assert plan.shards[-1].is_empty
        change = plan.merge_shards(3, 4)
        assert change.new_plan.num_shards == 4
        assert change.new_plan.shards[-1].is_empty  # still an empty tail
        # Folding an empty tail into a non-empty neighbour works too.
        change2 = change.new_plan.merge_shards(1, 2)
        assert change2.new_plan.shards[1].num_records == 2

    def test_split_then_merge_round_trips_boundaries(self):
        plan = ShardPlan.uniform(64, 2, block_records=8)
        split = plan.split_shard(1, 48)
        merged = split.new_plan.merge_shards(1, 2)
        assert merged.new_plan.same_boundaries(plan)
        assert merged.new_plan.version == plan.version + 2  # versions never rewind


class TestTopologyChange:
    def test_split_mapping(self):
        plan = ShardPlan.uniform(64, 2, block_records=8)
        change = plan.split_shard(0, 16)
        assert change.new_for_old == ((0, 1), (2,))
        assert change.old_for_new == ((0,), (0,), (1,))
        assert change.unchanged_pairs() == ((1, 2),)
        assert change.changed_new_indices() == (0, 1)

    def test_merge_mapping(self):
        plan = ShardPlan.uniform(64, 4, block_records=8)
        change = plan.merge_shards(1, 2)
        assert change.new_for_old == ((0,), (1,), (1,), (2,))
        assert change.old_for_new == ((0,), (1, 2), (3,))
        assert dict(change.unchanged_pairs()) == {0: 0, 3: 2}
        assert change.changed_new_indices() == (1,)

    def test_compose_chains_transforms(self):
        plan = ShardPlan.uniform(64, 2, block_records=8)
        first = plan.split_shard(0, 16)
        second = first.new_plan.merge_shards(1, 2)
        overall = first.compose(second)
        assert overall.old_plan is plan
        assert overall.new_plan is second.new_plan
        assert overall.new_plan.version == plan.version + 2
        # The fused mapping is re-derived from the tilings directly:
        # [0,16) came from old shard 0, [16,64) from old shards 0 and 1.
        assert overall.old_for_new == ((0,), (0, 1))

    def test_compose_rejects_out_of_order_chaining(self):
        plan = ShardPlan.uniform(64, 2, block_records=8)
        first = plan.split_shard(0, 16)
        unrelated = plan.split_shard(1, 48)
        with pytest.raises(ConfigurationError, match="compose"):
            first.compose(unrelated)

    def test_rejects_incompatible_plans(self):
        plan = ShardPlan.uniform(64, 2, block_records=8)
        other_size = replace(ShardPlan.uniform(32, 2, block_records=8), version=1)
        with pytest.raises(ConfigurationError, match="record count"):
            TopologyChange(old_plan=plan, new_plan=other_size)
        stale = ShardPlan.uniform(64, 4, block_records=8)  # same version
        with pytest.raises(ConfigurationError, match="versions increase"):
            TopologyChange(old_plan=plan, new_plan=stale)


class TestBackendApplyTopology:
    @pytest.fixture(scope="class")
    def database(self):
        return Database.random(64, 8, seed=92)

    def make_server(self, database, plan, server_id=0):
        return create_server(
            "sharded",
            database,
            server_id=server_id,
            plan=plan,
        )

    def frontend_records(self, database, plan, indices, reshape=None, seed=93):
        """Retrieve ``indices`` through a 2-replica sharded frontend,
        optionally reshaping both replicas (via ``reshape(server)``) first."""
        replicas = [self.make_server(database, plan, server_id=i) for i in (0, 1)]
        if reshape is not None:
            for replica in replicas:
                reshape(replica)
        frontend = PIRFrontend(
            make_client(database, seed=seed),
            replicas,
            policy=BatchingPolicy(max_batch_size=len(indices)),
        )
        return frontend.retrieve_batch(indices)

    def test_split_and_merge_preserve_retrievals_bit_for_bit(self, database):
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        indices = [0, 15, 16, 31, 32, 63]
        expected = [database.record(i) for i in indices]
        assert self.frontend_records(database, plan, indices) == expected

        def split(server):
            server.backend.apply_topology(server.backend.plan.split_shard(0, 16))

        def merge(server):
            server.backend.apply_topology(server.backend.plan.merge_shards(0, 1))

        assert self.frontend_records(database, plan, indices, reshape=split) == expected
        assert self.frontend_records(database, plan, indices, reshape=merge) == expected

    def test_unchanged_children_are_reused(self, database):
        plan = ShardPlan.uniform(database.num_records, 4, block_records=8)
        server = self.make_server(database, plan)
        children_before = {
            shard.index: child for shard, child in server.backend.members
        }
        server.backend.apply_topology(server.backend.plan.split_shard(0, 8))
        children_after = dict(
            (shard.index, child) for shard, child in server.backend.members
        )
        # Shards 1..3 survived as new indices 2..4 with the same child object.
        for old_index, new_index in ((1, 2), (2, 3), (3, 4)):
            assert children_after[new_index] is children_before[old_index]
        # The split halves got fresh children.
        assert children_after[0] is not children_before[0]
        assert children_after[1] is not children_before[0]

    def test_members_is_an_immutable_snapshot(self, database):
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        server = self.make_server(database, plan)
        snapshot = server.backend.members
        assert isinstance(snapshot, tuple)
        with pytest.raises(TypeError):
            snapshot[0] = None
        # The snapshot does not follow a reshape; a re-read does.
        server.backend.apply_topology(server.backend.plan.split_shard(0, 16))
        assert len(snapshot) == 2
        assert len(server.backend.members) == 3

    def test_stale_change_rejected(self, database):
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        server = self.make_server(database, plan)
        stale = plan.split_shard(0, 16)
        server.backend.apply_topology(stale)
        # Replaying the same change (or any change built on v0) must fail:
        # the backend now runs v1.
        with pytest.raises(ConfigurationError, match="version"):
            server.backend.apply_topology(stale)

    def test_unprepared_backend_rejects_topology(self, database):
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        backend = ShardedBackend(bare_backend_factory("reference"), plan=plan)
        with pytest.raises(ProtocolError):
            backend.apply_topology(plan.split_shard(0, 16))

    def test_apply_updates_routes_through_the_new_plan(self, database):
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        server = self.make_server(database, plan)
        server.backend.apply_topology(server.backend.plan.split_shard(0, 16))
        new_record = bytes(range(8))
        server.apply_updates([(3, new_record)])
        client = make_client(database)
        queries = client.query(3)
        answers = [server.answer(q).answer for q in queries if q.server_id == 0]
        assert server.backend.plan.shard_for_record(3).stop == 16  # owned by a split half
        assert server.database.record(3) == new_record
        assert len(answers) == 1

    def test_reshape_between_mid_window_updates(self, database):
        """Split/merge interleaved with apply_updates: updates before the
        reshape land in the children the reshape re-slices; updates after
        route through the new plan; retrievals stay exact throughout."""
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        before = bytes(8)
        middle = bytes([1] * 8)
        after = bytes([2] * 8)

        def reshaped_records(indices):
            replicas = [self.make_server(database, plan, server_id=i) for i in (0, 1)]
            for replica in replicas:
                replica.apply_updates([(0, before), (40, before)])
                replica.backend.apply_topology(replica.backend.plan.split_shard(0, 16))
                replica.apply_updates([(0, middle)])
                replica.backend.apply_topology(replica.backend.plan.merge_shards(1, 2))
                replica.apply_updates([(40, after)])
            frontend = PIRFrontend(
                make_client(database, seed=94),
                replicas,
                policy=BatchingPolicy(max_batch_size=len(indices)),
            )
            return frontend.retrieve_batch(indices)

        assert reshaped_records([0, 40, 63]) == [middle, after, database.record(63)]

    def test_reprepare_keeps_the_reshaped_topology(self, database):
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        server = self.make_server(database, plan)
        server.backend.apply_topology(server.backend.plan.split_shard(0, 16))
        reshaped = server.backend.plan
        server.backend.prepare(database)
        assert server.backend.plan is reshaped  # not resurrected to the seed plan


class TestHeatRemap:
    def test_split_divides_by_measured_record_rates(self):
        plan = ShardPlan.uniform(64, 1, block_records=8)
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        tracker.observe_batch([2] * 30 + [50] * 10, now=0.0)
        tracker.observe_batch([2] * 30 + [50] * 10, now=1.0)  # roll a window
        total_before = sum(tracker.heats())
        change = plan.split_shard(0, 32)
        tracker.remap(change)
        heats = tracker.heats()
        assert heats == pytest.approx([0.75 * total_before, 0.25 * total_before])
        assert tracker.plan is change.new_plan
        assert sum(heats) == pytest.approx(total_before)  # conservation

    def test_merge_sums_heat(self):
        plan = ShardPlan.uniform(64, 2, block_records=8)
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        tracker.observe_batch([0] * 6 + [40] * 4, now=0.0)
        tracker.remap(plan.merge_shards(0, 1))
        assert tracker.heats() == [10.0]

    def test_live_window_and_smoothed_estimate_both_survive(self):
        plan = ShardPlan.uniform(64, 1, block_records=8)
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        tracker.observe_batch([0] * 8, now=0.0)
        tracker.observe_batch([0] * 4, now=1.0)  # rolls: smoothed=8, window=4
        tracker.remap(plan.split_shard(0, 32))
        assert tracker.heats()[0] == pytest.approx(8.0)  # smoothed carried
        tracker.advance(2.0)  # roll the live window into the estimate
        assert tracker.heats()[0] == pytest.approx(0.5 * 8 + 0.5 * 4)

    def test_cold_shard_splits_proportionally_to_records(self):
        plan = ShardPlan.uniform(64, 1, block_records=8)
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        tracker.remap(plan.split_shard(0, 16))
        assert tracker.heats() == [0.0, 0.0]  # nothing to divide, no crash

    def test_remap_rejects_stale_plan(self):
        plan = ShardPlan.uniform(64, 2, block_records=8)
        tracker = HeatTracker(plan)
        change = plan.split_shard(0, 16)
        tracker.remap(change)
        with pytest.raises(ConfigurationError, match="version"):
            tracker.remap(change)  # tracker moved on to v1

    def test_split_point_is_the_block_aligned_heat_median(self):
        plan = ShardPlan.uniform(64, 1, block_records=8)
        tracker = HeatTracker(plan)
        tracker.observe_batch([4] * 10 + [20] * 10 + [60] * 20, now=0.0)
        # Cumulative heat reaches exactly half (20 of 40) left of 24; among
        # the tied boundaries 24..56 the smallest equal-load cut wins.
        assert tracker.split_point(0) == 24

    def test_split_point_tie_isolates_the_hot_block(self):
        # All heat inside one block: no cut divides it, so the tie must
        # break toward the cut isolating the hot block, not a cold sliver.
        plan = ShardPlan.uniform(64, 1, block_records=8)
        tracker = HeatTracker(plan)
        tracker.observe_batch([58] * 40, now=0.0)
        assert tracker.split_point(0) == 56

    def test_split_point_without_heat_falls_back_to_midpoint(self):
        plan = ShardPlan.uniform(64, 1, block_records=8)
        tracker = HeatTracker(plan)
        assert tracker.split_point(0) == 32

    def test_split_point_single_block_shard_returns_none(self):
        plan = ShardPlan.uniform(16, 2, block_records=8)
        tracker = HeatTracker(plan)
        tracker.observe_batch([0] * 5, now=0.0)
        assert tracker.split_point(0) is None


class TestPlanShapePolicy:
    @pytest.fixture(scope="class")
    def database(self):
        return Database.random(128, 8, seed=95)

    def make_router(self, database, plan, heats, seed=96, **kwargs):
        return FleetRouter(
            make_client(database, seed=seed),
            database,
            plan,
            heats,
            policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=100.0),
            **kwargs,
        )

    def test_hot_shard_splits_at_its_heat_median(self, database):
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        router = self.make_router(database, plan, heats=[1.0, 1.0])
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(
            router, tracker, split_heat_share=0.5, max_shards=4
        )
        tracker.observe_batch([0] * 20 + [56] * 20, now=0.0)
        report = rebalancer.rebalance(now=0.0)
        assert len(report.splits) >= 1
        assert report.splits[0].shard.index == 0
        assert report.topology is not None
        assert router.plan.version > 0
        assert router.plan is tracker.plan
        assert sum(report.heats) == pytest.approx(40.0)  # remapped, not reset
        # The reshaped fleet still serves exact records on both sides.
        indices = [0, 56, 127]
        assert router.retrieve_batch(indices) == [database.record(i) for i in indices]

    def test_cold_adjacent_shards_merge_down_to_min(self, database):
        plan = ShardPlan.uniform(database.num_records, 4, block_records=8)
        router = self.make_router(database, plan, heats=[5.0, 0.0, 0.0, 0.0])
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(
            router, tracker, merge_heat_floor=0.5, min_shards=2
        )
        tracker.observe_batch([0] * 10, now=0.0)  # shards 1..3 stay cold
        report = rebalancer.rebalance(now=0.0)
        assert len(report.merges) == 2  # 4 -> 2, bounded by min_shards
        assert router.plan.num_shards == 2
        indices = [0, 50, 100, 127]
        assert router.retrieve_batch(indices) == [database.record(i) for i in indices]

    def test_bounds_respected(self, database):
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        router = self.make_router(database, plan, heats=[1.0, 1.0])
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(
            router, tracker, split_heat_share=0.2, max_shards=3
        )
        # Heat spread over many blocks invites repeated splits; the bound
        # must stop the pass at 3 shards.
        tracker.observe_batch(list(range(0, 128, 4)) * 3, now=0.0)
        rebalancer.rebalance(now=0.0)
        assert router.plan.num_shards <= 3

    def test_failed_apply_rolls_back_whole_pass(self, database):
        """A reshape that dies on the *second* replica fleet must leave the
        first fleet, the router and the tracker all on the old plan (the
        stage-all-then-commit-all apply plus the tracker rollback), and
        the next pass must genuinely recover."""
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        router = self.make_router(database, plan, heats=[1.0, 1.0])
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(
            router, tracker, split_heat_share=0.5, max_shards=4
        )
        tracker.observe_batch([0] * 20 + [56] * 20, now=0.0)

        def failing_stage(change, child_factory=None):
            raise RuntimeError("replica 1 died standing up a split half")

        router.fleets[1].backend.stage_topology = failing_stage
        with pytest.raises(RuntimeError):
            rebalancer.rebalance(now=0.0)
        # Nothing committed anywhere: replica 0 staged but never swapped.
        assert all(fleet.backend.plan.version == 0 for fleet in router.fleets)
        assert tracker.plan is router.plan  # rolled back beside the router
        assert sum(tracker.heats()) == pytest.approx(40.0)
        indices = [0, 56, 127]
        assert router.retrieve_batch(indices) == [database.record(i) for i in indices]
        # With the fault cleared, the next pass reshapes normally.
        del router.fleets[1].backend.stage_topology
        report = rebalancer.rebalance(now=1.0)
        assert report.splits
        assert router.plan is tracker.plan
        assert all(fleet.backend.plan is router.plan for fleet in router.fleets)

    def test_diverged_tracker_and_router_raise(self, database):
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        router = self.make_router(database, plan, heats=[1.0, 1.0])
        tracker = HeatTracker(plan)
        rebalancer = Rebalancer(router, tracker)
        tracker.remap(plan.split_shard(0, 32))  # reshaped behind the router's back
        with pytest.raises(ConfigurationError, match="diverged"):
            rebalancer.rebalance(now=0.0)

    def test_placement_heat_length_mismatch_is_a_clear_error(self, database):
        plan = ShardPlan.uniform(database.num_records, 4, block_records=8)
        with pytest.raises(ConfigurationError, match="4 shards"):
            plan_placements(plan, database.record_size, heats=[1.0, 2.0])

    def test_live_reshape_bit_equivalence_under_drifting_zipf(self, database):
        """The acceptance property: a fleet splitting and merging online
        under a drifting Zipf returns byte-for-byte the records of a
        static fleet, and heat survives every topology version change."""
        plan = ShardPlan.uniform(database.num_records, 4, block_records=8)
        first, last = plan.shards[0], plan.shards[-1]
        half = 48
        skew = zipf_trace(database.num_records, 2 * half, exponent=1.4, seed=97)
        offsets = [first.start] * half + [last.start] * half
        stream = [
            (offset + index) % database.num_records
            for offset, index in zip(offsets, skew)
        ]
        seed_heats = heats_from_trace(
            plan,
            stream[:half],
            arrival_seconds=[0.02 * i for i in range(half)],
            window_seconds=0.2,
        )
        static = self.make_router(database, plan, seed_heats, seed=98)
        static_records = static.retrieve_batch(stream)

        router, plane = controlled_fleet(
            make_client(database, seed=98),
            database,
            plan,
            seed_heats,
            window_seconds=0.2,
            rebalance_interval_seconds=0.4,
            split_heat_share=0.5,
            merge_heat_floor=0.5,
            min_shards=2,
            max_shards=8,
            policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=100.0),
        )
        now = 0.0
        request_ids = []
        for index in stream:
            request_ids.append(router.submit(index, arrival_seconds=now))
            now += 0.02
        router.close()
        live_records = [router.take_record(rid) for rid in request_ids]

        assert live_records == static_records
        rebalancer = plane.rebalancer
        assert rebalancer.total_splits >= 1
        assert rebalancer.total_merges >= 1
        assert router.plan.version >= 2
        for report in rebalancer.reports:
            if report.splits or report.merges:
                assert sum(report.heats) > 0  # carried across the reshape


class TestAsyncReconfigure:
    def test_topology_swap_through_the_writer_quiesce(self):
        """An async deployment reshapes through ``reconfigure``: the change
        lands between flushes and later submits see the new topology."""
        database = Database.random(64, 8, seed=99)
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        replicas = [
            create_server(
                "sharded",
                database,
                server_id=i,
                plan=plan,
            )
            for i in (0, 1)
        ]
        frontend = AsyncPIRFrontend(
            make_client(database, seed=100),
            replicas,
            policy=BatchingPolicy(max_batch_size=2, max_wait_seconds=0.01),
        )

        async def run():
            before = await frontend.retrieve_batch([0, 40])

            def reshape():
                change = replicas[0].backend.plan.split_shard(0, 16)
                for replica in replicas:
                    replica.backend.apply_topology(change)
                return change.new_plan.version

            version = await frontend.reconfigure(reshape)
            after = await frontend.retrieve_batch([0, 40])
            return before, after, version

        before, after, version = asyncio.run(run())
        assert version == 1
        assert before == after == [database.record(0), database.record(40)]
        assert all(replica.backend.plan.version == 1 for replica in replicas)
