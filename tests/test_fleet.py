"""Fleet routing: capability-aware shard placement and fleet retrieval."""

import pytest

from repro.common.errors import ConfigurationError
from repro.control.telemetry import HeatTracker
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy
from repro.shard.fleet import (
    CandidateKind,
    FleetRouter,
    default_candidates,
    heats_from_trace,
    plan_placements,
    render_placements,
)
from repro.shard.plan import ShardPlan


def make_client(database, seed=41):
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


class TestDefaultCandidates:
    def test_two_pim_deployment_kinds(self):
        candidates = default_candidates()
        kinds = {c.kind: c for c in candidates}
        assert set(kinds) == {"im-pir", "im-pir-streamed"}
        assert kinds["im-pir"].preloaded
        assert not kinds["im-pir-streamed"].preloaded

    def test_streamed_pays_transfer_per_query_preloaded_once(self):
        candidates = {c.kind: c for c in default_candidates()}
        records, size = 4096, 32
        preloaded = candidates["im-pir"]
        streamed = candidates["im-pir-streamed"]
        assert streamed.per_query_seconds(records, size) > preloaded.per_query_seconds(
            records, size
        )
        assert preloaded.preload_seconds(records, size) > 0
        assert streamed.preload_seconds(records, size) == 0.0


class TestPlacements:
    def test_hot_shards_preloaded_cold_shards_streamed(self):
        """The acceptance property: capability metadata routes hot and cold
        shards to different backend kinds."""
        plan = ShardPlan.uniform(4096, 4)
        heats = [500.0, 0.0, 0.0, 300.0]  # shards 0/3 hot, 1/2 cold
        placements = plan_placements(plan, 32, heats)
        kinds = [p.kind for p in placements]
        assert kinds == ["im-pir", "im-pir-streamed", "im-pir-streamed", "im-pir"]
        assert placements[0].preloaded and not placements[1].preloaded
        assert len({p.kind for p in placements}) == 2

    def test_window_cost_is_cheapest_available(self):
        plan = ShardPlan.uniform(1024, 2)
        heats = [100.0, 0.0]
        placements = plan_placements(plan, 32, heats)
        for placement, heat in zip(placements, heats):
            for candidate in default_candidates():
                alternative = candidate.preload_seconds(
                    placement.shard.num_records, 32
                ) + heat * candidate.per_query_seconds(placement.shard.num_records, 32)
                assert placement.window_cost_seconds <= alternative + 1e-12

    def test_empty_shards_are_skipped(self):
        plan = ShardPlan.uniform(2, 5)
        placements = plan_placements(plan, 8, [1.0, 1.0, 0.0, 0.0, 0.0])
        assert len(placements) == 2

    def test_custom_candidates_and_validation(self):
        plan = ShardPlan.uniform(100, 2)
        flat = CandidateKind(
            kind="reference",
            preloaded=True,
            per_query_seconds=lambda n, r: 0.0,
            preload_seconds=lambda n, r: 0.0,
        )
        placements = plan_placements(plan, 8, [1.0, 1.0], candidates=[flat])
        assert all(p.kind == "reference" for p in placements)
        with pytest.raises(ConfigurationError):
            plan_placements(plan, 8, [1.0])  # wrong heat count
        with pytest.raises(ConfigurationError):
            plan_placements(plan, 8, [1.0, -2.0])  # negative heat
        with pytest.raises(ConfigurationError):
            plan_placements(plan, 8, [1.0, 1.0], candidates=[])

    def test_render_placements_mentions_every_shard(self):
        plan = ShardPlan.uniform(1024, 3)
        lines = render_placements(plan_placements(plan, 32, [9.0, 0.0, 2.0]))
        assert len(lines) == 4  # header + one per shard
        assert "kind" in lines[0]


class TestHeatsFromTrace:
    def test_counts_per_owning_shard(self):
        plan = ShardPlan.uniform(100, 4)
        heats = heats_from_trace(plan, [0, 1, 2, 99, 99, 50])
        assert heats == [3.0, 0.0, 1.0, 2.0]

    def test_empty_trace_all_cold(self):
        plan = ShardPlan.uniform(100, 4)
        assert heats_from_trace(plan, []) == [0.0] * 4

    def test_units_agree_with_online_telemetry(self):
        """The docstring's promise — per-window queries per shard — now holds
        by construction: the offline helper routes through the control
        plane's HeatTracker, so a one-window trace and a live tracker fed
        the same indices report identical heats."""
        plan = ShardPlan.uniform(100, 4)
        trace = [0, 1, 2, 99, 99, 50]
        tracker = HeatTracker(plan)
        tracker.observe_batch(trace, now=0.0)
        assert heats_from_trace(plan, trace) == tracker.heats()

    def test_arrival_stamped_trace_matches_live_tracker(self):
        """With arrival stamps the offline helper replays the trace through
        windows/decay, matching a live tracker configured identically."""
        plan = ShardPlan.uniform(100, 4)
        indices = [0, 1, 99, 99, 0, 50]
        arrivals = [0.0, 0.3, 0.6, 0.9, 1.2, 1.5]
        tracker = HeatTracker(plan, window_seconds=0.5, decay=0.5)
        for index, now in zip(indices, arrivals):
            tracker.observe_batch([index], now)
        stamped = heats_from_trace(
            plan, indices, arrival_seconds=arrivals, window_seconds=0.5, decay=0.5
        )
        assert stamped == tracker.heats()
        assert stamped != heats_from_trace(plan, indices)  # one-window counts
        with pytest.raises(ConfigurationError):
            heats_from_trace(plan, indices, arrival_seconds=[0.0])


class TestFleetRouter:
    @pytest.fixture(scope="class")
    def database(self):
        return Database.random(256, 16, seed=52)

    def test_end_to_end_retrieval_with_mixed_kinds(self, database):
        plan = ShardPlan.uniform(database.num_records, 4)
        trace = [3] * 30 + [70] * 20 + [250]  # shards 0/1 hot, 3 barely warm
        heats = heats_from_trace(plan, trace)
        router = FleetRouter(
            make_client(database),
            database,
            plan,
            heats,
            policy=BatchingPolicy(max_batch_size=4),
        )
        kinds = set(router.placement_kinds())
        assert kinds == {"im-pir", "im-pir-streamed"}  # hot and cold differ
        indices = [0, 70, 128, 200, 250, 3]
        records = router.retrieve_batch(indices)
        assert records == [database.record(i) for i in indices]
        assert router.metrics.total_makespan_seconds > 0

    def test_both_replicas_are_fleets_with_same_plan(self, database):
        plan = ShardPlan.uniform(database.num_records, 2)
        router = FleetRouter(
            make_client(database), database, plan, heats=[10.0, 0.0]
        )
        assert len(router.fleets) == 2
        for fleet in router.fleets:
            assert fleet.backend.plan is plan
            member_kinds = [
                child.capabilities().name for _, child in fleet.backend.members
            ]
            assert member_kinds == ["im-pir", "im-pir-streamed"]

    def test_placements_carry_cost_estimates(self, database):
        plan = ShardPlan.uniform(database.num_records, 2)
        router = FleetRouter(make_client(database), database, plan, heats=[10.0, 0.0])
        hot, cold = router.placements
        assert hot.per_query_seconds > 0
        assert hot.window_cost_seconds >= hot.preload_seconds
        assert cold.window_cost_seconds == 0.0
        assert "im-pir" in router.describe_placements()

    def test_plan_must_match_database(self, database):
        with pytest.raises(ConfigurationError):
            FleetRouter(
                make_client(database),
                database,
                ShardPlan.uniform(100, 2),
                heats=[1.0, 1.0],
            )
