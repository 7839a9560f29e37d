"""The closed control loop: damping economics, replica elasticity, the driver.

Covers the three PR-8 pieces in isolation and composed:

* :class:`DampingPolicy` / :class:`ReshapeDamper` — amortization math,
  range cooldowns, and the flap-resistance property the damper exists for
  (an oscillating heat trace reshapes an undamped fleet repeatedly and a
  damped one not at all);
* :class:`AutoscalePolicy` / :class:`ReplicaAutoscaler` — hysteresis bands,
  sustain streaks, bounds and cooldowns, plus the stage/commit journal on
  :class:`ReplicaGroup` that keeps elastic members bit-identical;
* :class:`AsyncControlDriver` — simulated-clock passes through the async
  frontend's writer gate, error survival, and managed lifecycle via
  :meth:`ControlPlane.start_driver`.
"""

import asyncio

import pytest

from repro.common.errors import ConfigurationError
from repro.control.autoscaler import (
    AsyncControlDriver,
    AutoscalePolicy,
    DampingPolicy,
    ReplicaAutoscaler,
    ReshapeDamper,
    best_option,
    kind_window_cost,
)
from repro.control.plane import controlled_fleet
from repro.control.rebalancer import Rebalancer
from repro.control.telemetry import HeatTracker
from repro.dpf.prf import make_prg
from repro.obs import HealthSignal
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy
from repro.shard.fleet import FleetRouter, default_candidates
from repro.shard.plan import ShardPlan


@pytest.fixture(scope="module")
def database():
    return Database.random(128, 16, seed=97)


def make_client(database, seed=31):
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def make_router(database, num_shards=2, heats=None, seed=31, **kwargs):
    plan = ShardPlan.uniform(database.num_records, num_shards)
    return FleetRouter(
        make_client(database, seed=seed),
        database,
        plan,
        heats if heats is not None else [0.0] * num_shards,
        policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=100.0),
        **kwargs,
    )


class TestDampingPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DampingPolicy(amortize_windows=0.0)
        with pytest.raises(ConfigurationError):
            DampingPolicy(cooldown_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            DampingPolicy(shard_overhead_seconds=-0.1)

    def test_defaults_are_valid(self):
        policy = DampingPolicy()
        assert policy.amortize_windows == 4.0
        assert policy.cooldown_seconds == 0.0


class TestReshapeDamper:
    def test_negative_saving_is_suppressed(self):
        damper = ReshapeDamper(DampingPolicy(amortize_windows=100.0))
        verdict = damper.judge("merge", 0, 64, saving_seconds=-0.001,
                               transfer_seconds=0.0, now=0.0)
        assert verdict is not None and verdict.reason == "unamortized"
        assert "damped merge [0,64)" in verdict.describe()

    def test_unamortized_transfer_is_suppressed(self):
        damper = ReshapeDamper(DampingPolicy(amortize_windows=2.0))
        verdict = damper.judge("split", 0, 64, saving_seconds=0.001,
                               transfer_seconds=0.01, now=0.0)
        assert verdict is not None and verdict.reason == "unamortized"

    def test_amortized_action_is_allowed(self):
        damper = ReshapeDamper(DampingPolicy(amortize_windows=4.0))
        assert damper.judge("split", 0, 64, saving_seconds=0.003,
                            transfer_seconds=0.01, now=0.0) is None

    def test_zero_saving_zero_transfer_is_allowed(self):
        """A merge of truly cold shards onto a streamed kind moves no bytes
        and saves nothing — it must stay legal or cold fleets never shrink."""
        damper = ReshapeDamper(DampingPolicy())
        assert damper.judge("merge", 0, 64, saving_seconds=0.0,
                            transfer_seconds=0.0, now=0.0) is None

    def test_cooldown_vetoes_overlapping_ranges_only(self):
        damper = ReshapeDamper(DampingPolicy(cooldown_seconds=10.0))
        damper.note_action(now=0.0, start=0, stop=64)
        hit = damper.judge("split", 32, 96, saving_seconds=1.0,
                           transfer_seconds=0.0, now=5.0)
        assert hit is not None and hit.reason == "cooldown"
        # A disjoint range is untouched by the cooldown.
        assert damper.judge("split", 64, 128, saving_seconds=1.0,
                            transfer_seconds=0.0, now=5.0) is None
        # And the range itself clears once the cooldown elapses.
        assert damper.judge("split", 32, 96, saving_seconds=1.0,
                            transfer_seconds=0.0, now=10.0) is None

    def test_zero_cooldown_never_vetoes(self):
        damper = ReshapeDamper(DampingPolicy(cooldown_seconds=0.0))
        damper.note_action(now=0.0, start=0, stop=128)
        assert not damper.in_cooldown(0.0, 0, 128)


class TestCostHelpers:
    def test_best_option_picks_the_cheapest_candidate(self):
        candidates = default_candidates()
        cost, preload = best_option(candidates, 64, 16, heat=0.0)
        # Cold shard: the streamed kind (no standing copy) must win.
        assert preload == 0.0
        assert cost == kind_window_cost(candidates, "im-pir-streamed", 64, 16, 0.0)
        hot_cost, hot_preload = best_option(candidates, 64, 16, heat=1000.0)
        assert hot_preload > 0.0  # hot shard: preloaded kind wins
        assert hot_cost == kind_window_cost(candidates, "im-pir", 64, 16, 1000.0)

    def test_unknown_kind_and_empty_candidates_raise(self):
        with pytest.raises(ConfigurationError):
            kind_window_cost(default_candidates(), "gpu", 64, 16, 0.0)
        with pytest.raises(ConfigurationError):
            best_option([], 64, 16, 0.0)


class TestAutoscalePolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(target_heat_per_replica=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(target_heat_per_replica=1.0,
                            scale_down_utilization=0.9, scale_up_utilization=0.8)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(target_heat_per_replica=1.0, min_replicas=0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(target_heat_per_replica=1.0,
                            min_replicas=3, max_replicas=2)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(target_heat_per_replica=1.0, sustain_passes=0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(target_heat_per_replica=1.0,
                            evaluation_interval_seconds=0.0)


def make_autoscaler(router, policy=None, heat_indices=(), now=0.0):
    tracker = HeatTracker(router.plan, window_seconds=1.0, decay=0.5)
    if heat_indices:
        tracker.observe_batch(list(heat_indices), now=now)
    policy = policy or AutoscalePolicy(
        target_heat_per_replica=10.0, sustain_passes=2,
        evaluation_interval_seconds=1.0, max_replicas=3,
    )
    return ReplicaAutoscaler(router, tracker, policy), tracker


class TestReplicaAutoscaler:
    def test_initial_count_must_sit_inside_the_bounds(self, database):
        router = make_router(database)
        with pytest.raises(ConfigurationError):
            ReplicaAutoscaler(router, HeatTracker(router.plan), AutoscalePolicy(
                target_heat_per_replica=1.0, min_replicas=2))
        router2 = make_router(database, initial_replicas=3)
        with pytest.raises(ConfigurationError):
            ReplicaAutoscaler(router2, HeatTracker(router2.plan), AutoscalePolicy(
                target_heat_per_replica=1.0, max_replicas=2))

    def test_utilization_is_heat_over_capacity(self, database):
        router = make_router(database)
        autoscaler, tracker = make_autoscaler(router, heat_indices=[0] * 20)
        # 20 observed queries over a capacity of 10 heat x 1 replica.
        assert autoscaler.utilization() == pytest.approx(2.0)

    def test_scale_up_needs_sustained_pressure(self, database):
        router = make_router(database)
        autoscaler, tracker = make_autoscaler(router, heat_indices=[0] * 20)
        assert autoscaler.decide(0.0) is None  # anchors the interval only
        assert autoscaler.decide(0.5) is None  # inside the interval
        assert autoscaler.decide(1.0) is None  # streak 1 of 2
        assert autoscaler.decide(2.0) == "up"  # streak 2 of 2

    def test_dead_zone_resets_the_streaks(self, database):
        router = make_router(database)
        autoscaler, tracker = make_autoscaler(router, heat_indices=[0] * 20)
        autoscaler.decide(0.0)
        assert autoscaler.decide(1.0) is None  # above-band streak 1
        # The next burst rolls the window: the visible estimate decays to 5
        # (util 0.5 — the dead zone between the 0.3 and 0.8 bands), which
        # resets the streak; the burst itself folds in one window later.
        tracker.observe_batch([0] * 40, now=3.0)
        assert autoscaler.decide(3.0) is None  # dead zone: streaks reset
        tracker.observe_batch([], now=4.0)  # folds the burst: heat 22.5
        assert autoscaler.decide(4.0) is None  # streak restarts at 1
        assert autoscaler.decide(5.0) == "up"  # without the reset: at 4.0

    def test_maybe_scale_up_and_down_round_trip(self, database):
        router = make_router(database)
        autoscaler, tracker = make_autoscaler(router, heat_indices=[0] * 20)
        autoscaler.decide(0.0)
        autoscaler.decide(1.0)
        action = autoscaler.maybe_scale(2.0)
        assert action is not None and action.direction == "up"
        assert (action.replicas_before, action.replicas_after) == (1, 2)
        assert router.replica_count == 2
        assert action.transfer_seconds >= 0.0
        assert "scale-up" in action.describe()
        # Retrievals are still exact through the scaled fleet.
        indices = [0, 31, 64, 127]
        assert router.retrieve_batch(indices) == [
            router.replicas[0].database.record(i) for i in indices
        ]
        # Traffic dies; sustained low utilization drains back to one.
        tracker.observe_batch([], now=40.0)  # decay to ~0
        assert autoscaler.decide(40.0) is None  # streak 1 below
        assert autoscaler.maybe_scale(41.0).direction == "down"
        assert router.replica_count == 1
        assert router.retrieve_batch(indices) == [
            router.replicas[0].database.record(i) for i in indices
        ]
        assert [a.direction for a in autoscaler.actions] == ["up", "down"]
        assert autoscaler.last_action.direction == "down"

    def test_bounds_stop_further_actions(self, database):
        router = make_router(database)
        policy = AutoscalePolicy(target_heat_per_replica=1.0, sustain_passes=1,
                                 max_replicas=2)
        autoscaler, tracker = make_autoscaler(router, policy=policy,
                                              heat_indices=[0] * 50)
        autoscaler.decide(0.0)
        assert autoscaler.maybe_scale(1.0).direction == "up"
        assert router.replica_count == 2
        # Still saturated, but the cap holds.
        tracker.observe_batch([0] * 50, now=2.0)
        assert autoscaler.maybe_scale(2.0) is None
        assert router.replica_count == 2

    def test_action_cooldown_blocks_the_next_action(self, database):
        router = make_router(database)
        policy = AutoscalePolicy(target_heat_per_replica=1.0, sustain_passes=1,
                                 max_replicas=4, cooldown_seconds=5.0)
        autoscaler, tracker = make_autoscaler(router, policy=policy,
                                              heat_indices=[0] * 50)
        autoscaler.decide(0.0)
        assert autoscaler.maybe_scale(1.0).direction == "up"
        tracker.observe_batch([0] * 100, now=2.0)
        assert autoscaler.maybe_scale(2.0) is None  # inside the cooldown
        tracker.observe_batch([0] * 400, now=7.0)
        assert autoscaler.maybe_scale(7.0).direction == "up"  # cooldown over
        assert router.replica_count == 3

    def test_unknown_decision_raises(self, database):
        router = make_router(database)
        autoscaler, _ = make_autoscaler(router)
        with pytest.raises(ConfigurationError):
            autoscaler.apply("sideways", now=0.0)


def burning(now=0.0, fast=False):
    return HealthSignal(
        now=now, burning=True, fast_burn=fast,
        active=("lat/fast",) if fast else ("lat/slow",),
    )


class TestSloEscalation:
    def test_fast_burn_scales_up_without_interval_or_streak(self, database):
        router = make_router(database)
        autoscaler, _ = make_autoscaler(router)  # zero heat: bands never fire
        action = autoscaler.maybe_scale(0.0, health=burning(fast=True))
        assert action is not None and action.direction == "up"
        assert action.reason == "slo-escalated"
        assert "slo-escalated" in action.describe()
        assert router.replica_count == 2

    def test_slow_burn_alone_does_not_escalate(self, database):
        router = make_router(database)
        autoscaler, _ = make_autoscaler(router)
        assert autoscaler.maybe_scale(0.0, health=burning(fast=False)) is None
        assert router.replica_count == 1

    def test_escalation_respects_max_replicas(self, database):
        router = make_router(database)
        policy = AutoscalePolicy(target_heat_per_replica=10.0, max_replicas=1)
        autoscaler, _ = make_autoscaler(router, policy=policy)
        assert autoscaler.maybe_scale(0.0, health=burning(fast=True)) is None
        assert router.replica_count == 1

    def test_escalation_respects_the_action_cooldown(self, database):
        router = make_router(database)
        policy = AutoscalePolicy(target_heat_per_replica=10.0, max_replicas=4,
                                 cooldown_seconds=5.0)
        autoscaler, _ = make_autoscaler(router, policy=policy)
        assert autoscaler.maybe_scale(0.0, health=burning(fast=True)).reason == (
            "slo-escalated"
        )
        # An unresolved burn retries every pass but waits out the cooldown.
        assert autoscaler.maybe_scale(1.0, health=burning(fast=True)) is None
        assert autoscaler.maybe_scale(5.0, health=burning(fast=True)) is not None
        assert router.replica_count == 3

    def test_band_scaling_after_escalation_keeps_utilization_reason(self, database):
        router = make_router(database)
        policy = AutoscalePolicy(target_heat_per_replica=1.0, sustain_passes=1,
                                 max_replicas=4)
        autoscaler, tracker = make_autoscaler(router, policy=policy,
                                              heat_indices=[0] * 50)
        autoscaler.maybe_scale(0.0, health=burning(fast=True))
        autoscaler.decide(1.0)  # anchor the evaluation interval
        tracker.observe_batch([0] * 50, now=2.0)
        action = autoscaler.maybe_scale(2.0)
        assert action is not None and action.reason == "utilization"

    def test_any_burn_vetoes_scale_down_but_keeps_the_streak(self, database):
        router = make_router(database, initial_replicas=2)
        autoscaler, _ = make_autoscaler(router)  # zero heat: below the band
        autoscaler.decide(0.0)  # anchors the interval
        assert autoscaler.decide(1.0) is None  # streak 1 of 2
        # Streak 2 of 2, but the budget is burning: capacity is held.
        assert autoscaler.decide(2.0, health=burning(fast=False)) is None
        assert router.replica_count == 2
        # The alert resolves; the preserved streak drains promptly.
        healthy = HealthSignal.healthy(3.0)
        assert autoscaler.maybe_scale(3.0, health=healthy).direction == "down"
        assert router.replica_count == 1


class TestReplicaGroupJournal:
    def test_stage_journals_updates_and_commit_replays_them(self, database):
        router = make_router(database)
        staged = router.stage_replicas()
        # Writes land while the staging is out: journaled *and* applied.
        new_bytes = bytes(16)
        router.apply_updates([(3, new_bytes)])
        members = router.commit_replicas(staged)
        assert router.replica_count == 2
        # The replayed member serves the post-update bytes.
        for member in members:
            assert member.database.record(3) == new_bytes
        assert router.retrieve_batch([3]) == [new_bytes]
        # Journals are cleared once the last stage closed.
        for group in router.replicas:
            assert group.updates_since(0) == []

    def test_commit_after_topology_move_abandons_and_raises(self, database):
        router = make_router(database, heats=[30.0, 0.0])
        staged = router.stage_replicas()
        tracker = HeatTracker(router.plan)
        tracker.observe_batch([0] * 40, now=0.0)
        rebalancer = Rebalancer(router, tracker, split_heat_share=0.5,
                                max_shards=4)
        report = rebalancer.rebalance(now=0.0)
        assert report.splits  # the plan moved underneath the staging
        with pytest.raises(ConfigurationError, match="re-stage"):
            router.commit_replicas(staged)
        assert staged.closed and not staged.committed
        assert router.replica_count == 1
        # A fresh staging against the new plan commits fine.
        router.commit_replicas(router.stage_replicas())
        assert router.replica_count == 2

    def test_abandon_is_idempotent_and_blocks_commit(self, database):
        router = make_router(database)
        staged = router.stage_replicas()
        router.abandon_replicas(staged)
        router.abandon_replicas(staged)  # second call is a no-op
        with pytest.raises(ConfigurationError):
            router.commit_replicas(staged)
        assert router.replica_count == 1

    def test_drain_refuses_the_last_member(self, database):
        router = make_router(database)
        with pytest.raises(ConfigurationError):
            router.drain_replica()

    def test_add_and_drain_round_trip_with_updates(self, database):
        router = make_router(database)
        router.add_replica()
        assert router.replica_count == 2
        new_bytes = bytes(range(16))
        router.apply_updates([(7, new_bytes)])
        # Both members of each group saw the update.
        for group in router.replicas:
            for member in group.members:
                assert member.database.record(7) == new_bytes
        drained = router.drain_replica()
        assert router.replica_count == 1
        assert len(drained) == 2  # one per trust domain
        assert router.retrieve_batch([7]) == [new_bytes]

    def test_reconfiguration_metric_counts_elastic_actions(self, database):
        router = make_router(database)
        before = router.metrics.reconfigurations
        router.add_replica()
        router.drain_replica()
        assert router.metrics.reconfigurations == before + 2


class TestFlapResistance:
    """The satellite property: borderline heat must not flap the topology."""

    def oscillate(self, database, damping):
        router = make_router(database, num_shards=2)
        tracker = HeatTracker(router.plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(
            router, tracker, interval_seconds=1.0,
            split_heat_share=0.5, merge_heat_floor=8.0,
            min_shards=2, max_shards=8, damping=damping,
        )
        now = 0.0
        for _ in range(4):
            # Hot burst spread across the first shard (so a split's halves
            # would share the heat evenly), then silence long enough for
            # decay to drag the heat back under the merge floor.
            tracker.observe_batch([i % 64 for i in range(24)], now=now)
            rebalancer.rebalance(now=now)
            now += 4.0
            tracker.observe_batch([], now=now)
            rebalancer.rebalance(now=now)
            now += 4.0
        return rebalancer

    def test_undamped_fleet_flaps(self, database):
        rebalancer = self.oscillate(database, damping=None)
        assert rebalancer.total_splits + rebalancer.total_merges > 0
        assert rebalancer.total_suppressed == 0

    def test_damped_fleet_holds_the_topology(self, database):
        damping = DampingPolicy(amortize_windows=0.5, cooldown_seconds=16.0,
                                shard_overhead_seconds=1e-4)
        rebalancer = self.oscillate(database, damping=damping)
        assert rebalancer.total_splits + rebalancer.total_merges == 0
        assert rebalancer.total_suppressed > 0
        # Suppressions surface on the reports, with their economics.
        suppressed = [v for r in rebalancer.reports for v in r.suppressed]
        assert any(v.reason in ("unamortized", "cooldown") for v in suppressed)
        assert any("damped" in line
                   for r in rebalancer.reports if r.suppressed
                   for line in [r.describe()])

    def test_damped_and_undamped_fleets_serve_identical_records(self, database):
        damped = self.oscillate(
            database, DampingPolicy(amortize_windows=0.5, cooldown_seconds=16.0,
                                shard_overhead_seconds=1e-4)
        )
        undamped = self.oscillate(database, damping=None)
        indices = list(range(0, 128, 11))
        expected = [database.record(i) for i in indices]
        assert damped.router.retrieve_batch(indices) == expected
        assert undamped.router.retrieve_batch(indices) == expected


class SimClock:
    """A settable clock the driver polls instead of the event loop's."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAsyncControlDriver:
    def test_clock_is_mandatory_and_interval_positive(self, database):
        router = make_router(database)
        with pytest.raises(ConfigurationError):
            AsyncControlDriver(object(), object(), 1.0, clock=None)
        with pytest.raises(ConfigurationError):
            AsyncControlDriver(object(), object(), 0.0, clock=lambda: 0.0)

    def build_controlled(self, database, sustain=1, observer_driven=False):
        client = make_client(database)
        plan = ShardPlan.uniform(database.num_records, 2)
        router, plane = controlled_fleet(
            client, database, plan, heats=[0.0, 0.0],
            window_seconds=1.0, decay=0.5,
            rebalance_interval_seconds=1.0,
            autoscale=AutoscalePolicy(
                target_heat_per_replica=5.0, sustain_passes=sustain,
                evaluation_interval_seconds=1.0, max_replicas=2,
            ),
            observer_driven=observer_driven,
            policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=0.02),
        )
        frontend = AsyncPIRFrontend(
            client, router.replicas,
            policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=0.02),
            observers=[plane],
        )
        return router, plane, frontend

    def test_run_once_scales_up_through_the_gate(self, database):
        async def run():
            router, plane, frontend = self.build_controlled(database)
            driver = AsyncControlDriver(
                plane, frontend, interval_seconds=1.0, clock=lambda: 0.0
            )
            plane.tracker.observe_batch([0] * 40, now=0.0)
            await driver.run_once(0.0)  # anchors the autoscaler interval
            report, action = await driver.run_once(1.0)
            records = await asyncio.gather(*(frontend.submit(i) for i in (1, 127)))
            return router, driver, action, records

        router, driver, action, records = asyncio.run(run())
        assert action is not None and action.direction == "up"
        assert router.replica_count == 2
        assert driver.passes == 2
        assert records == [database.record(1), database.record(127)]

    def test_managed_driver_scales_under_live_traffic(self, database):
        async def run():
            router, plane, frontend = self.build_controlled(database)
            clock = SimClock()

            async def sleep(seconds):
                clock.now += seconds
                await asyncio.sleep(0)

            driver = plane.start_driver(
                frontend, interval_seconds=1.0, clock=clock, sleep=sleep
            )
            assert plane.observer_driven is False
            assert driver.running
            with pytest.raises(ConfigurationError):
                driver.start()  # a second start would race the gate
            records = []
            for _ in range(12):
                batch = await asyncio.gather(
                    *(frontend.submit(i) for i in (0, 1, 2, 3))
                )
                records.extend(batch)
                await asyncio.sleep(0.01)
            await plane.stop_driver()
            return router, plane, driver, records

        router, plane, driver, records = asyncio.run(run())
        assert not driver.running
        assert driver.passes > 0
        assert not driver.errors
        assert router.replica_count == 2  # sustained pressure scaled it up
        assert plane.autoscaler.last_action.direction == "up"
        expected = [database.record(i) for i in (0, 1, 2, 3)] * 12
        assert records == expected

    def test_driver_survives_failing_passes(self, database):
        async def run():
            router, plane, frontend = self.build_controlled(database)

            class Boom(Exception):
                pass

            def explode(now):
                raise Boom("control pass failed")

            plane.rebalancer.maybe_rebalance = explode
            clock = SimClock()

            async def sleep(seconds):
                clock.now += seconds
                await asyncio.sleep(0)

            driver = plane.start_driver(
                frontend, interval_seconds=1.0, clock=clock, sleep=sleep
            )
            for _ in range(5):
                await asyncio.sleep(0.005)
            record = await frontend.submit(9)
            await plane.stop_driver()
            return driver, record

        driver, record = asyncio.run(run())
        assert driver.errors  # the failures were kept, not fatal
        assert record == database.record(9)  # and the data plane kept serving

    def test_describe_reports_the_autoscaler(self, database):
        router, plane, frontend = self.build_controlled(
            database, observer_driven=True
        )
        plane.tracker.observe_batch([0] * 40, now=0.0)
        plane.control_pass(0.0)
        plane.control_pass(1.0)
        lines = "\n".join(plane.describe())
        assert "autoscaler: 2 live replica(s)" in lines
        assert "last action: scale-up" in lines


class TestElasticCloseHygiene:
    """Retired replicas must release their scan resources: both the drain
    path and an abandoned staging close every member they retire."""

    @staticmethod
    def _record_close(member, closed):
        original = member.backend.close

        def recording_close(member=member, original=original):
            closed.append(member)
            original()

        member.backend.close = recording_close

    def test_drain_closes_the_retired_members(self, database):
        router = make_router(database)
        router.add_replica()
        newest = [group.members[-1] for group in router.replicas]
        closed = []
        for member in newest:
            self._record_close(member, closed)
        drained = router.drain_replica()
        assert drained == newest
        assert closed == newest

    def test_abandon_closes_the_staged_members(self, database):
        router = make_router(database)
        staged = router.stage_replicas()
        closed = []
        for member in staged.members:
            self._record_close(member, closed)
        router.abandon_replicas(staged)
        assert closed == list(staged.members)
        # The surviving replica is untouched and still serves.
        assert router.replica_count == 1
        record = database.record(5)
        assert router.retrieve_batch([5]) == [record]
