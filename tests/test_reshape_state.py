"""What a reshape leaves behind: heat follows the plan, a failed pass leaves nothing.

Heat is kept per record and record indices do not move when shards are
split or merged, so a tracker remapped through any sequence of topology
changes must read exactly like a tracker built on the final plan that saw
the same traffic.  And a reshape pass whose data-plane apply fails must
leave no trace in the control plane: the tracker back on the running plan,
and no cooldown for a split that never happened.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.autoscaler import DampingPolicy
from repro.control.rebalancer import Rebalancer
from repro.control.telemetry import HeatTracker
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy
from repro.shard.fleet import FleetRouter
from repro.shard.plan import ShardPlan

_RECORDS = 256
_BLOCK = 8


@st.composite
def reshape_scripts(draw):
    """An initial plan, its chain of block-aligned splits and merges, and a
    script interleaving traffic (with clock steps that roll windows) with
    the changes, each change applied in order."""
    plan = ShardPlan.uniform(_RECORDS, draw(st.integers(1, 4)), block_records=_BLOCK)
    changes = []
    current = plan
    for _ in range(draw(st.integers(0, 5))):
        splittable = [
            shard for shard in current.shards if shard.num_records > _BLOCK
        ]
        if current.num_shards > 1 and (not splittable or draw(st.booleans())):
            left = draw(st.integers(0, current.num_shards - 2))
            change = current.merge_shards(left, left + 1)
        else:
            shard = draw(st.sampled_from(splittable))
            blocks = shard.num_records // _BLOCK
            at = shard.start + _BLOCK * draw(st.integers(1, blocks - 1))
            change = current.split_shard(shard.index, at)
        changes.append(change)
        current = change.new_plan
    batches = st.tuples(
        st.lists(st.integers(0, _RECORDS - 1), max_size=24),
        st.integers(0, 10),  # clock step, in quarter windows
    )
    script = draw(st.lists(batches, max_size=12))
    # Where each change lands in the traffic: after that many batches.
    positions = sorted(
        draw(
            st.lists(
                st.integers(0, len(script)),
                min_size=len(changes),
                max_size=len(changes),
            )
        )
    )
    decay = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
    return plan, changes, script, positions, decay


class TestRemapCommutesWithObserving:
    @settings(max_examples=80, deadline=None)
    @given(reshape_scripts())
    def test_remapped_tracker_reads_like_one_built_on_the_final_plan(self, case):
        plan, changes, script, positions, decay = case
        final = changes[-1].new_plan if changes else plan
        remapped = HeatTracker(plan, window_seconds=1.0, decay=decay)
        direct = HeatTracker(final, window_seconds=1.0, decay=decay)
        pending = list(zip(positions, changes))
        now = 0.0

        def remap_due(done):
            while pending and pending[0][0] <= done:
                _, change = pending.pop(0)
                before = sum(remapped.heats())
                remapped.remap(change)
                after = sum(remapped.heats())
                assert after == pytest.approx(before, rel=1e-9, abs=1e-12)

        for done, (indices, step) in enumerate(script):
            remap_due(done)
            now += 0.25 * step
            remapped.observe_batch(indices, now)
            direct.observe_batch(indices, now)
        remap_due(len(script))

        assert remapped.plan is final
        assert remapped.heats() == pytest.approx(direct.heats(), rel=1e-9, abs=1e-12)
        for shard in final.shards:
            assert remapped.split_point(shard.index) == direct.split_point(shard.index)
            assert remapped.range_heat(
                shard.index, shard.start, shard.stop
            ) == pytest.approx(direct.shard_heat(shard.index), rel=1e-9, abs=1e-12)


class TestFailedPassLeavesNoCooldown:
    def test_a_split_whose_apply_failed_is_not_in_cooldown(self):
        """A reshape pass that dies in the data-plane apply must not leave
        its split in the damper's cooldown ledger: with the fault cleared,
        the next pass makes the same split instead of vetoing it as a
        follow-up to an action that never happened."""
        database = Database.random(128, 8, seed=95)
        plan = ShardPlan.uniform(database.num_records, 2, block_records=8)
        router = FleetRouter(
            PIRClient(database.num_records, database.record_size, seed=96, prg=make_prg()),
            database,
            plan,
            [1.0, 1.0],
            policy=BatchingPolicy(max_batch_size=4, max_wait_seconds=100.0),
        )
        tracker = HeatTracker(plan, window_seconds=1.0, decay=0.5)
        rebalancer = Rebalancer(
            router,
            tracker,
            split_heat_share=0.5,
            max_shards=4,
            damping=DampingPolicy(amortize_windows=1e9, cooldown_seconds=10),
        )
        tracker.observe_batch([0] * 20 + [56] * 20, now=0.0)

        def failing_stage(change, child_factory=None):
            raise RuntimeError("replica 1 died standing up a split half")

        router.fleets[1].backend.stage_topology = failing_stage
        with pytest.raises(RuntimeError):
            rebalancer.rebalance(now=0.0)
        assert tracker.plan is router.plan
        del router.fleets[1].backend.stage_topology

        report = rebalancer.rebalance(now=1.0)
        assert [(s.shard.start, s.shard.stop) for s in report.splits][:1] == [(0, 64)]
        assert not [v for v in report.suppressed if v.reason == "cooldown"]
        assert router.plan is tracker.plan
        assert all(fleet.backend.plan is router.plan for fleet in router.fleets)
