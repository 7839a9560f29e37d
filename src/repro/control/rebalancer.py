"""Online shard rebalancing: re-place and re-shape live fleets from heat.

A :class:`~repro.shard.fleet.FleetRouter` places shards once, from an
offline heat sample — a drifting workload (new hot certificates, a freshly
leaked credential dump) then strands hot shards on streamed backends
forever.  The :class:`Rebalancer` closes the loop, in two ways:

**Kind rebalancing** (PR 4): it periodically re-runs the same
:func:`~repro.shard.fleet.plan_placements` cost comparison against a live
:class:`~repro.control.telemetry.HeatTracker` window, diffs the result
against the placements in effect, and migrates **only the shards whose
chosen kind changed**.  A migration is a data-plane swap, not a protocol
event: the shard's slice is re-cut through
:meth:`~repro.shard.plan.ShardPlan.slice_shard` (the single slicing rule
prepare and apply_updates already share), a fresh child backend of the new
kind is prepared on it, and
:meth:`~repro.shard.backend.ShardedBackend.swap_child` replaces the member
atomically — queries keep hitting the old child until the swap and are
bit-identical before, during and after, because both children hold the same
bytes.

**Plan-shape rebalancing** (this PR): shard *boundaries* themselves follow
the heat.  A shard whose heat share exceeds ``split_heat_share`` is split at
its in-shard heat median (:meth:`HeatTracker.split_point` — block-aligned,
so PIM/DPU children keep their layout invariants); adjacent shards whose
heats both sit at or below ``merge_heat_floor`` are merged, coldest pair
first.  Both are bounded by ``min_shards``/``max_shards``.  Each transform
is a pure :meth:`~repro.shard.plan.ShardPlan.split_shard` /
:meth:`~repro.shard.plan.ShardPlan.merge_shards` producing a versioned
:class:`~repro.shard.plan.TopologyChange`; the pass composes them into one
old→final change, moves the tracker onto the new plan (heat is kept per
record, so it survives the reshape instead of resetting), re-runs
``plan_placements`` over the **new** shard set, and installs the agreed
topology on every replica fleet through
:meth:`~repro.shard.fleet.FleetRouter.apply_topology` (inside the
frontend's reconfigure gate, so no flush spans two plan versions).  The reshape's cost is the placements' transfer terms for the
changed ranges, exactly as migrations are charged.

**Cost-aware damping** (PR 8): with a
:class:`~repro.control.autoscaler.DampingPolicy` configured, every split,
merge and kind migration is first priced — its projected per-window saving
(the same ``preload + heat × per-query`` formulas placement uses, evaluated
on the shards the action would create) against the one-time transfer cost
of standing up the fresh children — and executed only when the saving
amortizes the transfer within the policy's horizon and the touched record
range is out of cooldown.  Suppressed actions are not lost: they land on
the pass report as :class:`~repro.control.autoscaler.DampingVerdict`
entries, so a fleet that *refuses* to flap is as observable as one that
reshapes.

Simulated clock only (lint-enforced for this package): ``now`` comes from
the frontend observe hook or the caller, never from ``time.time()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.control.autoscaler import (
    DampingPolicy,
    DampingVerdict,
    ReshapeDamper,
    best_option,
    kind_window_cost,
)
from repro.control.telemetry import HeatTracker
from repro.shard.backend import bare_backend_factory, default_child_config
from repro.shard.fleet import (
    FleetRouter,
    ShardPlacement,
    placement_for_kind,
    plan_placements,
)
from repro.shard.plan import ShardSpec, TopologyChange


@dataclass(frozen=True)
class ShardMigration:
    """One shard moved between backend kinds by a rebalance pass."""

    shard: ShardSpec
    old_kind: str
    new_kind: str
    #: The shard's heat estimate that justified the move.
    heat: float
    #: Transfer cost of standing the shard up on the new kind, per replica
    #: (the placement's preload term; replicas migrate in parallel).
    transfer_seconds: float


@dataclass(frozen=True)
class ShardSplit:
    """One hot shard cut in two by a rebalance pass."""

    #: The shard as it was before the cut (old plan's indexing).
    shard: ShardSpec
    #: The block-aligned record index the shard was cut at (its in-shard
    #: heat median, so each half inherits about half the load).
    at: int
    #: The shard's heat estimate when the policy fired.
    heat: float
    #: Its share of the fleet-wide heat that crossed ``split_heat_share``.
    heat_share: float


@dataclass(frozen=True)
class ShardMerge:
    """Two adjacent cold shards folded into one by a rebalance pass."""

    left: ShardSpec
    right: ShardSpec
    #: Combined heat of the pair (both sat at or below ``merge_heat_floor``).
    heat: float


@dataclass
class RebalanceReport:
    """What one rebalance pass observed and did."""

    now: float
    #: Live heats **after** any reshape (per shard of ``placements``' plan) —
    #: the per-record heat summed under the new plan, not reset, so a
    #: nonzero vector here is the proof telemetry survived the reshape.
    heats: List[float]
    placements: List[ShardPlacement]
    migrations: List[ShardMigration] = field(default_factory=list)
    splits: List[ShardSplit] = field(default_factory=list)
    merges: List[ShardMerge] = field(default_factory=list)
    #: The composed old→new plan change, when the pass reshaped (else None).
    topology: Optional[TopologyChange] = None
    #: Plan version in effect after the pass.
    plan_version: int = 0
    #: Transfer cost of standing up the reshape's fresh children, per
    #: replica (the changed placements' preload terms; replicas in parallel).
    reshape_seconds: float = 0.0
    #: Reshapes/migrations the damper vetoed this pass, with their economics
    #: — the observability of *not* acting.
    suppressed: List[DampingVerdict] = field(default_factory=list)

    @property
    def migration_seconds(self) -> float:
        """Simulated cost of the pass's kind migrations: shards migrate one
        after another on each replica's host (sum), replicas migrate in
        parallel (max folds to the same value, so the sum per replica is
        the makespan)."""
        return sum(migration.transfer_seconds for migration in self.migrations)

    @property
    def total_seconds(self) -> float:
        """Reshape transfer plus kind-migration transfer for the pass."""
        return self.reshape_seconds + self.migration_seconds

    def describe(self) -> str:
        actions = []
        if self.splits:
            actions.append(
                ", ".join(
                    f"split shard {s.shard.index} [{s.shard.start},{s.shard.stop}) "
                    f"at {s.at} (heat {s.heat:.1f}, share {s.heat_share:.2f})"
                    for s in self.splits
                )
            )
        if self.merges:
            actions.append(
                ", ".join(
                    f"merged shards {m.left.index}+{m.right.index} into "
                    f"[{m.left.start},{m.right.stop}) (heat {m.heat:.1f})"
                    for m in self.merges
                )
            )
        if self.migrations:
            actions.append(
                ", ".join(
                    f"shard {m.shard.index} {m.old_kind}->{m.new_kind} "
                    f"(heat {m.heat:.1f}, {m.transfer_seconds * 1e3:.3f}ms)"
                    for m in self.migrations
                )
            )
        if self.suppressed:
            actions.append(
                ", ".join(verdict.describe() for verdict in self.suppressed)
            )
        if not actions:
            return f"rebalance @ {self.now:.3f}s: placements unchanged"
        return (
            f"rebalance @ {self.now:.3f}s (plan v{self.plan_version}): "
            + "; ".join(actions)
        )


class Rebalancer:
    """Periodically re-places (and optionally re-shapes) a live fleet.

    Wire it behind the frontend observe hook (directly, or via
    :class:`~repro.control.plane.ControlPlane`) and every flushed batch
    both feeds the tracker and gives the rebalancer a chance to act; or
    drive :meth:`maybe_rebalance`/:meth:`rebalance` explicitly from a
    management loop.  ``interval_seconds`` is simulated time between
    passes; a pass that finds no kind changes and no shape triggers does
    nothing.

    Plan-shape policy (off unless configured):

    * ``split_heat_share`` — split any shard owning more than this share of
      the fleet-wide heat, at its in-shard heat median (block-aligned);
      repeated within a pass until no shard crosses the threshold or
      ``max_shards`` is reached.
    * ``merge_heat_floor`` — merge adjacent shards whose heats both sit at
      or below this absolute per-window heat, coldest pair first, until no
      pair qualifies or ``min_shards`` is reached.  Keep the floor well
      under ``split_heat_share`` of the typical total, or a pass could
      undo its own splits.
    * ``damping`` — a :class:`~repro.control.autoscaler.DampingPolicy`
      gating every shape change *and* kind migration on its economics
      (amortized saving vs. transfer cost, plus a record-range cooldown).
      Off by default: an undamped rebalancer acts on thresholds alone,
      exactly as before.
    """

    def __init__(
        self,
        router: FleetRouter,
        tracker: HeatTracker,
        interval_seconds: float = 1.0,
        split_heat_share: Optional[float] = None,
        merge_heat_floor: Optional[float] = None,
        min_shards: int = 1,
        max_shards: Optional[int] = None,
        damping: Optional[DampingPolicy] = None,
    ) -> None:
        if interval_seconds <= 0:
            raise ConfigurationError("interval_seconds must be positive")
        if tracker.plan is not router.plan:
            raise ConfigurationError(
                "tracker and router must share one ShardPlan (heat indices "
                "are shard indices of that plan)"
            )
        if split_heat_share is not None and not 0.0 < split_heat_share < 1.0:
            raise ConfigurationError("split_heat_share must be in (0, 1)")
        if merge_heat_floor is not None and merge_heat_floor < 0:
            raise ConfigurationError("merge_heat_floor must be non-negative")
        if min_shards < 1:
            raise ConfigurationError("min_shards must be at least 1")
        if max_shards is not None and max_shards < min_shards:
            raise ConfigurationError("max_shards must be at least min_shards")
        self.router = router
        self.tracker = tracker
        self.interval_seconds = interval_seconds
        self.split_heat_share = split_heat_share
        self.merge_heat_floor = merge_heat_floor
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.damping = damping
        #: The stateful judge (``None`` when damping is off): carries the
        #: record-range cooldown ledger across passes.
        self.damper = ReshapeDamper(damping) if damping is not None else None
        #: One report per completed pass, in time order.
        self.reports: List[RebalanceReport] = []
        self._last_pass: Optional[float] = None
        #: Optional :class:`~repro.obs.events.EventLog`; each completed
        #: pass emits a ``rebalance.pass`` event when set (hub-wired).
        self.events = None

    # -- observe hook (period check) ---------------------------------------------

    def maybe_rebalance(self, now: float, health=None) -> Optional[RebalanceReport]:
        """Run a pass iff ``interval_seconds`` elapsed since the last one.

        The first call only anchors the interval clock (a rebalance before
        any full observation window would act on a half-empty estimate).
        ``health`` (a :class:`~repro.obs.slo.HealthSignal`, plane-supplied)
        is forwarded to :meth:`rebalance`.
        """
        if self._last_pass is None:
            self._last_pass = now
            return None
        if now - self._last_pass < self.interval_seconds:
            return None
        self._last_pass = now
        return self.rebalance(now, health=health)

    # -- one pass -----------------------------------------------------------------

    def rebalance(self, now: float = 0.0, health=None) -> RebalanceReport:
        """Re-shape and re-place the fleet against the live heat window.

        Order of one pass: (1) shape — apply the split/merge policy as pure
        plan transforms, composing them into one
        :class:`~repro.shard.plan.TopologyChange` and moving the
        tracker's plan through each step; (2) place — re-run
        :func:`plan_placements` with the router's own candidates (same cost
        formulas, same machine model) **over the new shard set**;
        (3) apply — install the agreed topology on every replica fleet
        (fresh children for changed ranges are built at their placed kind),
        then live-migrate any surviving shard whose chosen kind changed;
        (4) install the new placements on the router so its reporting
        surface (``describe_placements`` etc.) reflects the live fleet.

        While ``health`` reports an active SLO burn, every split, merge and
        kind migration is held — each surfaces as a ``"slo-burn"``
        :class:`DampingVerdict` on the report — because a reshape's
        transfer cost lands on a fleet already missing its latency target;
        the autoscaler's escalated scale-up is the mitigation that runs
        during a burn, and the held reshapes re-propose themselves once the
        alerts resolve.
        """
        burning = health is not None and getattr(health, "burning", False)
        router = self.router
        if self.tracker.plan is not router.plan:
            raise ConfigurationError(
                f"tracker and router topologies diverged: tracker follows "
                f"plan version {self.tracker.plan.version}, router runs "
                f"version {router.plan.version} — every reshape must remap "
                f"both together (use this rebalancer's pass, not ad-hoc "
                f"transforms)"
            )
        record_size = router.fleets[0].database.record_size
        old_kind_by_old: Dict[int, str] = {
            placement.shard.index: placement.kind for placement in router.placements
        }

        # The shape phase moves the tracker onto the new plan and notes its
        # actions in the damper's cooldown ledger before the data plane has
        # the plan.  If the apply below fails, both roll back: a tracker
        # left one version ahead would make every later pass refuse with
        # the divergence error above (under the async frontend's observer
        # fault routing, silently wedging the control plane), and a ledger
        # left as it is would veto, as a cooldown, actions that never ran.
        old_plan = self.tracker.plan
        ledger = list(self.damper._recent) if self.damper is not None else None
        change, splits, merges, suppressed = self._reshape(
            now, record_size, burning=burning
        )
        heats = self.tracker.heats()
        plan = self.tracker.plan
        new_placements = plan_placements(
            plan, record_size, heats, candidates=router.candidates
        )
        report = RebalanceReport(
            now=now,
            heats=heats,
            placements=new_placements,
            splits=splits,
            merges=merges,
            topology=change,
            plan_version=plan.version,
            suppressed=suppressed,
        )

        changed: frozenset = frozenset()
        if change is not None:
            # One agreed topology across all replica fleets, inside the
            # frontend's reconfigure gate; fresh children for the changed
            # ranges come up at their *placed* kind directly (no interim
            # default-kind child, no double transfer).
            try:
                router.apply_topology(change, new_placements)
            except Exception:
                # The router's apply is stage-all-then-commit-all: a
                # failure means *no* fleet changed and the router still
                # runs the old plan.  Put the tracker back beside it so
                # the error is attributable and the next pass genuinely
                # recovers, instead of every pass failing on divergence.
                self.tracker.plan = old_plan
                if self.damper is not None:
                    self.damper._recent = ledger
                raise
            changed = frozenset(change.changed_new_indices())
            old_kind_by_new = {
                new_index: old_kind_by_old.get(old_index)
                for old_index, new_index in change.unchanged_pairs()
            }
        else:
            old_kind_by_new = old_kind_by_old

        for position, placement in enumerate(new_placements):
            shard_index = placement.shard.index
            if shard_index in changed:
                report.reshape_seconds += placement.preload_seconds
                continue
            old_kind = old_kind_by_new.get(shard_index)
            if old_kind == placement.kind:
                continue
            if burning and old_kind is not None:
                # Hold the migration while the budget burns; pin the
                # installed placement back to the running kind so the
                # router's kind map keeps matching the live children.
                shard = placement.shard
                report.suppressed.append(
                    DampingVerdict(
                        action="migrate",
                        start=shard.start,
                        stop=shard.stop,
                        reason="slo-burn",
                        saving_seconds=0.0,
                        transfer_seconds=0.0,
                        now=now,
                    )
                )
                new_placements[position] = placement_for_kind(
                    shard,
                    old_kind,
                    record_size,
                    placement.heat,
                    router.candidates,
                )
                continue
            if self.damper is not None and old_kind is not None:
                shard = placement.shard
                saving = (
                    kind_window_cost(
                        router.candidates,
                        old_kind,
                        shard.num_records,
                        record_size,
                        placement.heat,
                    )
                    - placement.window_cost_seconds
                )
                verdict = self.damper.judge(
                    "migrate",
                    shard.start,
                    shard.stop,
                    saving,
                    placement.preload_seconds,
                    now,
                )
                if verdict is not None:
                    # The shard stays where it is — pin the *installed*
                    # placement back to the old kind so the router's kind
                    # map keeps matching the children actually running.
                    report.suppressed.append(verdict)
                    new_placements[position] = placement_for_kind(
                        shard,
                        old_kind,
                        record_size,
                        placement.heat,
                        router.candidates,
                    )
                    continue
                self.damper.note_action(now, shard.start, shard.stop)
            factory = bare_backend_factory(
                placement.kind,
                config=(
                    router.child_config
                    if router.child_config is not None
                    else default_child_config()
                ),
            )
            for fleet in router.fleets:
                fleet.backend.swap_child(shard_index, factory(placement.shard))
            report.migrations.append(
                ShardMigration(
                    shard=placement.shard,
                    old_kind=old_kind if old_kind is not None else "(unplaced)",
                    new_kind=placement.kind,
                    heat=placement.heat,
                    transfer_seconds=placement.preload_seconds,
                )
            )
        if change is None:
            # Reshape passes installed the placements inside apply_topology;
            # a migrations-only pass must land them (and the kind map the
            # router's default child factory reads) here, or a later
            # re-prepare would rebuild migrated shards at their old kinds.
            router.install_placements(new_placements)
        if self.events is not None:
            self.events.emit(
                "rebalance.pass",
                now=now,
                splits=len(report.splits),
                merges=len(report.merges),
                migrations=len(report.migrations),
                plan_version=report.plan_version,
                reshape_seconds=report.reshape_seconds,
                migration_seconds=report.migration_seconds,
                suppressed=len(report.suppressed),
            )
        self.reports.append(report)
        return report

    # -- the plan-shape policy ------------------------------------------------------

    def _reshape(
        self, now: float, record_size: int, burning: bool = False
    ) -> Tuple[
        Optional[TopologyChange],
        List[ShardSplit],
        List[ShardMerge],
        List[DampingVerdict],
    ]:
        """Apply the split/merge policy to the tracker's plan (pure transforms).

        Mutates only the tracker's plan (one swap per step) and the damper's
        cooldown ledger; the composed change is applied to the data plane
        by the caller.  Splits run before merges, each loop re-reading the
        heats under the freshly swapped plan, so decisions always see the
        topology they are about to change.  With damping, a vetoed action's
        record range is excluded for the rest of the pass (the threshold
        would keep re-proposing the identical cut), and an *executed*
        action enters the damper's cooldown ledger — so the merge loop
        cannot immediately undo a fresh split, in this pass or the next
        (the caller rolls the ledger back if the pass's apply fails).
        """
        tracker = self.tracker
        candidates = self.router.candidates
        splits: List[ShardSplit] = []
        merges: List[ShardMerge] = []
        suppressed: List[DampingVerdict] = []
        vetoed: Set[Tuple[int, int]] = set()
        overall: Optional[TopologyChange] = None

        def apply(change: TopologyChange) -> None:
            nonlocal overall
            tracker.remap(change)
            overall = change if overall is None else overall.compose(change)

        if self.split_heat_share is not None:
            while self.max_shards is None or tracker.plan.num_shards < self.max_shards:
                plan = tracker.plan
                heats = tracker.heats()
                total = sum(heats)
                if total <= 0:
                    break
                hottest: Optional[ShardSpec] = None
                for shard in plan.shards:
                    # A shard spanning a single block has no interior block
                    # boundary to cut at, however hot it runs.
                    if shard.num_records <= plan.block_records:
                        continue
                    if heats[shard.index] / total <= self.split_heat_share:
                        continue
                    if (shard.start, shard.stop) in vetoed:
                        continue
                    if hottest is None or heats[shard.index] > heats[hottest.index]:
                        hottest = shard
                if hottest is None:
                    break
                at = tracker.split_point(hottest.index)
                if at is None:
                    break
                heat = heats[hottest.index]
                if burning:
                    suppressed.append(
                        DampingVerdict(
                            action="split",
                            start=hottest.start,
                            stop=hottest.stop,
                            reason="slo-burn",
                            saving_seconds=0.0,
                            transfer_seconds=0.0,
                            now=now,
                        )
                    )
                    vetoed.add((hottest.start, hottest.stop))
                    continue
                if self.damper is not None:
                    left_heat = tracker.range_heat(
                        hottest.index, hottest.start, at
                    )
                    right_heat = max(heat - left_heat, 0.0)
                    parent_cost, _ = best_option(
                        candidates, hottest.num_records, record_size, heat
                    )
                    left_cost, left_preload = best_option(
                        candidates, at - hottest.start, record_size, left_heat
                    )
                    right_cost, right_preload = best_option(
                        candidates, hottest.stop - at, record_size, right_heat
                    )
                    saving = (
                        parent_cost
                        - (left_cost + right_cost)
                        - self.damping.shard_overhead_seconds
                    )
                    verdict = self.damper.judge(
                        "split",
                        hottest.start,
                        hottest.stop,
                        saving,
                        left_preload + right_preload,
                        now,
                    )
                    if verdict is not None:
                        suppressed.append(verdict)
                        vetoed.add((hottest.start, hottest.stop))
                        continue
                    self.damper.note_action(now, hottest.start, hottest.stop)
                apply(plan.split_shard(hottest.index, at))
                splits.append(
                    ShardSplit(
                        shard=hottest, at=at, heat=heat, heat_share=heat / total
                    )
                )
        if self.merge_heat_floor is not None:
            while tracker.plan.num_shards > self.min_shards:
                plan = tracker.plan
                heats = tracker.heats()
                coldest: Optional[Tuple[int, float]] = None
                for i in range(plan.num_shards - 1):
                    if (
                        heats[i] <= self.merge_heat_floor
                        and heats[i + 1] <= self.merge_heat_floor
                    ):
                        if (plan.shards[i].start, plan.shards[i + 1].stop) in vetoed:
                            continue
                        combined = heats[i] + heats[i + 1]
                        if coldest is None or combined < coldest[1]:
                            coldest = (i, combined)
                if coldest is None:
                    break
                i, combined = coldest
                left, right = plan.shards[i], plan.shards[i + 1]
                if burning:
                    suppressed.append(
                        DampingVerdict(
                            action="merge",
                            start=left.start,
                            stop=right.stop,
                            reason="slo-burn",
                            saving_seconds=0.0,
                            transfer_seconds=0.0,
                            now=now,
                        )
                    )
                    vetoed.add((left.start, right.stop))
                    continue
                if self.damper is not None:
                    left_cost, _ = best_option(
                        candidates, left.num_records, record_size, heats[i]
                    )
                    right_cost, _ = best_option(
                        candidates, right.num_records, record_size, heats[i + 1]
                    )
                    merged_cost, merged_preload = best_option(
                        candidates,
                        left.num_records + right.num_records,
                        record_size,
                        combined,
                    )
                    saving = (
                        left_cost
                        + right_cost
                        - merged_cost
                        + self.damping.shard_overhead_seconds
                    )
                    verdict = self.damper.judge(
                        "merge", left.start, right.stop, saving, merged_preload, now
                    )
                    if verdict is not None:
                        suppressed.append(verdict)
                        vetoed.add((left.start, right.stop))
                        continue
                    self.damper.note_action(now, left.start, right.stop)
                apply(plan.merge_shards(i, i + 1))
                merges.append(ShardMerge(left=left, right=right, heat=combined))
        return overall, splits, merges, suppressed

    # -- rollups ------------------------------------------------------------------

    @property
    def total_migrations(self) -> int:
        """Shards migrated between kinds across every pass so far."""
        return sum(len(report.migrations) for report in self.reports)

    @property
    def total_splits(self) -> int:
        """Shards split across every pass so far."""
        return sum(len(report.splits) for report in self.reports)

    @property
    def total_merges(self) -> int:
        """Shard pairs merged across every pass so far."""
        return sum(len(report.merges) for report in self.reports)

    @property
    def total_migration_seconds(self) -> float:
        """Simulated transfer cost (reshapes + migrations) across every pass."""
        return sum(report.total_seconds for report in self.reports)

    @property
    def total_suppressed(self) -> int:
        """Reshapes/migrations the damper vetoed across every pass so far."""
        return sum(len(report.suppressed) for report in self.reports)
