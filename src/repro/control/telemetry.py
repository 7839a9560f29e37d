"""Heat telemetry: decaying per-shard query-rate windows from live traffic.

The placement formulas in :mod:`repro.shard.fleet` price a shard by its
*heat* — expected queries touching it per operating window.  Offline, that
number comes from a trace sample; online, it has to be measured from the
batches the frontend actually flushes, and it has to *age*: a shard that was
hot an hour ago but is cold now must not stay pinned to preloaded PIM
forever.

A :class:`HeatTracker` is that measurement.  It is a frontend *observer*
(fed after every flush, like the AIMD batching policy's utilization — see
:meth:`repro.pir.frontend.BatchingFrontend.finish_flush`), so both the
simulated-clock and the asyncio frontends feed it for free: every flushed batch's routed
indices are folded into the current window, and completed windows are
blended into an exponentially decayed estimate.  ``heats()`` then returns
per-window queries per shard — exactly the units
:func:`repro.shard.fleet.plan_placements` expects, and (by construction,
since :func:`repro.shard.fleet.heats_from_trace` routes through this class)
exactly the units offline planning uses.

The tracker is also topology-aware.  Alongside the per-shard vectors it
keeps sparse *per-record* counterparts, which give the control plane
sub-shard resolution: :meth:`HeatTracker.split_point` finds the
block-aligned in-shard heat median an online split should cut at, and
:meth:`HeatTracker.remap` carries both the live window and the smoothed
estimate across a :class:`~repro.shard.plan.TopologyChange`
(record-rate-weighted on a split, summed on a merge) — so telemetry
survives a reshape instead of resetting, and the very next placement pass
still sees where the load is.

The control plane runs on the **simulated clock only**: ``now`` always
comes from the caller (the sync frontend's arrival stamps, the asyncio
loop's time), never from ``time.time()`` — ``tools/lint.py`` enforces that
for this whole package, which is what keeps rebalancing decisions
deterministic and unit-testable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError, ProtocolError
from repro.shard.plan import ShardPlan, ShardSpec, TopologyChange

#: Decayed per-record entries below this are dropped at every window roll —
#: the per-record map must stay proportional to the *live* hot set, not grow
#: monotonically with every record ever queried.
_PRUNE_BELOW = 1e-9


class HeatTracker:
    """Decaying sliding-window estimate of per-shard query heat.

    Counts are kept per window of ``window_seconds`` simulated time.  When
    a window completes, it is folded into the running estimate with an
    exponential moving average — ``smoothed = decay * smoothed +
    (1 - decay) * window_count`` — so old hotness ages out at a rate the
    caller controls (``decay`` is the weight history keeps per window).

    ``heats()`` reports the estimate over **completed** windows only: the
    in-progress window is deliberately excluded, because its counts start
    at zero after every roll and blending them raw would make the estimate
    dip ~``decay``-fold right after each roll and recover across the
    window — a shard priced near a placement break-even would then flap
    between kinds depending on where within the window a rebalance pass
    happens to fire, paying the migration transfer each time.  Before the
    first window completes the raw counts seen so far are the only
    estimate there is (which is why a one-shot offline trace through
    :func:`repro.shard.fleet.heats_from_trace` yields plain per-shard
    counts).
    """

    def __init__(
        self,
        plan: ShardPlan,
        window_seconds: float = 1.0,
        decay: float = 0.5,
    ) -> None:
        if window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        if not 0.0 <= decay < 1.0:
            raise ConfigurationError("decay must be in [0, 1)")
        self.plan = plan
        self.window_seconds = window_seconds
        self.decay = decay
        #: Completed windows folded into the estimate so far.
        self.windows_completed = 0
        #: Indices observed over the tracker's lifetime (diagnostic).
        self.observed_indices = 0
        self._window_counts = [0.0] * plan.num_shards
        self._smoothed: Optional[List[float]] = None
        self._window_start: Optional[float] = None
        # Per-record counterparts of the per-shard vectors, kept sparse
        # (records never queried hold no entry; cold entries are pruned at
        # every roll).  They exist for the topology lifecycle: the in-shard
        # heat median a split cuts at (:meth:`split_point`) and the
        # record-rate weights a reshape remap divides shard heat by
        # (:meth:`remap`) both need sub-shard resolution the per-shard
        # vectors cannot provide.
        self._window_index: Dict[int, float] = {}
        self._smoothed_index: Optional[Dict[int, float]] = None
        #: Optional structured event log (:class:`repro.obs.events.EventLog`),
        #: wired by the observability hub; window rolls and remaps emit there.
        self.events = None

    # -- feeding ----------------------------------------------------------------

    def observe_batch(self, indices: Sequence[int], now: float) -> None:
        """Fold one flushed batch's record indices into the current window.

        This is the frontend observer hook: ``now`` is the flush instant on
        the frontend's clock (simulated arrival stamps for the sync
        frontend, the event loop's clock for the asyncio one).
        """
        self.advance(now)
        for shard_index, routed in self.plan.route_records(indices).items():
            self._window_counts[shard_index] += len(routed)
        for index in indices:
            self._window_index[index] = self._window_index.get(index, 0.0) + 1.0
        self.observed_indices += len(indices)

    def advance(self, now: float) -> None:
        """Advance the simulated clock, rolling any windows that completed.

        Idle time decays heat too: rolling three empty windows ages the
        estimate exactly as three windows of zero traffic would.
        """
        if self._window_start is None:
            self._window_start = now
            return
        if now < self._window_start:
            raise ProtocolError(
                f"time moves forward: {now} is before the current window "
                f"start {self._window_start}"
            )
        completed = int((now - self._window_start) // self.window_seconds)
        if completed < 1:
            return
        # First roll folds the live counts; the remaining completed-1
        # windows are empty, and an empty-window blend is exactly
        # ``smoothed *= decay`` — applied in closed form so a long idle gap
        # (this hook runs inside every frontend flush) costs O(shards), not
        # O(gap / window_seconds) list allocations.
        self._roll()
        if completed > 1:
            factor = self.decay ** (completed - 1)
            if self._smoothed is not None:
                self._smoothed = [value * factor for value in self._smoothed]
            if self._smoothed_index is not None:
                self._smoothed_index = self._prune(
                    {
                        index: value * factor
                        for index, value in self._smoothed_index.items()
                    }
                )
            self.windows_completed += completed - 1
        self._window_start += completed * self.window_seconds
        if self.events is not None:
            self.events.emit(
                "heat.window_rolled",
                now=now,
                rolled=completed,
                windows=self.windows_completed,
                total_heat=sum(self.heats()),
            )

    def _roll(self) -> None:
        self._smoothed = self._blend(self._smoothed, self._window_counts)
        self._smoothed_index = self._blend_index(
            self._smoothed_index, self._window_index
        )
        self._window_counts = [0.0] * self.plan.num_shards
        self._window_index = {}
        self.windows_completed += 1

    def _blend(
        self, smoothed: Optional[List[float]], counts: Sequence[float]
    ) -> List[float]:
        if smoothed is None:
            return list(counts)
        return [
            self.decay * old + (1.0 - self.decay) * new
            for old, new in zip(smoothed, counts)
        ]

    def _blend_index(
        self, smoothed: Optional[Dict[int, float]], counts: Dict[int, float]
    ) -> Dict[int, float]:
        if smoothed is None:
            return dict(counts)
        blended = {
            index: self.decay * smoothed.get(index, 0.0)
            + (1.0 - self.decay) * counts.get(index, 0.0)
            for index in smoothed.keys() | counts.keys()
        }
        return self._prune(blended)

    @staticmethod
    def _prune(estimate: Dict[int, float]) -> Dict[int, float]:
        return {
            index: value for index, value in estimate.items() if value > _PRUNE_BELOW
        }

    # -- reading ----------------------------------------------------------------

    def heats(self) -> List[float]:
        """Per-window queries per shard, one entry per shard of the plan.

        The natural input for :func:`repro.shard.fleet.plan_placements`:
        the decayed estimate over completed windows (phase-stable — see the
        class docstring), falling back to the raw live counts before the
        first window completes.  State is not mutated; reading is free.
        """
        if self._smoothed is None:
            return list(self._window_counts)
        return list(self._smoothed)

    def shard_heat(self, shard_index: int) -> float:
        """The current heat estimate for one shard."""
        if not 0 <= shard_index < self.plan.num_shards:
            raise ConfigurationError(
                f"shard index {shard_index} out of range [0, {self.plan.num_shards})"
            )
        return self.heats()[shard_index]

    def range_heat(self, shard_index: int, start: int, stop: int) -> float:
        """The heat of ``[start, stop)`` within one shard, on the
        :meth:`heats` basis.

        What a cost-aware reshape policy prices a *hypothetical* split half
        with before any plan exists for it: the shard's heat apportioned by
        the live per-record estimate over the range (count-proportional when
        the shard has no recorded heat — same convention as remapping).
        """
        if not 0 <= shard_index < self.plan.num_shards:
            raise ConfigurationError(
                f"shard index {shard_index} out of range [0, {self.plan.num_shards})"
            )
        shard = self.plan.shards[shard_index]
        start = max(start, shard.start)
        stop = min(stop, shard.stop)
        if stop <= start:
            return 0.0
        weight = self._overlap_weight(shard, start, stop, self._index_estimate())
        return self.heats()[shard_index] * weight

    # -- the topology lifecycle ---------------------------------------------------

    def _index_estimate(self) -> Dict[int, float]:
        """Per-record heat on the same completed-windows basis as :meth:`heats`."""
        if self._smoothed_index is None:
            return self._window_index
        return self._smoothed_index

    def split_point(self, shard_index: int) -> Optional[int]:
        """The block-aligned in-shard heat median of one shard, or ``None``.

        The natural cut for an online split: the block boundary dividing the
        shard's live per-record heat most evenly, so each half inherits
        about half the load (a midpoint cut of a Zipf-headed shard would
        leave one half as hot as the whole).  When several boundaries tie —
        a Zipf head concentrated inside a *single* block makes every cut
        equally uneven — the tie breaks toward the cut whose hotter side
        spans the fewest records: that isolates the head into a minimal
        shard (which the policy then leaves alone, being single-block)
        instead of shaving useless cold slivers off the far end.  Falls
        back to the middle boundary when the shard has no recorded heat;
        returns ``None`` when the shard spans fewer than two blocks
        (nothing to cut at).
        """
        if not 0 <= shard_index < self.plan.num_shards:
            raise ConfigurationError(
                f"shard index {shard_index} out of range [0, {self.plan.num_shards})"
            )
        shard = self.plan.shards[shard_index]
        block = self.plan.block_records
        candidates = list(range(shard.start + block, shard.stop, block))
        # Aligned plans keep every internal boundary (and so every shard
        # start) on a block multiple; guard anyway for hand-built plans.
        candidates = [at for at in candidates if at % block == 0]
        if not candidates:
            return None
        estimate = self._index_estimate()
        # Per-candidate prefix heat in one pass over the sparse entries.
        bucket_heat = [0.0] * (len(candidates) + 1)
        total = 0.0
        for index, value in estimate.items():
            if shard.start <= index < shard.stop:
                position = (index - shard.start) // block
                bucket_heat[min(position, len(candidates))] += value
                total += value
        if total <= 0:
            return candidates[len(candidates) // 2]
        best = None  # (median gap, hotter-side records, at)
        left = 0.0
        for position, at in enumerate(candidates):
            left += bucket_heat[position]
            gap = abs(left - total / 2.0)
            hot_side_records = (
                at - shard.start if left >= total - left else shard.stop - at
            )
            key = (gap, hot_side_records, at)
            if best is None or key < best:
                best = key
        return best[2]

    def remap(self, change: TopologyChange) -> None:
        """Carry the decaying windows across a topology change.

        Telemetry must *survive* a reshape, not reset: zeroing the vectors
        would blind the next placement pass exactly when it acts (right
        after a split the fleet would look uniformly cold).  Every old
        shard's heat — the live window counts and the smoothed estimate
        alike — is divided over the new shards covering its range,
        weighted by the measured per-record rates inside each overlap
        (**record-rate-weighted split**), falling back to record-count
        proportions where no per-record heat was recorded; a merge's new
        shard simply receives the **sum** of its parents (the weights of
        whole overlaps are 1).  Total heat is conserved by construction.
        """
        change.require_built_on(self.plan, "this tracker")
        self._window_counts = self._remap_vector(
            change, self._window_counts, self._window_index
        )
        if self._smoothed is not None:
            self._smoothed = self._remap_vector(
                change,
                self._smoothed,
                self._smoothed_index if self._smoothed_index is not None else {},
            )
        self.plan = change.new_plan
        if self.events is not None:
            self.events.emit(
                "heat.remapped",
                old_version=change.old_plan.version,
                new_version=change.new_plan.version,
                shards=change.new_plan.num_shards,
                total_heat=sum(self.heats()),
            )

    def shape_state(self) -> tuple:
        """An opaque snapshot of the remappable state (plan + shard vectors).

        Taken by the rebalancer before a reshape pass so a data-plane apply
        that fails midway can :meth:`restore_shape` the telemetry to the
        plan the fleet still runs — without it, a failed pass would leave
        the tracker one version ahead forever and every later pass would
        refuse to run.  Cheap: the vectors are copied, the per-record maps
        (which a remap never mutates) are not.
        """
        return (
            self.plan,
            list(self._window_counts),
            list(self._smoothed) if self._smoothed is not None else None,
        )

    def restore_shape(self, state: tuple) -> None:
        """Roll the remappable state back to a :meth:`shape_state` snapshot."""
        plan, window_counts, smoothed = state
        self.plan = plan
        self._window_counts = list(window_counts)
        self._smoothed = list(smoothed) if smoothed is not None else None

    def _remap_vector(
        self,
        change: TopologyChange,
        values: List[float],
        rates: Dict[int, float],
    ) -> List[float]:
        """One shard vector remapped old→new (weights from ``rates``)."""
        remapped = [0.0] * change.new_plan.num_shards
        old_for_new = change.old_for_new
        for new_shard in change.new_plan.shards:
            for old_index in old_for_new[new_shard.index]:
                old_shard = change.old_plan.shards[old_index]
                start, stop = change.overlap_records(old_index, new_shard.index)
                if stop <= start:
                    continue
                if (start, stop) == (old_shard.start, old_shard.stop):
                    weight = 1.0  # whole overlap: merges sum their parents
                else:
                    weight = self._overlap_weight(old_shard, start, stop, rates)
                remapped[new_shard.index] += values[old_index] * weight
        return remapped

    @staticmethod
    def _overlap_weight(
        old_shard: ShardSpec, start: int, stop: int, rates: Dict[int, float]
    ) -> float:
        """The fraction of ``old_shard``'s heat owned by ``[start, stop)``.

        Measured per-record rates where available; a shard with no recorded
        heat splits proportionally to record counts (there is nothing
        better to weight by, and the vector being divided is ~0 anyway).
        """
        shard_total = 0.0
        overlap_total = 0.0
        for index, value in rates.items():
            if old_shard.start <= index < old_shard.stop:
                shard_total += value
                if start <= index < stop:
                    overlap_total += value
        if shard_total > 0:
            return overlap_total / shard_total
        if old_shard.num_records == 0:
            return 0.0
        return (stop - start) / old_shard.num_records

    def __repr__(self) -> str:
        return (
            f"HeatTracker(shards={self.plan.num_shards}, "
            f"window={self.window_seconds}s, decay={self.decay}, "
            f"windows_completed={self.windows_completed})"
        )
