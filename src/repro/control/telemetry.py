"""Heat telemetry: decaying per-record query-rate windows from live traffic.

The placement formulas in :mod:`repro.shard.fleet` price a shard by its
*heat* — expected queries touching it per operating window.  Offline, that
number comes from a trace sample; online, it has to be measured from the
batches the frontend actually flushes, and it has to *age*: a shard that was
hot an hour ago but is cold now must not stay pinned to preloaded PIM
forever.

A :class:`HeatTracker` is that measurement.  It is a frontend *observer*
(fed after every flush, like the AIMD batching policy's utilization — see
:meth:`repro.pir.frontend.BatchingFrontend.finish_flush`), so both the
simulated-clock and the asyncio frontends feed it for free: every flushed
batch's record indices are folded into the current window, and completed
windows are blended into an exponentially decayed estimate.  ``heats()``
then returns per-window queries per shard — exactly the units
:func:`repro.shard.fleet.plan_placements` expects, and (by construction,
since :func:`repro.shard.fleet.heats_from_trace` routes through this class)
exactly the units offline planning uses.

Heat is kept **per record** only, in sparse maps (records never queried
hold no entry; cold entries are pruned at every roll).  A shard's heat is
the sum of its records' heat under the tracker's current plan, computed
when read.  Record indices do not move when shards are reshaped, so the
tracker is topology-aware for free: :meth:`HeatTracker.split_point` finds
the block-aligned in-shard heat median an online split should cut at, and
:meth:`HeatTracker.remap` across a :class:`~repro.shard.plan.TopologyChange`
only swaps the plan — telemetry survives a reshape instead of resetting,
total heat is conserved, and the very next placement pass still sees where
the load is.

The control plane runs on the **simulated clock only**: ``now`` always
comes from the caller (the sync frontend's arrival stamps, the asyncio
loop's time), never from ``time.time()`` — ``tools/lint.py`` enforces that
for this whole package, which is what keeps rebalancing decisions
deterministic and unit-testable.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError, DatabaseError, ProtocolError
from repro.shard.plan import ShardPlan, TopologyChange

#: Decayed per-record entries below this are dropped at every window roll —
#: the per-record map must stay proportional to the *live* hot set, not grow
#: monotonically with every record ever queried.
_PRUNE_BELOW = 1e-9


class HeatTracker:
    """Decaying sliding-window estimate of per-record query heat.

    Counts are kept per record, per window of ``window_seconds`` simulated
    time.  When a window completes, it is folded into the running estimate
    with an exponential moving average — ``smoothed = decay * smoothed +
    (1 - decay) * window_count`` — so old hotness ages out at a rate the
    caller controls (``decay`` is the weight history keeps per window).
    Per-shard heat is never stored: :meth:`heats` sums the records of each
    shard of :attr:`plan`, so a reshape (:meth:`remap`) only swaps the plan.

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
        self._window_start: Optional[float] = None
        # Per-record counts of the live window, and the decayed estimate
        # over completed windows (None until the first roll).
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
        frontend, the event loop's clock for the asyncio one).  A batch
        holding an index outside ``[0, num_records)`` raises
        :class:`~repro.common.errors.DatabaseError` before anything is
        counted or any window rolls.
        """
        if len(indices):
            low, high = min(indices), max(indices)
            if low < 0 or high >= self.plan.num_records:
                raise DatabaseError(
                    f"record index {low if low < 0 else high} out of range "
                    f"[0, {self.plan.num_records})"
                )
        self.advance(now)
        window = self._window_index
        for index in indices:
            window[index] = window.get(index, 0.0) + 1.0
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
        # (this hook runs inside every frontend flush) costs one pass over
        # the live records, not O(gap / window_seconds) of them.
        self._roll()
        if completed > 1:
            factor = self.decay ** (completed - 1)
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
        smoothed, counts = self._smoothed_index, self._window_index
        if smoothed is None:
            self._smoothed_index = dict(counts)
        else:
            self._smoothed_index = self._prune(
                {
                    index: self.decay * smoothed.get(index, 0.0)
                    + (1.0 - self.decay) * counts.get(index, 0.0)
                    for index in smoothed.keys() | counts.keys()
                }
            )
        self._window_index = {}
        self.windows_completed += 1

    @staticmethod
    def _prune(estimate: Dict[int, float]) -> Dict[int, float]:
        return {
            index: value for index, value in estimate.items() if value > _PRUNE_BELOW
        }

    # -- reading ----------------------------------------------------------------

    def _index_estimate(self) -> Dict[int, float]:
        """Per-record heat on the completed-windows basis of :meth:`heats`."""
        if self._smoothed_index is None:
            return self._window_index
        return self._smoothed_index

    def heats(self) -> List[float]:
        """Per-window queries per shard, one entry per shard of the plan.

        The natural input for :func:`repro.shard.fleet.plan_placements`:
        each shard's records summed in one pass over the per-record
        estimate — the decayed estimate over completed windows
        (phase-stable, see the class docstring), or the raw live counts
        before the first window completes.  State is not mutated.
        """
        # The first shard whose stop exceeds a record owns it (an empty
        # shard's stop never exceeds a record it shares a boundary with).
        stops = [shard.stop for shard in self.plan.shards]
        heats = [0.0] * len(stops)
        for index, value in self._index_estimate().items():
            heats[bisect_right(stops, index)] += value
        return heats

    def _check_shard(self, shard_index: int) -> None:
        if not 0 <= shard_index < self.plan.num_shards:
            raise ConfigurationError(
                f"shard index {shard_index} out of range [0, {self.plan.num_shards})"
            )

    def shard_heat(self, shard_index: int) -> float:
        """The current heat estimate for one shard."""
        self._check_shard(shard_index)
        return self.heats()[shard_index]

    def range_heat(self, shard_index: int, start: int, stop: int) -> float:
        """The heat of ``[start, stop)`` within one shard, on the
        :meth:`heats` basis.

        What a cost-aware reshape policy prices a *hypothetical* split half
        with before any plan exists for it: the sum of the per-record
        estimate over the range (clipped to the shard).
        """
        self._check_shard(shard_index)
        shard = self.plan.shards[shard_index]
        start = max(start, shard.start)
        stop = min(stop, shard.stop)
        return sum(
            (
                value
                for index, value in self._index_estimate().items()
                if start <= index < stop
            ),
            0.0,
        )

    # -- the topology lifecycle ---------------------------------------------------

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
        self._check_shard(shard_index)
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
        """Follow the fleet onto the plan a topology change produced.

        Telemetry must *survive* a reshape, not reset: zeroing it would
        blind the next placement pass exactly when it acts (right after a
        split the fleet would look uniformly cold).  Heat is kept per
        record and record indices do not move, so following the change is
        only a plan swap — each new shard's heat is the sum of its records'
        (a split half keeps exactly its own records' heat, a merged shard
        the sum of its parents'), and total heat is conserved by
        construction.
        """
        change.require_built_on(self.plan, "this tracker")
        self.plan = change.new_plan
        if self.events is not None:
            self.events.emit(
                "heat.remapped",
                old_version=change.old_plan.version,
                new_version=change.new_plan.version,
                shards=change.new_plan.num_shards,
                total_heat=sum(self.heats()),
            )

    def __repr__(self) -> str:
        return (
            f"HeatTracker(shards={self.plan.num_shards}, "
            f"window={self.window_seconds}s, decay={self.decay}, "
            f"windows_completed={self.windows_completed})"
        )
