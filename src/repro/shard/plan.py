"""Shard plans: contiguous record-range partitions of a PIR database.

A :class:`ShardPlan` is the distribution policy of the shard layer — *which*
records live on *which* fleet member — kept deliberately separate from the
PIR protocol code (the engine neither knows nor cares how many machines hold
the database).  A plan tiles ``[0, num_records)`` with contiguous
:class:`ShardSpec` ranges; boundaries can be forced onto ``block_records``
multiples so PIM/DPU backends keep their own per-DPU partitioning invariants
(a shard never starts or ends mid-block).

Plans are value objects: slicing a database, splitting a selector vector and
routing a record index are all pure functions of the plan, which is what
makes the sharded execution path testably bit-identical to the unsharded
one.

Plans are also *versioned*: every online reshape — :meth:`ShardPlan.split_shard`
cutting a hot shard in two, :meth:`ShardPlan.merge_shards` folding adjacent
cold shards into one — returns a **new** plan whose ``version`` is one higher,
plus a :class:`TopologyChange` describing how the old shard indices map onto
the new ones.  The transforms are pure (the old plan is untouched), which is
what lets the control plane prepare a whole new topology off to the side and
swap it into the data plane in one reference assignment
(:meth:`repro.shard.backend.ShardedBackend.apply_topology`) while in-flight
queries finish against the old snapshot.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, DatabaseError
from repro.core.partitioning import aligned_chunk_bounds
from repro.pir.database import Database
from repro.pir.xor_ops import selector_bytes, selector_range


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous shard: records ``[start, stop)`` of the database."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError("shard index must be non-negative")
        if not 0 <= self.start <= self.stop:
            raise ConfigurationError(f"invalid shard range [{self.start}, {self.stop})")

    @property
    def num_records(self) -> int:
        """Records held by this shard."""
        return self.stop - self.start

    @property
    def is_empty(self) -> bool:
        """Whether the shard holds no records (shard count > record count)."""
        return self.start == self.stop

    def contains(self, record_index: int) -> bool:
        """Whether ``record_index`` is owned by this shard."""
        return self.start <= record_index < self.stop


@dataclass(frozen=True)
class ShardPlan:
    """A complete tiling of a database into contiguous shards.

    ``shards`` covers ``[0, num_records)`` exactly once, in order; trailing
    shards may be empty when the plan has more shards than records.
    """

    num_records: int
    shards: Tuple[ShardSpec, ...]
    block_records: int = 1
    #: Monotonically increasing topology version.  Freshly built plans start
    #: at 0; every :meth:`split_shard` / :meth:`merge_shards` transform bumps
    #: it by one, so layers holding a plan can tell "same boundaries" from
    #: "same topology epoch" (a backend refuses a :class:`TopologyChange`
    #: built against any version but the one it is running).
    version: int = 0

    def __post_init__(self) -> None:
        if self.num_records <= 0:
            raise ConfigurationError("num_records must be positive")
        if not self.shards:
            raise ConfigurationError("a plan needs at least one shard")
        if self.block_records <= 0:
            raise ConfigurationError("block_records must be positive")
        if self.version < 0:
            raise ConfigurationError("plan version must be non-negative")
        cursor = 0
        for position, shard in enumerate(self.shards):
            if shard.index != position:
                raise ConfigurationError(
                    f"shard at position {position} carries index {shard.index}"
                )
            if shard.start != cursor:
                raise ConfigurationError(
                    f"shard {position} starts at {shard.start}, expected {cursor}"
                )
            cursor = shard.stop
        if cursor != self.num_records:
            raise ConfigurationError(
                f"shards cover [0, {cursor}), database has {self.num_records} records"
            )
        # Cached for shard_for_record's bisect: routing a dirty-record batch
        # must not rebuild this list per record (the plan is immutable).
        object.__setattr__(
            self, "_starts", tuple(shard.start for shard in self.shards)
        )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def uniform(
        cls, num_records: int, num_shards: int, block_records: int = 1
    ) -> "ShardPlan":
        """Evenly split ``num_records`` into ``num_shards`` aligned shards."""
        bounds = aligned_chunk_bounds(num_records, num_shards, block_records)
        return cls.from_bounds(num_records, bounds, block_records=block_records)

    @classmethod
    def from_bounds(
        cls,
        num_records: int,
        bounds: Sequence[Tuple[int, int]],
        block_records: int = 1,
    ) -> "ShardPlan":
        """Build a plan from explicit ``(start, stop)`` ranges."""
        shards = tuple(
            ShardSpec(index=i, start=start, stop=stop)
            for i, (start, stop) in enumerate(bounds)
        )
        return cls(num_records=num_records, shards=shards, block_records=block_records)

    # -- lookups ----------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Total shard count, including empty trailing shards."""
        return len(self.shards)

    @property
    def non_empty_shards(self) -> Tuple[ShardSpec, ...]:
        """The shards that actually hold records."""
        return tuple(shard for shard in self.shards if not shard.is_empty)

    def shard_for_record(self, record_index: int) -> ShardSpec:
        """The shard owning ``record_index``."""
        if not 0 <= record_index < self.num_records:
            raise DatabaseError(
                f"record index {record_index} out of range [0, {self.num_records})"
            )
        position = bisect_right(self._starts, record_index) - 1
        # Empty shards share their start with the owner that follows the same
        # boundary; walk back to the shard that really contains the record.
        while self.shards[position].is_empty:
            position -= 1
        return self.shards[position]

    def route_records(self, record_indices: Sequence[int]) -> dict:
        """Group record indices by owning shard: ``{shard_index: [indices]}``."""
        routed: dict = {}
        for record_index in record_indices:
            shard = self.shard_for_record(record_index)
            routed.setdefault(shard.index, []).append(record_index)
        return routed

    # -- splitting --------------------------------------------------------------

    def slice_shard(self, database: Database, shard: ShardSpec) -> Database:
        """The database view one shard holds (zero-copy).

        The single slicing rule of the plan: ``prepare`` and ``apply_updates``
        must cut the same byte ranges, so both go through here (directly or
        via :meth:`slice_database`) instead of re-deriving the bounds.
        """
        self.check_shape(database.num_records)
        return Database(database.chunk(shard.start, shard.stop))

    def slice_database(self, database: Database) -> List[Database]:
        """Per-shard database views (empty shards are skipped).

        Returned in the order of :attr:`non_empty_shards`; each is a
        zero-copy view over the parent's backing array.
        """
        return [
            self.slice_shard(database, shard) for shard in self.non_empty_shards
        ]

    def split_selector_many(self, selector_matrix: np.ndarray) -> List[np.ndarray]:
        """Per-shard cuts of a packed ``(B, ceil(num_records / 8))`` selector matrix.

        The matrix is split **once per batch** (not once per query) with
        :func:`~repro.pir.xor_ops.selector_range`, one cut per non-empty
        shard in :attr:`non_empty_shards` order, so they pair with
        :meth:`slice_database` output one-to-one.  A shard on the 8-record
        grid gets a zero-copy view; one off it gets its bits shifted down.
        """
        selector_matrix = np.asarray(selector_matrix)
        width = selector_bytes(self.num_records)
        if selector_matrix.ndim != 2 or selector_matrix.shape[1] != width:
            raise ConfigurationError(
                f"selector matrix {selector_matrix.shape} does not match plan "
                f"({self.num_records} records; expected packed (batch, {width}))"
            )
        return [
            selector_range(selector_matrix, shard.start, shard.stop)
            for shard in self.non_empty_shards
        ]

    def check_shape(self, num_records: int) -> None:
        if num_records != self.num_records:
            raise ConfigurationError(
                f"plan covers {self.num_records} records, database has {num_records}"
            )

    # -- online reshaping (pure transforms) --------------------------------------

    def split_shard(self, index: int, at: int) -> "TopologyChange":
        """Split shard ``index`` in two at record ``at``; returns the change.

        ``at`` must be a ``block_records`` multiple strictly inside the
        shard's range — a cut at the shard's own start or stop would be a
        no-op rename and is rejected (the rebalancer's policy must not be
        able to spin on free "splits" that change nothing).  The transform
        is pure: this plan is untouched, the returned
        :class:`TopologyChange` carries the new plan (``version + 1``) and
        the old↔new shard-index mapping.
        """
        if not 0 <= index < self.num_shards:
            raise ConfigurationError(
                f"shard index {index} out of range [0, {self.num_shards})"
            )
        shard = self.shards[index]
        if not shard.start < at < shard.stop:
            raise ConfigurationError(
                f"split point {at} is not strictly inside shard {index} "
                f"[{shard.start}, {shard.stop}) — a boundary split is a no-op"
            )
        if at % self.block_records != 0:
            raise ConfigurationError(
                f"split point {at} is not a block boundary "
                f"(block_records={self.block_records})"
            )
        bounds = [(s.start, s.stop) for s in self.shards[:index]]
        bounds += [(shard.start, at), (at, shard.stop)]
        bounds += [(s.start, s.stop) for s in self.shards[index + 1 :]]
        return self._reshaped(bounds)

    def merge_shards(self, i: int, j: int) -> "TopologyChange":
        """Merge *adjacent* shards ``i`` and ``j`` (``j == i + 1``) into one.

        Works for empty trailing shards too (a plan with more shards than
        records can fold its ``(stop, stop)`` tails away).  Pure, like
        :meth:`split_shard`: returns a :class:`TopologyChange` whose new
        plan has one fewer shard and ``version + 1``.
        """
        if not (0 <= i < self.num_shards and 0 <= j < self.num_shards):
            raise ConfigurationError(
                f"shard indices ({i}, {j}) out of range [0, {self.num_shards})"
            )
        if j != i + 1:
            raise ConfigurationError(
                f"only adjacent shards merge; got ({i}, {j}) — a merge of "
                f"non-neighbours would break the plan's contiguous tiling"
            )
        bounds = [(s.start, s.stop) for s in self.shards[:i]]
        bounds.append((self.shards[i].start, self.shards[j].stop))
        bounds += [(s.start, s.stop) for s in self.shards[j + 1 :]]
        return self._reshaped(bounds)

    def _reshaped(self, bounds: Sequence[Tuple[int, int]]) -> "TopologyChange":
        """The one place a transform becomes a change: re-index the bounds
        into a ``version + 1`` plan and pair it with this one."""
        new_plan = ShardPlan(
            num_records=self.num_records,
            shards=tuple(
                ShardSpec(index=i, start=start, stop=stop)
                for i, (start, stop) in enumerate(bounds)
            ),
            block_records=self.block_records,
            version=self.version + 1,
        )
        return TopologyChange(old_plan=self, new_plan=new_plan)

    def same_boundaries(self, other: "ShardPlan") -> bool:
        """Whether two plans tile identically (versions may differ)."""
        return self.num_records == other.num_records and tuple(
            (s.start, s.stop) for s in self.shards
        ) == tuple((s.start, s.stop) for s in other.shards)

    def __repr__(self) -> str:
        ranges = ", ".join(f"[{s.start},{s.stop})" for s in self.shards)
        return (
            f"ShardPlan(num_records={self.num_records}, "
            f"block_records={self.block_records}, version={self.version}, "
            f"shards={ranges})"
        )


@dataclass(frozen=True)
class TopologyChange:
    """An old→new plan transition plus the shard-index mapping between them.

    Produced by :meth:`ShardPlan.split_shard` / :meth:`ShardPlan.merge_shards`
    and composable across several transforms (:meth:`compose`), this is the
    object every layer rides a reshape through: the backend swaps children
    along it (:meth:`repro.shard.backend.ShardedBackend.apply_topology`
    reuses the children of :meth:`unchanged_pairs` and builds fresh ones for
    :meth:`changed_new_indices`), and the heat telemetry, kept per record,
    follows it by swapping its plan
    (:meth:`repro.control.telemetry.HeatTracker.remap`).

    The mapping is derived purely from the two tilings (both cover
    ``[0, num_records)`` contiguously), so a composed change over several
    split/merge steps needs no bookkeeping: any old and new shard either
    overlap in one contiguous record interval or not at all.
    """

    old_plan: ShardPlan
    new_plan: ShardPlan

    def __post_init__(self) -> None:
        if self.new_plan.num_records != self.old_plan.num_records:
            raise ConfigurationError(
                f"topology change must keep the record count: "
                f"{self.old_plan.num_records} != {self.new_plan.num_records}"
            )
        if self.new_plan.block_records != self.old_plan.block_records:
            raise ConfigurationError(
                "topology change must keep the block alignment: "
                f"{self.old_plan.block_records} != {self.new_plan.block_records}"
            )
        if self.new_plan.version <= self.old_plan.version:
            raise ConfigurationError(
                f"topology versions increase: new plan carries "
                f"{self.new_plan.version}, old plan {self.old_plan.version}"
            )

    def require_built_on(self, plan: ShardPlan, follower: str) -> None:
        """Reject application to any plan but the one this change transforms.

        The one staleness rule every layer riding a change shares (the
        backend's ``apply_topology``, the tracker's ``remap``): changes
        must chain linearly from the live plan — silently applying a stale
        change would drop a concurrent reshape.  ``follower`` names the
        caller for the error message.
        """
        if self.old_plan.version != plan.version or not self.old_plan.same_boundaries(
            plan
        ):
            raise ConfigurationError(
                f"topology change was built against plan version "
                f"{self.old_plan.version}, {follower} runs version "
                f"{plan.version} (changes must chain linearly from the "
                f"live plan)"
            )

    def compose(self, later: "TopologyChange") -> "TopologyChange":
        """Fuse this change with one applied on top of its new plan.

        A rebalance pass performing several splits and merges applies them
        to successive plans; composing folds the whole sequence into one
        old→final change the data plane can swap in a single assignment.
        """
        if later.old_plan is not self.new_plan:
            raise ConfigurationError(
                "compose requires a change built on this change's new plan "
                f"(got old version {later.old_plan.version}, "
                f"expected {self.new_plan.version})"
            )
        return TopologyChange(old_plan=self.old_plan, new_plan=later.new_plan)

    # -- the old↔new shard-index mapping -----------------------------------------

    def overlap_records(self, old_index: int, new_index: int) -> Tuple[int, int]:
        """The record interval shared by an old and a new shard (may be empty)."""
        old = self.old_plan.shards[old_index]
        new = self.new_plan.shards[new_index]
        return max(old.start, new.start), min(old.stop, new.stop)

    @property
    def old_for_new(self) -> Tuple[Tuple[int, ...], ...]:
        """Per new shard: the old shard indices its records came from."""
        return tuple(
            tuple(
                old.index
                for old in self.old_plan.shards
                if max(old.start, new.start) < min(old.stop, new.stop)
            )
            for new in self.new_plan.shards
        )

    @property
    def new_for_old(self) -> Tuple[Tuple[int, ...], ...]:
        """Per old shard: the new shard indices its records landed on."""
        return tuple(
            tuple(
                new.index
                for new in self.new_plan.shards
                if max(old.start, new.start) < min(old.stop, new.stop)
            )
            for old in self.old_plan.shards
        )

    def unchanged_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """``(old_index, new_index)`` for every non-empty shard whose record
        range survived the reshape byte-for-byte.

        These are the shards whose prepared children (and accumulated heat)
        carry over untouched; only indices may have shifted.
        """
        new_by_range = {
            (new.start, new.stop): new.index
            for new in self.new_plan.shards
            if not new.is_empty
        }
        pairs = []
        for old in self.old_plan.shards:
            if old.is_empty:
                continue
            new_index = new_by_range.get((old.start, old.stop))
            if new_index is not None:
                pairs.append((old.index, new_index))
        return tuple(pairs)

    def changed_new_indices(self) -> Tuple[int, ...]:
        """New shard indices whose range exists in no old shard (need fresh
        children — the split halves and merged ranges)."""
        unchanged = {new_index for _, new_index in self.unchanged_pairs()}
        return tuple(
            new.index
            for new in self.new_plan.shards
            if not new.is_empty and new.index not in unchanged
        )

    def __repr__(self) -> str:
        return (
            f"TopologyChange(v{self.old_plan.version}->v{self.new_plan.version}, "
            f"{self.old_plan.num_shards}->{self.new_plan.num_shards} shards, "
            f"changed={list(self.changed_new_indices())})"
        )
