"""Sharded execution: one :class:`PIRBackend` composed of per-shard children.

A :class:`ShardedBackend` implements the engine's backend protocol by
delegating to one child backend per (non-empty) shard of a
:class:`~repro.shard.plan.ShardPlan`:

* ``prepare`` slices the database along the plan and hands each child its
  shard (children preload concurrently, so their preload timers fold with
  per-phase max);
* ``charge_many`` splits the engine's packed selector matrix per shard and
  lets every child price its cut (schedule-wise in parallel — child lane
  costs fold with per-phase max, and travel back with the batch as
  per-shard detail); the inherited ``execute_many`` then scans
  the whole database once, so answers are the unsharded scan's by
  construction and a flush XORs the database once, not once per shard;
* ``apply_updates`` routes dirty records to the owning shard only, leaving
  every other child's buffers untouched;
* ``swap_child`` / ``apply_topology`` are the control plane's live
  reconfiguration points: a child migration or a whole plan split/merge is
  prepared off to the side and swapped in with one reference assignment,
  in-flight queries finishing against the old snapshot.

The engine on top is a completely ordinary :class:`QueryEngine`: validation,
DPF evaluation and answer assembly neither know nor care that the database
is distributed.  Children are *bare* backends (no engine of their own) built
by a factory, so a fleet can mix kinds — preloaded PIM for hot shards,
streamed IM-PIR for cold ones (see :mod:`repro.shard.fleet`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.events import PhaseTimer
from repro.core.config import IMPIRConfig
from repro.core.engine import BackendCapabilities, PIRBackend
from repro.core.results import ShardCosts
from repro.pir.database import Database
from repro.shard.plan import ShardPlan, ShardSpec, TopologyChange

#: A callable building the bare execution backend for one shard.
ShardBackendFactory = Callable[[ShardSpec], PIRBackend]

#: One fleet member: ``(shard, child backend, child lane count)``.
ShardMember = Tuple[ShardSpec, PIRBackend, int]


def _close_children(
    members: Sequence[ShardMember], keep: Optional[Sequence[PIRBackend]] = None
) -> None:
    """Close every member child exposing ``close``, except those in ``keep``.

    Children are bare backends without a uniform lifecycle protocol, so the
    close is duck-typed; ``keep`` carries children a reshape reused in the
    successor topology, which must stay live.
    """
    kept = {id(child) for child in keep} if keep is not None else set()
    for _, child, _ in members:
        if id(child) in kept:
            continue
        child_close = getattr(child, "close", None)
        if child_close is not None:
            child_close()


class _Topology:
    """One immutable snapshot of the fleet's distribution state.

    The plan and the member triples must be read *together*: a concurrent
    ``charge_many`` that paired an old member tuple with a new plan (or vice
    versa) would zip a selector split against the wrong children and
    silently mis-price the batch.  Bundling them in one object — always
    replaced by a single reference assignment, never mutated — makes every
    reader's view consistent by construction: in-flight queries finish
    against the snapshot they started with, the next query sees the new one.
    """

    __slots__ = ("plan", "members")

    def __init__(self, plan: ShardPlan, members: Tuple[ShardMember, ...]) -> None:
        self.plan = plan
        self.members = members


class StagedTopology:
    """A reshape prepared but not yet installed (see ``stage_topology``).

    Holds the fully prepared replacement snapshot plus the snapshot it was
    built against, so ``commit_topology`` can refuse a staging that raced
    another reconfiguration instead of silently dropping it.
    """

    __slots__ = ("backend", "built_on", "topology", "report")

    def __init__(self, backend, built_on, topology, report) -> None:
        self.backend = backend
        self.built_on = built_on
        self.topology = topology
        self.report = report

#: Backend kinds :func:`bare_backend_factory` can instantiate per shard.
BARE_BACKEND_KINDS: Tuple[str, ...] = (
    "reference",
    "cpu",
    "gpu",
    "im-pir",
    "im-pir-streamed",
)


def default_child_config() -> IMPIRConfig:
    """The per-shard PIM configuration used when none is supplied.

    Small (4 DPUs, 2 tasklets) because a shard is a fraction of the database
    and functional runs must stay fast; pass an explicit config to
    :func:`bare_backend_factory` (or ``create_server("sharded", ...)``) to
    override.
    """
    from repro.pim.config import scaled_down_config

    return IMPIRConfig(pim=scaled_down_config(num_dpus=4, tasklets=2))


def bare_backend_factory(
    kind: str,
    config: Optional[IMPIRConfig] = None,
    segment_records: Optional[int] = None,
) -> ShardBackendFactory:
    """A factory producing fresh bare backends of ``kind`` for each shard.

    The CPU/GPU kinds share the reference scan substrate (a fleet's batch is
    priced by the engine's pipeline schedule, not by a per-child cost
    model); the PIM kinds each get their own simulated UPMEM system so
    shards are independent machines.
    """
    if kind not in BARE_BACKEND_KINDS:
        raise ConfigurationError(
            f"unknown shard backend kind {kind!r}; known: {', '.join(BARE_BACKEND_KINDS)}"
        )

    def build(shard: ShardSpec) -> PIRBackend:
        from repro.core.engine import ReferenceBackend

        if kind == "reference":
            return ReferenceBackend()
        if kind == "cpu":
            return ReferenceBackend(name="cpu-pir")
        if kind == "gpu":
            return ReferenceBackend(name="gpu-pir")
        child_config = config if config is not None else default_child_config()
        if kind == "im-pir":
            from repro.core.impir import PIMClusterBackend

            return PIMClusterBackend(child_config)
        from repro.core.streaming import StreamedPIMBackend

        return StreamedPIMBackend(child_config, segment_records=segment_records)

    return build


class ShardedBackend(PIRBackend):
    """A replica fleet: child backends per shard behind one backend surface.

    Children hold their shard's slice (layouts, capacity checks and update
    charges need it) and price their cut of a batch; the base class scans.
    """

    def __init__(
        self,
        child_factory: ShardBackendFactory,
        num_shards: int = 2,
        plan: Optional[ShardPlan] = None,
        block_records: int = 1,
        name: str = "sharded",
    ) -> None:
        if num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        self._child_factory = child_factory
        self._num_shards = plan.num_shards if plan is not None else num_shards
        self._block_records = plan.block_records if plan is not None else block_records
        self._requested_plan = plan
        self._name = name
        #: The plan and the ``(shard, child, lanes)`` member triples, bundled
        #: in one immutable :class:`_Topology` snapshot that is only ever
        #: replaced by a single reference assignment.  A live migration
        #: (:meth:`swap_child`) must never let a concurrent ``charge_many`` pair
        #: a new child with a stale lane count, and an online reshape
        #: (:meth:`apply_topology`) must never let it pair a new plan's
        #: selector split with the old member tuple — both invariants fall
        #: out of reading the snapshot once.  The per-member lane cache
        #: lives *inside* the triple for the same reason (the hot path must
        #: not rebuild child capability objects per query either).
        self._topology: Optional[_Topology] = None
        #: Optional structured event log (:meth:`instrument`) for per-shard
        #: scan and topology events.  ``None`` by default — the
        #: uninstrumented hot path pays one identity check per shard.
        self.events = None

    @property
    def plan(self) -> Optional[ShardPlan]:
        """The plan currently in effect (``None`` before ``prepare``)."""
        snapshot = self._topology
        return snapshot.plan if snapshot is not None else None

    @property
    def _members(self) -> Tuple[ShardMember, ...]:
        """Current member triples (one consistent read of the snapshot)."""
        snapshot = self._topology
        return snapshot.members if snapshot is not None else ()

    # -- database lifecycle ------------------------------------------------------

    def prepare(self, database: Database) -> Optional[PhaseTimer]:
        """Slice the database along the plan and prepare one child per shard.

        Shards preload concurrently on independent machines, so child preload
        timers fold with per-phase max.  With an explicitly pinned plan the
        database must match its shape (silently substituting a uniform plan
        would discard the caller's placement); without one, a re-prepare with
        a different shape rebuilds the plan uniformly, keeping the shard
        count and alignment.
        """
        self._database = database
        if self._requested_plan is not None:
            self._requested_plan.check_shape(database.num_records)
            plan = self._requested_plan
        else:
            plan = ShardPlan.uniform(
                database.num_records, self._num_shards, self._block_records
            )
        timer = PhaseTimer()
        members: List[ShardMember] = []
        for shard, shard_db in zip(
            plan.non_empty_shards, plan.slice_database(database)
        ):
            child = self._child_factory(shard)
            report = child.prepare(shard_db)
            if report is not None:
                timer.merge_parallel(report)
            members.append((shard, child, child.capabilities().lanes))
        # A re-prepare replaces the children wholesale; close the old
        # generation (a child may hold resources of its own).
        if self._topology is not None:
            _close_children(self._topology.members)
        self._topology = _Topology(plan, tuple(members))
        return timer if timer.durations else None

    def close(self) -> None:
        """Close the children of a backend that will never serve again.

        The drain path for elastic replicas: a drained member is detached
        under the reconfigure gate, so no scan is in flight.  Closing
        propagates to every child exposing ``close`` (a nested sharded
        fleet, a child holding a resource of its own), so a fleet drain
        releases the whole subtree — long-lived deployments reshape
        replicas for their entire life and must not leak a generation of
        children per reshape.  The backend itself holds nothing to release
        and stays structurally intact (children, topology).
        """
        snapshot = self._topology
        if snapshot is not None:
            _close_children(snapshot.members)

    def apply_updates(self, database: Database, dirty_indices: Sequence[int]) -> PhaseTimer:
        """Swap in an updated database, touching only the owning shards.

        Dirty records are routed through the plan; a child whose shard holds
        none of them keeps its execution buffers untouched (and costs
        nothing).  Each owning child gets its shard slice and shard-local
        dirty indices (the PIM backend re-copies only the dirty MRAM blocks;
        the :class:`PIRBackend` default re-prepares the slice).
        """
        snapshot = self._topology
        if snapshot is None:
            raise ProtocolError("sharded backend has no prepared database")
        plan, members = snapshot.plan, snapshot.members
        plan.check_shape(database.num_records)
        routed = plan.route_records(dirty_indices)
        timer = PhaseTimer()
        for shard, child, _ in members:
            dirty = routed.get(shard.index)
            if not dirty:
                continue
            # Same slicing rule as prepare (plan.slice_database goes through
            # slice_shard too): update slices must be byte-identical to the
            # prepare-time slices or shards drift from the full database.
            shard_db = plan.slice_shard(database, shard)
            local = sorted(index - shard.start for index in dirty)
            timer.merge_parallel(child.apply_updates(shard_db, local))
        self._database = database
        return timer

    # -- capability metadata -----------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        """Fleet-level capabilities aggregated from the children.

        Lanes and batch workers take the fleet minimum (every shard must be
        able to serve the lane the engine picks); ``preloaded`` holds only
        if it holds for every member; capacity is the sum of the members'
        advertised bounds when all are known.
        """
        children = [child.capabilities() for _, child, _ in self._members]
        if not children:
            # No members yet: advertise no residency and no capacity, so a
            # router sizing against these capabilities never mistakes an
            # unprepared fleet for a preloaded one.
            return BackendCapabilities(
                name=self._name,
                preloaded=False,
                max_records=0,
                description="sharded (unprepared)",
            )
        max_records: Optional[int] = 0
        for caps in children:
            if caps.max_records is None:
                max_records = None
                break
            max_records += caps.max_records
        kinds = sorted({caps.name for caps in children})
        return BackendCapabilities(
            name=self._name,
            lanes=min(caps.lanes for caps in children),
            batch_workers=min(caps.batch_workers for caps in children),
            preloaded=all(caps.preloaded for caps in children),
            max_records=max_records,
            description=(
                f"{len(self._members)} shards over {'+'.join(kinds)} backends"
            ),
        )

    # -- timing hooks --------------------------------------------------------------

    def latency_eval_seconds(self, num_records: int) -> float:
        """Host DPF evaluation happens once for the full domain; the fleet is
        as slow as its slowest member's host."""
        return max(
            (child.latency_eval_seconds(num_records) for _, child, _ in self._members),
            default=0.0,
        )

    def batch_eval_seconds(self, num_records: int) -> float:
        return max(
            (child.batch_eval_seconds(num_records) for _, child, _ in self._members),
            default=0.0,
        )

    # -- the sharded dpXOR, priced -------------------------------------------------

    def charge_many(
        self,
        selector_matrix: np.ndarray,
        lanes: np.ndarray,
        costs: Mapping[int, PhaseTimer],
    ) -> Dict[int, ShardCosts]:
        """Batched sharded pricing: split once, let every child charge its cut.

        The packed selector matrix is split into per-shard cuts **once per
        batch** (zero-copy views for shards on the 8-record grid, see
        :meth:`~repro.shard.plan.ShardPlan.split_selector_many`), and each
        child prices its cut into one cost per child lane; no child scans.

        Shards are walked in plan order on the calling thread; they stand
        for independent machines, so child costs fold with per-phase max
        (schedule-wise parallel) before being charged to each lane's cost
        (reference-scan children record no phases).  Returns each lane's
        child costs, ``(shard index, cost)`` in shard order, for per-shard
        trace spans.  The walk reads the topology snapshot once: a live
        migration swapping a child mid-walk — or a reshape swapping the
        whole plan — must not tear it (the snapshot pairs the plan with its
        members, and each triple pairs the child with its lane count).  The
        engine bounds lanes by the fleet minimum, but members keep serving
        if a caller drives a bare backend with a larger lane: such a lane is
        served by the child's last lane.
        """
        snapshot = self._topology
        if snapshot is None:
            raise ProtocolError("sharded backend has no prepared database")
        blocks = snapshot.plan.split_selector_many(selector_matrix)

        combined = {lane: PhaseTimer() for lane in costs}
        shards: Dict[int, list] = {lane: [] for lane in costs}
        for (shard, child, child_lanes), block in zip(snapshot.members, blocks):
            last = child_lanes - 1
            child_row_lanes = np.minimum(lanes, last)
            child_costs = {lane: PhaseTimer() for lane in np.unique(child_row_lanes).tolist()}
            child.charge_many(block, child_row_lanes, child_costs)
            for lane, total in combined.items():
                child_cost = child_costs[min(lane, last)]
                total.merge_parallel(child_cost)
                shards[lane].append((shard.index, child_cost))
            if self.events is not None:
                seconds = {lane: cost.total for lane, cost in child_costs.items()}
                self.events.emit(
                    "shard.scan",
                    shard=shard.index,
                    records=shard.num_records,
                    batch=len(lanes),
                    seconds=sum([seconds[lane] for lane in child_row_lanes.tolist()]),
                )
        for lane, cost in costs.items():
            cost.merge(combined[lane])
        return {lane: tuple(detail) for lane, detail in shards.items()}

    # -- views for servers/tests ----------------------------------------------------

    @property
    def members(self) -> Tuple[Tuple[ShardSpec, PIRBackend], ...]:
        """``(shard, child backend)`` pairs, in shard order.

        An **immutable snapshot**: the tuple is derived from one read of the
        topology snapshot, so it stays internally consistent while
        concurrent :meth:`swap_child` / :meth:`apply_topology` calls land —
        but it also goes stale the moment one does.  Re-read the property
        for a fresh view; mutating fleet membership goes through the swap
        methods, never through this tuple.
        """
        return tuple((shard, child) for shard, child, _ in self._members)

    # -- observability ---------------------------------------------------------------

    def instrument(self, events=None) -> None:
        """Attach a structured event log (optional, default off).

        ``events`` (an :class:`repro.obs.events.EventLog`) receives per-shard
        ``shard.scan`` events and the ``topology.*`` reconfiguration events.
        Per-shard costs need no hook: they travel back with every batch
        (see :meth:`charge_many`).  Emission is fault-isolated and
        thread-safe on the log's side; with ``None`` the scan path is
        exactly the uninstrumented one.
        """
        self.events = events

    # -- live reconfiguration (the control plane's swap points) ----------------------

    def swap_child(self, shard_index: int, child: PIRBackend) -> Optional[PhaseTimer]:
        """Atomically replace one shard's child backend with ``child``.

        The migration primitive of the online rebalancer
        (:class:`repro.control.rebalancer.Rebalancer`): the new child is
        prepared on the shard's current database slice (the same
        :meth:`~repro.shard.plan.ShardPlan.slice_shard` cut ``prepare`` and
        ``apply_updates`` use, so its bytes cannot drift from the fleet's)
        *before* the member entry is replaced — queries keep hitting the old
        child until the single-assignment swap, and are bit-identical either
        way because both children hold the same slice.  Returns the new
        child's preload report (the migration's transfer cost), if any.
        """
        snapshot = self._topology
        if self._database is None or snapshot is None:
            raise ProtocolError("sharded backend has no prepared database")
        plan, members = snapshot.plan, snapshot.members
        for position, (shard, _, _) in enumerate(members):
            if shard.index == shard_index:
                break
        else:
            raise ConfigurationError(
                f"no non-empty shard with index {shard_index} to swap"
            )
        report = child.prepare(plan.slice_shard(self._database, shard))
        replaced = list(members)
        outgoing = replaced[position]
        replaced[position] = (shard, child, child.capabilities().lanes)
        # Single reference assignment: a charge_many() running concurrently (on
        # one of the asyncio frontend's replica worker threads) reads either
        # the old snapshot or the new one, never a child paired with a stale
        # lane count or a stale plan.
        self._topology = _Topology(plan, tuple(replaced))
        # Migrations run under the control plane's reconfigure gate, so the
        # outgoing child has no scan in flight; release its resources now or
        # a long-lived fleet leaks one backend per migration.
        _close_children([outgoing])
        if self.events is not None:
            self.events.emit(
                "topology.swap_child",
                shard=shard_index,
                child=child.capabilities().name,
                transfer_seconds=report.total if report is not None else 0.0,
            )
        return report

    def stage_topology(
        self,
        change: TopologyChange,
        child_factory: Optional[ShardBackendFactory] = None,
    ) -> "StagedTopology":
        """Prepare a reshape off to the side, **mutating nothing**.

        The fallible half of the two-phase reshape: children for the
        *changed* ranges (the split halves, the merged spans) are built by
        ``child_factory`` (defaulting to the backend's own) and prepared on
        the **new** plan's slices; children whose shard range survived the
        reshape byte-for-byte are reused as-is (their prepared buffers are
        still exactly their slice — only the shard index moved).  Any
        failure here — a factory error, a child refusing its slice —
        leaves the backend exactly as it was.  The returned staging is
        installed by :meth:`commit_topology`, which *cannot* fail: that is
        what lets a router stage a change across every replica fleet
        before any fleet commits, so a multi-fleet reshape never applies
        partially.

        Raises :class:`ConfigurationError` when ``change`` was built
        against any plan but the one currently in effect (topology
        versions must evolve linearly; a stale change would silently drop
        a concurrent reshape).
        """
        snapshot = self._topology
        if self._database is None or snapshot is None:
            raise ProtocolError("sharded backend has no prepared database")
        plan, members = snapshot.plan, snapshot.members
        change.require_built_on(plan, "this backend")
        factory = child_factory if child_factory is not None else self._child_factory
        child_by_old_index: Dict[int, Tuple[PIRBackend, int]] = {
            shard.index: (child, lanes) for shard, child, lanes in members
        }
        reused_old = {
            new_index: old_index
            for old_index, new_index in change.unchanged_pairs()
        }
        timer = PhaseTimer()
        new_members: List[ShardMember] = []
        for shard in change.new_plan.non_empty_shards:
            old_index = reused_old.get(shard.index)
            if old_index is not None and old_index in child_by_old_index:
                child, lanes = child_by_old_index[old_index]
                new_members.append((shard, child, lanes))
                continue
            child = factory(shard)
            report = child.prepare(
                change.new_plan.slice_shard(self._database, shard)
            )
            if report is not None:
                timer.merge_parallel(report)
            new_members.append((shard, child, child.capabilities().lanes))
        return StagedTopology(
            backend=self,
            built_on=snapshot,
            topology=_Topology(change.new_plan, tuple(new_members)),
            report=timer if timer.durations else None,
        )

    def commit_topology(self, staged: "StagedTopology") -> Optional[PhaseTimer]:
        """Install a staged reshape: one reference assignment, cannot fail.

        ``execute_many`` calls in flight on another thread finish against the old
        snapshot and the next query sees the new topology whole; retrievals
        are bit-identical throughout (both topologies tile the same
        database bytes).  Returns the staging's preload report (the
        reshape's transfer cost, folded per-phase max — changed ranges
        stand up in parallel), or ``None`` when nothing charged a timer.
        """
        if staged.backend is not self:
            raise ConfigurationError(
                "staged topology belongs to a different backend"
            )
        if staged.built_on is not self._topology:
            raise ConfigurationError(
                "the topology moved between stage and commit; re-stage "
                "against the live plan"
            )
        outgoing = staged.built_on
        # The single-assignment swap (see _Topology): in-flight queries keep
        # the old plan *and* the old members; nothing ever mixes the two.
        self._topology = staged.topology
        # A later full re-prepare must rebuild the topology in effect, not
        # resurrect the pre-reshape plan.
        self._requested_plan = staged.topology.plan
        # Children the reshape did not carry forward are done serving
        # (commits happen under the reconfigure gate); close them so repeated
        # reshapes never accumulate a generation of dead children.
        _close_children(
            outgoing.members, keep=[child for _, child, _ in staged.topology.members]
        )
        if self.events is not None:
            self.events.emit(
                "topology.applied",
                version=staged.topology.plan.version,
                shards=staged.topology.plan.num_shards,
                transfer_seconds=(
                    staged.report.total if staged.report is not None else 0.0
                ),
            )
        return staged.report

    def apply_topology(
        self,
        change: TopologyChange,
        child_factory: Optional[ShardBackendFactory] = None,
    ) -> Optional[PhaseTimer]:
        """Atomically reshape the fleet along a plan split/merge change.

        The topology counterpart of :meth:`swap_child`:
        :meth:`stage_topology` then :meth:`commit_topology` in one call —
        the convenient form when there is only this one backend to
        reshape.  A router coordinating *several* replica fleets stages
        them all before committing any (see
        :meth:`repro.shard.fleet.FleetRouter.apply_topology`), so a
        failure can never leave the fleets on different plan versions.
        """
        return self.commit_topology(self.stage_topology(change, child_factory))
