"""Fleet routing: capability-aware placement of shards onto backend kinds.

The registry's capability metadata says *what* each backend kind is
(``preloaded`` or streamed, how many lanes); the timing models say *what it
costs* to hold and to scan a shard there.  This module combines the two into
a placement decision: for every shard of a :class:`~repro.shard.plan.ShardPlan`,
given an expected query rate ("heat"), pick the cheapest capable backend
kind over an operating window —

* a **preloaded** kind (PIM MRAM) pays the shard transfer once per window
  and then scans from resident memory, so it wins for hot shards;
* a **streamed** kind pays the shard transfer on *every* query but keeps no
  standing copy, so it wins for cold shards (heat below roughly one query
  per window — the transfer amortisation break-even).

A :class:`FleetRouter` applies the placement: each of the two privacy
replicas becomes a *fleet* — a :class:`ReplicaGroup` of one or more
identical :class:`~repro.pir.server.PIRServer` members over a
:class:`~repro.shard.backend.ShardedBackend` whose per-shard children
follow the chosen kinds — behind the ordinary batching
:class:`~repro.pir.frontend.PIRFrontend` surface, with the per-shard cost
estimates kept on ``placements`` for bench reporting.

The group layer is what makes the fleet **replica-elastic** without
touching the privacy protocol: the two-server XOR scheme pins the number
of *trust domains* (``check_replicas`` insists on exactly
``client.num_servers`` replica slots with positional server ids), so
capacity scaling happens *within* each domain.  Every member of a group
holds the same bytes and answers any query identically, which is why
round-robin dispatch, :meth:`FleetRouter.add_replica` and
:meth:`FleetRouter.drain_replica` are all invisible in the retrieved
records — elasticity changes who does the work, never the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.core.config import IMPIRConfig
from repro.pim.timing import PIMTimingModel
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy, PIRFrontend
from repro.pir.server import PIRServer
from repro.shard.backend import (
    PIRBackend,
    ShardBackendFactory,
    ShardedBackend,
    bare_backend_factory,
    default_child_config,
)
from repro.shard.plan import ShardPlan, ShardSpec, TopologyChange


@dataclass(frozen=True)
class CandidateKind:
    """One backend kind a shard could be placed on, with its cost formulas.

    ``per_query_seconds``/``preload_seconds`` take ``(num_records,
    record_size)`` of a shard and return simulated seconds; ``preloaded``
    mirrors the kind's :class:`~repro.core.engine.BackendCapabilities` flag.
    """

    kind: str
    preloaded: bool
    per_query_seconds: Callable[[int, int], float]
    preload_seconds: Callable[[int, int], float]


@dataclass(frozen=True)
class ShardPlacement:
    """One shard's placement decision plus the estimates that justified it."""

    shard: ShardSpec
    kind: str
    preloaded: bool
    #: Expected queries touching this shard per operating window.
    heat: float
    per_query_seconds: float
    preload_seconds: float

    @property
    def window_cost_seconds(self) -> float:
        """Estimated shard cost over one window: preload + heat x per-query."""
        return self.preload_seconds + self.heat * self.per_query_seconds


def default_candidates(config: Optional[IMPIRConfig] = None) -> List[CandidateKind]:
    """The two PIM deployment kinds the paper's capacity discussion contrasts.

    Costs come from the same :class:`~repro.pim.timing.PIMTimingModel` the
    functional simulators charge, evaluated on shard-shaped byte counts:
    the dpXOR chain is common to both; the streamed kind adds the shard
    transfer to every query, the preloaded kind pays it once per window.
    """
    config = config if config is not None else IMPIRConfig()
    timing = PIMTimingModel(config.pim)
    dpus = config.pim.num_dpus

    def chain_seconds(num_records: int, record_size: int) -> float:
        records_per_dpu = -(-num_records // dpus)
        selector_bytes = dpus * ((records_per_dpu + 7) // 8)
        kernel = timing.dpu_dpxor_cost(records_per_dpu * record_size, record_size)
        return (
            timing.host_to_dpu_seconds(selector_bytes)
            + timing.launch_seconds(dpus)
            + kernel.total_seconds
            + timing.dpu_to_host_seconds(dpus * record_size)
            + timing.host_aggregate_xor_seconds(dpus, record_size)
        )

    def shard_copy_seconds(num_records: int, record_size: int) -> float:
        return timing.host_to_dpu_seconds(num_records * record_size)

    return [
        CandidateKind(
            kind="im-pir",
            preloaded=True,
            per_query_seconds=chain_seconds,
            preload_seconds=shard_copy_seconds,
        ),
        CandidateKind(
            kind="im-pir-streamed",
            preloaded=False,
            per_query_seconds=lambda n, r: chain_seconds(n, r) + shard_copy_seconds(n, r),
            preload_seconds=lambda n, r: 0.0,
        ),
    ]


def heats_from_trace(
    plan: ShardPlan,
    indices: Sequence[int],
    arrival_seconds: Optional[Sequence[float]] = None,
    window_seconds: float = 1.0,
    decay: float = 0.5,
) -> List[float]:
    """Expected per-window queries per shard, measured from a trace of indices.

    Returns one heat per shard of the plan (empty shards get 0.0); the
    natural input for :func:`plan_placements` when a workload sample is
    available.

    The trace is routed through the control plane's
    :class:`~repro.control.telemetry.HeatTracker`, so offline planning and
    online rebalancing agree on units by construction.  Without
    ``arrival_seconds`` the whole trace counts as **one** operating window
    (raw per-shard counts — only comparable to a live tracker whose window
    spans the same traffic).  With per-index arrival stamps the trace is
    replayed through windows of ``window_seconds`` with ``decay``, yielding
    exactly the estimate a live tracker configured the same way would
    report — pass the tracker's own parameters when seeding a fleet that a
    rebalancer will later re-place, or the seed placement and the first
    online pass will price heat on different scales.
    """
    # Imported lazily: the data plane sits below the control plane, and this
    # one offline helper is the only place it borrows the control-plane
    # normalization (a module-level import would be circular).
    from repro.control.telemetry import HeatTracker

    tracker = HeatTracker(plan, window_seconds=window_seconds, decay=decay)
    if arrival_seconds is None:
        tracker.observe_batch(indices, now=0.0)
    else:
        if len(arrival_seconds) != len(indices):
            raise ConfigurationError(
                f"got {len(arrival_seconds)} arrival stamps for "
                f"{len(indices)} trace indices"
            )
        for index, now in zip(indices, arrival_seconds):
            tracker.observe_batch([index], now)
    return tracker.heats()


def plan_placements(
    plan: ShardPlan,
    record_size: int,
    heats: Sequence[float],
    candidates: Optional[Sequence[CandidateKind]] = None,
) -> List[ShardPlacement]:
    """Place every non-empty shard on its cheapest capable backend kind.

    ``heats[i]`` is the expected number of queries touching shard ``i`` per
    operating window.  For each shard the candidates' window costs
    (``preload + heat * per_query``) are compared; ties go to the first
    candidate listed.
    """
    if len(heats) != plan.num_shards:
        raise ConfigurationError(
            f"got {len(heats)} heats for {plan.num_shards} shards"
        )
    if any(heat < 0 for heat in heats):
        raise ConfigurationError("shard heats must be non-negative")
    if candidates is None:
        candidates = default_candidates()
    if not candidates:
        raise ConfigurationError("placement needs at least one candidate kind")

    placements: List[ShardPlacement] = []
    for shard in plan.non_empty_shards:
        heat = float(heats[shard.index])
        options = [
            ShardPlacement(
                shard=shard,
                kind=candidate.kind,
                preloaded=candidate.preloaded,
                heat=heat,
                per_query_seconds=candidate.per_query_seconds(
                    shard.num_records, record_size
                ),
                preload_seconds=candidate.preload_seconds(
                    shard.num_records, record_size
                ),
            )
            for candidate in candidates
        ]
        placements.append(min(options, key=lambda option: option.window_cost_seconds))
    return placements


def placement_for_kind(
    shard: ShardSpec,
    kind: str,
    record_size: int,
    heat: float,
    candidates: Sequence[CandidateKind],
) -> ShardPlacement:
    """A :class:`ShardPlacement` pinned to one *specific* kind.

    What a damped kind migration installs: the cheapest-kind choice was
    vetoed, so the reporting surface must keep pricing the shard at the
    kind it actually still runs.
    """
    for candidate in candidates:
        if candidate.kind == kind:
            return ShardPlacement(
                shard=shard,
                kind=kind,
                preloaded=candidate.preloaded,
                heat=heat,
                per_query_seconds=candidate.per_query_seconds(
                    shard.num_records, record_size
                ),
                preload_seconds=candidate.preload_seconds(
                    shard.num_records, record_size
                ),
            )
    raise ConfigurationError(f"kind {kind!r} is not among the placement candidates")


def render_placements(placements: Sequence[ShardPlacement]) -> List[str]:
    """Plain-text placement table (one line per shard) for bench reporting."""
    lines = [
        f"{'shard':>6} {'records':>10} {'heat':>8} {'kind':>16} "
        f"{'per-query':>12} {'window cost':>12}"
    ]
    for placement in placements:
        shard_range = f"[{placement.shard.start},{placement.shard.stop})"
        lines.append(
            f"{placement.shard.index:>6} {shard_range:>10} "
            f"{placement.heat:>8.1f} {placement.kind:>16} "
            f"{placement.per_query_seconds * 1e3:>10.3f}ms "
            f"{placement.window_cost_seconds * 1e3:>10.3f}ms"
        )
    return lines


def fleet_member(
    database: Database, server_id: int, plan: ShardPlan, child_factory: ShardBackendFactory
) -> PIRServer:
    """One replica-group member: a server over a sharded backend on ``plan``."""
    return PIRServer(ShardedBackend(child_factory, plan=plan), database, server_id)


class ReplicaGroup:
    """The live members of one trust domain, behind a single replica slot.

    The frontend sees exactly one "replica" per privacy server (the pairing
    invariant keys answers by ``server_id``); the group fans that slot out
    over ``members`` — identical :func:`fleet_member` servers holding the
    same bytes on the same plan.  Queries round-robin
    across members (any member returns the identical answer, so dispatch
    order can never show up in a retrieved record); updates land on *every*
    member, keeping them interchangeable.

    The group also owns the **staging journal** that makes online replica
    adds safe against concurrent writes: while any stage is open
    (:meth:`open_stage`), every update batch is journaled with a sequence
    number *before* it is applied to the members, so a new member built
    from a database snapshot can replay exactly the batches it missed
    (:meth:`updates_since`).  Replaying a batch the snapshot already
    contains is harmless — updates are idempotent per ``(index, bytes)`` —
    which is what lets the journal bracket the snapshot instead of having
    to coordinate with it.
    """

    def __init__(self, server_id: int, members: Sequence[PIRServer]) -> None:
        members = list(members)
        if not members:
            raise ConfigurationError(
                f"replica group {server_id} needs at least one member"
            )
        for member in members:
            if member.server_id != server_id:
                raise ConfigurationError(
                    f"group member carries server_id {member.server_id}, "
                    f"expected {server_id} (members must stay inside one "
                    "trust domain)"
                )
        self.server_id = server_id
        self._members = members
        self._next = 0
        self._journal: List[Tuple[int, List]] = []
        self._seq = 0
        self._open_stages = 0

    @property
    def members(self) -> Tuple[PIRServer, ...]:
        return tuple(self._members)

    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def database(self) -> Database:
        """The bytes every member currently serves (members are identical)."""
        return self._members[0].database

    @property
    def plan(self) -> ShardPlan:
        return self._members[0].backend.plan

    def answer_batch(self, queries):
        """Dispatch one batch to the next member, round-robin.

        A racing increment under concurrent flushes at worst repeats a
        member — still bit-identical, only the load spread is affected.
        """
        member = self._members[self._next % len(self._members)]
        self._next += 1
        return member.answer_batch(queries)

    def apply_updates(self, updates) -> None:
        """Land updates on every member (journal first while staging)."""
        updates = list(updates)
        if self._open_stages:
            self._seq += 1
            self._journal.append((self._seq, updates))
        for member in self._members:
            member.apply_updates(updates)

    # -- membership ------------------------------------------------------------------

    def add_member(self, member: PIRServer) -> None:
        """Append a caught-up member (the commit point of a replica add).

        The new member inherits the group's instrumentation: whatever event
        log the hub wired onto member 0 at attach time follows membership,
        so elastically added servers are as observable as construction-time
        ones.
        """
        if member.server_id != self.server_id:
            raise ConfigurationError(
                f"member carries server_id {member.server_id}, "
                f"expected {self.server_id}"
            )
        reference = self._members[0]
        member.engine.events = reference.engine.events
        member.backend.instrument(events=reference.backend.events)
        self._members.append(member)

    def remove_member(self) -> PIRServer:
        """Detach the most recently added member (LIFO keeps member 0, the
        construction-time server other components may hold references to)."""
        if len(self._members) <= 1:
            raise ConfigurationError(
                f"replica group {self.server_id} cannot drop its last member"
            )
        return self._members.pop()

    # -- the staging journal ---------------------------------------------------------

    def open_stage(self) -> int:
        """Start journaling updates; returns the sequence watermark to replay
        from at commit.  Stages nest (concurrent adds each close their own)."""
        self._open_stages += 1
        return self._seq

    def close_stage(self) -> None:
        """End one stage; the journal empties when the last stage closes."""
        if self._open_stages <= 0:
            raise ConfigurationError(
                f"replica group {self.server_id} has no open stage"
            )
        self._open_stages -= 1
        if self._open_stages == 0:
            self._journal.clear()

    def updates_since(self, seq: int) -> List[List]:
        """Every journaled update batch after the ``seq`` watermark, in order."""
        return [updates for entry_seq, updates in self._journal if entry_seq > seq]


@dataclass
class StagedReplicas:
    """One prepared-but-not-installed member per trust domain.

    Produced by :meth:`FleetRouter.stage_replicas` (expensive, runs outside
    any quiesce gate) and consumed by :meth:`FleetRouter.commit_replicas`
    (cheap, runs inside it) or :meth:`FleetRouter.abandon_replicas`.
    ``plan`` pins the topology the members were built against; ``seqs``
    are the per-group journal watermarks to replay from.
    """

    router: "FleetRouter"
    plan: ShardPlan
    members: List[PIRServer]
    seqs: List[int]
    committed: bool = False
    closed: bool = field(default=False, repr=False)


class FleetRouter(PIRFrontend):
    """A batching frontend whose replicas are capability-placed shard fleets.

    Builds one sharded :class:`~repro.pir.server.PIRServer` per privacy
    replica; each server's shard children follow the placement computed from
    ``heats`` (hot shards on preloaded PIM, cold shards on streamed IM-PIR,
    by default).  Everything else — batching policy, answer pairing,
    scheduling metrics — is the ordinary frontend surface.
    """

    def __init__(
        self,
        client: PIRClient,
        database: Database,
        plan: ShardPlan,
        heats: Sequence[float],
        candidates: Optional[Sequence[CandidateKind]] = None,
        child_config: Optional[IMPIRConfig] = None,
        policy: Optional[BatchingPolicy] = None,
        dedup: bool = False,
        observers: Sequence = (),
        cache=None,
        initial_replicas: int = 1,
    ) -> None:
        plan.check_shape(database.num_records)
        if initial_replicas < 1:
            raise ConfigurationError("initial_replicas must be at least 1")
        self.plan = plan
        #: Optional :class:`~repro.obs.events.EventLog` (hub-wired);
        #: ``replica.added`` / ``replica.drained`` events emit through it.
        self.events = None
        #: Remembered for the control plane: an online rebalancer must build
        #: migrated children on the same machine model the fleet started
        #: with, and cost candidates against it.
        self.child_config = child_config
        if candidates is None:
            # Cost the placement on the machine model the children will
            # actually run with, not the paper-scale default.
            candidates = default_candidates(
                child_config if child_config is not None else default_child_config()
            )
        self.candidates = list(candidates)
        # Placements and the kind map move together (install_placements):
        # the factory below reads the map live — it is also the fleets'
        # default child builder after online reshapes and kind migrations
        # renumber or re-place the shards, so it must follow the placements
        # in effect, never a construction-time snapshot.
        self.install_placements(
            plan_placements(plan, database.record_size, heats, candidates=candidates)
        )

        def child_factory(shard: ShardSpec) -> PIRBackend:
            return bare_backend_factory(
                self._kind_by_shard[shard.index], config=child_config
            )(shard)

        # Remembered for elasticity: a staged replica member must be built
        # exactly like the construction-time ones (same live kind map), or
        # the group's members would stop being interchangeable.
        self._child_factory = child_factory
        replicas = [
            ReplicaGroup(
                server_id,
                [
                    fleet_member(database, server_id, plan, child_factory)
                    for _ in range(initial_replicas)
                ],
            )
            for server_id in range(client.num_servers)
        ]
        super().__init__(
            client, replicas, policy=policy, dedup=dedup, observers=observers, cache=cache
        )

    @property
    def fleets(self) -> List[PIRServer]:
        """Every live sharded server, across all trust domains and members.

        The reshape/migration surface: ``apply_topology`` stages and commits
        over this list and the rebalancer's kind migrations swap children on
        it, so elastic members automatically ride every topology change the
        moment they are installed.
        """
        return [member for group in self.replicas for member in group.members]

    @property
    def replica_count(self) -> int:
        """Members per trust domain (groups scale in lockstep)."""
        return self.replicas[0].size

    # -- replica elasticity ----------------------------------------------------------

    def stage_replicas(self) -> StagedReplicas:
        """Prepare one fresh member per trust domain, off to the side.

        The expensive half of a replica add — per-shard children built and
        preloaded from the group's current database snapshot — runs with
        **no** quiesce held: the groups journal any update batches that land
        meanwhile (from :meth:`ReplicaGroup.open_stage` on), and
        :meth:`commit_replicas` replays exactly those.  Nothing observable
        changes until the commit; :meth:`abandon_replicas` discards cleanly.
        """
        plan = self.plan
        members: List[PIRServer] = []
        seqs: List[int] = []
        opened: List[ReplicaGroup] = []
        try:
            for group in self.replicas:
                # Open the journal *before* reading the snapshot: an update
                # racing in between lands in both, and replay is idempotent.
                seqs.append(group.open_stage())
                opened.append(group)
                members.append(
                    fleet_member(
                        group.database, group.server_id, plan, self._child_factory
                    )
                )
        except Exception:
            for group in opened:
                group.close_stage()
            raise
        return StagedReplicas(router=self, plan=plan, members=members, seqs=seqs)

    def commit_replicas(self, staged: StagedReplicas) -> List[PIRServer]:
        """Install staged members into their groups (call under the gate).

        Replays each group's journaled updates onto its new member first
        (the only fallible part — the data plane is untouched if it dies),
        then appends every member and closes the stages: pure list appends
        that cannot fail halfway, so the groups always scale in lockstep.
        A topology change between stage and commit invalidates the staging
        (the members hold the old plan) — it is abandoned and the caller
        must re-stage.  Kind *migrations* (which keep the plan) are
        tolerated: a member on a stale kind serves identical bytes, only
        its cost bookkeeping lags until the next migration pass.
        """
        if staged.router is not self:
            raise ConfigurationError("staged replicas belong to another router")
        if staged.committed or staged.closed:
            raise ConfigurationError("staged replicas already committed or abandoned")
        if staged.plan is not self.plan:
            self.abandon_replicas(staged)
            raise ConfigurationError(
                "topology moved between stage and commit; re-stage the replicas"
            )
        for group, member, seq in zip(self.replicas, staged.members, staged.seqs):
            for updates in group.updates_since(seq):
                member.apply_updates(updates)
        for group, member in zip(self.replicas, staged.members):
            group.add_member(member)
            group.close_stage()
        staged.committed = True
        staged.closed = True
        if self.events is not None:
            self.events.emit(
                "replica.added",
                replicas=self.replica_count,
                plan_version=self.plan.version,
            )
        return staged.members

    def abandon_replicas(self, staged: StagedReplicas) -> None:
        """Discard a staging without installing it (idempotent)."""
        if staged.closed:
            return
        staged.closed = True
        for group in self.replicas:
            group.close_stage()
        for member in staged.members:
            close = getattr(member.backend, "close", None)
            if close is not None:
                close()

    def add_replica(self) -> List[PIRServer]:
        """Stage and commit one new member per trust domain, inline.

        The synchronous convenience path (the async control driver stages
        outside the gate itself and only commits under it).  Returns the
        installed members.
        """
        staged = self.stage_replicas()
        try:
            return self.reconfigure(lambda: self.commit_replicas(staged))
        except Exception:
            self.abandon_replicas(staged)
            raise

    def drain_replica(self) -> List[PIRServer]:
        """Retire the most recent member of every group, under the gate.

        The reconfigure gate is what "waits out in-flight flushes": by the
        time the mutator runs no flush is in flight (structurally on the
        sync frontend, via the writer-preferring quiesce on the async one),
        so the drained members are idle and can be closed immediately.
        Returns the drained members.
        """
        if self.replica_count <= 1:
            raise ConfigurationError(
                "cannot drain the last replica of each trust domain"
            )

        def mutate() -> List[PIRServer]:
            drained = [group.remove_member() for group in self.replicas]
            for member in drained:
                close = getattr(member.backend, "close", None)
                if close is not None:
                    close()
            if self.events is not None:
                self.events.emit(
                    "replica.drained",
                    replicas=self.replica_count,
                    plan_version=self.plan.version,
                )
            return drained

        return self.reconfigure(mutate)

    # Bulk updates ride the inherited PIRFrontend.apply_updates: each fleet
    # routes dirty records to their owning shards only, and an attached
    # hot-record cache drops the dirty indices first.

    def apply_topology(
        self,
        change: TopologyChange,
        placements: Sequence[ShardPlacement],
    ) -> List[Optional["PhaseTimer"]]:
        """Install one agreed topology across every replica fleet.

        The router-level reshape point: ``placements`` (computed by
        :func:`plan_placements` over the **new** plan, normally by the
        control plane's rebalancer) chooses the backend kind each changed
        shard's fresh children are built with, and every fleet rides the
        same :class:`~repro.shard.plan.TopologyChange` — inside the
        frontend's :meth:`reconfigure` gate, so no flush ever spans two
        plan versions (structurally true on this simulated-clock frontend;
        the asyncio frontend enforces the same guarantee with its
        writer-preferring quiesce).

        The apply is two-phase: every fleet *stages* the change first
        (fresh children prepared off to the side — the only part that can
        fail, and it mutates nothing), and only once all stagings succeed
        does every fleet *commit* (pure reference assignments that cannot
        fail).  A factory error or a child refusing its slice therefore
        leaves router, fleets and kind map all exactly as they were — a
        multi-replica reshape can never apply partially, which is what
        makes the rebalancer's tracker rollback a genuine recovery.
        Returns each fleet's transfer report, in replica order.
        """
        change.new_plan.check_shape(self.plan.num_records)
        if len(placements) != len(change.new_plan.non_empty_shards):
            raise ConfigurationError(
                f"got {len(placements)} placements for "
                f"{len(change.new_plan.non_empty_shards)} non-empty shards"
            )
        kind_by_new_shard = {
            placement.shard.index: placement.kind for placement in placements
        }

        def child_factory(shard: ShardSpec) -> PIRBackend:
            return bare_backend_factory(
                kind_by_new_shard[shard.index], config=self.child_config
            )(shard)

        def mutate() -> List[Optional["PhaseTimer"]]:
            staged = [
                fleet.backend.stage_topology(change, child_factory)
                for fleet in self.fleets
            ]
            reports = [
                fleet.backend.commit_topology(staging)
                for fleet, staging in zip(self.fleets, staged)
            ]
            self.plan = change.new_plan
            self.install_placements(placements)
            return reports

        return self.reconfigure(mutate)

    def install_placements(self, placements: Sequence[ShardPlacement]) -> None:
        """Record the placements in effect — and the kind map the default
        child factory reads — as one unit.

        Every path that changes what kinds the fleets actually run (a
        topology apply, the rebalancer's kind migrations) must land here,
        or a later re-prepare / stage would rebuild children at stale
        kinds while the reporting surface claims the new ones.
        """
        self.placements = list(placements)
        self._kind_by_shard = {
            placement.shard.index: placement.kind for placement in placements
        }

    def placement_kinds(self) -> List[str]:
        """Chosen backend kind per non-empty shard, in shard order."""
        return [placement.kind for placement in self.placements]

    def describe_placements(self) -> str:
        """Multi-line placement report for logs and bench output."""
        return "\n".join(render_placements(self.placements))
