"""The control plane assembled: telemetry → rebalancer → cache over one fleet.

Following RAFDA's separation of application logic from distribution policy,
the pieces of :mod:`repro.control` never touch the PIR protocol — they
observe the running data plane (every flushed batch, through the frontend
observe hook) and reconfigure it (shard migrations, cache contents) between
batches.  A :class:`ControlPlane` is the thin coordinator that wires the
three pieces around an existing :class:`~repro.shard.fleet.FleetRouter`:

* it registers itself as a frontend **observer**, so each flushed batch
  first feeds the :class:`~repro.control.telemetry.HeatTracker` and then
  gives the :class:`~repro.control.rebalancer.Rebalancer` a chance to act —
  the whole loop runs on the frontend's own (simulated or event-loop)
  clock, with no thread and no wall-clock read;
* the optional :class:`~repro.control.cache.HotRecordCache` is attached to
  the frontend's cache slot (requires ``dedup=True`` — same
  trusted-aggregator caveat) and invalidated through
  :meth:`~repro.shard.fleet.FleetRouter.apply_updates`;
* the optional :class:`~repro.control.autoscaler.ReplicaAutoscaler` rides
  the same hook (``observer_driven=True``) or, on the async frontend, the
  :class:`~repro.control.autoscaler.AsyncControlDriver` the plane manages
  (:meth:`ControlPlane.start_driver`) — a managed asyncio task running
  each control pass through the writer-preferring quiesce gate instead of
  inside a flush's observer chain.

Use :func:`controlled_fleet` to build a router with its control plane in
one call, or compose the pieces by hand for finer control.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.control.autoscaler import (
    AsyncControlDriver,
    AutoscalePolicy,
    DampingPolicy,
    ReplicaAutoscaler,
)
from repro.control.cache import HotRecordCache
from repro.control.rebalancer import RebalanceReport, Rebalancer
from repro.control.telemetry import HeatTracker
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.shard.fleet import FleetRouter
from repro.shard.plan import ShardPlan


class ControlPlane:
    """Observer tying a tracker, an optional rebalancer and a cache together.

    The object registered on the frontend's ``observers`` list; its
    :meth:`observe_batch` is invoked by the shared flush pipeline
    (:class:`repro.pir.frontend.BatchingFrontend`, once ``finish_flush`` has
    folded the batch's metrics) after every batch, for the sync and async
    frontends alike.
    """

    def __init__(
        self,
        tracker: HeatTracker,
        rebalancer: Optional[Rebalancer] = None,
        cache: Optional[HotRecordCache] = None,
        autoscaler: Optional[ReplicaAutoscaler] = None,
        observer_driven: bool = True,
    ) -> None:
        self.tracker = tracker
        self.rebalancer = rebalancer
        self.cache = cache
        self.autoscaler = autoscaler
        #: When True (the default), rebalance and autoscale checks run from
        #: the observe hook itself — right for the sync frontend, whose
        #: observers fire with no flush in flight.  Set False when an
        #: :class:`AsyncControlDriver` owns the control cadence: on the
        #: async frontend observers hold a *reader* slot, so acting there
        #: would both deadlock against the quiesce gate and double-drive
        #: the policy clocks.
        self.observer_driven = observer_driven
        #: The managed async driver, once :meth:`start_driver` ran.
        self.driver: Optional[AsyncControlDriver] = None
        #: Optional health provider (an object with ``health(now)`` —
        #: normally the hub's :class:`~repro.obs.slo.SloEngine`, wired by
        #: :meth:`~repro.obs.hub.ObservabilityHub.attach`).  Every control
        #: pass consults it: a fast-burn alert escalates scale-up and holds
        #: cosmetic reshapes while the budget is burning.
        self.health_source = None

    def observe_batch(self, indices: Sequence[int], now: float) -> None:
        """Fold one flushed batch into the heat window, then maybe act.

        Ordering matters: the batch is folded *before* the rebalance and
        autoscale checks, so a pass always acts on the estimate including
        the batch that triggered it.  The batch itself completed before
        observers run — a migration here never races the scan that
        reported it.  With ``observer_driven=False`` only the fold happens;
        the driver owns every decision.
        """
        self.tracker.observe_batch(indices, now)
        if self.observer_driven:
            self.control_pass(now)

    def current_health(self, now: float):
        """The SLO verdict for this pass, or ``None`` without a source.

        Note the one-flush lag on the observer-driven path: flush observers
        run in list order with the plane *before* the hub, so a pass sees
        the SLO state as of the previous flush — deliberate (the plane never
        waits on judgement), and one flush is the tightest cadence any
        signal could change at anyway.
        """
        if self.health_source is None:
            return None
        return self.health_source.health(now)

    def control_pass(self, now: float) -> None:
        """One decision round: autoscale first, then maybe rebalance.

        Scale-before-reshape keeps the pass coherent: a replica installed
        at ``now`` rides the same pass's reshape via ``router.fleets``
        instead of being built against a plan the reshape immediately
        retires.  Both halves see the same health verdict, so an escalated
        scale-up and the reshape hold-down always agree about the burn.
        """
        health = self.current_health(now)
        if self.autoscaler is not None:
            self.autoscaler.maybe_scale(now, health=health)
        if self.rebalancer is not None:
            self.rebalancer.maybe_rebalance(now, health=health)

    # -- the managed async driver ---------------------------------------------------

    def start_driver(
        self,
        frontend,
        interval_seconds: float,
        clock: Callable[[], float],
        sleep=None,
    ) -> AsyncControlDriver:
        """Spawn the plane's :class:`AsyncControlDriver` on the running loop.

        ``frontend`` is the (async) frontend whose ``reconfigure`` gate the
        passes run through; ``clock`` is injected (pass the event loop's
        ``loop.time`` from the caller — this package never reads wall time).
        Flips the plane to driver-owned cadence (``observer_driven=False``)
        so the observer hook keeps folding heat but stops double-driving
        decisions.
        """
        if self.driver is not None and self.driver.running:
            raise ConfigurationError("control driver already running")
        self.observer_driven = False
        self.driver = AsyncControlDriver(
            self, frontend, interval_seconds, clock, sleep=sleep
        )
        self.driver.start()
        return self.driver

    async def stop_driver(self) -> None:
        """Cancel and await the managed driver (no-op when none runs)."""
        if self.driver is not None:
            await self.driver.stop()

    @property
    def reports(self) -> List[RebalanceReport]:
        """Rebalance reports so far (empty without a rebalancer)."""
        return self.rebalancer.reports if self.rebalancer is not None else []

    def describe(self) -> List[str]:
        """Plain-text status lines for logs and bench output."""
        lines = [f"telemetry: {self.tracker!r}"]
        heats = self.tracker.heats()
        lines.append(
            "live heats: "
            + ", ".join(f"s{i}={heat:.1f}" for i, heat in enumerate(heats))
        )
        if self.rebalancer is not None:
            lines.append(
                f"rebalancer: {self.rebalancer.total_splits} split(s), "
                f"{self.rebalancer.total_merges} merge(s), "
                f"{self.rebalancer.total_migrations} migration(s), "
                f"{self.rebalancer.total_suppressed} damped "
                f"over {len(self.rebalancer.reports)} pass(es), "
                f"{self.rebalancer.total_migration_seconds * 1e3:.3f}ms transfer "
                f"(plan v{self.tracker.plan.version}, "
                f"{self.tracker.plan.num_shards} shards)"
            )
            for report in self.rebalancer.reports:
                if (
                    report.migrations
                    or report.splits
                    or report.merges
                    or report.suppressed
                ):
                    lines.append("  " + report.describe())
        if self.autoscaler is not None:
            autoscaler = self.autoscaler
            last = autoscaler.last_action
            lines.append(
                f"autoscaler: {autoscaler.router.replica_count} live replica(s) "
                f"per trust domain, {len(autoscaler.actions)} action(s), "
                f"utilization {autoscaler.utilization():.2f}"
            )
            for action in autoscaler.actions[:-1]:
                lines.append("  " + action.describe())
            if last is not None:
                lines.append("  last action: " + last.describe())
        if self.health_source is not None:
            health = self.health_source.health()
            state = "burning" if health.burning else "healthy"
            if health.fast_burn:
                state = "fast-burn"
            lines.append(
                f"slo health: {state}"
                + (f" ({', '.join(health.active)})" if health.active else "")
            )
        if self.cache is not None:
            stats = self.cache.stats
            lines.append(
                f"hot cache: {len(self.cache)}/{self.cache.capacity} resident, "
                f"{stats.hits} hit(s) / {stats.lookups} lookup(s) "
                f"(rate {stats.hit_rate:.2f}), {stats.evictions} eviction(s), "
                f"{stats.invalidations} invalidation(s)"
            )
        return lines


def controlled_fleet(
    client: PIRClient,
    database: Database,
    plan: ShardPlan,
    heats: Sequence[float],
    window_seconds: float = 1.0,
    decay: float = 0.5,
    rebalance_interval_seconds: Optional[float] = 1.0,
    cache_capacity: Optional[int] = None,
    split_heat_share: Optional[float] = None,
    merge_heat_floor: Optional[float] = None,
    min_shards: int = 1,
    max_shards: Optional[int] = None,
    damping: Optional[DampingPolicy] = None,
    autoscale: Optional[AutoscalePolicy] = None,
    observer_driven: bool = True,
    hub=None,
    **router_kwargs,
) -> "tuple[FleetRouter, ControlPlane]":
    """Build a :class:`FleetRouter` with a live control plane attached.

    ``heats`` seeds the *initial* placement exactly as for a bare router;
    from then on the control plane measures its own.  Pass
    ``rebalance_interval_seconds=None`` to observe without migrating, and
    ``cache_capacity`` (with ``dedup=True`` in ``router_kwargs``) to enable
    the hot-record tier.  ``split_heat_share``/``merge_heat_floor`` (with the
    ``min_shards``/``max_shards`` bounds) switch on the rebalancer's
    plan-shape policy: the topology itself then follows the heat — hot
    shards split at their in-shard heat median, adjacent cold shards merge
    — with telemetry remapped (not reset) across every plan version.
    ``damping`` (a :class:`~repro.control.autoscaler.DampingPolicy`) gates
    every shape change and kind migration on amortized economics plus a
    record-range cooldown; ``autoscale`` (an
    :class:`~repro.control.autoscaler.AutoscalePolicy`) adds replica-count
    elasticity from sustained utilization (combine with the router's
    ``initial_replicas`` kwarg to start above one member per trust domain).
    ``observer_driven=False`` builds the plane for an
    :class:`~repro.control.autoscaler.AsyncControlDriver` — the observe
    hook then only folds heat, and :meth:`ControlPlane.start_driver` owns
    the decision cadence.
    ``hub`` (an :class:`~repro.obs.hub.ObservabilityHub`) instruments the
    whole assembly — frontend flushes, engine batches, shard scans, heat
    windows, rebalance passes, autoscale actions and cache churn — in one
    call; without it every telemetry slot stays ``None`` and the data plane
    runs exactly as before.  Returns ``(router, control_plane)``.
    """
    tracker = HeatTracker(plan, window_seconds=window_seconds, decay=decay)
    cache = None
    if cache_capacity is not None:
        cache = HotRecordCache(capacity=cache_capacity)
    router = FleetRouter(
        client, database, plan, heats, cache=cache, **router_kwargs
    )
    rebalancer = None
    if rebalance_interval_seconds is not None:
        rebalancer = Rebalancer(
            router,
            tracker,
            interval_seconds=rebalance_interval_seconds,
            split_heat_share=split_heat_share,
            merge_heat_floor=merge_heat_floor,
            min_shards=min_shards,
            max_shards=max_shards,
            damping=damping,
        )
    autoscaler = None
    if autoscale is not None:
        autoscaler = ReplicaAutoscaler(router, tracker, autoscale)
    plane = ControlPlane(
        tracker,
        rebalancer=rebalancer,
        cache=cache,
        autoscaler=autoscaler,
        observer_driven=observer_driven,
    )
    router.observers.append(plane)
    if hub is not None:
        # After the plane: flush observers run in list order, so the plane
        # folds heat (and maybe rebalances) before the hub snapshots state.
        hub.attach(router, plane)
    return router, plane
