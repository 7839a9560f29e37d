"""Online control plane over the shard/fleet data plane.

PR 2/3 built a *static* data plane: shards are placed once, from an offline
heat sample.  This package is the layer that makes the fleet track its
workload, without touching the PIR protocol (distribution policy stays
separate from application logic):

* :class:`HeatTracker` — per-record query-rate telemetry in decaying
  sliding windows, fed by the frontend observe hook (sync and async); a
  shard's heat is the sum of its records' under the current plan;
* :class:`Rebalancer` — periodic re-placement against the live window,
  migrating only the shards whose cheapest kind changed
  (:meth:`~repro.shard.backend.ShardedBackend.swap_child`; retrievals stay
  bit-identical throughout), and — with the plan-shape policy enabled —
  online topology reshaping: hot shards split at their in-shard heat
  median, adjacent cold shards merge, applied to every fleet as one
  versioned :class:`~repro.shard.plan.TopologyChange`
  (:meth:`~repro.shard.backend.ShardedBackend.apply_topology`) with the
  tracker following the change by swapping its plan;
* :class:`HotRecordCache` — an opt-in LRU tier in front of a fleet with
  TinyLFU admission (Einziger, Friedman & Manes, ACM ToS 2017): a record
  displaces the LRU resident only when it was looked up strictly more often,
  a tie keeps the resident, and the halving lookup counts track at most
  ``20 x capacity`` indices (requires ``dedup=True``; invalidated by
  ``apply_updates`` dirty indices);
* :class:`ReplicaAutoscaler` / :class:`DampingPolicy` /
  :class:`AsyncControlDriver` — the closed loop: replica-count elasticity
  from sustained utilization, cost-aware damping of every reshape and kind
  migration, and the managed asyncio task that drives periodic control
  passes through the async frontend's quiesce gate;
* :class:`ControlPlane` / :func:`controlled_fleet` — the wiring.

Everything here runs on the simulated clock — ``now`` always comes from
the caller, and ``tools/lint.py`` rejects wall-clock reads (including
event-loop ``.time()``) in this package.
"""

from repro.control.autoscaler import (
    AsyncControlDriver,
    AutoscaleAction,
    AutoscalePolicy,
    DampingPolicy,
    DampingVerdict,
    ReplicaAutoscaler,
    ReshapeDamper,
)
from repro.control.cache import CacheStats, HotRecordCache
from repro.control.plane import ControlPlane, controlled_fleet
from repro.control.rebalancer import (
    RebalanceReport,
    Rebalancer,
    ShardMerge,
    ShardMigration,
    ShardSplit,
)
from repro.control.telemetry import HeatTracker

__all__ = [
    "AsyncControlDriver",
    "AutoscaleAction",
    "AutoscalePolicy",
    "CacheStats",
    "DampingPolicy",
    "DampingVerdict",
    "HotRecordCache",
    "ControlPlane",
    "controlled_fleet",
    "RebalanceReport",
    "Rebalancer",
    "ReplicaAutoscaler",
    "ReshapeDamper",
    "ShardMerge",
    "ShardMigration",
    "ShardSplit",
    "HeatTracker",
]
