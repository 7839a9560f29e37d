"""Sharding subsystem: replica fleets with capability-aware dispatch.

Distribution policy for the PIR database, kept outside the protocol code:
:class:`ShardPlan` partitions a database into contiguous (block-aligned)
shards, :class:`ShardedBackend` composes one child backend per shard behind
the ordinary :class:`~repro.core.engine.PIRBackend` protocol, and
:class:`FleetRouter` turns each privacy replica into a fleet whose shards
are placed on the cheapest capable backend kind (hot shards on preloaded
PIM, cold shards on streamed IM-PIR).

Plans are versioned and online-mutable: ``ShardPlan.split_shard`` /
``ShardPlan.merge_shards`` return a new plan plus a :class:`TopologyChange`
mapping, which ``ShardedBackend.apply_topology`` / ``FleetRouter
.apply_topology`` swap into the live data plane atomically (retrievals
bit-identical throughout).
"""

from repro.shard.backend import (
    BARE_BACKEND_KINDS,
    ShardBackendFactory,
    ShardedBackend,
    bare_backend_factory,
)
from repro.shard.fleet import (
    CandidateKind,
    FleetRouter,
    ShardPlacement,
    default_candidates,
    heats_from_trace,
    plan_placements,
    render_placements,
)
from repro.shard.plan import ShardPlan, ShardSpec, TopologyChange

__all__ = [
    "BARE_BACKEND_KINDS",
    "ShardBackendFactory",
    "ShardedBackend",
    "bare_backend_factory",
    "CandidateKind",
    "FleetRouter",
    "ShardPlacement",
    "default_candidates",
    "heats_from_trace",
    "plan_placements",
    "render_placements",
    "ShardPlan",
    "ShardSpec",
    "TopologyChange",
]
