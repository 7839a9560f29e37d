"""Two-server PIR protocol: database, messages, client, server, frontends."""

from repro.pir.async_frontend import AsyncPIRFrontend
from repro.pir.client import ClientStats, PIRClient
from repro.pir.database import DEFAULT_RECORD_SIZE, Database
from repro.pir.frontend import (
    AdaptiveBatchingPolicy,
    BatchingPolicy,
    FrontendMetrics,
    PIRFrontend,
    RequestRouter,
)
from repro.pir.messages import DPFQuery, PIRAnswer, QueryBatch
from repro.pir.serialization import (
    deserialize_answer,
    deserialize_key,
    deserialize_query,
    serialize_answer,
    serialize_key,
    serialize_query,
    wire_sizes,
)
from repro.pir.server import PIRServer, ServerStats
from repro.pir.xor_ops import (
    DpXorStats,
    dpxor,
    inner_product_mod,
)

__all__ = [
    "AsyncPIRFrontend",
    "ClientStats",
    "PIRClient",
    "DEFAULT_RECORD_SIZE",
    "Database",
    "AdaptiveBatchingPolicy",
    "BatchingPolicy",
    "FrontendMetrics",
    "PIRFrontend",
    "RequestRouter",
    "DPFQuery",
    "PIRAnswer",
    "QueryBatch",
    "deserialize_answer",
    "deserialize_key",
    "deserialize_query",
    "serialize_answer",
    "serialize_key",
    "serialize_query",
    "wire_sizes",
    "PIRServer",
    "ServerStats",
    "DpXorStats",
    "dpxor",
    "inner_product_mod",
]
