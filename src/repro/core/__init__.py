"""IM-PIR core: configuration, partitioning, scheduling, the query engine and
the PIM backends every server kind is built from."""

from repro.core.config import DEFAULT_BLOCKS_PER_LEAF, IMPIRConfig
from repro.core.engine import (
    BackendCapabilities,
    HostModelBackend,
    PIRBackend,
    QueryEngine,
    ReferenceBackend,
    available_backends,
    batch_scheduler_for,
    create_server,
    register_backend,
)
from repro.core.impir import IMPIRDeployment, PIMClusterBackend
from repro.core.partitioning import PartitionLayout
from repro.core.results import (
    ALL_PHASES,
    PHASE_AGGREGATE,
    PHASE_COPY_IN,
    PHASE_COPY_OUT,
    PHASE_DPXOR,
    PHASE_EVAL,
    IMPIRBatchResult,
    IMPIRQueryResult,
)
from repro.core.scheduler import BatchSchedule, BatchScheduler, QueryTask, ScheduledQuery
from repro.core.streaming import (
    PHASE_COPY_DB,
    StreamedPIMBackend,
    streaming_overhead_factor,
)

__all__ = [
    "DEFAULT_BLOCKS_PER_LEAF",
    "IMPIRConfig",
    "BackendCapabilities",
    "HostModelBackend",
    "PIRBackend",
    "QueryEngine",
    "ReferenceBackend",
    "available_backends",
    "batch_scheduler_for",
    "create_server",
    "register_backend",
    "IMPIRDeployment",
    "PIMClusterBackend",
    "PartitionLayout",
    "ALL_PHASES",
    "PHASE_AGGREGATE",
    "PHASE_COPY_IN",
    "PHASE_COPY_OUT",
    "PHASE_DPXOR",
    "PHASE_EVAL",
    "IMPIRBatchResult",
    "IMPIRQueryResult",
    "BatchSchedule",
    "BatchScheduler",
    "QueryTask",
    "ScheduledQuery",
    "PHASE_COPY_DB",
    "StreamedPIMBackend",
    "streaming_overhead_factor",
]
