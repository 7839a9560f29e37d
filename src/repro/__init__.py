"""IM-PIR: In-Memory Private Information Retrieval — Python reproduction.

The package reproduces the system described in "IM-PIR: In-Memory Private
Information Retrieval" (MIDDLEWARE 2025): a two-server DPF-based PIR scheme
whose memory-bound dpXOR stage is offloaded to a (simulated) UPMEM
processing-in-memory platform, together with the CPU- and GPU-based baselines
it is evaluated against.

Quick tour of the public API:

>>> from repro import Database, IMPIRConfig, IMPIRDeployment
>>> from repro.pim import scaled_down_config
>>> db = Database.random(4096, record_size=32, seed=1)
>>> config = IMPIRConfig(pim=scaled_down_config(num_dpus=8))
>>> deployment = IMPIRDeployment(db, config=config)
>>> deployment.retrieve(1234) == db.record(1234)
True

Sub-packages:

* :mod:`repro.dpf` — distributed point functions (GGM tree, traversals, PRGs)
* :mod:`repro.pir` — the two-server PIR protocol and the server
* :mod:`repro.pim` — the UPMEM PIM simulator (DPUs, MRAM/WRAM, kernels, timing)
* :mod:`repro.cpu`, :mod:`repro.gpu` — the baselines' cost models
* :mod:`repro.core` — IM-PIR itself (engine, partitioning, scheduling, backends)
* :mod:`repro.shard` — sharding: shard plans, replica fleets, placement
* :mod:`repro.analysis` — roofline, breakdowns, speedup reporting
* :mod:`repro.workloads` — synthetic hash-record databases and query traces
* :mod:`repro.bench` — analytic estimators and the per-figure harness
"""

from repro.core.config import IMPIRConfig
from repro.core.engine import QueryEngine, available_backends, create_server
from repro.core.impir import IMPIRDeployment
from repro.core.results import IMPIRBatchResult, IMPIRQueryResult
from repro.dpf.dpf import DPF, DPFKey
from repro.pim.config import PIMConfig
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import AdaptiveBatchingPolicy, BatchingPolicy, PIRFrontend
from repro.pir.server import PIRServer
from repro.shard import FleetRouter, ShardPlan

__version__ = "1.0.0"

__all__ = [
    "IMPIRConfig",
    "QueryEngine",
    "available_backends",
    "create_server",
    "AdaptiveBatchingPolicy",
    "BatchingPolicy",
    "PIRFrontend",
    "FleetRouter",
    "ShardPlan",
    "IMPIRDeployment",
    "IMPIRBatchResult",
    "IMPIRQueryResult",
    "DPF",
    "DPFKey",
    "PIMConfig",
    "PIRClient",
    "Database",
    "PIRServer",
    "__version__",
]
