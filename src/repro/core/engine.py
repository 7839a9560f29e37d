"""Unified query-execution engine shared by every PIR server variant.

The reference scan, CPU-PIR, GPU-PIR, IM-PIR, streamed IM-PIR and the
sharded fleet all run the same server (Algorithm 1): evaluate the DPF keys on
the host, dpXOR the database under the selector shares, return an XOR share.
The engine owns that protocol-shaped logic exactly once — query validation,
host-side DPF key evaluation, selector generation, answer assembly and phase
bookkeeping.  What differs per variant is a :class:`PIRBackend`: the
architecture-specific execution substrate that prices a scan of the prepared
database under a batch of selector vectors into one
:class:`~repro.common.events.PhaseTimer` per execution lane (what each row
of the lane costs) and prices the batch's makespan.

Layering (bottom-up)::

    PIRBackend        "what the dpXOR costs": prepare(db) + charge_many(selectors)
                      + its cost model; execute_many = charge + one dpxor_many
    QueryEngine       the protocol: validate -> eval keys -> execute_many -> answers
    PIRServer         one replica: engine + backend + stats (repro.pir.server)
    PIRFrontend       request batching/routing across replicas (repro.pir.frontend)

Backends advertise :class:`BackendCapabilities` (execution lanes, batch
workers, capacity) which the engine uses to drive the
:class:`~repro.core.scheduler.BatchScheduler` for batch mode, and which the
frontend uses to size its batching policy.

A small registry maps backend names to builders of that one
:class:`~repro.pir.server.PIRServer` class, so the equivalence test-suite,
the server contract tests and the examples iterate over every variant
through one code path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ProtocolError
from repro.common.events import PhaseTimer
from repro.core.results import PHASE_EVAL, IMPIRBatchResult, IMPIRQueryResult, ShardCosts
from repro.core.scheduler import BatchScheduler
from repro.dpf.dpf import DPF
from repro.dpf.prf import LengthDoublingPRG
from repro.pir.database import Database
from repro.pir.messages import DPFQuery, Queries, QueryBatch
from repro.pir.xor_ops import dpxor_many


@dataclass(frozen=True)
class BackendCapabilities:
    """What an execution backend can do, and how big it is.

    The engine consults these to pick execution lanes and build batch
    schedules; the frontend consults them to size batching policies.
    """

    name: str
    #: Independent execution lanes (DPU clusters); lane ``i`` can serve a
    #: query concurrently with lane ``j``.
    lanes: int = 1
    #: Host threads available for per-query DPF evaluation in batch mode.
    batch_workers: int = 1
    #: Whether the database is resident in execution memory (vs streamed).
    preloaded: bool = True
    #: Advertised capacity bound in records, once a database is prepared
    #: (``None`` when unbounded or not yet known).  Informational — hard
    #: enforcement happens inside the backend's ``prepare``.
    max_records: Optional[int] = None
    description: str = ""


class PIRBackend(ABC):
    """Execution substrate behind a :class:`QueryEngine`.

    Implementations provide only the architecture-specific pieces — loading
    the database into their execution memory and pricing a scan of it under
    a batch of selector vectors.  Everything protocol-shaped (validation, key
    evaluation, answer assembly) is supplied once by the engine, and the scan
    once by :meth:`execute_many`, which no subclass overrides.
    """

    #: The database the scan reads, set by ``prepare`` / ``apply_updates``.
    _database: Optional[Database] = None
    #: The scan's ``DpXorStats``, on the host kinds only (see ``ServerStats``).
    _dpxor_stats = None

    @abstractmethod
    def prepare(self, database: Database) -> Optional[PhaseTimer]:
        """(Re)load ``database`` into the backend's execution memory.

        Returns a :class:`PhaseTimer` with the preload cost when the backend
        charges one (the paper reports it separately from queries), else
        ``None``.
        """

    @abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Capability/capacity metadata for this backend."""

    @abstractmethod
    def charge_many(
        self,
        selector_matrix: np.ndarray,
        lanes: np.ndarray,
        costs: Mapping[int, PhaseTimer],
    ) -> Optional[Dict[int, ShardCosts]]:
        """Price a scan of the prepared database under a batch of selector shares.

        ``selector_matrix`` is the packed ``(B, ceil(num_records / 8))``
        matrix of :meth:`QueryEngine.selector_matrix` (format:
        :mod:`repro.pir.xor_ops`) and ``lanes`` the ``(B,)`` execution lane
        of each row.  ``costs`` holds one :class:`PhaseTimer` per distinct
        lane, in lane order: the backend records into it what **each** row
        of that lane costs, once per lane — every row of a lane costs the
        same.  Returns per-lane shard detail on a sharded backend, else
        ``None``.

        Host-side backends charge each row the same simulated costs whatever
        ``B`` is (batching is a wall-clock optimisation only); the PIM
        backends batch at kernel level, paying fixed per-dispatch charges
        (transfer latency, launch overhead, streamed segment copies) once per
        batch and splitting them evenly across the rows — per-row kernel
        costs and scan bytes are never discounted (see
        :func:`repro.core.partitioning.run_dpu_pipeline_many` for the
        documented amortisation formula).
        """

    def execute_many(
        self,
        selector_matrix: np.ndarray,
        lanes: np.ndarray,
        costs: Mapping[int, PhaseTimer],
    ) -> Tuple[np.ndarray, Optional[Dict[int, ShardCosts]]]:
        """The one scan: :meth:`charge_many`, then one
        :func:`~repro.pir.xor_ops.dpxor_many` over the prepared database
        (a single query is a batch of one) into ``(B, record_size)`` uint8,
        returned with the charge's shard detail."""
        database = self._database
        if database is None:
            raise ProtocolError("backend has no prepared database")
        selector_matrix = np.asarray(selector_matrix, dtype=np.uint8)
        shards = self.charge_many(selector_matrix, lanes, costs)
        return dpxor_many(database.records, selector_matrix, stats=self._dpxor_stats), shards

    # -- timing hooks (cost-model backends override; functional-only ones don't) --

    def latency_eval_seconds(self, num_records: int) -> float:
        """Simulated host DPF-eval time in latency mode (whole host, one query)."""
        return 0.0

    def batch_eval_seconds(self, num_records: int) -> float:
        """Simulated host DPF-eval time in batch mode (one worker thread)."""
        return 0.0

    def batch_makespan(self, row_seconds: Sequence[float]) -> Optional[float]:
        """Simulated makespan of a served batch, when it is not the pipeline's.

        ``None`` — the default — means the batch ran through the Fig. 8
        worker/lane pipeline: its makespan is the engine's
        :class:`~repro.core.scheduler.BatchSchedule` makespan, and that
        schedule's cluster utilisation is what an adaptive batching policy
        steers on.  A backend that does not pipeline its queries returns its
        own makespan from the batch's ``row_seconds`` (each query's total,
        in batch order) or from a cost model, and the batch then reports no
        schedule.
        """
        return None

    def apply_updates(self, database: Database, dirty_indices: Sequence[int]) -> PhaseTimer:
        """Swap in an updated database whose ``dirty_indices`` changed.

        The default re-prepares the whole database; backends holding
        partitioned execution memory override it to re-copy only what the
        dirty records touch.  Returns the update's simulated cost.
        """
        report = self.prepare(database)
        return report if report is not None else PhaseTimer()


class QueryEngine:
    """The shared half of every PIR server: protocol in, payload out.

    Owns query validation, DPF key evaluation / selector generation,
    :class:`PIRAnswer` assembly and per-phase bookkeeping; delegates the
    database scan to the attached :class:`PIRBackend`.
    """

    def __init__(
        self,
        backend: PIRBackend,
        server_id: int,
        prg: Optional[LengthDoublingPRG] = None,
        stats=None,
    ) -> None:
        if server_id < 0:
            raise ProtocolError("server_id must be non-negative")
        self.backend = backend
        self.server_id = server_id
        self.stats = stats
        self._prg = prg
        self._dpf_cache: Dict[Tuple[int, int], DPF] = {}
        self.database: Optional[Database] = None
        self.preload_report: Optional[PhaseTimer] = None
        #: Optional structured event log (:class:`repro.obs.events.EventLog`),
        #: wired by the observability hub.  ``None`` keeps the hot path at a
        #: single identity check — the uninstrumented engine is the default.
        self.events = None

    # -- database lifecycle -------------------------------------------------------

    def prepare(self, database: Database) -> None:
        """Hand ``database`` to the backend and remember the preload cost.

        Capacity is the backend's to enforce (its bound usually depends on
        the record size, unknown until now): ``prepare`` raises
        :class:`~repro.common.errors.CapacityError` when the database does
        not fit.  ``capabilities().max_records`` afterwards advertises the
        bound for routing/diagnostic use.
        """
        self.database = database
        self.preload_report = self.backend.prepare(database)

    # -- shared query validation --------------------------------------------------

    def _validated(self, queries: Queries) -> QueryBatch:
        """``queries`` as one :class:`QueryBatch` this replica may answer,
        checked once (one copy of the rules): a flush's batch passes
        through, and one-row queries are stacked once
        (:meth:`QueryBatch.stack` refuses rows that do not form one batch)."""
        batch = queries if isinstance(queries, QueryBatch) else QueryBatch.stack(queries)
        if batch.server_id != self.server_id:
            raise ProtocolError(
                f"query addressed to server {batch.server_id}, this is server {self.server_id}"
            )
        if self.database is None:
            raise ProtocolError("engine has no prepared database")
        if batch.num_records != self.database.num_records:
            raise ProtocolError(
                "query was generated for a database of "
                f"{batch.num_records} records, this replica holds {self.database.num_records}"
            )
        return batch

    # -- selector generation (host-side DPF evaluation, Algorithm 1 step 2) -------

    def selector_matrix(self, batch: QueryBatch) -> np.ndarray:
        """Every query's selector share as one packed ``(B, ceil(N / 8))`` matrix.

        The batched half of the eval stage, in the one selector format of
        :mod:`repro.pir.xor_ops` (bit ``j % 8`` of byte ``j // 8`` selects
        record ``j``).  The batch's keys expand through one tree walk, read
        straight from its :class:`~repro.dpf.dpf.DPFKeys` arrays (the PRG
        sees ``B x 2^level`` seeds per level instead of ``2^level`` seeds
        ``B`` times), whose 128-bit leaf blocks already are packed rows: the
        result is a view of the leaf bytes, with no copy (see
        :meth:`~repro.dpf.dpf.DPF.eval_packed_many`).
        """
        keys = batch.keys
        params = (keys.domain_bits, keys.output_bits)
        dpf = self._dpf_cache.get(params)
        if dpf is None:
            dpf = DPF(params[0], output_bits=params[1], prg=self._prg)
            self._dpf_cache[params] = dpf
        return dpf.eval_packed_many(
            keys, self.database.num_records, stats=getattr(self.stats, "eval", None)
        )

    # -- answering -------------------------------------------------------------------

    def _serve(
        self, batch: QueryBatch, lanes: Sequence[int], eval_seconds: float
    ) -> IMPIRBatchResult:
        """Evaluate and scan a checked ``batch``, row ``i`` on ``lanes[i]``.

        One :meth:`selector_matrix` eval sweep and one
        :meth:`PIRBackend.execute_many` scan serve every row, priced into
        one :class:`PhaseTimer` per distinct lane; the answers stay the
        scan's ``(B, record_size)`` matrix (no schedule or makespan yet).
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        costs = {lane: PhaseTimer() for lane in np.unique(lanes).tolist()}
        if eval_seconds > 0:
            for cost in costs.values():
                cost.record(PHASE_EVAL, eval_seconds)
        payloads, shards = self.backend.execute_many(self.selector_matrix(batch), lanes, costs)
        if self.stats is not None:
            self.stats.queries_answered += len(lanes)
        return IMPIRBatchResult(
            server_id=self.server_id,
            query_ids=batch.query_ids,
            payloads=payloads,
            lanes=lanes,
            costs=costs,
            shards=shards,
        )

    def answer(self, query: DPFQuery, lane: int = 0) -> IMPIRQueryResult:
        """Answer one query on execution lane ``lane`` (latency mode): the
        one-query form of :meth:`answer_many`'s path, priced per query."""
        caps = self.backend.capabilities()
        batch = self._validated([query])
        if not 0 <= lane < caps.lanes:
            raise ProtocolError(f"lane {lane} out of range [0, {caps.lanes})")
        eval_seconds = self.backend.latency_eval_seconds(query.num_records)
        result = self._serve(batch, [lane], eval_seconds).results[0]
        if self.events is not None:
            self.events.emit(
                "engine.answer",
                server=self.server_id,
                query=query.query_id,
                lane=lane,
                seconds=result.breakdown.total,
            )
        return result

    def answer_many(self, queries: Queries) -> IMPIRBatchResult:
        """Answer a batch through the worker/lane pipeline of Fig. 8.

        ``queries`` is a flush's :class:`QueryBatch` for this server (or a
        sequence of one-row queries, stacked once).  It is validated once,
        its keys are evaluated in one sweep and its rows scanned in one
        :meth:`PIRBackend.execute_many`, bit-identical to (and charged
        exactly like) answering them one at a time.  Queries run round-robin
        over the backend's lanes; the simulated makespan comes from the
        :class:`BatchScheduler` fed with each query's measured stage
        durations, unless the backend prices the batch itself
        (:meth:`PIRBackend.batch_makespan`).
        """
        if not len(queries):
            raise ProtocolError("answer_batch needs at least one query")
        caps = self.backend.capabilities()
        queries = self._validated(queries)
        eval_seconds = self.backend.batch_eval_seconds(self.database.num_records)
        lanes = np.arange(len(queries)) % max(1, caps.lanes)
        batch = self._serve(queries, lanes, eval_seconds)

        row_seconds = batch.per_row(lambda cost: cost.total)
        makespan = self.backend.batch_makespan(row_seconds)
        if makespan is None:
            row_eval = batch.per_row(lambda cost: cost.get(PHASE_EVAL))
            batch.schedule = batch_scheduler_for(caps, len(queries)).place(
                batch.query_ids.tolist(),
                row_eval,
                [total - evaluated for total, evaluated in zip(row_seconds, row_eval)],
            )
            makespan = batch.schedule.makespan
        batch.latency_seconds = makespan
        if self.events is not None:
            self.events.emit(
                "engine.batch",
                server=self.server_id,
                batch=len(queries),
                eval_seconds=eval_seconds,
                makespan=makespan,
            )
        return batch


def batch_scheduler_for(caps: BackendCapabilities, batch_size: int) -> BatchScheduler:
    """The Fig. 8 pipeline scheduler sized for a backend and batch.

    One copy of the sizing rule for both the functional engine and the
    analytic estimators: never more eval workers than queries, at least one
    of each resource.
    """
    workers = max(1, min(caps.batch_workers, batch_size))
    return BatchScheduler(num_workers=workers, num_clusters=max(1, caps.lanes))


class ReferenceBackend(PIRBackend):
    """Plain-numpy full scan: the functional oracle every variant must match.

    Also the execution substrate of the CPU/GPU baselines
    (:class:`HostModelBackend`), whose cost models change *when* the scan is
    charged, not *what* is computed.
    """

    def __init__(self, name: str = "reference", dpxor_stats=None) -> None:
        self._name = name
        self._dpxor_stats = dpxor_stats

    def prepare(self, database: Database) -> Optional[PhaseTimer]:
        self._database = database
        return None

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self._name,
            lanes=1,
            batch_workers=1,
            preloaded=True,
            description="full-domain scan in host DRAM (numpy)",
        )

    def charge_many(
        self,
        selector_matrix: np.ndarray,
        lanes: np.ndarray,
        costs: Mapping[int, PhaseTimer],
    ) -> None:
        """Nothing: the reference scan charges no simulated time."""

    def batch_makespan(self, row_seconds: Sequence[float]) -> Optional[float]:
        # Queries run one after another: the sum of their totals, in batch
        # order (0.0: the reference scan charges nothing).
        return sum(row_seconds, 0.0)


class HostModelBackend(ReferenceBackend):
    """The reference scan priced by a CPU-PIR or GPU-PIR cost model.

    ``model`` is a :class:`~repro.cpu.model.CPUModel` or
    :class:`~repro.gpu.model.GPUModel`: answers stay untimed (the functional
    scan is the reference one), and a batch's makespan is the model's
    batch-mode estimate for the prepared database shape (Fig. 9/12).  The
    latency-mode breakdown (Fig. 10) is read from ``model`` directly.
    """

    def __init__(self, name: str, model, dpxor_stats=None) -> None:
        super().__init__(name, dpxor_stats=dpxor_stats)
        self.model = model

    def batch_makespan(self, row_seconds: Sequence[float]) -> Optional[float]:
        return self.model.batch_estimate(
            self._database.num_records,
            self._database.record_size,
            batch_size=len(row_seconds),
        ).latency_seconds


# ---------------------------------------------------------------------------
# Backend registry: one place to enumerate every server variant.
# ---------------------------------------------------------------------------

ServerBuilder = Callable[..., object]

_BACKEND_BUILDERS: Dict[str, ServerBuilder] = {}
_defaults_loaded = False


def register_backend(name: str, builder: ServerBuilder) -> ServerBuilder:
    """Register a server builder under ``name`` (overwrites silently)."""
    _BACKEND_BUILDERS[name] = builder
    return builder


def require_two_servers(server_id: int) -> None:
    """IM-PIR is the two-server protocol: ``server_id`` must be 0 or 1."""
    if server_id not in (0, 1):
        raise ProtocolError("IM-PIR is a two-server deployment; server_id must be 0 or 1")


def _ensure_default_backends() -> None:
    """Populate the registry with the shipped variants (exactly once).

    Six kinds, each a :class:`~repro.pir.server.PIRServer` over its own
    backend: the five single-machine substrates plus the composed
    ``sharded`` fleet (a :class:`~repro.shard.backend.ShardedBackend` over
    reference children by default).

    Imports happen lazily here (not at module import) because the backend
    modules themselves depend on this module.  User registrations made
    before the first lookup are kept — defaults never clobber them.
    """
    global _defaults_loaded
    if _defaults_loaded:
        return
    _defaults_loaded = True
    from repro.core.config import IMPIRConfig
    from repro.core.impir import PIMClusterBackend
    from repro.core.streaming import StreamedPIMBackend
    from repro.cpu.model import CPUModel
    from repro.dpf.prf import make_prg
    from repro.gpu.model import GPUModel
    from repro.pim.config import scaled_down_config
    from repro.pir.server import PIRServer, ServerStats
    from repro.shard.backend import ShardedBackend, bare_backend_factory

    def default_config(num_dpus: int = 8, num_clusters: int = 1) -> IMPIRConfig:
        return IMPIRConfig(
            pim=scaled_down_config(num_dpus=num_dpus, tasklets=4),
            num_clusters=num_clusters,
        )

    def register_default(name: str, builder: ServerBuilder) -> None:
        _BACKEND_BUILDERS.setdefault(name, builder)

    # Every builder names the options its backend takes: a misspelt or
    # unsupported keyword must raise (naming it), not be dropped.  ``None``
    # means "the registry default" (a fresh fixed-key AES PRG per server, a
    # scaled-down PIM config).

    def default_prg(prg):
        return prg if prg is not None else make_prg()

    def host_server(db, server_id, prg, name, model=None):
        stats = ServerStats()
        backend = (
            ReferenceBackend(name, dpxor_stats=stats.dpxor)
            if model is None
            else HostModelBackend(name, model, dpxor_stats=stats.dpxor)
        )
        return PIRServer(backend, db, server_id, prg=default_prg(prg), stats=stats)

    def build_reference(db, server_id=0, prg=None):
        return host_server(db, server_id, prg, "reference")

    def build_cpu(db, server_id=0, config=None, prg=None):
        return host_server(db, server_id, prg, "cpu-pir", CPUModel(config))

    def build_gpu(db, server_id=0, config=None, prg=None):
        return host_server(db, server_id, prg, "gpu-pir", GPUModel(config))

    def build_impir(db, server_id=0, config=None):
        require_two_servers(server_id)
        config = config if config is not None else default_config()
        backend = PIMClusterBackend(config)
        return PIRServer(backend, db, server_id, prg=make_prg())

    def build_impir_streamed(db, server_id=0, config=None, segment_records=None):
        require_two_servers(server_id)
        config = config if config is not None else default_config(num_dpus=4)
        backend = StreamedPIMBackend(config, segment_records=segment_records)
        return PIRServer(backend, db, server_id, prg=make_prg())

    def build_sharded(
        db,
        server_id=0,
        num_shards=2,
        child_kind="reference",
        block_records=1,
        plan=None,
        config=None,
        segment_records=None,
        prg=None,
    ):
        backend = ShardedBackend(
            bare_backend_factory(
                child_kind, config=config, segment_records=segment_records
            ),
            num_shards=num_shards,
            plan=plan,
            block_records=block_records,
        )
        return PIRServer(backend, db, server_id, prg=default_prg(prg))

    register_default("reference", build_reference)
    register_default("cpu", build_cpu)
    register_default("gpu", build_gpu)
    register_default("im-pir", build_impir)
    register_default("im-pir-streamed", build_impir_streamed)
    register_default("sharded", build_sharded)


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, sorted."""
    _ensure_default_backends()
    return tuple(sorted(_BACKEND_BUILDERS))


def create_server(name: str, database: Database, server_id: int = 0, **kwargs):
    """Build the :class:`~repro.pir.server.PIRServer` registered under ``name``.

    Every kind returns that one class, differing only in its ``backend``:
    ``answer`` / ``answer_batch`` return the engine's
    :class:`~repro.core.results.IMPIRQueryResult` /
    :class:`~repro.core.results.IMPIRBatchResult`, ``apply_updates`` lands
    bulk updates, and architecture-specific state (cost models, clusters,
    segments, shard plans) is read from ``server.backend``.  ``kwargs`` are
    the kind's own options; an unknown one raises :class:`TypeError`.
    """
    _ensure_default_backends()
    try:
        builder = _BACKEND_BUILDERS[name]
    except KeyError:
        raise ProtocolError(
            f"unknown backend {name!r}; registered: {', '.join(sorted(_BACKEND_BUILDERS))}"
        ) from None
    return builder(database, server_id=server_id, **kwargs)
