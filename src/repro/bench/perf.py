"""Wall-clock microbenchmark for the batched one-pass scan path (PR 6).

The simulated cost models elsewhere in :mod:`repro.bench` answer "what would
the paper's hardware do"; this module answers a different question: how fast
does *this* repository actually run, and how much does the batched
``execute_many`` path (one pass over the database for a whole batch, one PRG
sweep per GGM level for every key) gain over the sequential per-query path.

Two modes share one harness:

* ``quick`` — a small shape wired into ``make check``: it smoke-asserts that
  the batched path is at least as fast as the sequential one and that both
  return bit-identical payloads.
* full — the ``make bench`` shape (4096 x 32 B records, batch of 32 on the
  reference backend), archived under ``benchmarks/history/`` so runs can be
  diffed with ``tools/bench_compare.py``.

Wall-clock numbers come from a best-of-``repeats`` loop (the minimum is the
least noisy estimator on a shared machine); the p50/p99 latencies are
*simulated* ones taken from the IM-PIR cluster schedule, so they are exactly
reproducible run to run.

Beyond the batched-vs-sequential headline, the artifact carries four more
sections:

* ``backend_survey`` — wall-clock records/sec (and records/sec per engaged
  host core) of the batched path on the reference, sharded and streamed
  backends, each correctness-gated against the reference payloads first;
* ``crossover_sweep`` — wall-clock records/sec of the sharded backend's raw
  ``execute_many`` across shard count x executor x batch size, plus the
  :class:`~repro.shard.tuner.ScanTuner` calibration rows, so the trajectory
  records where the serial-vs-threads crossover sits on this machine;
* ``dpu_pipeline`` — the *simulated* DPU pipeline cost model per PIM backend
  kind, built from :class:`~repro.pim.timing.PIMTimingModel`: broadcast +
  launch + dpXOR kernel + gather + host fold per query, reported as
  records/sec and records/sec per DPU (deterministic, clock-free), with the
  batched-dispatch amortisation alongside the sequential per-query cost;
* ``hardware`` — the host context the wall-clock numbers were measured in
  (CPU count, numpy version, thread-count env vars), so
  ``tools/bench_compare.py`` can warn before diffing apples against oranges.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import create_server
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pim.timing import PIMTimingModel
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.shard.tuner import ScanTuner

#: Where ``make bench`` archives each run's artifact (one file per tag, so
#: the perf trajectory across commits accumulates instead of overwriting).
DEFAULT_HISTORY_DIR = "benchmarks/history"

#: Environment variables that cap BLAS/OpenMP thread pools — recorded in the
#: artifact because they change what "threads vs serial" means on a machine.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: The full-mode shape: chosen so the fixed per-query numpy/Python overhead
#: the batched path amortises is visible but the database is still far from
#: memory-bound (where batching cannot beat a scan that is already DRAM-rate).
FULL_SHAPE = {"num_records": 4096, "record_size": 32, "batch_size": 32, "repeats": 7}

#: The quick-mode shape: small enough for ``make check``.
QUICK_SHAPE = {"num_records": 1024, "record_size": 32, "batch_size": 16, "repeats": 3}

#: The wall-clock backend survey: every entry names a registered backend
#: kind, the kwargs to build it with, and the number of host cores its
#: batched path engages (the denominator of records/sec/core — the sharded
#: backend fans its children out on a thread pool, the others are
#: single-core by construction).
SURVEY_BACKENDS = (
    {"kind": "reference", "kwargs": {}, "cores": 1},
    {
        "kind": "sharded",
        "kwargs": {"num_shards": 2, "executor": "threads"},
        "cores": 2,
    },
    {"kind": "im-pir-streamed", "kwargs": {}, "cores": 1},
)

#: The simulated DPU pipeline survey: PIM backend kinds and the DPU counts
#: their default registry configurations use (``scaled_down_config``).
DPU_PIPELINE_KINDS = ({"kind": "im-pir", "num_dpus": 8}, {"kind": "im-pir-streamed", "num_dpus": 4})

#: The crossover sweep's grid: shard counts and executors measured against
#: each batch size.  Full mode sweeps every batch below; quick mode keeps a
#: single batch so ``make check`` stays fast.
CROSSOVER_SHARDS = (1, 2, 4)
CROSSOVER_EXECUTORS = ("serial", "threads")
CROSSOVER_BATCHES_FULL = (8, 32)
CROSSOVER_BATCHES_QUICK = (16,)


def hardware_context() -> Dict[str, object]:
    """The host context wall-clock numbers depend on (for artifact diffs)."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "numpy_version": np.__version__,
        "thread_env": {
            name: os.environ[name]
            for name in THREAD_ENV_VARS
            if name in os.environ
        },
    }


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation, deterministic)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def bench_tag() -> str:
    """A short identifier for an archived artifact: the git commit, or ``local``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "local"
    tag = proc.stdout.strip()
    return tag if tag else "local"


def archive_metrics(
    metrics: Dict[str, object], history_dir: str, tag: Optional[str] = None
) -> str:
    """Write ``metrics`` to ``<history_dir>/BENCH_<tag>.json``; returns the path.

    The archived payload carries the tag, so a trajectory listing
    (``python tools/bench_compare.py <history_dir>``) can label each run
    even after files are copied around.
    """
    resolved = tag if tag is not None else bench_tag()
    os.makedirs(history_dir, exist_ok=True)
    path = os.path.join(history_dir, f"BENCH_{resolved}.json")
    payload = dict(metrics)
    payload["tag"] = resolved
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def backend_survey(
    database: Database,
    queries: Sequence[object],
    reference_payloads: Sequence[bytes],
    repeats: int,
) -> List[Dict[str, object]]:
    """Wall-clock records/sec (and per engaged core) of each surveyed backend.

    Every backend is correctness-gated first: its batched payloads must be
    bit-identical to the reference backend's before its clock numbers count.
    """
    rows: List[Dict[str, object]] = []
    for entry in SURVEY_BACKENDS:
        kind = str(entry["kind"])
        engine = create_server(kind, database, server_id=0, **entry["kwargs"]).engine
        payloads = [
            result.answer.payload for result in engine.answer_many(queries).results
        ]
        if list(payloads) != list(reference_payloads):
            raise AssertionError(
                f"backend {kind!r} payloads drifted from the reference backend"
            )
        batched_seconds = _best_of(lambda: engine.answer_many(queries), repeats)
        cores = min(int(entry["cores"]), os.cpu_count() or 1)
        records_scanned = len(queries) * database.num_records
        records_per_second = records_scanned / batched_seconds
        rows.append(
            {
                "backend": kind,
                "cores": cores,
                "batched_seconds": batched_seconds,
                "records_per_second": records_per_second,
                "records_per_second_per_core": records_per_second / cores,
            }
        )
    return rows


def crossover_sweep(
    database: Database,
    queries: Sequence[object],
    batch_sizes: Sequence[int],
    repeats: int,
    tuner: Optional[ScanTuner] = None,
) -> Dict[str, object]:
    """Wall-clock records/sec of the sharded raw scan across the tuning grid.

    Times :meth:`~repro.shard.backend.ShardedBackend.execute_many` directly
    (selector matrix prepared up front) so the sweep isolates the scan the
    serial-vs-threads decision is about — DPF evaluation and response
    assembly are identical either way and would only dilute the crossover.
    Alongside the grid, the sweep runs a :class:`~repro.shard.tuner.ScanTuner`
    calibration at each batch size and reports its rows and verdicts, so the
    archived artifact records the measured crossover, not just the raw grid.
    """
    from repro.common.events import PhaseTimer

    tuner = tuner if tuner is not None else ScanTuner(repeats=repeats)
    rows: List[Dict[str, object]] = []
    for num_shards in CROSSOVER_SHARDS:
        for executor in CROSSOVER_EXECUTORS:
            engine = create_server(
                "sharded",
                database,
                server_id=0,
                num_shards=num_shards,
                executor=executor,
            ).engine
            for batch_size in batch_sizes:
                batch_queries = list(queries[:batch_size])
                selectors = engine.selector_matrix(batch_queries)
                lanes = [0] * len(batch_queries)

                def scan() -> None:
                    timers = [PhaseTimer() for _ in batch_queries]
                    engine.backend.execute_many(selectors, timers, lanes)

                seconds = _best_of(scan, repeats)
                records_scanned = len(batch_queries) * database.num_records
                rows.append(
                    {
                        "num_shards": num_shards,
                        "executor": executor,
                        "batch_size": len(batch_queries),
                        "scan_seconds": seconds,
                        "records_per_second": records_scanned / seconds,
                    }
                )
            engine.backend.close()
    for batch_size in batch_sizes:
        tuner.choose(database.num_records, database.record_size, batch_size)
    return {"grid": rows, "scan_tuner": tuner.crossover_rows()}


def dpu_pipeline_model(
    num_records: int, record_size: int, batch_size: int = 32
) -> List[Dict[str, object]]:
    """Simulated per-query DPU pipeline cost per PIM backend kind.

    Deterministic (cost model only, no clock): one query's pipeline is
    selector broadcast to the DPU set, kernel launch, the dpXOR scan over
    each DPU's chunk, the per-DPU partial gather, and the host XOR fold.
    Each row also carries the batched-dispatch amortisation at ``batch_size``
    queries per dispatch (the :func:`~repro.core.partitioning.run_dpu_pipeline_many`
    formula): per-dispatch fixed charges — transfer latency, launch overhead —
    are paid once per batch; selector/result bytes, kernel scan and host fold
    still scale with the batch.
    """
    selector_bytes = max(1, num_records // 8)
    rows: List[Dict[str, object]] = []
    for entry in DPU_PIPELINE_KINDS:
        num_dpus = int(entry["num_dpus"])
        model = PIMTimingModel(scaled_down_config(num_dpus=num_dpus, tasklets=4))
        chunk_bytes = -(-num_records * record_size // num_dpus)
        kernel = model.dpu_dpxor_cost(chunk_bytes, record_size)
        stages = {
            "broadcast_seconds": model.host_broadcast_seconds(selector_bytes),
            "launch_seconds": model.launch_seconds(num_dpus),
            "kernel_seconds": kernel.total_seconds,
            "gather_seconds": model.dpu_to_host_seconds(num_dpus * record_size),
            "fold_seconds": model.host_aggregate_xor_seconds(num_dpus, record_size),
        }
        per_query_seconds = sum(stages.values())
        records_per_second = num_records / per_query_seconds

        batch_total_seconds = (
            model.host_broadcast_seconds(batch_size * selector_bytes)
            + model.launch_seconds(num_dpus)
            + batch_size * kernel.total_seconds
            + model.dpu_to_host_seconds(batch_size * num_dpus * record_size)
            + batch_size * model.host_aggregate_xor_seconds(num_dpus, record_size)
        )
        batched_per_query = batch_total_seconds / batch_size
        rows.append(
            {
                "backend": str(entry["kind"]),
                "num_dpus": num_dpus,
                "per_query_seconds": per_query_seconds,
                "records_per_second": records_per_second,
                "records_per_second_per_dpu": records_per_second / num_dpus,
                "stages": stages,
                "batched": {
                    "batch_size": batch_size,
                    "per_query_seconds": batched_per_query,
                    "records_per_second": num_records / batched_per_query,
                    "amortized_speedup": per_query_seconds / batched_per_query,
                },
            }
        )
    return rows


def run_bench(
    quick: bool = False,
    output_path: Optional[str] = None,
    seed: int = 11,
    history_dir: Optional[str] = None,
    tag: Optional[str] = None,
) -> Dict[str, object]:
    """Run the batched-vs-sequential benchmark and return its metrics.

    When ``output_path`` is given the metrics are also written there as JSON
    (``make bench`` writes no loose artifact — it archives only via
    ``history_dir``, as ``BENCH_<tag>.json`` with the tag defaulting to the
    current git commit, recording the path under ``metrics["archived_to"]``).

    Quick mode additionally *asserts* the batched path is no slower than the
    sequential one — that is its role as a ``make check`` smoke.  Full mode,
    on a machine with at least two cores, asserts the tuned sharded-threads
    scan beats the serial scan in records/sec at the bench shape (the
    crossover the :class:`~repro.shard.tuner.ScanTuner` exists to find).
    """
    shape = QUICK_SHAPE if quick else FULL_SHAPE
    num_records = int(shape["num_records"])
    record_size = int(shape["record_size"])
    batch_size = int(shape["batch_size"])
    repeats = int(shape["repeats"])

    database = Database.random(num_records, record_size, seed=seed)
    client = PIRClient(num_records, record_size, seed=seed + 1, prg=make_prg("numpy"))
    engine = create_server("reference", database, server_id=0).engine
    indices = [i % num_records for i in range(batch_size)]
    queries = [per_server[0] for per_server in client.query_batch(indices)]

    # Correctness gate before timing anything: the batched path must return
    # the same bytes as the sequential one, query for query.
    sequential_payloads = [engine.answer(query).answer.payload for query in queries]
    batched_payloads = [
        result.answer.payload for result in engine.answer_many(queries).results
    ]
    if sequential_payloads != batched_payloads:
        raise AssertionError("batched payloads differ from sequential payloads")

    sequential_seconds = _best_of(
        lambda: [engine.answer(query) for query in queries], repeats
    )
    batched_seconds = _best_of(lambda: engine.answer_many(queries), repeats)
    speedup = sequential_seconds / batched_seconds if batched_seconds > 0 else 0.0

    # Simulated per-query latency distribution from the IM-PIR cluster
    # schedule (deterministic: it comes from the cost model, not the clock).
    impir = create_server("im-pir", database, server_id=0).engine
    schedule = impir.answer_many(queries).schedule
    latencies: List[float] = [query.latency for query in schedule.queries]

    sweep = crossover_sweep(
        database,
        queries,
        CROSSOVER_BATCHES_QUICK if quick else CROSSOVER_BATCHES_FULL,
        repeats,
    )

    metrics: Dict[str, object] = {
        "bench": "batched_scan",
        "mode": "quick" if quick else "full",
        "shape": {
            "num_records": num_records,
            "record_size": record_size,
            "batch_size": batch_size,
            "repeats": repeats,
            "backend": "reference",
        },
        "hardware": hardware_context(),
        "wall_clock": {
            "sequential_seconds": sequential_seconds,
            "batched_seconds": batched_seconds,
            "batched_vs_sequential_speedup": speedup,
            "sequential_qps": batch_size / sequential_seconds,
            "batched_qps": batch_size / batched_seconds,
            "records_per_second": batch_size * num_records / batched_seconds,
        },
        "simulated_impir": {
            "p50_latency_seconds": _percentile(latencies, 0.50),
            "p99_latency_seconds": _percentile(latencies, 0.99),
            "batch_makespan_seconds": schedule.makespan,
        },
        "backend_survey": backend_survey(
            database, queries, sequential_payloads, repeats
        ),
        "crossover_sweep": sweep,
        "dpu_pipeline": dpu_pipeline_model(
            num_records, record_size, batch_size=batch_size
        ),
    }

    if quick and speedup < 1.0:
        raise AssertionError(
            f"batched path is slower than sequential ({speedup:.2f}x); "
            "the one-pass scan should never lose to per-query dispatch"
        )

    if not quick and (os.cpu_count() or 1) >= 2:
        at_full_batch = [
            row for row in sweep["grid"] if row["batch_size"] == batch_size
        ]
        best_threads = max(
            row["records_per_second"]
            for row in at_full_batch
            if row["executor"] == "threads" and row["num_shards"] > 1
        )
        best_serial = max(
            row["records_per_second"]
            for row in at_full_batch
            if row["executor"] == "serial"
        )
        if not best_threads > best_serial:
            raise AssertionError(
                f"tuned sharded-threads scan did not beat serial at the bench "
                f"shape on {os.cpu_count()} cores "
                f"({best_threads:,.0f} vs {best_serial:,.0f} records/s)"
            )

    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if history_dir is not None:
        metrics["archived_to"] = archive_metrics(metrics, history_dir, tag=tag)

    return metrics


def render_bench(metrics: Dict[str, object]) -> str:
    """Plain-text rendering of :func:`run_bench` metrics."""
    shape = metrics["shape"]
    wall = metrics["wall_clock"]
    simulated = metrics["simulated_impir"]
    lines = [
        f"Batched scan benchmark ({metrics['mode']} mode)",
        f"shape: {shape['num_records']} records x {shape['record_size']} B, "
        f"batch of {shape['batch_size']} on the {shape['backend']} backend "
        f"(best of {shape['repeats']})",
        "",
        f"sequential per-query: {wall['sequential_seconds'] * 1e3:8.1f} ms "
        f"({wall['sequential_qps']:8.1f} q/s)",
        f"batched execute_many: {wall['batched_seconds'] * 1e3:8.1f} ms "
        f"({wall['batched_qps']:8.1f} q/s)",
        f"speedup: {wall['batched_vs_sequential_speedup']:.2f}x   "
        f"scan rate: {wall['records_per_second']:,.0f} records/s",
        "",
        "simulated IM-PIR latency (cost model, deterministic):",
        f"p50 {simulated['p50_latency_seconds'] * 1e6:8.2f} us   "
        f"p99 {simulated['p99_latency_seconds'] * 1e6:8.2f} us   "
        f"batch makespan {simulated['batch_makespan_seconds'] * 1e6:8.2f} us",
        "",
        "backend survey (wall clock, batched path, payloads gated on reference):",
        f"{'backend':>16} {'cores':>5} {'records/s':>14} {'records/s/core':>15}",
    ]
    for row in metrics["backend_survey"]:
        lines.append(
            f"{row['backend']:>16} {row['cores']:>5} "
            f"{row['records_per_second']:>14,.0f} "
            f"{row['records_per_second_per_core']:>15,.0f}"
        )
    sweep = metrics.get("crossover_sweep")
    if sweep:
        hardware = metrics.get("hardware", {})
        lines += [
            "",
            f"crossover sweep (raw sharded execute_many, wall clock, "
            f"{hardware.get('cpu_count', '?')} cores):",
            f"{'shards':>6} {'executor':>9} {'batch':>6} {'records/s':>14}",
        ]
        for row in sweep["grid"]:
            lines.append(
                f"{row['num_shards']:>6} {row['executor']:>9} "
                f"{row['batch_size']:>6} {row['records_per_second']:>14,.0f}"
            )
        for calibration in sweep["scan_tuner"]:
            lines.append(
                f"tuner verdict at batch {calibration['batch']}: "
                f"{calibration['executor']} "
                f"(threads speedup {calibration['threads_speedup']:.2f}x, "
                f"{calibration['num_workers']} workers, "
                f"chunk {calibration['chunk_records']})"
            )
    lines += [
        "",
        "DPU pipeline cost model (simulated, deterministic):",
        f"{'backend':>16} {'DPUs':>5} {'us/query':>9} {'records/s':>14} {'records/s/DPU':>14} {'batched x':>9}",
    ]
    for row in metrics["dpu_pipeline"]:
        batched = row.get("batched", {})
        speedup_cell = (
            f"{batched['amortized_speedup']:>9.2f}" if batched else f"{'-':>9}"
        )
        lines.append(
            f"{row['backend']:>16} {row['num_dpus']:>5} "
            f"{row['per_query_seconds'] * 1e6:>9.2f} "
            f"{row['records_per_second']:>14,.0f} "
            f"{row['records_per_second_per_dpu']:>14,.0f} "
            f"{speedup_cell}"
        )
    return "\n".join(lines)
