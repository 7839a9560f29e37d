"""End-to-end benchmark: four retrieval workloads, timed from outside.

One command::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke] [--out DIR]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs one after
another, each in a fresh interpreter.  ``--trace 0`` is the untraced timed
run that yields the end-to-end metrics; ``--trace 1`` replays the same
inputs under the span recorder for the per-layer metrics; without ``--trace``
both happen.  Every run checks each retrieved record against an oracle
database, prints every metric by name with its unit, ends with one JSON
object per run (``correct``, ``attempted``, ``failed``, ``metrics``) and exits
non-zero if any record was wrong or the trace failed its own checks.

``README.md`` beside this file defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` a traced run spends in each of its two systems
#: (an untraced reference and its traced replay), and how many alternating
#: chunks that time is cut into.
TRACED_PHASE_SHARE = 0.4
TRACED_PAIRS = 8
SMOKE_SECONDS = 0.4


def _import_program() -> None:
    """Make ``repro`` (the program under test) and this directory importable."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {source / 'repro'} is missing")
    for path in (str(source), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def host_line() -> str:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"# host: nproc={os.cpu_count()} cpu={model!r} "
        f"numpy={numpy.__version__} python={sys.version.split()[0]}"
    )


def print_result(header: str, result: Dict, absent=()) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    print(header)
    for name, metric in result["metrics"].items():
        value = "n/a" if name in absent else f"{metric['value']:.6g}"
        print(f"  {name:<28} {value:>14} {metric['unit']}")
    print(json.dumps(result), flush=True)


def as_result(attempted: int, failed: int, problems: List[str], metrics: Dict) -> Dict:
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_untraced(workload, seed: int, seconds: float, smoke: bool) -> Dict:
    from metrics import end_to_end
    from workloads import Limit

    setups = []
    session = None
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.close()
            session = None  # free the previous database before the next
        begin = time.perf_counter()
        session = workload(seed, smoke=smoke)
        setups.append(time.perf_counter() - begin)
    try:
        outcome = session.run(Limit(seconds=seconds))
    finally:
        session.close()
    result = as_result(
        outcome.attempted, outcome.failed, [], end_to_end(outcome, statistics.median(setups))
    )
    print_result(
        f"# {workload.name} seed={seed} untraced {outcome.wall:.2f}s shape={session.shape} "
        f"latency_samples={len(outcome.latencies)} "
        f"failed_share={outcome.failed / outcome.attempted:.6g}",
        result,
    )
    return result


def run_traced(workload, seed: int, seconds: float, smoke: bool, out_dir: Path) -> Dict:
    from metrics import per_layer, trace_checks
    from spans import Tracer, write_spans
    from workloads import Limit, Outcome

    # Host speed drifts by tens of percent within seconds on shared
    # hardware, so the traced system does not run after the untraced one
    # but beside it: one chunk untraced, then the same units replayed
    # traced, and so on.  Each pair sees the same inputs at nearly the same
    # moment; the overhead is the median of the pairs' time ratios.
    budget = seconds * TRACED_PHASE_SHARE
    untraced, traced, ratios = Outcome(), Outcome(), []
    tracer = Tracer()
    reference = workload(seed, smoke=smoke)
    session = None
    try:
        while untraced.wall < budget:
            untraced_before, traced_before = untraced.wall, traced.wall
            reference.run(Limit(seconds=budget / TRACED_PAIRS), untraced)
            if session is None:
                # Before the second system exists: one system's footprint.
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                session = workload(seed, smoke=smoke, tracer=tracer)
            session.run(Limit(units=untraced.units), traced)
            ratios.append(
                (traced.wall - traced_before) / (untraced.wall - untraced_before)
            )
    finally:
        reference.close()
        if session is not None:
            session.close()
    overhead = statistics.median(ratios) - 1.0
    metrics, absent = per_layer(session, tracer.spans, traced, untraced, overhead, peak_rss_mib)
    problems = trace_checks(session, metrics, traced, untraced, ratios)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}.jsonl"
    write_spans(tracer.spans, spans_path)
    result = as_result(
        untraced.attempted + traced.attempted, untraced.failed + traced.failed, problems, metrics
    )
    print_result(
        f"# {workload.name} seed={seed} traced {traced.wall:.2f}s vs untraced "
        f"{untraced.wall:.2f}s over {traced.units} units, {len(tracer.spans)} spans "
        f"-> {spans_path}",
        result,
        absent,
    )
    return result


def run_all(args, names: List[str]) -> int:
    """Each workload in a fresh interpreter, one after another."""
    status = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--out", str(args.out)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        status |= subprocess.run(command, check=False).returncode
    print("# all workloads correct" if status == 0 else "# FAILED: see above", flush=True)
    return 1 if status else 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="same code paths at tiny shapes, for the tier-1 test")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    _import_program()
    if args.workload is None:
        print(host_line(), flush=True)
        return run_all(args, names)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    results = []
    if args.trace in (None, 0):
        results.append(run_untraced(workload, args.seed, seconds, args.smoke))
    if args.trace in (None, 1):
        results.append(run_traced(workload, args.seed, seconds, args.smoke, args.out))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
