"""Command-line entry point for regenerating the paper's evaluation.

Usage (after ``pip install -e .``)::

    python -m repro.bench.cli list            # what can be regenerated
    python -m repro.bench.cli fig9            # one figure
    python -m repro.bench.cli all             # the whole evaluation section

The output is the same plain-text rendering the benchmark harness prints; the
CLI exists so the figures can be regenerated without pytest, e.g. from a
notebook or a shell pipeline.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.bench.figures import (
    fig3_motivation,
    fig9_throughput_latency,
    fig10_breakdown,
    fig11_clustering,
    fig12_gpu_comparison,
)
from repro.bench.smoke import (
    async_backend_smoke,
    autoscale_smoke,
    backend_smoke,
    batched_smoke,
    slo_smoke,
    observability_report,
    rebalance_smoke,
    resplit_smoke,
    traced_smoke,
)
from repro.bench.reporting import (
    render_fig3,
    render_fig9,
    render_fig10,
    render_fig11,
    render_fig12,
    render_table1,
)


def _run_fig10_and_table1() -> str:
    result = fig10_breakdown()
    return render_fig10(result) + "\n\n" + render_table1(result)


_TARGETS: Dict[str, Callable[[], str]] = {
    "fig3": lambda: render_fig3(fig3_motivation()),
    "fig9": lambda: render_fig9(fig9_throughput_latency()),
    "fig10": _run_fig10_and_table1,
    "table1": lambda: render_table1(fig10_breakdown()),
    "fig11": lambda: render_fig11(fig11_clustering()),
    "fig12": lambda: render_fig12(fig12_gpu_comparison()),
    "smoke": backend_smoke,
}


def available_targets() -> tuple:
    """Names accepted by the CLI (plus the pseudo-targets ``all``/``list``)."""
    return tuple(_TARGETS)


def run_target(name: str) -> str:
    """Regenerate one target and return its text rendering."""
    try:
        producer = _TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown target {name!r}; valid targets: {', '.join(_TARGETS)}"
        ) from None
    return producer()


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description="Regenerate the IM-PIR paper's tables and figures from the cost models.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default="all",
        help="one of: %s, report, all, list (default: all)" % ", ".join(_TARGETS),
    )
    parser.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="with the smoke target: drive the asyncio frontend "
        "(real max-wait timers, concurrent replica dispatch) instead of the "
        "simulated-clock one",
    )
    parser.add_argument(
        "--rebalance",
        dest="use_rebalance",
        action="store_true",
        help="with the smoke target: drive a drifting Zipf workload through "
        "the online control plane (heat telemetry, live shard migration, "
        "hot-record cache) and cross-check records against a static fleet",
    )
    parser.add_argument(
        "--resplit",
        dest="use_resplit",
        action="store_true",
        help="with the smoke target: drive the drifting Zipf workload with "
        "the plan-shape policy enabled (online shard split/merge, versioned "
        "topology, heat remap) and cross-check records against a static fleet",
    )
    parser.add_argument(
        "--autoscale",
        dest="use_autoscale",
        action="store_true",
        help="with the smoke target: drive a surging Zipf workload through "
        "the closed-loop autoscaler (replica elasticity, cost-damped "
        "reshapes) and cross-check records against a static fleet",
    )
    parser.add_argument(
        "--slo",
        dest="use_slo",
        action="store_true",
        help="with the smoke target: drive calm -> injected latency fault -> "
        "recovery through the SLO engine, asserting the fast-burn alert "
        "fires and resolves, the alert-escalated scale-up lands, incident "
        "bundles are deterministic, and records match a static fleet",
    )
    parser.add_argument(
        "--batched",
        dest="use_batched",
        action="store_true",
        help="with the smoke target: answer the same batch through one-row "
        "execute_many dispatches and through one batched dispatch on every "
        "backend, asserting bit-identical payloads and the documented "
        "simulated-cost contract",
    )
    parser.add_argument(
        "--traced",
        dest="use_traced",
        action="store_true",
        help="with the smoke target: drive the drifting workload bare and "
        "with the observability hub attached, asserting bit-identical "
        "records, float-exact span/PhaseTimer agreement, and visible "
        "rebalance + cache activity",
    )
    args = parser.parse_args(argv)

    smoke_flags = {
        "--async": args.use_async,
        "--rebalance": args.use_rebalance,
        "--resplit": args.use_resplit,
        "--autoscale": args.use_autoscale,
        "--slo": args.use_slo,
        "--batched": args.use_batched,
        "--traced": args.use_traced,
    }
    selected = [flag for flag, enabled in smoke_flags.items() if enabled]
    if selected:
        if args.target != "smoke":
            print(f"{selected[0]} applies to the smoke target only", file=sys.stderr)
            return 2
        if len(selected) > 1:
            print(
                "pick one of --async / --rebalance / --resplit / --autoscale / "
                "--slo / --batched / --traced per run",
                file=sys.stderr,
            )
            return 2
        if args.use_async:
            print(async_backend_smoke())
        elif args.use_rebalance:
            print(rebalance_smoke())
        elif args.use_resplit:
            print(resplit_smoke())
        elif args.use_autoscale:
            print(autoscale_smoke())
        elif args.use_slo:
            print(slo_smoke())
        elif args.use_traced:
            print(traced_smoke())
        else:
            print(batched_smoke())
        return 0

    if args.target == "report":
        print(observability_report())
        return 0

    if args.target == "list":
        print("\n".join(list(_TARGETS) + ["report", "all"]))
        return 0
    if args.target == "all":
        # fig10 already renders Table 1; the table1 target repeats it alone.
        for name in (name for name in _TARGETS if name != "table1"):
            print("=" * 100)
            print(run_target(name))
            print()
        return 0
    try:
        print(run_target(args.target))
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
