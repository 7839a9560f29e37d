"""Command-line entry point for regenerating the paper's evaluation.

Usage (after ``pip install -e .``)::

    python -m repro.bench.cli list            # what can be regenerated
    python -m repro.bench.cli fig9            # one figure
    python -m repro.bench.cli all             # the whole evaluation section

The output is the same plain-text rendering the benchmark harness prints; the
CLI exists so the figures can be regenerated without pytest, e.g. from a
notebook or a shell pipeline.  It regenerates the paper and nothing else:
the functional scenarios (cross-backend equivalence, the async frontend,
the control plane, autoscaling, SLO alerting, tracing) each live in one
self-verifying ``examples/*.py`` or ``tests/`` module.
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
        help="one of: %s, all, list (default: all)" % ", ".join(_TARGETS),
    )
    args = parser.parse_args(argv)

    if args.target == "list":
        print("\n".join(list(_TARGETS) + ["all"]))
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
