#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation section.

Prints the data series behind Fig. 3, Fig. 9, Fig. 10 / Table 1, Fig. 11 and
Fig. 12, produced by the calibrated cost models at the paper's database and
batch sizes, side by side with the paper's reported headline numbers.  No
paper-vs-measured comparison is recorded in the repo yet: ``python -m
repro.bench.cli all`` prints the same series on demand.

Run:  python examples/reproduce_paper_figures.py
"""

from __future__ import annotations

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


def main() -> None:
    separator = "\n" + "=" * 100 + "\n"

    print(separator + "FIGURE 3 — motivation: DPF-PIR phase costs and roofline" + separator)
    print(render_fig3(fig3_motivation()))

    print(separator + "FIGURE 9 — throughput/latency vs DB size and batch size" + separator)
    print(render_fig9(fig9_throughput_latency()))

    print(separator + "FIGURE 10 + TABLE 1 — per-phase latency breakdown" + separator)
    fig10 = fig10_breakdown()
    print(render_fig10(fig10))
    print()
    print(render_table1(fig10))

    print(separator + "FIGURE 11 — DPU clustering" + separator)
    print(render_fig11(fig11_clustering()))

    print(separator + "FIGURE 12 — comparison with GPU-PIR" + separator)
    print(render_fig12(fig12_gpu_comparison()))


if __name__ == "__main__":
    main()
