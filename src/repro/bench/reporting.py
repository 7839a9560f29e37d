"""Plain-text reporting of regenerated figures, with paper-vs-measured notes.

The benchmark modules call these helpers to print the rows/series the paper
reports, so running ``pytest benchmarks/ --benchmark-only -s`` reproduces the
evaluation section as console output (``python -m repro.bench.cli all`` prints
the same tables without the timing harness).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping

from repro.analysis.metrics import SpeedupReport, SweepSeries
from repro.bench import paper_reference as paper
from repro.bench.figures import Fig3Result, Fig9Result, Fig10Result, Fig11Result, Fig12Result


def _format_row(cells: Iterable[str], width: int = 16) -> str:
    return "  ".join(f"{cell:>{width}}" for cell in cells)


def render_fig3(result: Fig3Result) -> str:
    """Fig. 3: per-phase times and roofline placements."""
    lines = ["Figure 3(a) - DPF-PIR execution time breakdown (single CPU thread)"]
    lines.append(_format_row(["DB size (GB)", "Gen (ms)", "Eval (ms)", "dpXOR (ms)", "total (ms)"]))
    for row in result.breakdowns:
        lines.append(
            _format_row(
                [
                    f"{row.db_size_gib:g}",
                    f"{row.gen_seconds * 1e3:.4f}",
                    f"{row.eval_seconds * 1e3:.1f}",
                    f"{row.dpxor_seconds * 1e3:.1f}",
                    f"{row.total_seconds * 1e3:.1f}",
                ]
            )
        )
    lines.append("")
    lines.append("Figure 3(b) - roofline placement (memory-bound below ridge point)")
    lines.append(f"ridge point: {result.ridge_point:.2f} op/byte")
    for point in result.roofline_points:
        bound = "memory-bound" if point.memory_bound else "compute-bound"
        lines.append(
            f"  {point.name:>6}: OI={point.operational_intensity:.4f} op/B, "
            f"attainable={point.attainable_gops:.2f} Gops/s ({bound})"
        )
    return "\n".join(lines)


def _render_sweep(series_map: Mapping[str, SweepSeries], x_name: str) -> List[str]:
    names = list(series_map)
    xs = series_map[names[0]].xs
    lines = [_format_row([x_name] + [f"{n} QPS" for n in names] + [f"{n} lat(s)" for n in names])]
    for i, x in enumerate(xs):
        cells = [f"{x:g}"]
        cells += [f"{series_map[n].points[i].throughput_qps:.1f}" for n in names]
        cells += [f"{series_map[n].points[i].latency_seconds:.3f}" for n in names]
        lines.append(_format_row(cells))
    return lines


def render_fig9(result: Fig9Result) -> str:
    """Fig. 9: throughput/latency vs DB size and batch size."""
    lines = ["Figure 9(a)/(c) - vs DB size (batch = 32)"]
    lines += _render_sweep(result.vs_db_size, "DB (GB)")
    if result.speedup_vs_db_size is not None:
        report = result.speedup_vs_db_size
        lines.append(
            "speedup (IM-PIR/CPU-PIR): "
            + ", ".join(f"{x:g} GB: {s:.2f}x" for x, s in report.throughput_speedups.items())
        )
        lines.append(
            f"paper: {paper.FIG9_SPEEDUP_AT_0_5_GIB:.1f}x at 0.5 GB rising to "
            f">{paper.FIG9_SPEEDUP_AT_8_GIB:.1f}x at 8 GB"
        )
    lines.append("")
    lines.append("Figure 9(b)/(d) - vs batch size (DB = 1 GB)")
    lines += _render_sweep(result.vs_batch_size, "batch")
    if result.speedup_vs_batch_size is not None:
        lines.append(
            f"mean speedup across batch sizes: "
            f"{result.speedup_vs_batch_size.mean_throughput_speedup:.2f}x "
            f"(paper: ~{paper.FIG9_MEAN_SPEEDUP_AT_1_GIB:.1f}x)"
        )
    return "\n".join(lines)


def render_fig10(result: Fig10Result) -> str:
    """Fig. 10: per-phase latency tables for IM-PIR and CPU-PIR."""
    lines = ["Figure 10(a) - IM-PIR latency breakdown"]
    lines.append(result.impir_table.to_text())
    lines.append("")
    lines.append("Figure 10(b) - CPU-PIR latency breakdown")
    lines.append(result.cpu_table.to_text())
    return "\n".join(lines)


def render_table1(result: Fig10Result) -> str:
    """Table 1: average phase contributions, measured vs paper."""
    lines = ["Table 1 - average contribution of each phase to query latency"]
    lines.append("IM-PIR (measured): " + _fractions_to_text(result.impir_fractions))
    lines.append("IM-PIR (paper):    " + _fractions_to_text(paper.TABLE1_IMPIR))
    lines.append("CPU-PIR (measured): " + _fractions_to_text(result.cpu_fractions))
    lines.append("CPU-PIR (paper):    " + _fractions_to_text(paper.TABLE1_CPU))
    return "\n".join(lines)


def _fractions_to_text(fractions: Mapping[str, float]) -> str:
    return "  ".join(f"{phase}={value * 100:.2f}%" for phase, value in fractions.items())


def render_fig11(result: Fig11Result) -> str:
    """Fig. 11: clustering throughput/latency vs batch size."""
    lines = ["Figure 11 - DPU clustering (DB = 1 GB)"]
    names = {c: s for c, s in result.series_by_clusters.items()}
    xs = next(iter(names.values())).xs
    header = ["batch"] + [f"{c} cl QPS" for c in names] + [f"{c} cl lat(s)" for c in names]
    lines.append(_format_row(header))
    for i, x in enumerate(xs):
        cells = [f"{int(x)}"]
        cells += [f"{names[c].points[i].throughput_qps:.1f}" for c in names]
        cells += [f"{names[c].points[i].latency_seconds:.3f}" for c in names]
        lines.append(_format_row(cells))
    lines.append(
        f"max gain over a single cluster: {result.max_gain_over_single_cluster:.2f}x "
        f"(paper: up to {paper.FIG11_MAX_CLUSTER_GAIN:.2f}x)"
    )
    return "\n".join(lines)


def render_fig12(result: Fig12Result) -> str:
    """Fig. 12: CPU vs IM-PIR vs GPU comparison."""
    lines = ["Figure 12 - CPU-PIR vs IM-PIR vs GPU-PIR (batch = 32)"]
    lines += _render_sweep(result.series, "DB (GB)")
    if result.impir_over_gpu is not None:
        lines.append(
            f"IM-PIR over GPU-PIR (max): {result.impir_over_gpu.max_throughput_speedup:.2f}x "
            f"(paper: {paper.FIG12_IMPIR_OVER_GPU:.2f}x)"
        )
    if result.gpu_over_cpu is not None:
        lines.append(
            f"GPU-PIR over CPU-PIR (max): {result.gpu_over_cpu.max_throughput_speedup:.2f}x "
            f"(paper: {paper.FIG12_GPU_OVER_CPU:.2f}x)"
        )
    return "\n".join(lines)


def render_speedup(report: SpeedupReport) -> str:
    """One-line rendering of a speedup report."""
    return (
        f"{report.candidate} vs {report.baseline}: "
        f"min {report.min_throughput_speedup:.2f}x, "
        f"mean {report.mean_throughput_speedup:.2f}x, "
        f"max {report.max_throughput_speedup:.2f}x"
    )
