"""Phase-breakdown tables (paper Fig. 10 and Table 1).

Turns per-query :class:`~repro.common.events.PhaseTimer` objects into the
stacked-latency series of Fig. 10 and the percentage-contribution rows of
Table 1, plus plain-text rendering used by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.common.errors import ConfigurationError
from repro.common.events import PhaseTimer


@dataclass
class BreakdownRow:
    """One configuration's per-phase latencies (one bar of Fig. 10)."""

    label: str
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Total latency of the row."""
        return sum(self.phases.values())

    def fractions(self) -> Dict[str, float]:
        """Phase shares of the total (0 when the total is zero)."""
        total = self.total
        if total <= 0:
            return {phase: 0.0 for phase in self.phases}
        return {phase: value / total for phase, value in self.phases.items()}


class BreakdownTable:
    """A collection of breakdown rows sharing the same phase set."""

    def __init__(self, phase_order: Sequence[str]) -> None:
        if not phase_order:
            raise ConfigurationError("phase_order must not be empty")
        self.phase_order = list(phase_order)
        self.rows: List[BreakdownRow] = []

    def add_row(self, label: str, timer: PhaseTimer | Mapping[str, float]) -> BreakdownRow:
        """Add one configuration's breakdown (missing phases count as zero)."""
        durations = timer.as_dict() if isinstance(timer, PhaseTimer) else dict(timer)
        phases = {phase: float(durations.get(phase, 0.0)) for phase in self.phase_order}
        row = BreakdownRow(label=label, phases=phases)
        self.rows.append(row)
        return row

    def average_fractions(self) -> Dict[str, float]:
        """Mean phase shares across rows — the quantity Table 1 reports."""
        if not self.rows:
            return {phase: 0.0 for phase in self.phase_order}
        sums = {phase: 0.0 for phase in self.phase_order}
        for row in self.rows:
            for phase, fraction in row.fractions().items():
                sums[phase] += fraction
        return {phase: sums[phase] / len(self.rows) for phase in self.phase_order}

    def totals(self) -> List[float]:
        """Total latency per row, in insertion order."""
        return [row.total for row in self.rows]

    # -- rendering -------------------------------------------------------------------

    def to_text(self, unit: str = "ms", scale: float = 1e3) -> str:
        """Render the table as aligned plain text (latencies in ``unit``)."""
        header = ["config"] + self.phase_order + ["total"]
        lines = ["  ".join(f"{h:>16}" for h in header)]
        for row in self.rows:
            cells = [f"{row.label:>16}"]
            for phase in self.phase_order:
                cells.append(f"{row.phases[phase] * scale:>14.3f}{unit:>2}")
            cells.append(f"{row.total * scale:>14.3f}{unit:>2}")
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def fractions_to_text(self) -> str:
        """Render the average percentage contributions (the Table 1 row)."""
        fractions = self.average_fractions()
        cells = [f"{phase}: {fraction * 100.0:.2f}%" for phase, fraction in fractions.items()]
        return "  ".join(cells)


def compare_fraction_tables(
    measured: Mapping[str, float], reference: Mapping[str, float]
) -> Dict[str, float]:
    """Absolute difference (in percentage points) between two fraction tables.

    Used by the Table 1 benchmark (``python -m repro.bench.cli table1``) to
    report how far the reproduction's phase shares land from the paper's.
    """
    phases = set(measured) | set(reference)
    return {
        phase: abs(measured.get(phase, 0.0) - reference.get(phase, 0.0)) * 100.0
        for phase in phases
    }
