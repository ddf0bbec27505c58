"""Combined synthesis reports in the style of the paper's tables."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from ..rtl import Module
from .area import AreaReport, area
from .timing import TimingReport, timing


class SynthReport:
    """LUTs, registers, and Fmax for one design point."""

    def __init__(self, name: str, area_report: AreaReport, timing_report: TimingReport):
        self.name = name
        self.luts = area_report.luts
        self.registers = area_report.registers
        self.fmax_mhz = timing_report.fmax_mhz
        self.critical_path_ns = timing_report.critical_path_ns
        self.area = area_report
        self.timing = timing_report

    def row(self) -> Tuple[str, int, int, float]:
        return (self.name, self.luts, self.registers, self.fmax_mhz)

    def __repr__(self):
        return (
            f"SynthReport({self.name}: {self.luts} LUTs, "
            f"{self.registers} regs, {self.fmax_mhz:.1f} MHz)"
        )


def synthesize(module: Module, name: str = "") -> SynthReport:
    """Run the area and timing models over a module."""
    return SynthReport(name or module.name, area(module), timing(module))


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned text table (used by the benchmark harness)."""
    materialized = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(row):
        return "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)
