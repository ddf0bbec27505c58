"""Table 1: resource usage of LS vs LI FPU implementations.

Paper rows (Vivado, 32-bit FloPoCo cores)::

    Configuration   LUTs  Registers  Freq. (MHz)
    LI (A=1, M=1)   614   824        134.5
    LS (A=1, M=1)   441   205        163.0
    LI (A=4, M=2)   662   1426       224.4
    LS (A=4, M=2)   459   482        280.8

We regenerate the same grid from our FloPoCo stand-in (100 MHz goal gives
A=1/M=1; 400 MHz gives A=4/M=2) and the synthesis model.  Absolute
numbers differ from Vivado; the shape claims that must hold are encoded
in :func:`check_shape`.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from ..designs.fpu import FPU_LA_SOURCE, LiFpu, fpu_generators
from ..driver import CompileSession, EvalGrid
from ..generators.flopoco import adder_depth, multiplier_depth
from ..synth import SynthReport, format_table, synthesize

DESIGN_POINTS = (100, 400)  # FloPoCo frequency goals


class Table1Row:
    def __init__(self, label: str, report: SynthReport):
        self.label = label
        self.report = report

    def cells(self) -> List[object]:
        return [
            self.label,
            self.report.luts,
            self.report.registers,
            f"{self.report.fmax_mhz:.1f}",
        ]


def _build_point(
    session: CompileSession, frequency: int, width: int = 32
) -> List[Table1Row]:
    a = adder_depth(width, frequency)
    m = multiplier_depth(width, frequency)
    label = f"(A={a}, M={m})"
    li = LiFpu(frequency, width, session=session)
    ls = session.synthesize(
        FPU_LA_SOURCE, "FPU", {"#W": width}, fpu_generators(frequency)
    ).value
    return [
        Table1Row(f"LI {label}", synthesize(li.module)),
        Table1Row(f"LS {label}", ls),
    ]


def build_rows(
    width: int = 32,
    session: Optional[CompileSession] = None,
    workers: Optional[int] = None,
) -> List[Table1Row]:
    grid = EvalGrid(session, max_workers=workers)
    # partial over the module-level builder (not a lambda): a checkpoint's
    # point key names the function and its bound arguments.
    per_point = grid.map(
        functools.partial(_build_point, width=width), DESIGN_POINTS
    )
    return [row for rows in per_point for row in rows]


def render(rows: List[Table1Row]) -> str:
    return format_table(
        ["Configuration", "LUTs", "Registers", "Freq. (MHz)"],
        [row.cells() for row in rows],
    )


def run(
    session: Optional[CompileSession] = None,
    workers: Optional[int] = None,
) -> str:
    """Build, verify and render the table (the CLI entry point)."""
    rows = build_rows(session=session, workers=workers)
    stats = check_shape(rows)
    lines = [render(rows), "", "shape statistics:"]
    for key, value in stats.items():
        lines.append(f"  {key}: {value:+.3f}")
    return "\n".join(lines)


def check_shape(rows: List[Table1Row]) -> Dict[str, float]:
    """Verify the relative claims of Table 1; returns the measured ratios.

    * LI uses more LUTs than LS at each design point (paper: +29-31%);
    * LI uses substantially more registers (paper: 3-4x);
    * LI achieves a lower maximum frequency (paper: -21-25%).
    """
    stats: Dict[str, float] = {}
    for index in range(0, len(rows), 2):
        li = rows[index].report
        ls = rows[index + 1].report
        point = rows[index].label.split(" ", 1)[1]
        assert li.luts > ls.luts, f"{point}: LI should use more LUTs"
        assert li.registers > 1.5 * ls.registers, (
            f"{point}: LI should use far more registers"
        )
        assert li.fmax_mhz < ls.fmax_mhz, f"{point}: LI should be slower"
        stats[f"lut_overhead {point}"] = li.luts / ls.luts - 1
        stats[f"reg_ratio {point}"] = li.registers / ls.registers
        stats[f"freq_loss {point}"] = 1 - li.fmax_mhz / ls.fmax_mhz
    return stats
