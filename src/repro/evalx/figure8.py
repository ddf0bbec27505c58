"""Figure 8: type-checker performance over the six evaluation designs.

Paper rows (lines of Lilac, type-check wall time)::

    RISC 3-stage Base          480   160 ms
    Gaussian Blur Pyramid      595   205 ms
    FFT (Lilac only)          1207   403 ms
    FFT (using FloPoCo)       1221   442 ms
    Lilac's standard library  1310   900 ms
    BLAS Level 1 Kernels      1346  1295 ms

We measure our own checker (pure Python + the bundled SMT solver, so
absolute times are larger than the paper's Rust + Z3) over the same six
designs.  Line counts are of the Lilac sources in this repository.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..designs.blas import BLAS_SOURCE
from ..designs.fft import FFT_FLOPOCO, FFT_LILAC
from ..designs.gbp_la import GBP_SOURCE
from ..designs.risc import RISC_SOURCE
from ..driver import CompileSession, default_session
from ..lilac.stdlib import STDLIB_SOURCE
from ..synth import format_table


class Figure8Row(NamedTuple):
    design: str
    lines: int
    millis: float
    ok: bool


def _count_lines(source: str) -> int:
    return sum(
        1
        for line in source.splitlines()
        if line.strip() and not line.strip().startswith("//")
    )


#: (row label, Lilac source, merge the standard library before checking)
DESIGNS: List = [
    ("RISC 3-stage Base", RISC_SOURCE, True),
    ("Gaussian Blur Pyramid", GBP_SOURCE, True),
    ("FFT (Lilac only)", FFT_LILAC, True),
    ("FFT (using FloPoCo)", FFT_FLOPOCO, True),
    ("Lilac's standard library", STDLIB_SOURCE, False),
    ("BLAS Level 1 Kernels", BLAS_SOURCE, True),
]


def build_rows(
    designs=None, session: Optional[CompileSession] = None
) -> List[Figure8Row]:
    """Type check each design through the session's typecheck stage.

    The checks run sequentially on purpose: the row *is* the per-design
    wall-clock measurement, and interleaving GIL-bound checks on a pool
    would inflate every individual timing.  A cache hit reports the
    original measured time.
    """
    session = session or default_session()
    rows: List[Figure8Row] = []
    for name, source, with_stdlib in designs or DESIGNS:
        artifact = session.typecheck(source, stdlib=with_stdlib)
        rows.append(
            Figure8Row(name, _count_lines(source), artifact.millis, artifact.ok)
        )
    return rows


def render(rows: List[Figure8Row]) -> str:
    return format_table(
        ["Design", "Lines", "Time (ms)", "Status"],
        [
            [row.design, row.lines, f"{row.millis:.0f}", "ok" if row.ok else "ERROR"]
            for row in rows
        ],
    )


def check_shape(rows: List[Figure8Row]) -> None:
    for row in rows:
        assert row.ok, f"{row.design} failed to type check"
        assert row.lines > 20, f"{row.design} suspiciously small"


def run(
    session: Optional[CompileSession] = None,
    workers: Optional[int] = None,
    executor: str = "thread",
) -> str:
    # No grid here: workers/executor accepted for the uniform artifact
    # surface and ignored.
    rows = build_rows(session=session)
    check_shape(rows)
    return render(rows)
