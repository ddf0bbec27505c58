"""Optimization ablation: what the ``-O2`` pass pipeline buys per design.

For every design in the catalog, the staged driver produces the
flattened-but-unoptimized netlist (``-O0``) and the pass-optimized one
(``-O2``), then drives both with the *same* seeded random stimulus for
the same number of cycles.  The table reports pre/post cell counts
and — the correctness gate — whether the optimized netlist's outputs
are bit-identical to the unoptimized one's on every cycle (differential
simulation).  Simulation speed is not reported here: one short run per
level is too noisy to compare, and ``perfbench/`` measures the engines.

The same machinery gates the compiled simulation backend: for every
design, both optimization levels are re-simulated on the ``compiled``
engine and must agree bit-for-bit with the interpreter (the "Backends"
column), and the lane-parallel engines re-simulate the ``-O2`` netlist
with K stimulus lanes in one pass, which must agree lane for lane with
K independent single-lane runs at the derived lane seeds — the SWAR
batched engine in the "Lanes" column and the word-packed vector
backend in the "Vector" column, both against the same per-lane
reference traces.  Without numpy there is no vector engine, no vector
run is made, and the "Vector" column reads ``n/a``.

:func:`check_shape` asserts the claims this artifact exists for:

* **soundness** — every design is output-equivalent across levels,
  the compiled backend is output-equivalent to the interpreter, and
  both lane engines (SWAR batched, vectorized) are output-equivalent to
  sequential runs (an ``n/a`` vector row claims nothing either way);
* **profit** — dead-cell elimination plus common-cell sharing reduce
  the total cell count on at least three designs.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from ..designs.catalog import DESIGNS, design_point
from ..driver import CompileSession, EvalGrid
from ..rtl import derive_lane_seed, vectorize
from ..synth import format_table

#: Deterministic row order over the whole catalog.
ABLATION_DESIGNS = tuple(sorted(DESIGNS))

#: Shared differential-stimulus shape: same seed and length on both
#: sides of every comparison, reproducible across runs and machines.
CYCLES = 128
SEED = 0xA5

#: Stimulus lanes the batched differential drives together (kept small:
#: the point is exercising the lane-packed codegen, not throughput).
LANES = 4


class AblationRow:
    def __init__(
        self,
        name: str,
        cells_base: int,
        cells_opt: int,
        equivalent: bool,
        removed_by: Dict[str, int],
        backends_agree: bool = True,
        lanes_agree: bool = True,
        vector_agree: Optional[bool] = True,
    ):
        self.name = name
        self.cells_base = cells_base
        self.cells_opt = cells_opt
        self.equivalent = equivalent
        #: pass name → cells removed by that pass on this design.
        self.removed_by = dict(removed_by)
        #: compiled backend bit-identical to the interpreter at both
        #: optimization levels under the shared stimulus.
        self.backends_agree = backends_agree
        #: batched multi-lane run bit-identical, lane for lane, to the
        #: corresponding independent single-lane runs.
        self.lanes_agree = lanes_agree
        #: word-packed vector run bit-identical, lane for lane, to the
        #: same independent single-lane reference traces; None when no
        #: vector engine ran (numpy missing).
        self.vector_agree = vector_agree

    @property
    def reduction(self) -> float:
        if not self.cells_base:
            return 0.0
        return 1.0 - self.cells_opt / self.cells_base

    def cleanup_removed(self) -> int:
        """Cells removed by dead-cell elimination + common-cell sharing."""
        return self.removed_by.get("dead-cell-elim", 0) + self.removed_by.get(
            "common-cell-sharing", 0
        )

    def cells(self) -> List[object]:
        return [
            self.name,
            self.cells_base,
            self.cells_opt,
            f"{self.reduction * 100.0:.1f}%",
            _verdict(self.equivalent),
            _verdict(self.backends_agree),
            _verdict(self.lanes_agree),
            _verdict(self.vector_agree),
        ]


def _verdict(agree: Optional[bool]) -> str:
    """One agreement column's cell; None means the check did not run."""
    if agree is None:
        return "n/a"
    return "yes" if agree else "NO"


def _build_row(
    session: CompileSession,
    name: str,
    cycles: int = CYCLES,
    seed: int = SEED,
    lanes: int = LANES,
) -> AblationRow:
    source, component, generators, params = design_point(name)
    base = session.optimize(
        source, component, params, generators, opt_level=0
    ).value
    opt = session.optimize(
        source, component, params, generators, opt_level=2
    ).value
    # Every reference trace pins lanes=1 explicitly: the session-level
    # sim_lanes default must not silently batch the single-run sides of
    # these comparisons.
    trace_base = session.simulate(
        source, component, params, generators,
        cycles=cycles, seed=seed, opt_level=0, backend="interp", lanes=1,
    ).value
    trace_opt = session.simulate(
        source, component, params, generators,
        cycles=cycles, seed=seed, opt_level=2, backend="interp", lanes=1,
    ).value
    # The backend differential: the compiled engine independently
    # re-simulates both levels and must agree bit-for-bit with the
    # interpreter under the very same stimulus.
    backends_agree = all(
        session.simulate(
            source, component, params, generators,
            cycles=cycles, seed=seed, opt_level=level, backend="compiled",
            lanes=1,
        ).value.outputs == interp.outputs
        for level, interp in ((0, trace_base), (2, trace_opt))
    )
    # The batching differential: one K-lane SWAR pass over the
    # optimized netlist, checked lane-by-lane against the K independent
    # scalar runs at the derived lane seeds (lane 0's seed is the batch
    # seed, so that lane also revalidates against trace-opt's
    # stimulus).  The per-lane reference traces are computed once and
    # shared with the vector differential below.
    lane_refs = [
        session.simulate(
            source, component, params, generators,
            cycles=cycles, seed=derive_lane_seed(seed, lane),
            opt_level=2, backend="compiled", lanes=1,
        ).value.outputs
        for lane in range(lanes)
    ]
    batch = session.simulate(
        source, component, params, generators,
        cycles=cycles, seed=seed, opt_level=2, backend="batched",
        lanes=lanes,
    ).value
    lanes_agree = list(batch.outputs) == lane_refs
    # The vector differential: same contract, word-packed columns
    # instead of SWAR words, against the very same reference traces.
    # A run on another engine proves nothing about the vector kernels:
    # without numpy none is made, and a degraded trace that a numpy-less
    # process left in a shared store is not counted either.
    vector_agree = None
    if vectorize._numpy() is not None:
        vector = session.simulate(
            source, component, params, generators,
            cycles=cycles, seed=seed, opt_level=2, backend="vector",
            lanes=lanes,
        ).value
        if vector.backend == "vector":
            vector_agree = list(vector.outputs) == lane_refs
    removed_by: Dict[str, int] = {}
    for stat in opt.pass_stats:
        removed_by[stat.name] = (
            removed_by.get(stat.name, 0) + stat.cells_removed
        )
    return AblationRow(
        name,
        base.cells_after,
        opt.cells_after,
        trace_base.outputs == trace_opt.outputs,
        removed_by,
        backends_agree=backends_agree,
        lanes_agree=lanes_agree,
        vector_agree=vector_agree,
    )


def build_rows(
    session: Optional[CompileSession] = None,
    workers: Optional[int] = None,
    cycles: int = CYCLES,
    seed: int = SEED,
    lanes: int = LANES,
) -> List[AblationRow]:
    grid = EvalGrid(session, max_workers=workers)
    # partial over the module-level builder (not a lambda): a checkpoint's
    # point key names the function and its bound arguments.
    return grid.map(
        functools.partial(_build_row, cycles=cycles, seed=seed, lanes=lanes),
        ABLATION_DESIGNS,
    )


def render(rows: List[AblationRow]) -> str:
    return format_table(
        ["Design", "Cells -O0", "Cells -O2", "Reduction", "Equivalent",
         "Backends", "Lanes", "Vector"],
        [row.cells() for row in rows],
    )


def check_shape(rows: List[AblationRow]) -> Dict[str, float]:
    """Assert soundness + profit; return the measured ratios."""
    stats: Dict[str, float] = {}
    for row in rows:
        assert row.equivalent, (
            f"{row.name}: -O2 netlist diverges from -O0 under shared "
            f"stimulus — optimization is unsound"
        )
        assert row.backends_agree, (
            f"{row.name}: compiled backend diverges from the interpreter "
            f"under shared stimulus — code generation is unsound"
        )
        assert row.lanes_agree, (
            f"{row.name}: batched multi-lane run diverges from the "
            f"independent single-lane runs — lane batching is unsound"
        )
        assert row.vector_agree is not False, (
            f"{row.name}: vectorized multi-lane run diverges from the "
            f"independent single-lane runs — vector codegen is unsound"
        )
        assert row.cells_opt <= row.cells_base, (
            f"{row.name}: optimization grew the netlist"
        )
        stats[f"reduction {row.name}"] = row.reduction
    cleaned = [row for row in rows if row.cleanup_removed() > 0]
    assert len(cleaned) >= 3, (
        "dead-cell elimination + common-cell sharing should reduce cell "
        f"count on at least three designs, got {len(cleaned)}: "
        f"{[row.name for row in cleaned]}"
    )
    return stats


def run(
    session: Optional[CompileSession] = None,
    workers: Optional[int] = None,
) -> str:
    # A session tuned for more lanes (--sim-lanes) widens the batched
    # differential accordingly.
    lanes = LANES
    if session is not None and session.sim_lanes > 1:
        lanes = session.sim_lanes
    rows = build_rows(session=session, workers=workers, lanes=lanes)
    stats = check_shape(rows)
    lines = [render(rows), "", "shape statistics:"]
    for key, value in stats.items():
        lines.append(f"  {key}: {value:+.3f}")
    return "\n".join(lines)
