"""Whole-run wall-time attribution: where did a grid run spend its time?

The cache layer's :class:`~repro.driver.cache.CacheStats` accumulates
timers at every instrumented site — ``compute.<stage>`` around each
stage computation, ``wait.disk_read``/``wait.disk_write`` around disk
cache I/O, ``wait.cache_lock`` for time blocked behind another thread's
single-flight computation, ``wait.pool_queue`` for grid points sitting
unstarted in the executor queue.  :class:`RunProfiler` brackets a run
(a ``repro all``, one evaluation grid, a single compile) and turns the
timer *deltas* into a :class:`RunReport`: compute vs waiting, with a
flame-style text rendering and a JSON form for machines.

Two caveats the report states explicitly rather than hiding:

* Timers attribute by *site*, they do not partition wall time.  A
  stage computation that reads the disk cache counts under both
  ``compute.<stage>`` and ``wait.disk_read``, and with a worker pool
  many sites tick concurrently — total attributed seconds can exceed
  the wall clock.  The per-bucket shares are still the right relative
  picture of where time goes.
* ``unattributed`` is the wall time no compute bucket claims (stimulus
  generation, Python import, report rendering, the profiler itself).
  Under parallelism it clamps at zero.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

#: timer-name prefixes the report splits on.
_COMPUTE_PREFIX = "compute."
_WAIT_PREFIX = "wait."

#: counter-name prefixes the robustness section splits on: injected
#: faults, the retries/degradations that absorbed them, and the
#: crash-consistency machinery (fsck, run checkpoints, worker
#: watchdog).
_FAULT_PREFIXES = (
    "fault.injected.",
    "retry.",
    "degrade.",
    "fsck.",
    "checkpoint.",
    "watchdog.",
)


class RunReport:
    """Attribution of one profiled run's wall clock.

    ``compute`` maps stage names to seconds spent computing them (cache
    hits cost nothing, so a warm run's compute collapses toward zero);
    ``waits`` maps wait sites (``disk_read``, ``disk_write``,
    ``cache_lock``, ``pool_queue``) to seconds spent there.

    ``faults`` maps the robustness counters (``fault.injected.<site>``,
    ``retry.<site>``, ``degrade.<path>``) that ticked during the run —
    empty in a fault-free, fully healthy run.
    """

    def __init__(
        self,
        wall_seconds: float,
        compute: Dict[str, float],
        waits: Dict[str, float],
        faults: Optional[Dict[str, int]] = None,
    ):
        self.wall_seconds = wall_seconds
        self.compute = dict(compute)
        self.waits = dict(waits)
        self.faults = dict(faults or {})

    @property
    def compute_seconds(self) -> float:
        return sum(self.compute.values())

    @property
    def wait_seconds(self) -> float:
        return sum(self.waits.values())

    @property
    def unattributed_seconds(self) -> float:
        return max(0.0, self.wall_seconds - self.compute_seconds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "wall_seconds": self.wall_seconds,
            "compute_seconds": self.compute_seconds,
            "wait_seconds": self.wait_seconds,
            "unattributed_seconds": self.unattributed_seconds,
            "compute": dict(self.compute),
            "waits": dict(self.waits),
            "faults": dict(self.faults),
        }

    def _bar(self, seconds: float, width: int = 28) -> str:
        if self.wall_seconds <= 0.0:
            return ""
        filled = int(round(width * min(1.0, seconds / self.wall_seconds)))
        return "█" * filled

    def _share(self, seconds: float) -> str:
        if self.wall_seconds <= 0.0:
            return "  n/a"
        return f"{100.0 * seconds / self.wall_seconds:5.1f}%"

    def render(self) -> str:
        lines = [f"run profile: {self.wall_seconds:.3f}s wall"]
        lines.append(
            f"  compute   {self.compute_seconds:8.3f}s "
            f"{self._share(self.compute_seconds)}"
        )
        for name, seconds in sorted(
            self.compute.items(), key=lambda item: -item[1]
        ):
            lines.append(
                f"    {name:14s} {seconds:8.3f}s {self._share(seconds)} "
                f"{self._bar(seconds)}"
            )
        lines.append(
            f"  waiting   {self.wait_seconds:8.3f}s "
            f"{self._share(self.wait_seconds)}  "
            "(overlaps compute; a site view, not a partition)"
        )
        for name, seconds in sorted(
            self.waits.items(), key=lambda item: -item[1]
        ):
            lines.append(
                f"    {name:14s} {seconds:8.3f}s {self._share(seconds)} "
                f"{self._bar(seconds)}"
            )
        lines.append(
            f"  unattributed {self.unattributed_seconds:5.3f}s "
            f"{self._share(self.unattributed_seconds)}  "
            "(stimulus, imports, rendering)"
        )
        if self.faults:
            lines.append("  faults    (injected / recovered)")
            for name, count in sorted(self.faults.items()):
                lines.append(f"    {name:28s} {count:4d}")
        return "\n".join(lines)


class RunProfiler:
    """Context manager bracketing a run over one session.

    Snapshots the session's timers on entry and reports the *deltas*
    on exit, so several profiled regions over one long-lived session
    don't bleed into each other::

        with RunProfiler(session) as profiler:
            grid.map(fn, points)
        print(profiler.report().render())
    """

    def __init__(self, session):
        self.session = session
        self._baseline: Dict[str, float] = {}
        self._counter_baseline: Dict[str, int] = {}
        self._started = 0.0
        self._wall: Optional[float] = None

    def __enter__(self) -> "RunProfiler":
        snapshot = self.session.stats.snapshot()
        self._baseline = dict(snapshot["timers"])
        self._counter_baseline = dict(snapshot["counters"])
        self._wall = None
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._wall = time.perf_counter() - self._started
        return None

    def report(self) -> RunReport:
        """The attribution so far (inside the block: a running total)."""
        wall = (
            self._wall
            if self._wall is not None
            else time.perf_counter() - self._started
        )
        snapshot = self.session.stats.snapshot()
        compute: Dict[str, float] = {}
        waits: Dict[str, float] = {}
        for name, seconds in snapshot["timers"].items():
            delta = seconds - self._baseline.get(name, 0.0)
            if delta <= 0.0:
                continue
            if name.startswith(_COMPUTE_PREFIX):
                compute[name[len(_COMPUTE_PREFIX):]] = delta
            elif name.startswith(_WAIT_PREFIX):
                waits[name[len(_WAIT_PREFIX):]] = delta
        faults: Dict[str, int] = {}
        for name, count in snapshot["counters"].items():
            if not name.startswith(_FAULT_PREFIXES):
                continue
            delta = count - self._counter_baseline.get(name, 0)
            if delta > 0:
                faults[name] = delta
        return RunReport(wall, compute, waits, faults)


def simulate_catalog_point(session, point):
    """Grid worker for ``repro profile`` (module-level: process pools
    must pickle it).  ``point`` is ``(design_name, cycles, opt_level)``;
    returns plain data for the per-design summary line."""
    from ..designs.catalog import design_point

    name, cycles, opt_level = point
    source, component, generators, params = design_point(name)
    trace = session.simulate(
        source, component, params, generators,
        cycles=cycles, opt_level=opt_level,
    ).value
    return {
        "design": name,
        "cells": trace.cells,
        "backend": trace.backend,
        "lanes": trace.lanes,
        "run_seconds": trace.run_seconds,
    }
