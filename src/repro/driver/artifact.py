"""Typed stage artifacts produced by :class:`repro.driver.CompileSession`.

Every stage of the staged pipeline (``parse``, ``typecheck``,
``elaborate``, ``wellformed``, ``lower``, ``emit_verilog``,
``synthesize``) yields a :class:`StageArtifact`: the stage's value plus
structured diagnostics, the wall-clock cost of producing it, and the
content-addressed key it is cached under.  Artifacts are immutable once
published to the cache — a cache hit returns the *same* object, timings
and all, so downstream consumers can distinguish "recomputed" from
"reused" via :attr:`StageArtifact.from_cache` without ever observing a
half-built value.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Canonical stage order of the pipeline.  ``wellformed`` and ``lower``
#: run *inside* elaboration (the elaborator is recursive, so they happen
#: once per component); their timings are surfaced as sub-stage entries
#: on the elaborate artifact rather than as separately cached artifacts.
#: ``optimize`` flattens the lowered netlist and runs the ``-O<n>`` pass
#: pipeline over it; ``simulate`` drives the optimized netlist with
#: seeded random stimulus.
STAGES = (
    "parse",
    "typecheck",
    "elaborate",
    "wellformed",
    "lower",
    "optimize",
    "emit_verilog",
    "synthesize",
    "simulate",
)


class Diagnostic:
    """One structured message attached to a stage artifact."""

    def __init__(self, severity: str, stage: str, message: str):
        self.severity = severity  # "error" | "warning" | "info"
        self.stage = stage
        self.message = message

    def __repr__(self):
        return f"Diagnostic({self.severity}, {self.stage}, {self.message!r})"

    def render(self) -> str:
        return f"[{self.stage}] {self.severity}: {self.message}"


class StageArtifact:
    """The output of one pipeline stage for one cache key."""

    def __init__(
        self,
        stage: str,
        key: Tuple,
        value: Any,
        seconds: float,
        diagnostics: Optional[List[Diagnostic]] = None,
        sub_timings: Optional[Dict[str, float]] = None,
    ):
        self.stage = stage
        self.key = key
        self.value = value
        #: wall-clock seconds the stage took when it actually ran; a
        #: cache hit preserves the original figure.
        self.seconds = seconds
        self.diagnostics = list(diagnostics or [])
        #: timings of nested sub-stages (wellformed/lower inside
        #: elaborate), aggregated across the recursive elaboration.
        self.sub_timings = dict(sub_timings or {})
        #: set by the cache: False until the artifact is first *reused*;
        #: True ever after (the same object is handed to every hit, so
        #: this is a property of the artifact, not of one request —
        #: per-request accounting lives in ``CacheStats``).
        self.from_cache = False

    @property
    def millis(self) -> float:
        return self.seconds * 1000.0

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __repr__(self):
        origin = "cached" if self.from_cache else "computed"
        return (
            f"StageArtifact({self.stage}, {origin}, "
            f"{self.millis:.1f}ms, diagnostics={len(self.diagnostics)})"
        )


class OptimizedNetlist:
    """Value of the ``optimize`` stage: a flat netlist after the pass
    pipeline, plus what every pass did to it."""

    def __init__(self, module, opt_level: int, cells_before: int, pass_stats):
        self.module = module
        self.opt_level = opt_level
        self.cells_before = cells_before
        self.pass_stats = list(pass_stats)

    @property
    def cells_after(self) -> int:
        return len(self.module.cells)

    @property
    def cells_removed(self) -> int:
        return self.cells_before - self.cells_after

    def __repr__(self):
        return (
            f"OptimizedNetlist({self.module.name}, -O{self.opt_level}, "
            f"{self.cells_before}->{self.cells_after} cells)"
        )


class SimTrace:
    """Value of the ``simulate`` stage: sampled outputs per cycle of a
    seeded random-stimulus run, plus the pure simulation wall-clock.

    With ``lanes == 1``, ``outputs`` is one trace (a list of per-cycle
    output dicts).  With ``lanes > 1`` it is a list of ``lanes`` such
    traces — one per stimulus lane, lane ``k`` driven by the stream
    seeded with ``derive_lane_seed(seed, k)``, so lane 0 reproduces the
    single-lane trace for the same seed exactly.
    """

    def __init__(
        self,
        outputs: List[Dict[str, int]],
        cycles: int,
        seed: int,
        opt_level: int,
        run_seconds: float,
        cells: int,
        backend: str = "interp",
        lanes: int = 1,
    ):
        self.outputs = outputs
        self.cycles = cycles
        self.seed = seed
        self.opt_level = opt_level
        #: time spent inside the backend's ``run`` (netlist construction
        #: and stimulus generation excluded) — the figure speedups compare.
        self.run_seconds = run_seconds
        self.cells = cells
        #: which engine produced the trace ("interp" or "compiled") —
        #: traces are bit-identical across backends by contract, but the
        #: perf numbers are only comparable within one backend.
        self.backend = backend
        #: stimulus lanes simulated together (1 = plain single run).
        self.lanes = lanes

    @property
    def lane_cycles(self) -> int:
        """Total simulated lane-cycles (what throughput divides by)."""
        return self.cycles * self.lanes

    def __repr__(self):
        return (
            f"SimTrace({self.cycles} cycles, seed={self.seed}, "
            f"-O{self.opt_level}, {self.backend}, lanes={self.lanes}, "
            f"{self.run_seconds * 1000.0:.1f}ms)"
        )


class CompileResult:
    """An ordered bundle of artifacts from one :meth:`compile` call."""

    def __init__(self, component: str, params: Dict[str, int]):
        self.component = component
        self.params = dict(params)
        self.artifacts: Dict[str, StageArtifact] = {}

    def add(self, artifact: StageArtifact) -> None:
        self.artifacts[artifact.stage] = artifact

    def __contains__(self, stage: str) -> bool:
        return stage in self.artifacts

    def __getitem__(self, stage: str) -> StageArtifact:
        return self.artifacts[stage]

    def get(self, stage: str) -> Optional[StageArtifact]:
        return self.artifacts.get(stage)

    @property
    def elab(self):
        """The ElabResult, if the elaborate stage ran."""
        artifact = self.artifacts.get("elaborate")
        return artifact.value if artifact else None

    @property
    def verilog(self) -> Optional[str]:
        artifact = self.artifacts.get("emit_verilog")
        return artifact.value if artifact else None

    @property
    def report(self):
        """The SynthReport, if the synthesize stage ran."""
        artifact = self.artifacts.get("synthesize")
        return artifact.value if artifact else None

    @property
    def optimized(self) -> Optional[OptimizedNetlist]:
        artifact = self.artifacts.get("optimize")
        return artifact.value if artifact else None

    @property
    def trace(self) -> Optional[SimTrace]:
        artifact = self.artifacts.get("simulate")
        return artifact.value if artifact else None

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.artifacts.values())

    def timings(self) -> Dict[str, float]:
        """Per-stage wall-clock seconds, in canonical stage order."""
        out: Dict[str, float] = {}
        for stage in STAGES:
            artifact = self.artifacts.get(stage)
            if artifact is None:
                continue
            out[stage] = artifact.seconds
            for sub, seconds in artifact.sub_timings.items():
                out[sub] = seconds
        return out

    def __repr__(self):
        stages = ", ".join(self.artifacts)
        return f"CompileResult({self.component}, stages=[{stages}])"
