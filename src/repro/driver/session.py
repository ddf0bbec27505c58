"""The staged compiler driver: one front door for the whole pipeline.

A :class:`CompileSession` runs the compilation pipeline as explicit,
inspectable stages —

    parse → typecheck → elaborate (→ wellformed → lower) → optimize
                                     → emit_verilog → synthesize
                                     → simulate

— each producing a :class:`~repro.driver.artifact.StageArtifact` with
structured diagnostics and wall-clock timings.  Artifacts live in a
content-addressed in-memory cache keyed on ``(stage, source digest,
component, frozen parameter binding, generator-registry fingerprint)``,
so repeated elaborations and synthesis runs across designs, tables and
benchmarks are computed once per session.  Sessions are thread-safe and
feed the :class:`~repro.driver.grid.EvalGrid` worker pool.

The ``optimize`` stage flattens the lowered netlist and runs the
``-O<n>`` pass pipeline (:mod:`repro.rtl.passes`) over it; its cache key
— and that of every stage downstream of it — additionally carries the
pipeline *fingerprint*, so changing the pass pipeline (level, pass set,
or a pass's version) invalidates exactly the artifacts that depended on
it.  ``simulate`` drives the optimized netlist with seeded random
stimulus for a requested number of cycles; two simulate artifacts that
differ only in optimization level are therefore directly comparable —
the differential-simulation check the ablation harness builds on.

Elaborator instances are shared per ``(source, registry, verify)``
triple: elaborating ``FPU`` and then ``FPAdd`` from the same program
reuses the child artifacts the first call already produced, on top of
the session-level artifact cache.

Two session-level knobs extend the reach of all this: ``sim_backend``
selects the simulation engine — ``"interp"``, the codegen engines
``"compiled"``/``"batched"``/``"vector"`` (bit-identical by
differential contract), or ``"auto"``, which resolves per design from
the persisted calibration profiles of :mod:`repro.rtl.tuner` — and
``cache_dir`` layers a persistent
:class:`~repro.driver.cache.DiskCache` under the in-memory cache so
artifacts survive the process and a second run starts warm.
"""

from __future__ import annotations

import threading
import time
import warnings
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..generators.base import Generator, GeneratorRegistry
from ..lilac.elaborate import Elaborator
from ..lilac.stdlib import stdlib_program
from ..lilac.parser import parse_program
from ..lilac.typecheck import check_component, check_program
from ..rtl import (
    BACKEND_FALLBACKS,
    SimBackendUnavailable,
    backend_fingerprint,
    emit_verilog,
    flatten,
    make_simulator,
    random_stimulus,
    random_stimulus_batch,
    tune,
)
from ..rtl.passes import PassManager, PassStats, pipeline_for_level
from ..synth import synthesize
from . import faults
from .artifact import (
    CompileResult,
    Diagnostic,
    OptimizedNetlist,
    SimTrace,
    StageArtifact,
)
from .cache import (
    ArtifactCache,
    CacheStats,
    CodegenStore,
    DiskCache,
    ObligationStore,
    TunerStore,
    freeze_params,
    source_digest,
)

Generators = Union[GeneratorRegistry, Iterable[Generator], None]

#: Stages `compile` runs when none are requested explicitly.
DEFAULT_STAGES = ("parse", "elaborate", "emit_verilog", "synthesize")


class _ElabObserver:
    """Per-call accumulator plugged into the shared elaborator."""

    def __init__(self, stats: CacheStats):
        self._stats = stats
        self.components = 0
        self.sub_timings: Dict[str, float] = {}

    def component_elaborated(self, name: str, env: Dict[str, int]) -> None:
        self.components += 1
        self._stats.bump("elaborate.components")

    def stage_time(self, stage: str, seconds: float) -> None:
        self.sub_timings[stage] = self.sub_timings.get(stage, 0.0) + seconds


class CompileSession:
    """Staged, cached, thread-safe driver over the Lilac pipeline.

    ``opt_level`` is the session default for every stage downstream of
    lowering; individual stage calls can override it per request.  The
    same holds for ``sim_backend`` (the engines of
    :data:`repro.rtl.SIM_BACKENDS`, or ``"auto"`` for the measured
    per-design choice) and the ``simulate`` stage.  A non-None
    ``cache_dir`` layers a persistent
    :class:`~repro.driver.cache.DiskCache` under the in-memory artifact
    cache, so artifacts survive the process and a second session over
    the same sources starts warm.
    """

    def __init__(
        self,
        verify: bool = True,
        opt_level: int = 0,
        sim_backend: str = "interp",
        cache_dir: Optional[str] = None,
        sim_lanes: int = 1,
        typecheck_jobs: Optional[int] = None,
        typecheck_executor: str = "thread",
        fault_plan: Union["faults.FaultPlan", str, None] = None,
    ):
        self.verify = verify
        self.opt_level = int(opt_level)
        pipeline_for_level(self.opt_level)  # reject bad levels eagerly
        # Reject bad backends eagerly too; fingerprinting accepts every
        # selectable spelling including "auto" (resolve_backend would
        # reject the selection policy that is not itself an engine).
        backend_fingerprint(sim_backend)
        self.sim_backend = sim_backend
        self.sim_lanes = int(sim_lanes)
        if self.sim_lanes < 1:
            raise ValueError(f"sim_lanes must be >= 1, got {sim_lanes!r}")
        self.typecheck_jobs = (
            None if typecheck_jobs is None else int(typecheck_jobs)
        )
        if self.typecheck_jobs is not None and self.typecheck_jobs < 1:
            raise ValueError(
                f"typecheck_jobs must be >= 1, got {typecheck_jobs!r}"
            )
        if typecheck_executor not in ("thread", "process"):
            raise ValueError(
                f"unknown typecheck executor {typecheck_executor!r}"
            )
        self.typecheck_executor = typecheck_executor
        self.stats = CacheStats()
        # Fault injection: an explicit plan (object or spec string)
        # wins; otherwise $REPRO_FAULTS is honored, so chaos runs and
        # CI smokes can knock out any entry point without plumbing.
        # The plan is installed process-globally — injection sites live
        # in layers (the SAT solver, the disk cache internals) that
        # never see a session — with fires accounted on this session's
        # stats as ``fault.injected.<site>``.
        if isinstance(fault_plan, str):
            fault_plan = faults.FaultPlan.parse(fault_plan)
        if fault_plan is None:
            fault_plan = faults.FaultPlan.from_env()
        self.fault_plan = fault_plan
        if fault_plan is not None:
            faults.install(fault_plan.bind(self.stats))
        disk = DiskCache(cache_dir, self.stats) if cache_dir else None
        self.cache_dir = disk.root if disk is not None else None
        self.cache = ArtifactCache(self.stats, disk=disk)
        #: persistent step-source store for the compiled backend; the
        #: simulate stage hands it to make_simulator so warm processes
        #: skip levelization + code generation.
        self._codegen_store = (
            CodegenStore(self.cache.disk)
            if self.cache.disk is not None
            else None
        )
        #: persistent obligation-verdict store for the typecheck stage;
        #: warm sessions answer solver queries from disk (the "smt"
        #: pseudo-stage) instead of running DPLL(T).
        self._obligation_store = (
            ObligationStore(self.cache.disk)
            if self.cache.disk is not None
            else None
        )
        #: persistent backend-calibration store for the "auto" backend;
        #: warm sessions resolve the measured per-design engine choice
        #: from disk (the "tuner" pseudo-stage) without re-calibrating.
        self._tuner_store = (
            TunerStore(self.cache.disk)
            if self.cache.disk is not None
            else None
        )
        #: run ledger for checkpoint/resume (attached by the CLI's
        #: ``--run-id``/``--resume`` plumbing; grids pick it up via
        #: ``getattr(session, "ledger", None)``).
        self.ledger = None
        self._mutex = threading.Lock()
        #: every PassStats any optimize stage produced, in completion
        #: order — the CLI's end-of-run per-pass report reads this.
        self._pass_log: List[PassStats] = []
        # (source digest, registry fingerprint, verify)
        #   -> (Elaborator, per-elaborator lock)
        self._elaborators: Dict[Tuple, Tuple[Elaborator, threading.Lock]] = {}

    # -- process-pool plumbing ------------------------------------------

    def spec(self) -> Dict[str, object]:
        """The picklable recipe for an equivalent session.

        Sessions hold live unpicklable state (programs, locks, netlist
        objects), so :class:`~repro.driver.grid.EvalGrid`'s process mode
        ships this dict to each worker instead and rebuilds with
        :meth:`from_spec`; workers sharing a ``cache_dir`` then
        rendezvous on artifacts through the disk layer.
        """
        return {
            "verify": self.verify,
            "opt_level": self.opt_level,
            "sim_backend": self.sim_backend,
            "sim_lanes": self.sim_lanes,
            "cache_dir": self.cache_dir,
            # Workers never fan out further: nested pools would
            # oversubscribe, and the outer grid already parallelizes.
            "typecheck_jobs": None,
            "typecheck_executor": self.typecheck_executor,
            # Workers rebuild the plan from its grammar spelling with
            # fresh counters — each process schedules its own failures.
            "fault_plan": (
                self.fault_plan.spec_string()
                if self.fault_plan is not None
                else None
            ),
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "CompileSession":
        return cls(**spec)

    # -- key helpers ----------------------------------------------------

    @staticmethod
    def _registry_of(generators: Generators) -> GeneratorRegistry:
        if generators is None:
            return GeneratorRegistry()
        if isinstance(generators, GeneratorRegistry):
            return generators
        registry = GeneratorRegistry()
        for generator in generators:
            registry.register(generator)
        return registry

    @staticmethod
    def _source_key(source: str, stdlib: bool) -> Tuple:
        return (source_digest(source), bool(stdlib))

    def _pipeline(self, opt_level: Optional[int]) -> Tuple[int, PassManager]:
        level = self.opt_level if opt_level is None else int(opt_level)
        return level, pipeline_for_level(level)

    # -- stages ---------------------------------------------------------

    def parse(self, source: str, stdlib: bool = True) -> StageArtifact:
        """source text → Program (standard library merged in by default)."""
        key = ("parse", self._source_key(source, stdlib))

        def compute() -> StageArtifact:
            start = time.perf_counter()
            if stdlib:
                program = stdlib_program(source)
            else:
                program = parse_program(source)
            return StageArtifact(
                "parse", key, program, time.perf_counter() - start
            )

        return self.cache.get_or_compute(key, compute)

    def typecheck(
        self,
        source: str,
        component: Optional[str] = None,
        stdlib: bool = True,
        jobs: Optional[int] = None,
    ) -> StageArtifact:
        """Check one component (or, with ``component=None``, every
        ``comp`` in the program).  Errors become diagnostics — the
        artifact is returned either way; inspect ``artifact.ok``.

        Obligation verdicts are answered through the session's
        persistent :class:`~repro.driver.cache.ObligationStore` when a
        disk cache is attached, so a warm session skips the SMT solver.
        ``jobs`` (session's ``typecheck_jobs`` when None) fans whole-
        program checks out over an :class:`~repro.driver.grid.EvalGrid`,
        one component per point; per-component stage artifacts make the
        fan-out cacheable and, in process mode, let workers rendezvous
        through the disk cache.
        """
        key = ("typecheck", self._source_key(source, stdlib), component)
        n_jobs = self.typecheck_jobs if jobs is None else int(jobs)

        def compute() -> StageArtifact:
            program = self.parse(source, stdlib).value
            start = time.perf_counter()
            if component is None:
                names = [c.name for c in program]
                if n_jobs is not None and n_jobs > 1 and len(names) > 1:
                    reports = self._typecheck_parallel(
                        source, stdlib, names, n_jobs
                    )
                else:
                    reports = check_program(
                        program,
                        raise_on_error=False,
                        obligation_store=self._obligation_store,
                        stats=self.stats,
                    )
            else:
                reports = [
                    check_component(
                        program,
                        component,
                        obligation_store=self._obligation_store,
                        stats=self.stats,
                    )
                ]
            seconds = time.perf_counter() - start
            diagnostics = [
                Diagnostic("error", "typecheck", error.render())
                for report in reports
                for error in report.errors
            ]
            sub_timings: Dict[str, float] = {}
            for report in reports:
                for name, value in report.timings.items():
                    sub_timings[name] = sub_timings.get(name, 0.0) + value
            value = reports[0] if component is not None else reports
            return StageArtifact(
                "typecheck", key, value, seconds, diagnostics,
                sub_timings=sub_timings,
            )

        return self.cache.get_or_compute(key, compute)

    def _typecheck_parallel(
        self, source: str, stdlib: bool, names: List[str], jobs: int
    ):
        """Whole-program typecheck over the evaluation grid.

        Components are independent; each grid point runs the cached
        per-component typecheck stage.  In process mode the obligation
        store doubles as the rendezvous: workers persist their verdicts
        and the parent (re-)assembles reports from per-component
        artifacts served warm from disk.
        """
        import functools

        from .grid import EvalGrid  # local import: grid imports session

        grid = EvalGrid(
            self, max_workers=jobs, executor=self.typecheck_executor
        )
        return grid.map(
            functools.partial(_typecheck_point, stdlib=stdlib),
            [(source, name) for name in names],
        )

    def _elaborator_for(
        self, source: str, stdlib: bool, registry: GeneratorRegistry
    ) -> Tuple[Elaborator, threading.Lock]:
        ekey = (
            self._source_key(source, stdlib),
            registry.fingerprint(),
            self.verify,
        )
        # Parse outside the session mutex: it is single-flighted by the
        # artifact cache, and holding _mutex across it would serialize
        # every grid worker on an unrelated source's first parse.
        program = self.parse(source, stdlib).value
        with self._mutex:
            entry = self._elaborators.get(ekey)
            if entry is None:
                entry = (
                    Elaborator(program, registry, verify=self.verify),
                    threading.Lock(),
                )
                self._elaborators[ekey] = entry
            return entry

    def elaborate(
        self,
        source: str,
        component: str,
        params: Union[Dict[str, int], Sequence[int], None] = None,
        generators: Generators = None,
        stdlib: bool = True,
    ) -> StageArtifact:
        """program + concrete parameters → ElabResult (RTL + schedule)."""
        registry = self._registry_of(generators)
        key = (
            "elaborate",
            self._source_key(source, stdlib),
            component,
            freeze_params(params),
            registry.fingerprint(),
            self.verify,
        )

        def compute() -> StageArtifact:
            elaborator, lock = self._elaborator_for(source, stdlib, registry)
            observer = _ElabObserver(self.stats)
            with lock:
                # Start the clock under the lock: waiting for another
                # grid worker's elaboration is not this stage's cost.
                start = time.perf_counter()
                elaborator.observer = observer
                try:
                    result = elaborator.elaborate(component, params)
                finally:
                    elaborator.observer = None
                seconds = time.perf_counter() - start
            return StageArtifact(
                "elaborate",
                key,
                result,
                seconds,
                sub_timings=observer.sub_timings,
            )

        return self.cache.get_or_compute(key, compute)

    def optimize(
        self,
        source: str,
        component: str,
        params: Union[Dict[str, int], Sequence[int], None] = None,
        generators: Generators = None,
        stdlib: bool = True,
        opt_level: Optional[int] = None,
    ) -> StageArtifact:
        """lowered netlist → flattened, pass-optimized netlist.

        At ``-O0`` the pipeline is empty: the artifact is the flattened
        netlist exactly as lowered, which is what the differential
        checks compare optimized netlists against.
        """
        registry = self._registry_of(generators)
        level, pipeline = self._pipeline(opt_level)
        key = (
            "optimize",
            self._source_key(source, stdlib),
            component,
            freeze_params(params),
            registry.fingerprint(),
            self.verify,
            pipeline.fingerprint(),
        )

        def compute() -> StageArtifact:
            elab = self.elaborate(
                source, component, params, registry, stdlib
            ).value
            start = time.perf_counter()
            module = flatten(elab.module)
            cells_before = len(module.cells)
            pass_stats = pipeline.run(module)
            seconds = time.perf_counter() - start
            with self._mutex:
                self._pass_log.extend(pass_stats)
            sub_timings: Dict[str, float] = {}
            for stat in pass_stats:
                name = f"pass.{stat.name}"
                sub_timings[name] = sub_timings.get(name, 0.0) + stat.seconds
            value = OptimizedNetlist(module, level, cells_before, pass_stats)
            return StageArtifact(
                "optimize", key, value, seconds, sub_timings=sub_timings
            )

        return self.cache.get_or_compute(key, compute)

    def simulate(
        self,
        source: str,
        component: str,
        params: Union[Dict[str, int], Sequence[int], None] = None,
        generators: Generators = None,
        stdlib: bool = True,
        cycles: int = 128,
        seed: int = 0,
        opt_level: Optional[int] = None,
        backend: Optional[str] = None,
        lanes: Optional[int] = None,
    ) -> StageArtifact:
        """optimized netlist → per-cycle output trace under seeded
        random stimulus (reproducible across runs and machines).

        ``backend`` picks the simulation engine (session default when
        None).  Backends are bit-identical by contract, but each gets
        its own cache key: the artifact records which engine produced it
        and its wall-clock, and the differential gates exist precisely
        to compare the two sides as independently computed traces.
        ``"auto"`` resolves to a concrete engine inside the computation
        via :func:`repro.rtl.tuner.tune` — measured per design when a
        disk cache holds (or can record) a calibration profile, static
        fallback otherwise; the produced ``SimTrace.backend`` records
        the resolved engine.

        ``lanes`` (session's ``sim_lanes`` when None) batches that many
        independent stimulus streams through one run — on the compiled
        backend a single lane-packed step function advances all of them
        per call.  The artifact's ``SimTrace.outputs`` then holds one
        trace per lane; lane seeds derive deterministically from
        ``seed`` (lane 0 *is* ``seed``, so its trace equals the
        single-lane artifact's).
        """
        registry = self._registry_of(generators)
        level, pipeline = self._pipeline(opt_level)
        engine = self.sim_backend if backend is None else backend
        n_lanes = self.sim_lanes if lanes is None else int(lanes)
        if n_lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes!r}")
        key = (
            "simulate",
            self._source_key(source, stdlib),
            component,
            freeze_params(params),
            registry.fingerprint(),
            self.verify,
            pipeline.fingerprint(),
            int(cycles),
            int(seed),
            # name@version, mirroring the pass-pipeline fingerprint: a
            # backend semantics bump invalidates its persisted traces.
            backend_fingerprint(engine),
            n_lanes,
        )

        def compute() -> StageArtifact:
            optimized = self.optimize(
                source, component, params, registry, stdlib, opt_level=level
            ).value
            start = time.perf_counter()
            resolved = engine
            if engine == "auto":
                tune_start = time.perf_counter()
                decision = tune(
                    optimized.module,
                    n_lanes,
                    store=self._tuner_store,
                    codegen_store=self._codegen_store,
                    # Without a disk cache a calibration could never be
                    # reused, so don't pay for one — static fallback.
                    calibrate=self._tuner_store is not None,
                )
                resolved = decision.backend
                self.stats.add_seconds(
                    "tuner.resolve", time.perf_counter() - tune_start
                )
                self.stats.bump(f"tuner.chose.{resolved}")
            # Degradation ladder vector -> compiled -> interp: a
            # backend that cannot run here (missing numpy, a faulted
            # codegen path) falls to the next rung instead of failing
            # the stage.  Every rung is bit-identical by the
            # differential contract, so the trace — and the cache key,
            # which carries the *requested* engine — is unchanged; only
            # SimTrace.backend records where the run actually landed.
            while True:
                try:
                    simulator = make_simulator(
                        optimized.module, resolved,
                        lanes=n_lanes,
                        codegen_store=self._codegen_store,
                    )
                    break
                except SimBackendUnavailable as error:
                    fallback = BACKEND_FALLBACKS.get(resolved)
                    if fallback is None:
                        raise
                    self.stats.bump("degrade.sim_backend")
                    warnings.warn(
                        f"sim backend {resolved!r} unavailable "
                        f"({error}); degrading to {fallback!r}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    resolved = fallback
            if n_lanes == 1:
                stimulus = random_stimulus(optimized.module, cycles, seed)
                run_start = time.perf_counter()
                outputs = simulator.run(stimulus)
            else:
                streams = random_stimulus_batch(
                    optimized.module, cycles, n_lanes, seed
                )
                run_start = time.perf_counter()
                outputs = simulator.run_batch(streams)
            run_seconds = time.perf_counter() - run_start
            value = SimTrace(
                outputs, cycles, seed, level, run_seconds,
                len(optimized.module.cells), backend=resolved, lanes=n_lanes,
            )
            return StageArtifact(
                "simulate", key, value, time.perf_counter() - start
            )

        return self.cache.get_or_compute(key, compute)

    def emit_verilog(
        self,
        source: str,
        component: str,
        params: Union[Dict[str, int], Sequence[int], None] = None,
        generators: Generators = None,
        stdlib: bool = True,
        opt_level: Optional[int] = None,
    ) -> StageArtifact:
        """optimized design → structural Verilog text."""
        registry = self._registry_of(generators)
        level, pipeline = self._pipeline(opt_level)
        key = (
            "emit_verilog",
            self._source_key(source, stdlib),
            component,
            freeze_params(params),
            registry.fingerprint(),
            self.verify,
            pipeline.fingerprint(),
        )

        def compute() -> StageArtifact:
            if level == 0:
                # Unoptimized: emit the lowered hierarchy directly.
                module = self.elaborate(
                    source, component, params, registry, stdlib
                ).value.module
            else:
                module = self.optimize(
                    source, component, params, registry, stdlib,
                    opt_level=level,
                ).value.module
            start = time.perf_counter()
            text = emit_verilog(module)
            return StageArtifact(
                "emit_verilog", key, text, time.perf_counter() - start
            )

        return self.cache.get_or_compute(key, compute)

    def synthesize(
        self,
        source: str,
        component: str,
        params: Union[Dict[str, int], Sequence[int], None] = None,
        generators: Generators = None,
        stdlib: bool = True,
        opt_level: Optional[int] = None,
    ) -> StageArtifact:
        """optimized design → SynthReport from the area/timing model."""
        registry = self._registry_of(generators)
        level, pipeline = self._pipeline(opt_level)
        key = (
            "synthesize",
            self._source_key(source, stdlib),
            component,
            freeze_params(params),
            registry.fingerprint(),
            self.verify,
            pipeline.fingerprint(),
        )

        def compute() -> StageArtifact:
            if level == 0:
                module = self.elaborate(
                    source, component, params, registry, stdlib
                ).value.module
            else:
                module = self.optimize(
                    source, component, params, registry, stdlib,
                    opt_level=level,
                ).value.module
            start = time.perf_counter()
            report = synthesize(module)
            return StageArtifact(
                "synthesize", key, report, time.perf_counter() - start
            )

        return self.cache.get_or_compute(key, compute)

    # -- the pipeline front door ----------------------------------------

    def compile(
        self,
        source: str,
        component: str,
        params: Union[Dict[str, int], Sequence[int], None] = None,
        generators: Generators = None,
        stdlib: bool = True,
        stages: Sequence[str] = DEFAULT_STAGES,
    ) -> CompileResult:
        """Run the requested stages in pipeline order and bundle the
        artifacts.  A failing typecheck stops the pipeline (its artifact
        carries the diagnostics); other stage errors raise as usual."""
        result = CompileResult(
            component, params if isinstance(params, dict) else {}
        )
        wanted = set(stages)
        unknown = wanted - {
            "parse", "typecheck", "elaborate", "optimize",
            "emit_verilog", "synthesize", "simulate",
        }
        if unknown:
            raise ValueError(f"unknown pipeline stages: {sorted(unknown)}")
        if "parse" in wanted:
            result.add(self.parse(source, stdlib))
        if "typecheck" in wanted:
            artifact = self.typecheck(source, component, stdlib)
            result.add(artifact)
            if not artifact.ok:
                return result
        for stage in (
            "elaborate", "optimize", "emit_verilog", "synthesize", "simulate"
        ):
            if stage in wanted:
                result.add(
                    getattr(self, stage)(
                        source, component, params, generators, stdlib
                    )
                )
        return result

    # -- pass statistics -------------------------------------------------

    def pass_log(self) -> List[PassStats]:
        """Every pass execution this session ran, in completion order."""
        with self._mutex:
            return list(self._pass_log)

    def pass_summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate per-pass totals across every optimize stage run."""
        summary: Dict[str, Dict[str, float]] = {}
        for stat in self.pass_log():
            entry = summary.setdefault(
                stat.name,
                {"runs": 0, "seconds": 0.0, "cells_removed": 0,
                 "nets_removed": 0},
            )
            entry["runs"] += 1
            entry["seconds"] += stat.seconds
            entry["cells_removed"] += stat.cells_removed
            entry["nets_removed"] += stat.nets_removed
        return summary

    def render_pass_stats(self) -> str:
        """Human-readable per-pass totals (mirrors CacheStats.render)."""
        summary = self.pass_summary()
        if not summary:
            return "pass statistics: (no optimization passes ran)"
        lines = ["pass statistics:"]
        for name, entry in summary.items():
            lines.append(
                f"  {name:20s} {entry['runs']:3d} runs  "
                f"{entry['cells_removed']:5d} cells removed  "
                f"{entry['seconds'] * 1000.0:8.2f} ms"
            )
        return "\n".join(lines)

    def disk_stats(self) -> Dict[str, object]:
        """The persistent layer's warm/cold picture for this session."""
        enabled = self.cache.disk is not None
        counters = self.stats.snapshot()["counters"]
        hits = counters.get("disk.hit", 0)
        misses = counters.get("disk.miss", 0)
        lookups = hits + misses
        return {
            "enabled": enabled,
            "dir": self.cache_dir,
            "hits": hits,
            "misses": misses,
            "writes": counters.get("disk.write", 0),
            "corrupt": counters.get("disk.corrupt", 0),
            "hit_rate": (hits / lookups) if lookups else None,
        }

    def typecheck_stats(self) -> Dict[str, object]:
        """The front end's solver picture: query counts, cache layers.

        ``queries`` is the number of obligations the DPLL(T) engine
        actually solved; ``memo_hits``/``disk_hits`` were answered by
        the in-process canonical memo and the persistent "smt" store.
        """
        counters = self.stats.snapshot()["counters"]
        queries = counters.get("smt.queries", 0)
        memo_hits = counters.get("smt.memo_hit", 0)
        disk_hits = counters.get("smt.disk_hit", 0)
        total = queries + memo_hits + disk_hits
        return {
            "jobs": self.typecheck_jobs,
            "executor": self.typecheck_executor,
            "solver_queries": queries,
            "memo_hits": memo_hits,
            "disk_hits": disk_hits,
            "disk_stores": counters.get("smt.store", 0),
            "obligations": total,
            "cache_hit_rate": (
                (memo_hits + disk_hits) / total if total else None
            ),
        }

    def tuner_stats(self) -> Dict[str, object]:
        """The auto-backend picture: calibration reuse and choices.

        ``chosen`` maps each concrete engine to how many ``"auto"``
        resolutions picked it; ``resolve_seconds`` is total wall time
        inside :func:`repro.rtl.tuner.tune` (near zero when profiles
        are served from disk).
        """
        snap = self.stats.snapshot()
        counters = snap["counters"]
        prefix = "tuner.chose."
        return {
            "disk_hits": counters.get("tuner.disk_hit", 0),
            "disk_misses": counters.get("tuner.disk_miss", 0),
            "disk_stores": counters.get("tuner.store", 0),
            "resolve_seconds": snap["timers"].get("tuner.resolve", 0.0),
            "chosen": {
                name[len(prefix):]: count
                for name, count in sorted(counters.items())
                if name.startswith(prefix)
            },
        }

    def fault_stats(self) -> Dict[str, object]:
        """The robustness picture: injected faults and how the stack
        absorbed them.

        ``injected`` maps each fault site to fires accounted on this
        session, ``retries`` counts in-place recoveries, and
        ``degrades`` counts rungs taken down the degradation ladders
        (disk→memory, process→thread→serial, vector→compiled→interp,
        incremental→one-shot solver).  All zero / empty in a fault-free
        run.
        """
        counters = self.stats.snapshot()["counters"]

        def _slice(prefix: str) -> Dict[str, int]:
            return {
                name[len(prefix):]: count
                for name, count in sorted(counters.items())
                if name.startswith(prefix)
            }

        return {
            "plan": (
                self.fault_plan.spec_string()
                if self.fault_plan is not None
                else None
            ),
            "injected": _slice("fault.injected."),
            "retries": _slice("retry."),
            "degrades": _slice("degrade."),
            # Per-site consultation counts from the installed plan: the
            # crash-chaos harness reads a baseline child's counts to
            # derive valid skip offsets for its kill runs.
            "calls": (
                dict(self.fault_plan.calls)
                if self.fault_plan is not None
                else {}
            ),
        }

    def checkpoint_stats(self) -> Dict[str, object]:
        """The resume picture: ledger identity and checkpoint traffic.

        ``hits`` are points served from a previous (or this) process's
        ledger without recomputation, ``stores`` are fresh checkpoints,
        ``drains`` counts graceful SIGINT/SIGTERM unwinds.
        ``results_digest`` is the order-independent digest over all
        recorded results — the cross-run bit-identity witness.
        """
        counters = self.stats.snapshot()["counters"]
        return {
            "run_id": self.ledger.run_id if self.ledger else None,
            "recorded": len(self.ledger) if self.ledger else 0,
            "hits": counters.get("checkpoint.hit", 0),
            "stores": counters.get("checkpoint.store", 0),
            "drains": counters.get("checkpoint.drain", 0),
            "results_digest": (
                self.ledger.results_digest if self.ledger else None
            ),
        }

    def stats_dict(self) -> Dict[str, object]:
        """Machine-readable cache + pass statistics (``--stats json``)."""
        return {
            "opt_level": self.opt_level,
            "sim_backend": self.sim_backend,
            "sim_lanes": self.sim_lanes,
            "cache": self.stats.snapshot(),
            "disk": self.disk_stats(),
            "passes": self.pass_summary(),
            "typecheck": self.typecheck_stats(),
            "tuner": self.tuner_stats(),
            "faults": self.fault_stats(),
            "checkpoint": self.checkpoint_stats(),
        }


def _typecheck_point(session: "CompileSession", point, stdlib: bool = True):
    """Grid worker for parallel typecheck (module-level: process pools
    must pickle it)."""
    source, name = point
    return session.typecheck(source, component=name, stdlib=stdlib).value


# ---------------------------------------------------------------------------
# The process-wide default session: designs and evalx modules share it so
# that independent callers (tables, figures, examples) reuse artifacts
# without threading a session argument everywhere.

_DEFAULT: Optional[CompileSession] = None
_DEFAULT_LOCK = threading.Lock()


def default_session() -> CompileSession:
    """The shared process-wide session (created on first use)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = CompileSession()
        return _DEFAULT


def reset_default_session() -> CompileSession:
    """Replace the shared session with a fresh one (mainly for tests)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = CompileSession()
        return _DEFAULT
