"""Staged compiler driver: sessions, artifacts, caching, and the grid.

The one front door to the reproduction's pipeline::

    from repro.driver import CompileSession

    session = CompileSession()
    result = session.compile(MY_LILAC_SOURCE, "Top", {"#W": 32},
                             generators=[FloPoCoGenerator(400)])
    result.elab      # the ElabResult (schedule + RTL)
    result.verilog   # structural Verilog text
    result.report    # SynthReport from the cost model
    result.timings() # per-stage wall-clock seconds

Repeated requests — across designs, tables, figures and benchmarks —
are served from the session's content-addressed artifact cache.  Grids
of design points fan out over :class:`EvalGrid`.
"""

from .artifact import (
    CompileResult,
    Diagnostic,
    OptimizedNetlist,
    STAGES,
    SimTrace,
    StageArtifact,
)
from .cache import (
    SCHEMA_VERSION,
    ArtifactCache,
    CacheStats,
    DiskCache,
    PseudoStore,
    freeze_params,
    source_digest,
)
from .chaos import (
    SITE_GROUPS,
    ChaosReport,
    ChaosRun,
    CrashChaosReport,
    CrashChaosRun,
    run_chaos,
    run_crash_chaos,
)
from .faults import (
    CRASH_SITES,
    FAULT_MODES,
    FAULT_SITES,
    FaultPlan,
    FaultPlanError,
    FaultSite,
    InjectedCrash,
    InjectedFault,
    InjectedOSError,
)
from .fsck import Finding, FsckReport, run_fsck
from .grid import EXECUTORS, EvalGrid
from .ledger import RunLedger, graceful_drain, point_key
from .profiler import RunProfiler, RunReport
from .session import (
    CompileSession,
    DEFAULT_STAGES,
    default_session,
    reset_default_session,
)

__all__ = [
    "CRASH_SITES",
    "EXECUTORS",
    "FAULT_MODES",
    "FAULT_SITES",
    "SCHEMA_VERSION",
    "SITE_GROUPS",
    "ArtifactCache",
    "CacheStats",
    "ChaosReport",
    "ChaosRun",
    "CompileResult",
    "CompileSession",
    "CrashChaosReport",
    "CrashChaosRun",
    "DEFAULT_STAGES",
    "Diagnostic",
    "DiskCache",
    "EvalGrid",
    "FaultPlan",
    "FaultPlanError",
    "FaultSite",
    "Finding",
    "FsckReport",
    "InjectedCrash",
    "InjectedFault",
    "InjectedOSError",
    "OptimizedNetlist",
    "PseudoStore",
    "RunLedger",
    "RunProfiler",
    "RunReport",
    "STAGES",
    "SimTrace",
    "StageArtifact",
    "default_session",
    "freeze_params",
    "graceful_drain",
    "point_key",
    "reset_default_session",
    "run_chaos",
    "run_crash_chaos",
    "run_fsck",
    "source_digest",
]
