"""``repro chaos`` — prove the fault tolerance, don't just claim it.

The harness closes the loop the fault-injection substrate
(:mod:`repro.driver.faults`) opens: for each seeded :class:`FaultPlan`
it runs the catalog designs through a fresh session — simulate for
every group, plus the SMT typecheck for the solver group — into a
fresh throwaway disk cache, and holds the run to three obligations:

1. **Bit-identical** — every design's trace (and typecheck report)
   digest equals the fault-free baseline's.  The degradation ladders
   (disk→memory, process→thread→serial, vector→compiled→interp,
   incremental→one-shot solver) are allowed to cost time, never bits.
2. **Accounted** — every fault the plan fired shows up as a
   ``fault.injected.<site>`` counter on the session's stats, so no
   injection was silently swallowed (or silently skipped).
3. **Contained** — no exception escapes the run.  Injected failures
   must be absorbed by a retry or a degradation, not surface.

Fault plans are grouped by the subsystem they attack, one run per
(group, seed)::

    disk    disk.read, disk.write, disk.replace, pickle.load, cache.lock
    worker  worker.spawn, worker.crash
    solver  solver.budget

Seeds choose *which* invocation of each site fails
(:meth:`FaultPlan.seeded` — skip offsets derived from
``sha256(seed:site)``), so a seed sweep walks the failure through cold
reads, warm reads, first writes, mid-grid points… while staying exactly
reproducible: the same seed always breaks the same calls.

Every run gets its own ``mkdtemp`` cache directory — determinism of the
call indices requires starting cold — and uninstalls its plan on the
way out, so chaos runs compose with whatever the process does next.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import faults

#: group name → the fault sites a group's plans schedule.  Groups
#: partition the *in-process* fault sites: every non-crash site is
#: chaos-tested by exactly one group (asserted by the test suite).
#: The ``proc.kill.*`` crash family is deliberately absent — those
#: sites SIGKILL the process, so only :func:`run_crash_chaos` (which
#: schedules them in child processes) may plan them.
SITE_GROUPS = {
    "disk": (
        "disk.read", "disk.write", "disk.replace", "pickle.load",
        "cache.lock",
    ),
    "worker": ("worker.spawn", "worker.crash"),
    "solver": ("solver.budget",),
}


def _digest(payload) -> str:
    """Canonical digest of a run payload (sorted-key JSON → SHA-256)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _chaos_point(session, point):
    """Grid worker (module-level: process pools must pickle it).

    ``point`` is ``(design, cycles, opt_level, check)``; returns
    ``(design, payload)`` where payload holds the *bits the run is
    judged on*: the simulate trace outputs and, when ``check`` is set,
    the typecheck verdicts.  Deliberately excludes anything a healthy
    degradation may change — wall clocks, the engine a trace landed on,
    cache hit counts."""
    from ..designs.catalog import design_point

    design, cycles, opt_level, check = point
    source, component, generators, params = design_point(design)
    payload: Dict[str, object] = {}
    if check:
        reports = session.typecheck(source).value
        payload["typecheck"] = [
            {
                "component": report.component,
                "obligations": report.obligations,
                "errors": [error.render() for error in report.errors],
            }
            for report in reports
        ]
    trace = session.simulate(
        source, component, params, generators,
        cycles=cycles, opt_level=opt_level,
    ).value
    payload["trace"] = trace.outputs
    return design, payload


class ChaosRun:
    """Outcome of one plan (or the baseline) over the design grid.

    ``digests`` maps each design to its payload-part digests
    (``{"trace": ..., "typecheck": ...}``).  ``identical`` compares
    every digest the run produced against the baseline (the baseline
    always carries the typecheck part, so solver-group runs have
    something to match).  ``accounted`` holds iff, for every site, the
    plan's own fire count equals the session's
    ``fault.injected.<site>`` counter — in process-executor runs both
    views are parent-side by construction (worker processes rebuild
    the plan with their own counters), so the equality stays exact.
    """

    def __init__(
        self,
        label: str,
        plan_spec: Optional[str],
        seed: Optional[int],
        digests: Dict[str, Dict[str, str]],
        fired: Dict[str, int],
        injected: Dict[str, int],
        degrades: Dict[str, int],
        retries: Dict[str, int],
        error: Optional[str] = None,
    ):
        self.label = label
        self.plan_spec = plan_spec
        self.seed = seed
        self.digests = digests
        self.fired = dict(fired)
        self.injected = dict(injected)
        self.degrades = dict(degrades)
        self.retries = dict(retries)
        self.error = error
        self.identical: Optional[bool] = None  # set against the baseline

    @property
    def accounted(self) -> bool:
        return self.fired == self.injected

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.accounted
            and (self.identical is not False)
        )

    def judge(self, baseline: "ChaosRun") -> None:
        """Set :attr:`identical` by comparing every digest this run
        produced against the baseline's."""
        self.identical = bool(self.digests) and all(
            baseline.digests.get(design, {}).get(part) == digest
            for design, parts in self.digests.items()
            for part, digest in parts.items()
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "plan": self.plan_spec,
            "seed": self.seed,
            "identical": self.identical,
            "accounted": self.accounted,
            "error": self.error,
            "fired": dict(self.fired),
            "injected": dict(self.injected),
            "retries": dict(self.retries),
            "degrades": dict(self.degrades),
            "digests": {k: dict(v) for k, v in self.digests.items()},
        }


class ChaosReport:
    """The whole sweep: one baseline plus one run per (group, seed)."""

    def __init__(self, baseline: ChaosRun, runs: List[ChaosRun]):
        self.baseline = baseline
        self.runs = runs

    @property
    def ok(self) -> bool:
        return self.baseline.error is None and all(r.ok for r in self.runs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "baseline": self.baseline.to_dict(),
            "runs": [run.to_dict() for run in self.runs],
        }

    def render(self) -> str:
        lines = ["chaos sweep (every run judged against a fault-free "
                 "baseline):"]
        for run in self.runs:
            fired = sum(run.fired.values())
            status = "ok" if run.ok else "FAILED"
            details = []
            if run.error is not None:
                details.append(f"escaped: {run.error}")
            if run.identical is False:
                details.append("outputs diverged")
            if not run.accounted:
                details.append(
                    f"unaccounted faults (plan {run.fired} != "
                    f"stats {run.injected})"
                )
            recovered = sum(run.retries.values()) + sum(
                run.degrades.values()
            )
            lines.append(
                f"  {run.label:18s} {fired:2d} injected  "
                f"{recovered:2d} recoveries  {status}"
                + (f"  [{'; '.join(details)}]" if details else "")
            )
        verdict = (
            "all runs bit-identical, all faults accounted"
            if self.ok
            else "CHAOS FAILURES — see runs above"
        )
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _fault_slices(stats) -> Tuple[Dict[str, int], ...]:
    counters = stats.snapshot()["counters"]

    def _slice(prefix: str) -> Dict[str, int]:
        return {
            name[len(prefix):]: count
            for name, count in counters.items()
            if name.startswith(prefix)
        }

    return (
        _slice("fault.injected."),
        _slice("degrade."),
        _slice("retry."),
    )


def _run_once(
    label: str,
    plan: Optional["faults.FaultPlan"],
    designs: Sequence[str],
    cycles: int,
    opt_level: int,
    check: bool,
    sim_backend: str,
    workers: Optional[int],
    executor: str,
) -> ChaosRun:
    """One sweep over the designs in a fresh session + fresh cold cache."""
    from .. import smt
    from ..lilac.typecheck.check import clear_obligation_memo
    from .grid import EvalGrid
    from .session import CompileSession

    # Deterministic call indices need every run to start *cold*: the
    # process-global solver memos (obligation verdicts, theory lemmas)
    # would otherwise answer queries the plan scheduled to fail, so the
    # same sweep would inject different faults depending on what ran in
    # the process before it.
    clear_obligation_memo()
    smt.clear_solver_caches()
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    digests: Dict[str, Dict[str, str]] = {}
    error: Optional[str] = None
    injected: Dict[str, int] = {}
    degrades: Dict[str, int] = {}
    retries: Dict[str, int] = {}
    try:
        session = CompileSession(
            opt_level=opt_level,
            sim_backend=sim_backend,
            cache_dir=cache_dir,
            # The baseline gets an explicit *empty* plan, not None — a
            # None plan would fall back to $REPRO_FAULTS and a stray
            # environment would poison the reference run.
            fault_plan=plan if plan is not None else faults.FaultPlan(),
        )
        try:
            grid = EvalGrid(session, max_workers=workers, executor=executor)
            points = [(name, cycles, opt_level, check) for name in designs]
            for design, payload in grid.map(_chaos_point, points):
                digests[design] = {
                    part: _digest(value) for part, value in payload.items()
                }
        except BaseException as escaped:  # containment IS the test
            error = f"{type(escaped).__name__}: {escaped}"
        injected, degrades, retries = _fault_slices(session.stats)
    finally:
        faults.uninstall()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return ChaosRun(
        label,
        plan.spec_string() if plan is not None else None,
        plan.seed if plan is not None else None,
        digests,
        dict(plan.fired) if plan is not None else {},
        injected,
        degrades,
        retries,
        error=error,
    )


def run_chaos(
    designs: Optional[Sequence[str]] = None,
    seeds: Iterable[int] = (0,),
    groups: Sequence[str] = ("disk", "worker", "solver"),
    cycles: int = 64,
    opt_level: int = 2,
    count: int = 2,
    sim_backend: str = "interp",
    workers: Optional[int] = None,
    executor: str = "thread",
) -> ChaosReport:
    """The full sweep: a fault-free baseline, then one faulted run per
    (group, seed), every run judged for bit-identity, accounting and
    containment.

    ``count`` is how many invocations of each site fail per plan;
    ``seeds`` shift which invocations those are.  The baseline always
    runs the typecheck part so solver-group runs have a reference.
    """
    from ..designs.catalog import DESIGNS

    designs = list(designs) if designs else sorted(DESIGNS)
    unknown = [group for group in groups if group not in SITE_GROUPS]
    if unknown:
        raise ValueError(
            f"unknown chaos groups {unknown}; available: "
            f"{sorted(SITE_GROUPS)}"
        )
    baseline = _run_once(
        "baseline", None, designs, cycles, opt_level, True,
        sim_backend, workers, executor,
    )
    runs: List[ChaosRun] = []
    for seed in seeds:
        for group in groups:
            plan = faults.FaultPlan.seeded(
                seed, sites=SITE_GROUPS[group], count=count
            )
            run = _run_once(
                f"{group}@seed={seed}",
                plan,
                designs,
                cycles,
                opt_level,
                group == "solver",
                sim_backend,
                workers,
                executor,
            )
            run.judge(baseline)
            runs.append(run)
    return ChaosReport(baseline, runs)


# ---------------------------------------------------------------------------
# Kill-9 chaos: real subprocesses, real SIGKILLs, consistency judged
# offline by fsck and a resumed run.


class CrashChaosRun:
    """Outcome of one (site, seed) kill-9 experiment.

    The experiment: an uninterrupted baseline child establishes the
    reference digests and the site's consultation count; a kill child
    runs the same sweep cold with ``REPRO_FAULTS=<site>:1@<skip>`` and
    must die by SIGKILL; ``repro fsck`` must find (or ``--repair`` to)
    a consistent store; a resume child over the same store and run id
    must exit cleanly with digests bit-identical to the baseline, while
    re-computing strictly fewer points whenever the killed child
    checkpointed any.
    """

    def __init__(self, site: str, seed: int):
        self.site = site
        self.seed = seed
        self.skip: Optional[int] = None
        self.calls: int = 0
        self.kill_rc: Optional[int] = None
        self.fsck_counts: Dict[str, int] = {}
        self.fsck_consistent: Optional[bool] = None
        self.resume_rc: Optional[int] = None
        self.identical: Optional[bool] = None
        self.total_points: int = 0
        self.resumed_points: int = 0   # served from the killed run's ledger
        self.recomputed_points: int = 0
        self.error: Optional[str] = None

    @property
    def ok(self) -> bool:
        if self.error is not None:
            return False
        strictly_fewer = (
            self.resumed_points == 0
            or self.recomputed_points < self.total_points
        )
        return (
            self.kill_rc == -9
            and self.fsck_consistent is True
            and self.resume_rc == 0
            and self.identical is True
            and strictly_fewer
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "seed": self.seed,
            "skip": self.skip,
            "calls": self.calls,
            "kill_rc": self.kill_rc,
            "fsck_counts": dict(self.fsck_counts),
            "fsck_consistent": self.fsck_consistent,
            "resume_rc": self.resume_rc,
            "identical": self.identical,
            "total_points": self.total_points,
            "resumed_points": self.resumed_points,
            "recomputed_points": self.recomputed_points,
            "error": self.error,
            "ok": self.ok,
        }


class CrashChaosReport:
    """The whole kill-9 sweep: one experiment per (site, seed)."""

    def __init__(self, runs: List[CrashChaosRun]):
        self.runs = runs

    @property
    def ok(self) -> bool:
        return bool(self.runs) and all(run.ok for run in self.runs)

    def to_dict(self) -> Dict[str, object]:
        return {"ok": self.ok, "runs": [run.to_dict() for run in self.runs]}

    def render(self) -> str:
        lines = ["crash chaos (SIGKILL at seeded sites, judged by fsck "
                 "+ resume):"]
        for run in self.runs:
            status = "ok" if run.ok else "FAILED"
            detail = ""
            if run.error is not None:
                detail = f"  [{run.error}]"
            elif not run.ok:
                parts = []
                if run.kill_rc != -9:
                    parts.append(f"kill rc={run.kill_rc}")
                if run.fsck_consistent is not True:
                    parts.append("store inconsistent")
                if run.resume_rc != 0:
                    parts.append(f"resume rc={run.resume_rc}")
                if run.identical is not True:
                    parts.append("outputs diverged")
                detail = f"  [{'; '.join(parts)}]"
            lines.append(
                f"  {run.site:18s} seed={run.seed}  kill@{run.skip}"
                f"/{run.calls}  resumed {run.resumed_points}"
                f"/{run.total_points} points  {status}{detail}"
            )
        verdict = (
            "every killed store fsck-consistent, every resume "
            "bit-identical"
            if self.ok
            else "CRASH-CHAOS FAILURES — see runs above"
        )
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _sweep_command(
    store: str, run_id: str, designs: Sequence[str], cycles: int,
    opt_level: int, check: bool, resume: bool,
) -> List[str]:
    command = [
        sys.executable, "-m", "repro", "sweep",
        "--designs", *designs,
        "--cycles", str(cycles),
        "-O", str(opt_level),
        "--cache-dir", store,
        "--run-id", run_id,
        "--stats", "json",
    ]
    if check:
        command.append("--check")
    if resume:
        command.append("--resume")
    return command


def _child_env(fault_spec: Optional[str]) -> Dict[str, str]:
    """The environment a chaos child runs under: this interpreter's
    ``repro`` importable, fsyncs off (SIGKILL consistency needs only
    ordering, and the sweep runs dozens of stores), and exactly the
    requested fault plan — never an inherited one."""
    import repro

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_dir + (os.pathsep + existing if existing else "")
    )
    env[faults.FAULTS_ENV] = fault_spec or ""
    env.setdefault("REPRO_CACHE_FSYNC", "0")
    return env


def _run_sweep_child(
    store: str, run_id: str, designs: Sequence[str], cycles: int,
    opt_level: int, check: bool, resume: bool,
    fault_spec: Optional[str], timeout: float,
) -> Tuple[int, Optional[Dict[str, object]], str]:
    """Launch one ``repro sweep`` child; returns ``(returncode, parsed
    stats payload or None, captured stderr tail)``."""
    command = _sweep_command(
        store, run_id, designs, cycles, opt_level, check, resume
    )
    proc = subprocess.run(
        command,
        env=_child_env(fault_spec),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    payload: Optional[Dict[str, object]] = None
    if proc.returncode == 0:
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            payload = None
    return proc.returncode, payload, proc.stderr[-2000:]


def run_crash_chaos(
    designs: Optional[Sequence[str]] = None,
    seeds: Iterable[int] = (0,),
    sites: Sequence[str] = faults.CRASH_SITES,
    cycles: int = 32,
    opt_level: int = 2,
    timeout: float = 300.0,
) -> CrashChaosReport:
    """Kill-9 the pipeline for real and prove the store survives.

    For each (site, seed): run an uninterrupted ``repro sweep`` child
    against a fresh store (the digest baseline, and the source of the
    site's consultation count, from which the seed derives a valid skip
    offset exactly as :meth:`FaultPlan.seeded` would); SIGKILL a second
    cold child at that consultation via ``REPRO_FAULTS``; fsck the
    carnage (report first, then ``--repair``, which must leave the
    store consistent); finally resume the killed run in a third child,
    which must complete bit-identical to the baseline while serving the
    killed child's checkpoints instead of recomputing them.
    """
    from ..designs.catalog import DESIGNS
    from .fsck import run_fsck

    unknown = [site for site in sites if site not in faults.CRASH_SITES]
    if unknown:
        raise ValueError(
            f"unknown crash sites {unknown}; available: "
            f"{list(faults.CRASH_SITES)}"
        )
    designs = list(designs) if designs else sorted(DESIGNS)
    runs: List[CrashChaosRun] = []
    for seed in seeds:
        for site in sites:
            run = CrashChaosRun(site, seed)
            runs.append(run)
            check = site == "proc.kill.solver"
            run.total_points = len(designs)
            baseline_store = tempfile.mkdtemp(prefix="repro-crash-base-")
            kill_store = tempfile.mkdtemp(prefix="repro-crash-kill-")
            try:
                rc, baseline, stderr = _run_sweep_child(
                    baseline_store, "baseline", designs, cycles,
                    opt_level, check, False, None, timeout,
                )
                if rc != 0 or baseline is None:
                    run.error = (
                        f"baseline child failed (rc={rc}): {stderr}"
                    )
                    continue
                calls = (
                    baseline.get("faults", {})
                    .get("calls", {})
                    .get(site, 0)
                )
                run.calls = int(calls)
                if run.calls <= 0:
                    run.error = (
                        f"site {site} never consulted by the baseline "
                        "sweep — nothing to kill"
                    )
                    continue
                digest_material = hashlib.sha256(
                    f"{seed}:{site}".encode("utf-8")
                ).hexdigest()
                run.skip = int(digest_material, 16) % run.calls
                fault_spec = f"{site}:1@{run.skip}"
                try:
                    proc = subprocess.run(
                        _sweep_command(
                            kill_store, "killed", designs, cycles,
                            opt_level, check, False,
                        ),
                        env=_child_env(fault_spec),
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                        timeout=timeout,
                        text=True,
                    )
                    run.kill_rc = proc.returncode
                except subprocess.TimeoutExpired:
                    run.error = "kill child timed out"
                    continue
                if run.kill_rc != -9:
                    run.error = (
                        f"kill child exited {run.kill_rc}, expected "
                        "death by SIGKILL"
                    )
                    continue
                # The carnage, classified — then repaired.
                report = run_fsck(kill_store)
                run.fsck_counts = report.counts()
                repaired = run_fsck(kill_store, repair=True)
                verify = run_fsck(kill_store)
                run.fsck_consistent = (
                    repaired.consistent and verify.consistent
                )
                rc, resumed, stderr = _run_sweep_child(
                    kill_store, "killed", designs, cycles,
                    opt_level, check, True, None, timeout,
                )
                run.resume_rc = rc
                if rc != 0 or resumed is None:
                    run.error = f"resume child failed (rc={rc}): {stderr}"
                    continue
                checkpoint = resumed.get("checkpoint", {})
                run.resumed_points = int(checkpoint.get("hits", 0))
                run.recomputed_points = int(checkpoint.get("stores", 0))
                run.identical = (
                    resumed.get("digests") == baseline.get("digests")
                )
            except subprocess.TimeoutExpired:
                run.error = "chaos child timed out"
            finally:
                shutil.rmtree(baseline_store, ignore_errors=True)
                shutil.rmtree(kill_store, ignore_errors=True)
    return CrashChaosReport(runs)
