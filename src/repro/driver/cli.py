"""``python -m repro`` — the command-line front door to the pipeline.

Subcommands:

* ``compile`` — run the staged pipeline over a bundled design preset or
  a Lilac source file, printing the schedule, per-stage timings, the
  synthesis report, and (optionally) Verilog.
* ``table``  — regenerate Table 1, 2 or 3.
* ``figure`` — regenerate Figure 8 or 13.
* ``ablation`` — the optimization ablation (pre/post cell counts and
  differential-simulation equivalence per design).
* ``profile`` — simulate catalog designs over the evaluation grid under
  the whole-run wall-time profiler, printing a flame-style attribution
  of compute vs waiting (pool queue, disk I/O, cache-lock contention).
* ``chaos``  — the fault-injection sweep: catalog designs under seeded
  fault plans (disk, worker, solver groups), each run asserted
  bit-identical to a fault-free baseline with every injected fault
  accounted and no exception escaping.  ``--crash`` switches to the
  kill-9 harness: real child processes SIGKILLed at seeded
  ``proc.kill.*`` sites, the store fsck'd and the run resumed.
* ``sweep``  — a deterministic catalog sweep printing one JSON line of
  content digests, checkpoint and fault accounting; the unit of work
  the crash-chaos harness launches (and kills, and resumes) as a
  subprocess.
* ``fsck``   — offline store consistency check: digest-verify every
  entry, classify temp files by the writer PID stamped in their names;
  ``--repair`` quarantines corrupt entries and unlinks dead writers'
  temp files.  Exit 0 iff the store is consistent.
* ``all``    — every table, figure and the ablation on one shared
  session, with cache statistics showing the artifacts reused across
  them.  Where the process may run on two or more CPUs, Figure 8's
  type checks run in a helper process beside the other five
  artifacts; its rows are timed there and its statistics merged into
  the session's before they print.

Grid-shaped subcommands take ``--run-id NAME`` to checkpoint every
completed grid point as a disk-cache entry of the run's own stage
(``<cache>/v<schema>/run.NAME/``), and ``--resume`` to continue a
previous run of that name, serving its checkpoints verbatim
(bit-identical by construction) and computing only what is missing.
SIGINT/SIGTERM drain gracefully with exit code 130; every completed
point is already on disk.

The pipeline subcommands accept ``-O{0,1,2}`` to select the netlist
optimization level (the pass pipeline of :mod:`repro.rtl.passes`),
``--cache-dir``/``--no-disk-cache`` to steer the persistent
artifact cache (on by default — a second ``repro all -O2`` run is
served from disk, including the codegen backends' generated step
sources), and ``--stats json`` to emit cache + disk + per-pass
statistics as a single JSON line at the end of the run.  The
simulation flags go only where they select something: ``profile`` and
``sweep`` simulate on the session's engine, picked by ``--sim-backend
{auto,batched,compiled,interp,vector}`` (``auto`` resolves per design
and lane count by :func:`repro.rtl.auto_backend`), and take
``--sim-lanes K`` to batch K stimulus lanes through each simulate run;
``ablation`` and ``all`` take ``--sim-lanes K`` to widen the
ablation's lane differentials to K lanes.  ``chaos`` has its own
``--sim-backend``.  Grid-shaped subcommands additionally take
``--executor {thread,process}``: process mode fans the evaluation grid
over worker processes that rendezvous through the disk cache instead
of a shared in-memory session.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

from ..designs.catalog import DESIGNS, design_point
from ..filament import FilamentError
from ..generators.base import GeneratorError
from ..lilac.ast import LilacError
from ..rtl import backend_choices
from ..rtl.passes import OPT_LEVELS
from .cache import DiskCache
from .chaos import SITE_GROUPS
from .grid import EXECUTORS
from .session import CompileSession

#: Bundled design presets for ``compile --design`` (the catalog's keys).
PRESETS = DESIGNS


def _session_from_args(args) -> CompileSession:
    """One place that turns CLI flags into a configured session.

    The persistent disk cache is *on by default* for the CLI — the whole
    point is that a second ``repro all -O2`` invocation starts warm —
    and resolves to ``--cache-dir``, else ``$REPRO_CACHE_DIR``, else the
    user cache directory.  ``--no-disk-cache`` turns the layer off.
    """
    cache_dir = None
    if not args.no_disk_cache:
        cache_dir = args.cache_dir or DiskCache.default_root()
    return CompileSession(
        opt_level=args.opt_level,
        sim_backend=getattr(args, "sim_backend", "interp"),
        cache_dir=cache_dir,
        sim_lanes=getattr(args, "sim_lanes", 1),
    )


def _attach_ledger(session: CompileSession, args) -> None:
    """Wire ``--run-id``/``--resume`` into a session-held RunLedger."""
    run_id = getattr(args, "run_id", None)
    resume = bool(getattr(args, "resume", False))
    if run_id is None:
        if resume:
            raise SystemExit("--resume requires --run-id")
        return
    if session.cache_dir is None:
        raise SystemExit(
            "--run-id needs the disk cache (drop --no-disk-cache): "
            "checkpoints are disk-cache entries"
        )
    from .ledger import RunLedger

    try:
        session.ledger = RunLedger(session.cache.disk, run_id, resume=resume)
    except FileExistsError as error:
        raise SystemExit(str(error))
    except ValueError as error:
        raise SystemExit(f"cannot open run {run_id!r}: {error}")


def _print_stats(session: CompileSession, mode: Optional[str]) -> None:
    """End-of-run statistics: human text or one machine-readable line."""
    if mode == "json":
        print(json.dumps(session.stats_dict(), sort_keys=True))
    elif mode == "text":
        print(session.stats.render())
        print(session.render_pass_stats())


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_params(pairs: List[str]) -> Dict[str, int]:
    params: Dict[str, int] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        try:
            if not sep:
                raise ValueError
            params[name.strip()] = int(value)
        except ValueError:
            raise SystemExit(f"bad --param {pair!r}: expected NAME=INT")
    return params


def _cmd_compile(args) -> int:
    session = _session_from_args(args)
    if args.source:
        with open(args.source) as handle:
            source = handle.read()
        component = args.component
        generators, params = None, {}
        if component is None:
            raise SystemExit("--component is required with --source")
    else:
        source, component, generators, params = design_point(
            args.design, args.freq, args.parallelism
        )
        if args.component:
            component = args.component
    params.update(_parse_params(args.param))

    stages = ["parse", "elaborate", "synthesize"]
    if args.check:
        stages.insert(1, "typecheck")
    if args.opt_level > 0:
        stages.insert(stages.index("synthesize"), "optimize")
    if args.verilog is not None:
        stages.insert(stages.index("synthesize"), "emit_verilog")
    result = session.compile(
        source, component, params, generators, stages=stages
    )

    check = result.get("typecheck")
    if check is not None and not check.ok:
        print(f"{component}: type check FAILED")
        for diagnostic in check.diagnostics:
            print(diagnostic.render())
        return 1
    elab = result.elab
    print(f"{component}  params={elab.params}  "
          f"latency={elab.latency}  II={elab.delay}  "
          f"out_params={elab.out_params}")
    report = result.report
    print(f"synthesis: {report.luts} LUTs, {report.registers} registers, "
          f"{report.fmax_mhz:.1f} MHz")
    optimized = result.optimized
    if optimized is not None:
        print(
            f"optimize (-O{optimized.opt_level}): "
            f"{optimized.cells_before} -> {optimized.cells_after} cells"
        )
    print("stage timings (ms):")
    for stage, seconds in result.timings().items():
        print(f"  {stage:12s} {seconds * 1000.0:8.2f}")
    if args.verilog is not None:
        text = result.verilog
        if args.verilog == "-":
            print(text)
        else:
            with open(args.verilog, "w") as handle:
                handle.write(text)
            print(f"wrote {args.verilog}")
    if args.stats:
        _print_stats(session, args.stats)
    elif args.opt_level > 0:
        print(session.render_pass_stats())
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (so ``taskset -c 0`` counts one), else the
    machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _figure8_in_helper(spec: Dict[str, object]):
    """Figure 8 on a session rebuilt from ``spec``, in the helper
    process: the rendered table, the session's stats snapshot and its
    fault-site consultation counts, for the parent to fold in."""
    from .. import evalx

    session = CompileSession.from_spec(spec)
    table = evalx.run_artifact("figure8", session=session)
    plan = session.fault_plan
    calls = dict(plan.calls) if plan is not None else {}
    return table, session.stats.snapshot(), calls


class _Figure8Helper:
    """Figure 8 in a one-worker process pool beside the parent's run.

    Figure 8 is one serial, GIL-bound stage whose output no other
    artifact reads; it shares only parse results, and it owns no grid,
    checkpoint or drain path, so it is the part of ``repro all`` that a
    second CPU takes over.  Its rows are timed in the helper.  The pool
    starts before the parent creates any grid thread, so the platform's
    default start method is safe here, and the worker function and its
    argument are picklable for the start methods that do not fork.
    """

    def __init__(self, session: CompileSession):
        self.session = session
        self.pool = self.future = self.failure = None
        # A forked helper would write the parent's pending output a
        # second time when it exits.
        sys.stdout.flush()
        try:
            self.pool = ProcessPoolExecutor(max_workers=1)
            self.future = self.pool.submit(_figure8_in_helper, session.spec())
        except OSError as error:
            self.failure = error

    def collect(self) -> Optional[str]:
        """The helper's table, its stats folded into the session's; None
        (warned, ``degrade.executor``) when the helper could not start or
        died, so the caller runs Figure 8 itself.  An exception raised by
        Figure 8 propagates."""
        session = self.session
        if self.failure is None:
            try:
                table, snapshot, calls = self.future.result()
            except BrokenProcessPool as error:
                self.failure = error
            else:
                session.stats.merge(snapshot)
                plan = session.fault_plan
                if plan is not None:
                    for site, count in calls.items():
                        plan.calls[site] = plan.calls.get(site, 0) + count
                return table
        session.stats.bump("degrade.executor")
        warnings.warn(
            f"figure8 helper process failed ({self.failure!r}); running "
            f"it in this process",
            RuntimeWarning,
            stacklevel=2,
        )
        return None

    def close(self) -> None:
        """Reap the helper.  One still running means the parent is
        unwinding (an exception or a drain signal), so it is killed
        rather than waited for; the disk cache is safe against that."""
        if self.pool is None:
            return
        if self.future is not None and not self.future.done():
            # The executor has no public way to stop a running worker
            # before Python 3.14.
            for process in list(self.pool._processes.values()):
                process.kill()
        self.pool.shutdown(wait=True, cancel_futures=True)


def _run_artifacts(names: List[str], args) -> int:
    """Run and print the named artifacts, in order, on one session.

    When Figure 8 and at least one other artifact are requested and
    the process may run on two or more CPUs, Figure 8 runs in a helper
    process (:class:`_Figure8Helper`) while this one runs the rest;
    every artifact still prints in the requested order, and the
    helper's stats are merged before they print.
    """
    from .. import evalx
    from .ledger import graceful_drain

    session = _session_from_args(args)
    _attach_ledger(session, args)
    tables: Dict[str, str] = {}
    unprinted = list(names)

    def run(name: str) -> str:
        return evalx.run_artifact(
            name, session=session, workers=args.workers,
            executor=args.executor,
        )

    def flush() -> None:
        while unprinted and unprinted[0] in tables:
            name = unprinted.pop(0)
            print(f"== {name} ==")
            print(tables[name])
            print()

    with graceful_drain(session.stats):
        helper = None
        if "figure8" in names and len(names) > 1 and _usable_cpus() > 1:
            helper = _Figure8Helper(session)
        try:
            for name in names:
                if helper is None or name != "figure8":
                    tables[name] = run(name)
                    flush()
            if helper is not None:
                table = helper.collect()
                tables["figure8"] = run("figure8") if table is None else table
                flush()
        finally:
            if helper is not None:
                helper.close()
    if args.stats == "json":
        _print_stats(session, "json")
    else:
        print(session.stats.render())
        if session.pass_log():
            print(session.render_pass_stats())
        disk = session.disk_stats()
        if disk["enabled"]:
            rate = disk["hit_rate"]
            rendered = "n/a" if rate is None else f"{rate * 100.0:.1f}%"
            print(
                f"disk cache: {disk['hits']} hits  {disk['misses']} misses  "
                f"{disk['writes']} writes  (hit rate {rendered}) at "
                f"{disk['dir']}"
            )
    return 0


def _cmd_typecheck(args) -> int:
    session = _session_from_args(args)
    if args.source:
        with open(args.source) as handle:
            source = handle.read()
    else:
        source = design_point(args.design)[0]
    artifact = session.typecheck(source, component=args.component)
    reports = artifact.value
    if not isinstance(reports, list):
        reports = [reports]
    failures = 0
    for report in reports:
        if report.obligations == 0 and not report.errors:
            continue
        status = "ok" if report.ok else f"{len(report.errors)} ERROR(S)"
        print(
            f"  {report.component:24s} {report.obligations:4d} obligations"
            f"  {status}"
        )
        failures += len(report.errors)
        for error in report.errors:
            print("    " + error.render().replace("\n", "\n    "))
    total = sum(r.obligations for r in reports)
    tc = session.typecheck_stats()
    print(
        f"{'FAILED' if failures else 'ok'}: {total} obligations, "
        f"{tc['solver_queries']} solver queries, "
        f"{tc['memo_hits']} memo hits, {tc['disk_hits']} disk hits "
        f"({artifact.seconds * 1000.0:.0f} ms"
        f"{', cached artifact' if artifact.from_cache else ''})"
    )
    if args.stats:
        _print_stats(session, args.stats)
    return 1 if failures else 0


def _cmd_table(args) -> int:
    return _run_artifacts([f"table{args.number}"], args)


def _cmd_figure(args) -> int:
    return _run_artifacts([f"figure{args.number}"], args)


def _cmd_ablation(args) -> int:
    return _run_artifacts(["ablation"], args)


def _cmd_profile(args) -> int:
    import functools

    from .grid import EvalGrid
    from .ledger import graceful_drain
    from .profiler import RunProfiler, simulate_catalog_point

    session = _session_from_args(args)
    _attach_ledger(session, args)
    names = args.designs or sorted(PRESETS)
    grid = EvalGrid(
        session, max_workers=args.workers, executor=args.executor
    )
    with graceful_drain(session.stats):
        with RunProfiler(session) as profiler:
            rows = grid.map(
                simulate_catalog_point,
                [(name, args.cycles, args.opt_level) for name in names],
            )
    report = profiler.report()
    if args.json:
        payload = report.to_dict()
        payload["designs"] = rows
        print(json.dumps(payload, sort_keys=True))
        return 0
    for row in rows:
        print(
            f"{row['design']:8s} {row['cells']:6d} cells  "
            f"{row['backend']:8s} lanes={row['lanes']}  "
            f"sim {row['run_seconds'] * 1000.0:8.2f} ms"
        )
    print(report.render())
    if args.stats:
        _print_stats(session, args.stats)
    return 0


def _cmd_sweep(args) -> int:
    """A deterministic catalog sweep with machine-readable output.

    The crash-chaos harness's unit of work: the printed JSON carries
    per-design *content digests* (trace bits and typecheck verdicts —
    nothing wall-clock-shaped), the checkpoint picture, and fault-plan
    accounting, so a killed-and-resumed sweep can be compared
    bit-for-bit against an uninterrupted one.
    """
    from . import faults
    from .chaos import _chaos_point, _digest
    from .grid import EvalGrid
    from .ledger import graceful_drain

    session = _session_from_args(args)
    if session.fault_plan is None:
        # Even a fault-free sweep installs an (empty) plan: the crash
        # harness reads a baseline's per-site consultation counts to
        # derive kill offsets, and only an installed plan counts calls.
        session.fault_plan = faults.FaultPlan()
        faults.install(session.fault_plan.bind(session.stats))
    _attach_ledger(session, args)
    names = args.designs or sorted(PRESETS)
    points = [
        (name, args.cycles, args.opt_level, args.check) for name in names
    ]
    grid = EvalGrid(
        session, max_workers=args.workers, executor=args.executor
    )
    with graceful_drain(session.stats):
        results = grid.map(_chaos_point, points)
    payload = session.stats_dict()
    payload["digests"] = {
        design: {part: _digest(value) for part, value in parts.items()}
        for design, parts in results
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_fsck(args) -> int:
    from .fsck import run_fsck

    root = args.cache_dir or DiskCache.default_root()
    report = run_fsck(root, repair=args.repair)
    if args.stats == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def _cmd_chaos(args) -> int:
    from .chaos import run_chaos, run_crash_chaos
    from .faults import CRASH_SITES

    if args.crash:
        report = run_crash_chaos(
            designs=args.designs,
            seeds=args.seeds,
            sites=args.sites or list(CRASH_SITES),
            cycles=args.cycles,
            opt_level=args.opt_level,
            timeout=args.timeout,
        )
        if args.json:
            print(json.dumps(report.to_dict(), sort_keys=True))
        else:
            print(report.render())
        return 0 if report.ok else 1
    if args.sites:
        raise SystemExit("--sites only applies with --crash")
    report = run_chaos(
        designs=args.designs,
        seeds=args.seeds,
        groups=args.groups,
        cycles=args.cycles,
        opt_level=args.opt_level,
        count=args.count,
        sim_backend=args.sim_backend,
        workers=args.workers,
        executor=args.executor,
    )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_all(args) -> int:
    from .. import evalx

    return _run_artifacts(sorted(evalx.ARTIFACTS), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Staged compiler driver for the Lilac reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_ = sub.add_parser(
        "compile", help="compile a design through the staged pipeline"
    )
    group = compile_.add_mutually_exclusive_group()
    group.add_argument(
        "--design", choices=sorted(PRESETS), default="fpu",
        help="bundled design preset (default: fpu)",
    )
    group.add_argument("--source", help="path to a Lilac source file")
    compile_.add_argument("--component", help="top-level component name")
    compile_.add_argument(
        "-p", "--param", action="append", default=[], metavar="NAME=INT",
        help="override a top-level parameter (repeatable)",
    )
    compile_.add_argument(
        "--freq", type=int, default=400,
        help="FloPoCo frequency goal in MHz (default: 400)",
    )
    compile_.add_argument(
        "--parallelism", type=int, default=16,
        help="Aetherling parallelism for the gbp preset (default: 16)",
    )
    compile_.add_argument(
        "--check", action="store_true",
        help="run the (slow, exhaustive) typecheck stage first",
    )
    compile_.add_argument(
        "--verilog", nargs="?", const="-", metavar="PATH",
        help="emit structural Verilog to PATH (default: stdout)",
    )
    compile_.set_defaults(fn=_cmd_compile)

    typecheck = sub.add_parser(
        "typecheck",
        help="run the SMT-backed type checker over a design or source "
             "(per-component obligations, solver query counts, cache "
             "hits; warm runs answer from the persistent 'smt' store)",
    )
    tc_group = typecheck.add_mutually_exclusive_group()
    tc_group.add_argument(
        "--design", choices=sorted(PRESETS), default="fpu",
        help="bundled design preset (default: fpu)",
    )
    tc_group.add_argument("--source", help="path to a Lilac source file")
    typecheck.add_argument(
        "--component", default=None,
        help="check one component only (default: every comp)",
    )
    typecheck.set_defaults(fn=_cmd_typecheck, opt_level=0)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=(1, 2, 3))
    table.set_defaults(fn=_cmd_table)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=(8, 13))
    figure.set_defaults(fn=_cmd_figure)

    ablation = sub.add_parser(
        "ablation",
        help="optimization ablation: cells and differential simulation "
             "per design (always compares -O2 against -O0, "
             "so it takes no -O flag)",
    )
    ablation.set_defaults(fn=_cmd_ablation, opt_level=0)

    profile = sub.add_parser(
        "profile",
        help="simulate catalog designs over the evaluation grid under "
             "the whole-run wall-time profiler (compute vs waiting: "
             "pool queue, disk I/O, cache-lock contention)",
    )
    profile.add_argument(
        "--designs", nargs="*", choices=sorted(PRESETS), default=None,
        metavar="NAME",
        help="catalog designs to simulate (default: all)",
    )
    profile.add_argument(
        "--cycles", type=_positive_int, default=256,
        help="cycles to simulate per design (default: 256)",
    )
    profile.add_argument(
        "--json", action="store_true",
        help="emit the attribution report as one JSON line",
    )
    profile.set_defaults(fn=_cmd_profile)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: run the catalog designs under "
             "seeded fault plans (disk, worker, solver groups) into "
             "fresh throwaway caches and assert every run is "
             "bit-identical to a fault-free baseline, every injected "
             "fault accounted, no exception escaping",
    )
    chaos.add_argument(
        "--designs", nargs="*", choices=sorted(PRESETS), default=None,
        metavar="NAME",
        help="catalog designs to sweep (default: all)",
    )
    chaos.add_argument(
        "--seeds", nargs="*", type=int, default=[0], metavar="N",
        help="fault-plan seeds; each seed shifts which invocation of "
             "each site fails (default: 0)",
    )
    chaos.add_argument(
        "--groups", nargs="*", choices=sorted(SITE_GROUPS),
        default=["disk", "worker", "solver"], metavar="GROUP",
        help="fault-site groups to sweep, one plan per (group, seed) "
             "(default: all three)",
    )
    chaos.add_argument(
        "--cycles", type=_positive_int, default=64,
        help="cycles to simulate per design (default: 64)",
    )
    chaos.add_argument(
        "--count", type=_positive_int, default=2,
        help="failures injected per fault site per plan (default: 2)",
    )
    chaos.add_argument(
        "--workers", type=int, default=None,
        help="evaluation-grid workers per run (default: cpu count)",
    )
    chaos.add_argument(
        "--executor", choices=EXECUTORS, default="thread",
        help="evaluation-grid pool for each run; 'process' exercises "
             "real worker-process deaths and the process->thread->"
             "serial degradation ladder (default: thread)",
    )
    chaos.add_argument(
        "-O", dest="opt_level", type=int, choices=OPT_LEVELS, default=2,
        metavar="LEVEL",
        help="netlist optimization level for the sweep (default: 2)",
    )
    chaos.add_argument(
        "--sim-backend", choices=backend_choices(), default="interp",
        help="simulation engine for the sweep (default: interp)",
    )
    chaos.add_argument(
        "--json", action="store_true",
        help="emit the chaos report as one JSON line",
    )
    chaos.add_argument(
        "--crash", action="store_true",
        help="kill-9 mode: SIGKILL real child sweeps at seeded "
             "proc.kill.* sites, assert the store fscks consistent and "
             "a --resume completes bit-identical to an uninterrupted "
             "baseline",
    )
    chaos.add_argument(
        "--sites", nargs="*", default=None, metavar="SITE",
        choices=("proc.kill.write", "proc.kill.point", "proc.kill.solver"),
        help="crash sites for --crash (default: all three)",
    )
    chaos.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-child wall-clock bound in --crash mode (default: 300)",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    sweep = sub.add_parser(
        "sweep",
        help="deterministic catalog sweep printing one JSON line of "
             "per-design content digests + checkpoint/fault accounting "
             "(the subprocess unit the crash-chaos harness kills and "
             "resumes)",
    )
    sweep.add_argument(
        "--designs", nargs="*", choices=sorted(PRESETS), default=None,
        metavar="NAME",
        help="catalog designs to sweep (default: all)",
    )
    sweep.add_argument(
        "--cycles", type=_positive_int, default=32,
        help="cycles to simulate per design (default: 32)",
    )
    sweep.add_argument(
        "--check", action="store_true",
        help="also run (and digest) the SMT typecheck per design",
    )
    sweep.set_defaults(fn=_cmd_sweep)

    fsck = sub.add_parser(
        "fsck",
        help="offline store consistency check: digest-verify entries, "
             "classify temp files by their writer's PID; exit 0 iff "
             "consistent",
    )
    fsck.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="store root to check (default: $REPRO_CACHE_DIR, else the "
             "user cache dir)",
    )
    fsck.add_argument(
        "--repair", action="store_true",
        help="mend what a dead writer left behind: quarantine corrupt "
             "entries, unlink orphan temp files",
    )
    fsck.add_argument(
        "--stats", choices=("text", "json"), default="text",
        help="'json' emits the machine-readable findings as one line",
    )
    fsck.set_defaults(fn=_cmd_fsck)

    all_ = sub.add_parser(
        "all",
        help="regenerate every table, figure and the ablation on one "
             "session",
    )
    all_.set_defaults(fn=_cmd_all)

    for command in (table, figure, ablation, profile, all_, sweep):
        command.add_argument(
            "--workers", type=int, default=None,
            help="evaluation-grid worker threads (default: cpu count)",
        )
        command.add_argument(
            "--executor", choices=EXECUTORS, default="thread",
            help="evaluation-grid pool: 'thread' shares one in-memory "
                 "session; 'process' sidesteps the GIL, workers "
                 "rendezvous through the disk cache",
        )
        command.add_argument(
            "--run-id", default=None, metavar="NAME",
            help="checkpoint completed grid points as entries of the "
                 "disk cache's run.NAME stage (requires the disk "
                 "cache)",
        )
        command.add_argument(
            "--resume", action="store_true",
            help="continue the --run-id run: previously completed "
                 "points are served from their checkpoints "
                 "bit-identically, only the remainder computes",
        )
    for command in (compile_, table, figure, profile, all_, sweep):
        command.add_argument(
            "-O", dest="opt_level", type=int, choices=OPT_LEVELS, default=0,
            metavar="LEVEL",
            help="netlist optimization level (default: 0 — no passes)",
        )
    for command in (compile_, typecheck, table, figure, ablation, profile,
                    all_, sweep):
        command.add_argument(
            "--stats", choices=("text", "json"), default=None,
            help="end-of-run cache + per-pass statistics; 'json' prints "
                 "one machine-readable line",
        )
        command.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="persistent artifact cache directory (default: "
                 "$REPRO_CACHE_DIR, else the user cache dir)",
        )
        command.add_argument(
            "--no-disk-cache", action="store_true",
            help="disable the persistent artifact cache for this run",
        )
    for command in (profile, sweep):
        command.add_argument(
            "--sim-backend", choices=backend_choices(), default="interp",
            help="simulation engine for the simulate stage (default: "
                 "interp; 'compiled'/'batched'/'vector' code-generate "
                 "scalar, SWAR-packed or mega-lane vectorized step "
                 "functions; 'auto' picks one per design and lane count)",
        )
    for command in (ablation, profile, all_, sweep):
        command.add_argument(
            "--sim-lanes", type=_positive_int, default=1, metavar="K",
            help="stimulus lanes per simulate run (default: 1; the "
                 "batched and vector engines advance all K per step, "
                 "compiled and interp run them one after another; the "
                 "ablation's lane differentials use K lanes when K > 1)",
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        hint = ""
        if getattr(args, "run_id", None):
            hint = (
                f" — completed points are checkpointed; continue with "
                f"--run-id {args.run_id} --resume"
            )
        print(f"interrupted{hint}", file=sys.stderr)
        return 130
    except (LilacError, GeneratorError, FilamentError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
