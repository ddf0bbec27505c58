"""Deterministic, seeded fault injection for the whole accelerator stack.

The reliability mirror of the perf work: every layer that got a fast
path (disk cache, codegen/tuner/obligation stores, batched and
vectorized simulation, the incremental solver, the process grid) also
has a *failure* path, and nothing short of injecting the failures
proves those paths degrade gracefully instead of corrupting results.
This module is the injection substrate: a :class:`FaultPlan` names
*sites* (fixed strings compiled into the hardened code) and decides —
deterministically, from explicit counts and skip offsets or from a
seed — which invocations of each site fail.  The hardened layers then
recover along the degradation ladder (disk→memory,
vector→compiled→interp, incremental→one-shot solver, process→thread→
serial grid), all of whose rungs are bit-identical by the differential
contracts PRs 2–8 established, so an injected fault costs speed, never
correctness.

Sites (the complete set — the hardened code asserts membership)::

    disk.read      DiskCache entry read fails (transient EIO; retried)
    disk.write     DiskCache temp-file write fails (EIO, or #enospc /
                   #erofs to exercise the one-way memory-only degrade)
    disk.replace   the atomic os.replace publishing an entry fails
    pickle.load    a stored payload deserializes as garbage
                   (quarantined like any corrupt entry)
    cache.lock     a single-flight key lock is unavailable (dedup lost,
                   the requester computes privately)
    worker.spawn   the process pool cannot be created (grid degrades
                   to threads)
    worker.crash   a grid worker dies mid-point (a real ``os._exit``
                   in process mode; the grid retries / degrades)
    solver.budget  an obligation's DPLL(T) conflict budget exhausts
                   (typecheck falls back to the one-shot engine)

and the *crash* family — sites that SIGKILL the whole process, for the
kill-9 chaos harness (:mod:`repro.driver.chaos` ``--crash``).  Unlike
every other site there is no recovery in-process: the process dies for
real (``os.kill(getpid(), SIGKILL)``), and consistency is judged
offline by ``repro fsck`` plus a ``--resume`` of the run::

    proc.kill.write   inside DiskCache._write_entry — consulted twice
                      per store (before the atomic replace, and after
                      it but before the journal commit), so seeds walk
                      the kill through both crash windows
    proc.kill.point   in the EvalGrid parent, after a grid point
                      completes and its ledger checkpoint is recorded
    proc.kill.solver  in ObligationStore.save, as a solver verdict is
                      about to be persisted mid-discharge

Plans are spelled in a tiny grammar, one entry per site, comma
separated::

    site[#mode][:count][@skip]

``count`` is how many invocations fail (default 1), ``skip`` how many
invocations pass before the first failure (default 0), and ``mode``
refines the failure kind (``transient`` — the default — or ``enospc``
/ ``erofs`` on the write sites).  ``disk.read:2@1,worker.crash`` fails
the second and third disk reads and the first grid point.  The same
grammar rides ``$REPRO_FAULTS`` (picked up by every
:class:`~repro.driver.session.CompileSession` that isn't given an
explicit plan) and round-trips through ``session.spec()`` so process-
pool workers rebuild the plan — with their own fresh counters — in
their own interpreter.

Injection is *accounted*: every fired fault bumps
``fault.injected.<site>`` on the plan and on the stats object the
firing site supplied, every recovery bumps a ``retry.<site>`` or
``degrade.<path>`` counter next to it, and ``repro chaos``
(:mod:`repro.driver.chaos`) closes the loop by asserting the counters
match the plan and the run's outputs match a fault-free baseline
bit for bit.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import signal
import threading
from typing import Dict, Iterable, List, Optional, Tuple

#: Every site the hardened layers compile in.  Plans may only name
#: these — a typo'd site would silently never fire otherwise.
FAULT_SITES = (
    "disk.read",
    "disk.write",
    "disk.replace",
    "pickle.load",
    "cache.lock",
    "worker.spawn",
    "worker.crash",
    "solver.budget",
    "proc.kill.write",
    "proc.kill.point",
    "proc.kill.solver",
)

#: The crash family: consulted only through :func:`kill_here`, which
#: SIGKILLs the process instead of raising.  Kept out of every in-
#: process chaos group — a plan that schedules one of these is asking
#: for the process to die.
CRASH_SITES = (
    "proc.kill.write",
    "proc.kill.point",
    "proc.kill.solver",
)

#: Failure-kind refinements.  ``transient`` is retryable (EIO-class);
#: ``enospc``/``erofs`` are the unrecoverable-root kinds that must tip
#: the disk cache into memory-only mode.
FAULT_MODES = ("transient", "enospc", "erofs")

#: The environment spelling every session without an explicit plan
#: honors.
FAULTS_ENV = "REPRO_FAULTS"


class FaultPlanError(ValueError):
    """A fault-plan spec string does not parse."""


class InjectedFault(RuntimeError):
    """An injected failure with no OS-level analogue (``pickle.load``,
    ``cache.lock``).  Hardened sites catch it exactly where they catch
    the real failure it stands in for."""

    def __init__(self, site: str):
        super().__init__(f"injected fault at {site}")
        self.site = site


class InjectedCrash(RuntimeError):
    """A grid worker death, as seen by a thread or serial executor
    (process executors die for real via ``os._exit``)."""


class InjectedOSError(OSError):
    """An injected I/O failure.  A plain :class:`OSError` subclass so
    the hardened code's errno classification treats it exactly like
    the genuine article."""

    def __init__(self, err: int, site: str):
        super().__init__(err, f"injected fault at {site}: {os.strerror(err)}")
        self.site = site


#: mode -> errno for the disk sites (transient reads/writes are EIO).
_MODE_ERRNO = {
    "transient": errno.EIO,
    "enospc": errno.ENOSPC,
    "erofs": errno.EROFS,
}


class FaultSite:
    """One site's failure schedule inside a plan.

    Invocations ``skip .. skip+count-1`` (0-based, counted per plan
    instance — i.e. per process) fire; every other invocation passes.
    """

    __slots__ = ("site", "mode", "count", "skip")

    def __init__(
        self, site: str, count: int = 1, skip: int = 0,
        mode: str = "transient",
    ):
        if site not in FAULT_SITES:
            raise FaultPlanError(
                f"unknown fault site {site!r}; available: {FAULT_SITES}"
            )
        if mode not in FAULT_MODES:
            raise FaultPlanError(
                f"unknown fault mode {mode!r}; available: {FAULT_MODES}"
            )
        if count < 1:
            raise FaultPlanError(f"fault count must be >= 1, got {count}")
        if skip < 0:
            raise FaultPlanError(f"fault skip must be >= 0, got {skip}")
        self.site = site
        self.mode = mode
        self.count = int(count)
        self.skip = int(skip)

    def spec(self) -> str:
        """The entry's grammar spelling (round-trips through parse)."""
        text = self.site
        if self.mode != "transient":
            text += f"#{self.mode}"
        if self.count != 1:
            text += f":{self.count}"
        if self.skip:
            text += f"@{self.skip}"
        return text

    def covers(self, call_index: int) -> bool:
        return self.skip <= call_index < self.skip + self.count

    def exception(self) -> Exception:
        """The exception an :func:`inject` at this site raises."""
        if self.site in ("disk.read", "disk.write", "disk.replace"):
            return InjectedOSError(_MODE_ERRNO[self.mode], self.site)
        if self.site == "worker.spawn":
            return InjectedOSError(errno.EAGAIN, self.site)
        if self.site == "worker.crash":
            return InjectedCrash(f"injected fault at {self.site}")
        return InjectedFault(self.site)

    def __repr__(self) -> str:
        return f"FaultSite({self.spec()!r})"


def _parse_entry(text: str) -> FaultSite:
    entry = text.strip()
    site, mode, count, skip = entry, "transient", 1, 0
    if "@" in site:
        site, _, raw = site.partition("@")
        try:
            skip = int(raw)
        except ValueError:
            raise FaultPlanError(f"bad skip in fault entry {entry!r}")
    if ":" in site:
        site, _, raw = site.partition(":")
        try:
            count = int(raw)
        except ValueError:
            raise FaultPlanError(f"bad count in fault entry {entry!r}")
    if "#" in site:
        site, _, mode = site.partition("#")
    return FaultSite(site.strip(), count, skip, mode)


class FaultPlan:
    """A deterministic schedule of injected failures, with accounting.

    The plan is pure data plus per-site invocation counters: the
    ``n``-th time a site is consulted (per plan instance — a process-
    pool worker rebuilding the plan from its spec string starts its
    own count) it fires iff some :class:`FaultSite` entry covers
    ``n``.  Thread-safe; every fire is recorded in :attr:`fired` and,
    when a stats object is supplied or bound, bumped as
    ``fault.injected.<site>`` there — which is what lets ``repro
    chaos`` prove no injected fault went unaccounted.
    """

    def __init__(self, sites: Iterable[FaultSite] = (), seed: Optional[int] = None):
        self.seed = seed
        self._sites: Dict[str, List[FaultSite]] = {}
        for spec in sites:
            self._sites.setdefault(spec.site, []).append(spec)
        self._lock = threading.Lock()
        self._stats = None
        self.calls: Dict[str, int] = {}
        self.fired: Dict[str, int] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: Optional[int] = None) -> "FaultPlan":
        """A plan from its grammar spelling (see the module docstring)."""
        entries = [
            _parse_entry(chunk)
            for chunk in (text or "").split(",")
            if chunk.strip()
        ]
        return cls(entries, seed=seed)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The ``$REPRO_FAULTS`` plan, or None when unset/empty."""
        text = os.environ.get(FAULTS_ENV, "").strip()
        if not text:
            return None
        return cls.parse(text)

    @classmethod
    def seeded(
        cls,
        seed: int,
        sites: Iterable[str] = FAULT_SITES,
        count: int = 1,
        max_skip: int = 3,
    ) -> "FaultPlan":
        """A deterministic plan over ``sites`` with seed-derived skip
        offsets.

        The skip offset for each site is
        ``sha256(f"{seed}:{site}") % (max_skip + 1)`` — stable across
        processes and platforms, so the same seed always schedules the
        same failures, while different seeds exercise different
        invocations of each site.
        """
        entries = []
        for site in sites:
            digest = hashlib.sha256(f"{seed}:{site}".encode("utf-8"))
            skip = int(digest.hexdigest(), 16) % (max_skip + 1)
            entries.append(FaultSite(site, count=count, skip=skip))
        return cls(entries, seed=seed)

    # -- the injection decision -----------------------------------------

    def bind(self, stats) -> "FaultPlan":
        """Route fire accounting into ``stats`` (a
        :class:`~repro.driver.cache.CacheStats`) in addition to the
        plan's own counters.  Returns the plan for chaining."""
        self._stats = stats
        return self

    def check(self, site: str, stats=None) -> Optional[FaultSite]:
        """Consult the plan for one invocation of ``site``.

        Returns the covering :class:`FaultSite` (recording the fire)
        when this invocation fails, else None.  Exactly one of the
        plan's entries can cover a given invocation index; the first
        in spec order wins.
        """
        with self._lock:
            index = self.calls.get(site, 0)
            self.calls[site] = index + 1
            spec = next(
                (s for s in self._sites.get(site, ()) if s.covers(index)),
                None,
            )
            if spec is None:
                return None
            self.fired[site] = self.fired.get(site, 0) + 1
            sink = stats if stats is not None else self._stats
        if sink is not None:
            sink.bump(f"fault.injected.{site}")
        return spec

    # -- introspection --------------------------------------------------

    def planned(self, site: str) -> int:
        """Failures the plan schedules for ``site`` in total."""
        return sum(spec.count for spec in self._sites.get(site, ()))

    def sites(self) -> Tuple[str, ...]:
        return tuple(sorted(self._sites))

    def spec_string(self) -> str:
        """The grammar spelling (round-trips; ships in session specs)."""
        return ",".join(
            spec.spec()
            for site in sorted(self._sites)
            for spec in self._sites[site]
        )

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-site accounting: planned / consulted / fired."""
        with self._lock:
            return {
                site: {
                    "planned": self.planned(site),
                    "calls": self.calls.get(site, 0),
                    "fired": self.fired.get(site, 0),
                }
                for site in sorted(self._sites)
            }

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec_string()!r}, seed={self.seed!r})"


# ---------------------------------------------------------------------------
# The process-global active plan.  Injection sites live deep in layers
# that never see a session (the SAT solver, the disk cache's internals),
# so the plan is installed process-wide — by the CompileSession that
# owns it, or a test's `installed(...)` block — rather than threaded
# through every call signature.  One plan at a time; installing a new
# one replaces the old.

_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_LOCK = threading.Lock()


def install(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the process's active plan (None uninstalls)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = plan


def uninstall() -> None:
    install(None)


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


@contextlib.contextmanager
def installed(plan: Optional[FaultPlan]):
    """Scoped install (tests and the chaos harness): restores the
    previously active plan on exit."""
    with _ACTIVE_LOCK:
        previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def check(site: str, stats=None) -> Optional[FaultSite]:
    """One invocation of ``site`` against the active plan (None when no
    plan is installed or this invocation passes)."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.check(site, stats)


def should_fire(site: str, stats=None) -> bool:
    """For sites whose failure is not an exception raised *here* (a
    worker deciding to die, a solver budget registering as exhausted):
    True when this invocation fails, with the fire fully accounted."""
    return check(site, stats) is not None


def inject(site: str, stats=None) -> None:
    """The standard injection hook: raise the site's failure exception
    when the active plan schedules this invocation to fail."""
    spec = check(site, stats)
    if spec is not None:
        raise spec.exception()


def kill_here(site: str, stats=None) -> None:
    """The crash-family injection hook: SIGKILL this process when the
    active plan schedules this invocation of ``site`` to fire.

    Deliberately unsurvivable — no cleanup handler, no atexit, no
    flushing runs: SIGKILL is the fault model.  Whatever state the
    process leaves behind is exactly what the write-ahead journal,
    ``repro fsck`` and the run ledger exist to make consistent, which
    is why ``repro chaos --crash`` schedules these sites only in child
    processes it launched for that purpose."""
    if site not in CRASH_SITES:
        raise ValueError(f"{site!r} is not a crash site; see CRASH_SITES")
    if check(site, stats) is not None:
        os.kill(os.getpid(), signal.SIGKILL)
