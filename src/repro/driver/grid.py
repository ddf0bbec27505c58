"""Parallel evaluation grid over a shared :class:`CompileSession`.

Tables and figures sweep a design over a grid of points (FloPoCo
frequency goals, Aetherling parallelisms, …).  :class:`EvalGrid` fans
the points out over a ``concurrent.futures`` pool; the session's
single-flight artifact cache guarantees each distinct ``(component,
binding, registry)`` is elaborated exactly once no matter how workers
interleave, so results are deterministic and independent of the worker
count.  When a worker raises, outstanding not-yet-started points are
cancelled immediately instead of draining the whole pool first.

Two executors:

* ``"thread"`` (default) — every worker shares the session and its
  in-memory cache, so overlapping points are computed once.  Right for
  elaboration/synthesis sweeps, which spend their time in shared
  sub-elaborations, and the only mode that can run closures.
* ``"process"`` — sidesteps the GIL for CPU-bound sweeps (levelized
  simulation, differential verification).  Sessions hold unpicklable
  live objects, so each worker process rebuilds its own from
  ``session.spec()`` and the workers *rendezvous through the
  schema-versioned disk cache* instead of sharing memory: the first to
  need an artifact computes and persists it, the rest load it.  Worker
  functions must be picklable (module-level defs or ``functools.partial``
  over them) and results travel back through pickles, so both must be
  plain data.

``"auto"`` picks ``"process"`` for multi-point sweeps when the session
has a disk cache to rendezvous through and the worker function pickles,
else falls back to ``"thread"``.

Checkpointing (:mod:`repro.driver.ledger`): when the session carries
a :class:`~repro.driver.ledger.RunLedger`, every resolved point is
checkpointed under its :func:`~repro.driver.ledger.point_key` as it
lands — a disk-cache entry, durable once recorded — and every rung of
the degradation ladder *re-filters* the point list against the
checkpoints before running.  That one mechanism is resume, requeue, and
crash recovery at once: a ``--resume`` run skips previously completed
points (``checkpoint.hit``), a rung that dies mid-sweep only re-runs
what its predecessor didn't finish, and a SIGKILLed process leaves
checkpoints the next one picks up.  Recorded values are served
verbatim, so a resumed grid is bit-identical to an uninterrupted one by
construction.  ``KeyboardInterrupt`` (and SIGTERM, via
:class:`~repro.driver.ledger.graceful_drain`) propagates immediately —
no retries, no draining the pool first.

The worker watchdog (process mode, opt-in via ``watchdog_timeout``):
workers write per-PID heartbeat files around each point; a parent-side
thread SIGKILLs any worker that has sat *busy* past the timeout
(``watchdog.kill``).  The kill surfaces as ``BrokenProcessPool``, which
rides the existing degradation ladder — and with a ledger attached the
re-run skips checkpointed points, so a hung point costs one rung and one
requeue (``watchdog.requeue``), not the whole sweep.

Fault tolerance (the degradation ladder *process → thread → serial*):
a worker-process crash (:class:`BrokenProcessPool` — real, or injected
via the ``worker.crash`` fault site, which in process mode kills the
worker with ``os._exit``) or a failed pool spawn (``worker.spawn``)
no longer cancels the run.  The grid re-runs the sweep one rung down
the ladder — every rung produces bit-identical results, the in-memory
and disk caches make re-visiting completed points cheap — warning once
and bumping ``degrade.executor``.  Within a rung, *transient* per-point
failures (an injected crash in thread/serial mode, a ``point_timeout``
expiry) are retried with exponential backoff up to ``point_retries``
times (``retry.worker`` counter).  Genuine worker exceptions keep their
PR 4 semantics: first failure in point order propagates, outstanding
points are cancelled.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from . import faults
from .cache import pid_alive
from .ledger import point_key
from .session import CompileSession, default_session

Point = TypeVar("Point")
Result = TypeVar("Result")

EXECUTORS = ("thread", "process", "auto")

#: Per-point transient failures, retried in place (never escalated to
#: a different executor): an injected worker crash surfacing as an
#: exception, or a ``point_timeout`` expiry.
_TRANSIENT = (faults.InjectedCrash, FuturesTimeout, TimeoutError)

#: spec-key → session, one per worker *process* (module globals are
#: per-process, so this is the workers' session memo, not the parent's).
_WORKER_SESSIONS: Dict[Tuple, CompileSession] = {}


class _ExecutorFailure(Exception):
    """The *pool itself* failed (spawn refused, worker process died).

    Internal signal that separates "this executor rung is broken —
    degrade down the ladder" from "a worker function raised — cancel
    and propagate", which must keep reaching the caller unchanged.
    """

    def __init__(self, message: str, cause: BaseException):
        super().__init__(message)
        self.cause = cause


def _worker_session(spec: Dict[str, object]) -> CompileSession:
    key = tuple(sorted(spec.items(), key=lambda item: item[0]))
    session = _WORKER_SESSIONS.get(key)
    if session is None:
        session = CompileSession.from_spec(spec)
        _WORKER_SESSIONS[key] = session
    return session


def _heartbeat(hb_dir: Optional[str], state: str) -> None:
    """Worker-side liveness beacon: overwrite this PID's heartbeat file.

    The file's mtime is the beat; ``state`` says whether a point is in
    flight (only *busy* workers can be hung).  Best-effort — a worker
    that can't write heartbeats just isn't watchdog-protected.
    """
    if hb_dir is None:
        return
    try:
        path = os.path.join(hb_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "state": state}, handle)
    except OSError:
        pass


def _process_point(spec: Dict[str, object], fn, point, submitted=None,
                   crash: bool = False, hb_dir: Optional[str] = None):
    """Executed inside a pool worker: rebuild the session, run the point.

    Returns ``(queue_wait_seconds, result)``: how long the point sat in
    the pool queue before a worker picked it up (``time.time()`` deltas
    — wall clock is the only timebase comparable across processes —
    clamped at zero against clock skew), and the worker function's
    value.  The parent unwraps the pair and accounts the wait under
    ``wait.pool_queue`` on its own session stats.

    ``crash`` is the parent-side ``worker.crash`` injection decision:
    the worker dies for real (``os._exit``), so the parent observes a
    genuine :class:`BrokenProcessPool` — the exact failure the
    degradation ladder exists for.  ``hb_dir`` is the watchdog's
    heartbeat directory (None when no watchdog is running).
    """
    if crash:
        os._exit(13)
    wait = 0.0 if submitted is None else max(0.0, time.time() - submitted)
    _heartbeat(hb_dir, "busy")
    try:
        result = fn(_worker_session(spec), point)
    finally:
        _heartbeat(hb_dir, "idle")
    return wait, result


class _Watchdog:
    """Parent-side hung-worker detector for process pools.

    A background thread polls the heartbeat directory; any worker whose
    file says *busy* and whose mtime is older than the timeout gets
    SIGKILLed (``watchdog.kill``).  The pool then reports
    ``BrokenProcessPool``, and the degradation ladder — with the ledger
    re-filter — turns the kill into a requeue instead of a lost run.
    The timeout therefore bounds a single point's wall clock in process
    mode: pick one comfortably above the slowest legitimate point.
    """

    def __init__(self, hb_dir: str, timeout: float, stats):
        self.hb_dir = hb_dir
        self.timeout = float(timeout)
        self.stats = stats
        self.kills = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="grid-watchdog", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _run(self) -> None:
        interval = max(0.02, min(self.timeout / 4.0, 1.0))
        while not self._stop.wait(interval):
            self._scan()

    def _scan(self) -> None:
        now = time.time()
        try:
            names = os.listdir(self.hb_dir)
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.hb_dir, name)
            try:
                info = os.stat(path)
                with open(path, "r", encoding="utf-8") as handle:
                    beat = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(beat, dict) or beat.get("state") != "busy":
                continue
            if now - info.st_mtime < self.timeout:
                continue
            pid = beat.get("pid")
            if not isinstance(pid, int) or not pid_alive(pid):
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                continue
            self.kills += 1
            self.stats.bump("watchdog.kill")
            try:
                os.remove(path)
            except OSError:
                pass


def _picklable(fn) -> bool:
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        return False


class EvalGrid:
    """Maps a worker function over grid points, preserving point order.

    ``point_timeout`` bounds each point's wall clock (None — the
    default — disables the bound; expiries count as transient failures
    and are retried).  ``point_retries`` is how many times a transient
    per-point failure is retried before it propagates;
    ``retry_backoff`` seeds the exponential backoff between attempts.

    The session's ``ledger`` (a :class:`~repro.driver.ledger.RunLedger`
    the CLI attaches for ``--run-id`` runs) checkpoints every resolved
    point; when it is None the grid runs unledgered.
    ``watchdog_timeout`` arms the hung-worker watchdog in process mode
    (seconds a single point may stay busy; None — the default —
    disarms it).
    """

    def __init__(
        self,
        session: Optional[CompileSession] = None,
        max_workers: Optional[int] = None,
        executor: str = "thread",
        point_timeout: Optional[float] = None,
        point_retries: int = 2,
        retry_backoff: float = 0.05,
        watchdog_timeout: Optional[float] = None,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; available: {EXECUTORS}"
            )
        self.session = session if session is not None else default_session()
        self.max_workers = max_workers
        self.executor = executor
        self.point_timeout = point_timeout
        self.point_retries = int(point_retries)
        self.retry_backoff = float(retry_backoff)
        self.watchdog_timeout = watchdog_timeout

    def _worker_count(self, points: int) -> int:
        if self.max_workers is not None:
            return max(1, min(self.max_workers, points))
        return max(1, min(os.cpu_count() or 1, points))

    def _resolve_executor(self, fn, points: int, workers: int) -> str:
        if self.executor != "auto":
            return self.executor
        # Process mode only pays off when there is real fan-out, the
        # workers can rendezvous on a shared disk cache, and the worker
        # function survives a pickle round-trip.
        if workers <= 1 or points <= 1:
            return "thread"
        if self.session.cache_dir is None:
            return "thread"
        if not _picklable(fn):
            return "thread"
        return "process"

    def map(
        self,
        fn: Callable[[CompileSession, Point], Result],
        points: Sequence[Point],
    ) -> List[Result]:
        """Run ``fn(session, point)`` for every point.

        Results come back in point order.  The first exception raised
        by a worker (in point order) propagates to the caller; pending
        points that have not started yet are cancelled rather than run
        to completion first.  Executor-level failures (a crashed worker
        process, a refused spawn, a watchdog kill) degrade the pool
        down the process → thread → serial ladder and re-run the sweep
        instead of propagating — with a ledger attached, the re-run
        skips every already-checkpointed point.  ``KeyboardInterrupt``
        propagates immediately.
        """
        points = list(points)
        ledger = self.session.ledger
        keys = (
            [point_key(fn, point) for point in points]
            if ledger is not None
            else None
        )
        results: List[Optional[Result]] = [None] * len(points)
        workers = self._worker_count(len(points))
        if workers <= 1 or len(points) <= 1:
            ladder: Tuple[str, ...] = ("serial",)
        else:
            mode = self._resolve_executor(fn, len(points), workers)
            ladder = (
                ("process", "thread", "serial")
                if mode == "process"
                else ("thread", "serial")
            )
        failure: Optional[_ExecutorFailure] = None
        for step, rung in enumerate(ladder):
            if step:
                self.session.stats.bump("degrade.executor")
                warnings.warn(
                    f"evaluation grid degraded {ladder[step - 1]} -> "
                    f"{rung} executor after: {failure.cause!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            # The checkpoint re-filter: resume on the first rung, requeue
            # on every later one — either way, recorded points are served
            # verbatim and only the remainder runs.
            if ledger is not None:
                pending = []
                for index in range(len(points)):
                    found, value = ledger.lookup(keys[index])
                    if found:
                        results[index] = value
                    else:
                        pending.append(index)
            else:
                pending = list(range(len(points)))
            if step and getattr(failure, "watchdog_kills", 0):
                self.session.stats.bump("watchdog.requeue", len(pending))
            if not pending:
                return results
            sub_points = [points[i] for i in pending]
            sub_keys = (
                [keys[i] for i in pending] if keys is not None else None
            )
            try:
                if rung == "serial":
                    sub_results = self._map_serial(fn, sub_points, sub_keys)
                else:
                    sub_results = self._map_pool(
                        rung, fn, sub_points, workers, sub_keys
                    )
            except _ExecutorFailure as error:
                failure = error
                continue
            for offset, index in enumerate(pending):
                results[index] = sub_results[offset]
            return results
        raise failure.cause  # unreachable: serial never raises this

    def _record_point(self, key, result) -> None:
        """Checkpoint one resolved point, then consult the crash site.

        The kill site sits *after* the record on purpose: a chaos kill
        here proves the checkpoint survived the death of the process
        that wrote it.
        """
        if key is not None:
            self.session.ledger.record(key, result)
        faults.kill_here("proc.kill.point", self.session.stats)

    # -- the three executor rungs ---------------------------------------

    def _map_serial(
        self, fn, points: Sequence[Point], keys=None
    ) -> List[Result]:
        stats = self.session.stats
        results: List[Result] = []
        for offset, point in enumerate(points):
            attempts = 0
            while True:
                try:
                    if faults.should_fire("worker.crash", stats):
                        raise faults.InjectedCrash(
                            "injected fault at worker.crash"
                        )
                    result = fn(self.session, point)
                    results.append(result)
                    self._record_point(keys[offset] if keys else None, result)
                    break
                except _TRANSIENT:
                    attempts += 1
                    if attempts > self.point_retries:
                        raise
                    stats.bump("retry.worker")
                    time.sleep(self.retry_backoff * (2 ** (attempts - 1)))
        return results

    def _map_pool(
        self, mode: str, fn, points: Sequence[Point], workers: int, keys=None
    ) -> List[Result]:
        stats = self.session.stats
        watchdog: Optional[_Watchdog] = None
        hb_dir: Optional[str] = None
        if mode == "process":
            try:
                faults.inject("worker.spawn", stats)
                pool = ProcessPoolExecutor(max_workers=workers)
            except OSError as error:
                raise _ExecutorFailure("process pool unavailable", error)
            if self.watchdog_timeout:
                hb_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")
                watchdog = _Watchdog(
                    hb_dir, self.watchdog_timeout, stats
                )
                watchdog.start()
            spec = self.session.spec()

            def submit(point):
                crash = faults.should_fire("worker.crash", stats)
                return pool.submit(
                    _process_point, spec, fn, point, time.time(), crash,
                    hb_dir,
                )

            def resolve(future):
                wait, result = future.result(self.point_timeout)
                stats.add_seconds("wait.pool_queue", wait)
                return result

        else:
            pool = ThreadPoolExecutor(max_workers=workers)

            def run_point(point, submitted, crash):
                stats.add_seconds(
                    "wait.pool_queue", max(0.0, time.time() - submitted)
                )
                if crash:
                    raise faults.InjectedCrash(
                        "injected fault at worker.crash"
                    )
                return fn(self.session, point)

            def submit(point):
                crash = faults.should_fire("worker.crash", stats)
                return pool.submit(run_point, point, time.time(), crash)

            def resolve(future):
                return future.result(self.point_timeout)

        try:
            with pool:
                futures = [submit(point) for point in points]
                results: List[Optional[Result]] = [None] * len(points)
                for index, point in enumerate(points):
                    attempts = 0
                    while True:
                        try:
                            results[index] = resolve(futures[index])
                            self._record_point(
                                keys[index] if keys else None,
                                results[index],
                            )
                            break
                        except BrokenProcessPool as error:
                            self._cancel(futures)
                            failure = _ExecutorFailure(
                                "worker process crashed", error
                            )
                            failure.watchdog_kills = (
                                watchdog.kills if watchdog else 0
                            )
                            raise failure
                        except _TRANSIENT as error:
                            attempts += 1
                            if attempts > self.point_retries:
                                self._cancel(futures)
                                raise
                            stats.bump("retry.worker")
                            time.sleep(
                                self.retry_backoff
                                * (2 ** (attempts - 1))
                            )
                            try:
                                futures[index] = submit(point)
                            except (
                                BrokenProcessPool, RuntimeError
                            ) as broken:
                                # The pool died between the failure
                                # and the resubmit: escalate down
                                # the ladder.
                                self._cancel(futures)
                                raise _ExecutorFailure(
                                    "pool lost during retry", broken
                                )
                        except BaseException:
                            # Genuine worker failure: prune the
                            # queue before the pool shutdown joins
                            # running workers — already-running
                            # futures finish, never-started ones
                            # are dropped.
                            self._cancel(futures)
                            raise
                return results
        finally:
            if watchdog is not None:
                watchdog.stop()
            if hb_dir is not None:
                shutil.rmtree(hb_dir, ignore_errors=True)

    @staticmethod
    def _cancel(futures) -> None:
        for future in futures:
            future.cancel()
