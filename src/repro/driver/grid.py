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

Fault tolerance (the degradation ladder *process → thread → serial*):
a worker-process crash (:class:`BrokenProcessPool` — real, or injected
via the ``worker.crash`` fault site, which in process mode kills the
worker with ``os._exit``) or a failed pool spawn (``worker.spawn``)
no longer cancels the run.  The grid re-runs the sweep one rung down
the ladder — every rung produces bit-identical results, the in-memory
and disk caches make re-visiting completed points cheap — warning once
and bumping ``degrade.executor``.  On the thread and serial rungs an
injected ``worker.crash`` raises
:class:`~repro.driver.faults.InjectedCrash` instead, the one per-point
failure retried in place: up to :data:`POINT_RETRY_LIMIT` times with
exponential backoff (``retry.worker`` counter).  Every other worker
exception is genuine: the first failure in point order propagates and
outstanding points are cancelled.  A point has no wall-clock bound, so
a hung worker hangs the sweep.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from . import faults
from .ledger import point_key
from .session import CompileSession, default_session

Point = TypeVar("Point")
Result = TypeVar("Result")

EXECUTORS = ("thread", "process", "auto")

#: Per-point retry policy: an injected worker crash surfacing as an
#: exception is retried in place (never escalated to a different
#: executor) this many times, with exponential backoff, before it
#: propagates.
POINT_RETRY_LIMIT = 2
POINT_RETRY_BACKOFF_SECONDS = 0.05

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


def _process_point(spec: Dict[str, object], fn, point, submitted=None,
                   crash: bool = False):
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
    degradation ladder exists for.
    """
    if crash:
        os._exit(13)
    wait = 0.0 if submitted is None else max(0.0, time.time() - submitted)
    return wait, fn(_worker_session(spec), point)


def _picklable(fn) -> bool:
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        return False


class EvalGrid:
    """Maps a worker function over grid points, preserving point order.

    ``max_workers`` caps the pool (None — the default — means the CPU
    count); a sweep never gets more workers than points.  ``executor``
    is one of :data:`EXECUTORS` (see the module docstring).  The
    session's ``ledger`` (a :class:`~repro.driver.ledger.RunLedger` the
    CLI attaches for ``--run-id`` runs) checkpoints every resolved
    point; when it is None the grid runs unledgered.
    """

    def __init__(
        self,
        session: Optional[CompileSession] = None,
        max_workers: Optional[int] = None,
        executor: str = "thread",
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; available: {EXECUTORS}"
            )
        self.session = session if session is not None else default_session()
        self.max_workers = max_workers
        self.executor = executor

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
        process, a refused spawn) degrade the pool down the process →
        thread → serial ladder and re-run the sweep instead of
        propagating — with a ledger attached, the re-run skips every
        already-checkpointed point.  ``KeyboardInterrupt`` propagates
        immediately.
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
                except faults.InjectedCrash:
                    attempts += 1
                    if attempts > POINT_RETRY_LIMIT:
                        raise
                    stats.bump("retry.worker")
                    time.sleep(
                        POINT_RETRY_BACKOFF_SECONDS * (2 ** (attempts - 1))
                    )
        return results

    def _map_pool(
        self, mode: str, fn, points: Sequence[Point], workers: int, keys=None
    ) -> List[Result]:
        stats = self.session.stats
        if mode == "process":
            try:
                faults.inject("worker.spawn", stats)
                pool = ProcessPoolExecutor(max_workers=workers)
            except OSError as error:
                raise _ExecutorFailure("process pool unavailable", error)
            spec = self.session.spec()

            def submit(point):
                crash = faults.should_fire("worker.crash", stats)
                return pool.submit(
                    _process_point, spec, fn, point, time.time(), crash
                )

            def resolve(future):
                wait, result = future.result()
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
                return future.result()

        with pool:
            futures = [submit(point) for point in points]
            results: List[Optional[Result]] = [None] * len(points)
            for index, point in enumerate(points):
                attempts = 0
                while True:
                    try:
                        results[index] = resolve(futures[index])
                        self._record_point(
                            keys[index] if keys else None, results[index]
                        )
                        break
                    except BrokenProcessPool as error:
                        self._cancel(futures)
                        raise _ExecutorFailure(
                            "worker process crashed", error
                        )
                    except faults.InjectedCrash:
                        attempts += 1
                        if attempts > POINT_RETRY_LIMIT:
                            self._cancel(futures)
                            raise
                        stats.bump("retry.worker")
                        time.sleep(
                            POINT_RETRY_BACKOFF_SECONDS * (2 ** (attempts - 1))
                        )
                        try:
                            futures[index] = submit(point)
                        except (BrokenProcessPool, RuntimeError) as broken:
                            # The pool died between the failure and the
                            # resubmit: escalate down the ladder.
                            self._cancel(futures)
                            raise _ExecutorFailure(
                                "pool lost during retry", broken
                            )
                    except BaseException:
                        # Genuine worker failure: prune the queue
                        # before the pool shutdown joins running
                        # workers — already-running futures finish,
                        # never-started ones are dropped.
                        self._cancel(futures)
                        raise
            return results

    @staticmethod
    def _cancel(futures) -> None:
        for future in futures:
            future.cancel()
