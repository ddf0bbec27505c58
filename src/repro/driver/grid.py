"""Parallel evaluation grid over a shared :class:`CompileSession`.

Tables and figures sweep a design over a grid of points (FloPoCo
frequency goals, Aetherling parallelisms, …).  :class:`EvalGrid` fans
the points out over a thread pool whose workers share the session and
its in-memory cache; the session's single-flight artifact cache
guarantees each distinct ``(component, binding, registry)`` is
elaborated exactly once no matter how workers interleave, so results
are deterministic and independent of the worker count.  With one
worker, or one point to run, the grid runs a plain loop instead.

Failures: the first exception a worker raises, in point order,
propagates to the caller, and the points no worker has started yet are
cancelled instead of draining the whole pool first.  Nothing is
retried.  A point has no wall-clock bound, so a hung worker hangs the
sweep.

Checkpointing (:mod:`repro.driver.ledger`): when the session carries
a :class:`~repro.driver.ledger.RunLedger`, the grid first filters the
point list against the checkpoints, serving every recorded point
verbatim (``checkpoint.hit``), and checkpoints every point it resolves
under its :func:`~repro.driver.ledger.point_key` as it lands — a
disk-cache entry, durable once recorded.  That one mechanism is both
resume and crash recovery: a ``--resume`` run skips previously
completed points, and a SIGKILLed process leaves checkpoints the next
one picks up.  A resumed grid is bit-identical to an uninterrupted one
by construction.  ``KeyboardInterrupt`` (and SIGTERM, via
:class:`~repro.driver.ledger.graceful_drain`) propagates immediately.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from . import faults
from .ledger import point_key
from .session import CompileSession, default_session

Point = TypeVar("Point")
Result = TypeVar("Result")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (so ``taskset -c 0`` counts one), else the
    machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class EvalGrid:
    """Maps a worker function over grid points, preserving point order.

    ``max_workers`` caps the thread pool (None — the default — means
    the CPUs this process may run on, :func:`usable_cpus`); a sweep
    never gets more workers than points.  The session's ``ledger`` (a
    :class:`~repro.driver.ledger.RunLedger` the CLI attaches for
    ``--run-id`` runs) checkpoints every resolved point; when it is
    None the grid runs unledgered.
    """

    def __init__(
        self,
        session: Optional[CompileSession] = None,
        max_workers: Optional[int] = None,
    ):
        self.session = session if session is not None else default_session()
        self.max_workers = max_workers

    def _worker_count(self, points: int) -> int:
        cap = usable_cpus() if self.max_workers is None else self.max_workers
        return max(1, min(cap, points))

    def map(
        self,
        fn: Callable[[CompileSession, Point], Result],
        points: Sequence[Point],
    ) -> List[Result]:
        """Run ``fn(session, point)`` for every point.

        Results come back in point order; with a ledger attached,
        checkpointed points are served from it and only the rest run.
        The first exception raised by a worker (in point order)
        propagates to the caller; pending points that have not started
        yet are cancelled rather than run to completion first.
        """
        points = list(points)
        ledger = self.session.ledger
        results: List[Optional[Result]] = [None] * len(points)
        pending = []
        keys = []
        for index, point in enumerate(points):
            key = None
            if ledger is not None:
                key = point_key(fn, point)
                found, value = ledger.lookup(key)
                if found:
                    results[index] = value
                    continue
            pending.append(index)
            keys.append(key)
        workers = self._worker_count(len(pending))
        if workers == 1:
            for index, key in zip(pending, keys):
                results[index] = fn(self.session, points[index])
                self._record_point(key, results[index])
            return results

        stats = self.session.stats

        def run_point(point, submitted):
            stats.add_seconds(
                "wait.pool_queue", time.perf_counter() - submitted
            )
            return fn(self.session, point)

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [
                pool.submit(run_point, points[index], time.perf_counter())
                for index in pending
            ]
            for index, key, future in zip(pending, keys, futures):
                results[index] = future.result()
                self._record_point(key, results[index])
        finally:
            # On a failure, points no worker has started are dropped;
            # the running ones finish before the failure propagates.
            pool.shutdown(wait=True, cancel_futures=True)
        return results

    def _record_point(self, key: Optional[str], result) -> None:
        """Checkpoint one resolved point, then consult the crash site.

        The kill site sits *after* the record on purpose: a chaos kill
        here proves the checkpoint survived the death of the process
        that wrote it.
        """
        if key is not None:
            self.session.ledger.record(key, result)
        faults.kill_here("proc.kill.point", self.session.stats)
