"""Per-run checkpoints: completed grid points survive the process.

A SIGKILL mid-``repro all`` would otherwise throw away every
*completed* grid point along with the in-flight one — the disk cache
preserves stage artifacts, but the evaluation layer would re-walk the
whole grid.  The :class:`RunLedger` closes that gap: every resolved
grid point is checkpointed as it lands, and ``repro all --run-id NAME
--resume`` serves already-completed points verbatim (bit-identical by
construction — the recorded value *is* the result) while only the
missing remainder recomputes.

A checkpoint is an ordinary :class:`~repro.driver.cache.DiskCache`
entry in the run's own stage directory, keyed ``("run.<run-id>",
point_key)``.  It gets what every entry gets: a PID-stamped temp file,
two fsyncs and an atomic replace on write, a digest check on read,
reaping of a dead writer's temp file at attach, and ``repro fsck``.  A
checkpoint is durable once :meth:`RunLedger.record` returns, so there
is nothing to flush or close; a damaged one is deleted on read like any
corrupt entry, and its point recomputes.

Point identity: :func:`point_key` hashes the mapped function's identity
(module + qualname, with ``functools.partial`` unwrapped so bound
arguments count) together with ``repr(point)`` and
:data:`LEDGER_VERSION`.  Identity is deliberately *coarse* — it does
not hash the function's bytecode — so a resumed run after an editor
save still matches; the version constant is the knob to retire stale
checkpoints when result shapes change.

Counters (on the session's ``CacheStats``): ``checkpoint.store`` per
point recorded, ``checkpoint.hit`` per point served from a checkpoint,
``checkpoint.miss`` per lookup that must compute, ``checkpoint.drain``
per graceful SIGINT/SIGTERM drain.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import threading
from typing import Callable, Tuple

from .artifact import StageArtifact

#: Checkpoint epoch, part of every :func:`point_key`: a bump strands
#: every older checkpoint, whose points then miss and recompute.
LEDGER_VERSION = 1


def describe_fn(fn: Callable) -> str:
    """Stable, process-independent identity of a mapped function.

    ``functools.partial`` unwraps to its target plus the repr of its
    bound arguments, so two partials over the same function with
    different bindings get different identities (the grid maps partials
    routinely).
    """
    if isinstance(fn, functools.partial):
        keywords = sorted((fn.keywords or {}).items())
        return (
            f"partial({describe_fn(fn.func)}, args={fn.args!r}, "
            f"kwargs={keywords!r})"
        )
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", getattr(fn, "__name__", repr(fn)))
    return f"{module}:{qualname}"


def point_key(fn: Callable, point) -> str:
    """Content address of one (function, grid point) work item."""
    material = repr((LEDGER_VERSION, describe_fn(fn), repr(point)))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]


class RunLedger:
    """The checkpoints of one named run, kept in a ``DiskCache``.

    ``resume=False`` (a fresh run) refuses a run id that already holds
    checkpoints — silently adding to a stranger's run would mix two
    runs' results.  ``resume=True`` lets :meth:`lookup` serve the
    points that run recorded without recomputation.
    """

    def __init__(self, disk, run_id: str, resume: bool = False):
        if not run_id or os.sep in run_id or run_id in (".", ".."):
            raise ValueError(f"invalid run id {run_id!r}")
        self.disk = disk
        self.run_id = run_id
        self.stage = f"run.{run_id}"
        if not resume and disk.stage_headers(self.stage):
            raise FileExistsError(
                f"run {run_id!r} already has checkpoints in {disk.root}; "
                "pass --resume to continue it or pick a fresh --run-id"
            )

    def lookup(self, key: str) -> Tuple[bool, object]:
        """``(True, value)`` when ``key`` was completed by a previous
        (or this) process; ``(False, None)`` when it must compute."""
        artifact = self.disk.load((self.stage, key))
        if artifact is None:
            self.disk.stats.bump("checkpoint.miss")
            return False, None
        self.disk.stats.bump("checkpoint.hit")
        return True, artifact.value

    def record(self, key: str, value) -> bool:
        """Checkpoint one completed point; False if unpicklable or the
        write failed (the run continues, that point just won't resume).

        The artifact's own key is the point key alone, so the same
        points have the same payload digests under any run id.
        """
        stored = self.disk.store(
            (self.stage, key), StageArtifact("checkpoint", key, value, 0.0)
        )
        if stored:
            self.disk.stats.bump("checkpoint.store")
        return stored

    def __len__(self) -> int:
        return len(self.disk.stage_headers(self.stage))

    @property
    def results_digest(self) -> str:
        """One order-independent digest over all recorded results —
        two runs that completed the same points with identical values
        agree on it, whatever order the points resolved in and whatever
        their run ids."""
        material = json.dumps(
            sorted(header["sha256"]
                   for header in self.disk.stage_headers(self.stage))
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


class graceful_drain:
    """Context manager: SIGTERM behaves like Ctrl-C while active.

    ``repro`` commands running a ledgered grid wrap the evaluation in
    this, so a polite kill (systemd stop, CI timeout, ``kill <pid>``)
    takes the same path as a keyboard interrupt: the grid unwinds, and
    the CLI prints the resume hint.  Every completed point was
    checkpointed as it landed, so the drain has nothing to flush.  Only
    SIGKILL skips the drain, and it loses no more: the next attach
    reaps the killed writer's temp file, and ``--resume`` serves every
    checkpoint that landed.

    The previous SIGTERM disposition is restored on exit.  Bumps
    ``checkpoint.drain`` on the stats object each time a drain signal
    actually arrives.  No-ops quietly off the main thread, where signal
    handlers cannot be installed.
    """

    def __init__(self, stats=None):
        self.stats = stats
        self._previous = None
        self.drained = False

    def _handler(self, signum, frame):
        self.drained = True
        if self.stats is not None:
            self.stats.bump("checkpoint.drain")
        raise KeyboardInterrupt(f"drain on signal {signum}")

    def __enter__(self) -> "graceful_drain":
        if threading.current_thread() is threading.main_thread():
            try:
                self._previous = signal.signal(
                    signal.SIGTERM, self._handler
                )
            except (ValueError, OSError):
                self._previous = None
        return self

    def __exit__(self, *exc) -> None:
        if self._previous is not None:
            try:
                signal.signal(signal.SIGTERM, self._previous)
            except (ValueError, OSError):
                pass
            self._previous = None
