"""Per-run checkpoint ledger: completed grid points survive the process.

A SIGKILL mid-``repro all`` used to throw away every *completed* grid
point along with the in-flight one — the disk cache preserves stage
artifacts, but the evaluation layer re-walked the whole grid from
scratch.  The :class:`RunLedger` closes that gap: every resolved grid
point is checkpointed as it lands, and ``repro all --resume <run-id>``
replays the ledger so already-completed points are served verbatim
(bit-identical by construction — the recorded value *is* the result)
while only the missing remainder recomputes.

Layout, under ``<cache_root>/runs/<run-id>/``::

    ledger.jsonl        append-only manifest: one header line, then one
                        line per completed point (key, side file,
                        payload digest, sequence number)
    points/<key>.pkl    one pickled result value per completed point

Writes are crash-ordered: the side file is written and published
atomically (temp + ``os.replace``) *before* its manifest line is
appended, so every manifest line points at a complete side file.  A
crash mid-append leaves at most one torn final line, which replay
ignores — along with any side file its line never landed for (that
point recomputes; a dropped checkpoint degrades to a recompute, never
to a wrong result).  Each appended line is flushed (and fsynced, unless
``$REPRO_CACHE_FSYNC=0``) before the writing call returns.

Point identity: :func:`point_key` hashes the mapped function's identity
(module + qualname, with ``functools.partial`` unwrapped so bound
arguments count) together with ``repr(point)`` and
:data:`LEDGER_VERSION`.  Identity is deliberately *coarse* — it does
not hash the function's bytecode — so a resumed run after an editor
save still matches; the version constant is the knob to retire stale
ledgers when result shapes change.

Counters (on the session's ``CacheStats``): ``checkpoint.store`` per
point recorded, ``checkpoint.hit`` per point served from the ledger,
``checkpoint.miss`` per lookup that must compute, ``checkpoint.drain``
per graceful SIGINT/SIGTERM drain.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import signal
import tempfile
import threading
from typing import Callable, Dict, Iterator, Optional, Tuple

from .cache import fsync_fd

#: Ledger-format epoch; a ``--resume`` against a ledger from a
#: different epoch refuses loudly instead of replaying misshapen
#: results.
LEDGER_VERSION = 1

#: Subdirectory of the cache root that holds all run ledgers.
RUNS_DIRNAME = "runs"


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
    """Append-only checkpoint log of one named run.

    ``resume=False`` (a fresh run) requires the run directory to not
    already hold a ledger — silently appending to a stranger's run
    would corrupt both.  ``resume=True`` replays the existing manifest
    (tolerating a torn tail line) into memory, after which
    :meth:`lookup` serves recorded points without recomputation.
    """

    def __init__(self, cache_root: str, run_id: str, stats=None,
                 resume: bool = False):
        if not run_id or os.sep in run_id or run_id in (".", ".."):
            raise ValueError(f"invalid run id {run_id!r}")
        self.run_id = run_id
        self.dir = os.path.join(
            os.path.abspath(cache_root), RUNS_DIRNAME, run_id
        )
        self.points_dir = os.path.join(self.dir, "points")
        self.manifest_path = os.path.join(self.dir, "ledger.jsonl")
        self.stats = stats
        self._lock = threading.Lock()
        self._seq = 0
        self._recorded: Dict[str, str] = {}  # key -> payload sha256
        self._handle = None
        exists = os.path.exists(self.manifest_path)
        if exists and not resume:
            raise FileExistsError(
                f"run {run_id!r} already has a ledger at "
                f"{self.manifest_path}; pass --resume to continue it "
                "or pick a fresh --run-id"
            )
        os.makedirs(self.points_dir, exist_ok=True)
        if exists:
            self._replay()
        self._handle = open(self.manifest_path, "a", encoding="utf-8")
        if not exists:
            self._append_line({
                "type": "header",
                "version": LEDGER_VERSION,
                "run_id": run_id,
            })

    # -- internals -------------------------------------------------------

    def _bump(self, counter: str, amount: int = 1) -> None:
        if self.stats is not None:
            self.stats.bump(counter, amount)

    def _append_line(self, payload: Dict[str, object]) -> None:
        line = json.dumps(payload, sort_keys=True)
        self._handle.write(line + "\n")
        self._handle.flush()
        fsync_fd(self._handle.fileno())

    def _replay(self) -> None:
        """Load every intact manifest line; drop torn tails and lines
        whose side file is missing or damaged (those points recompute)."""
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return
        saw_header = False
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                entry = json.loads(raw)
            except ValueError:
                # A torn tail line from a killed writer — or garbage.
                # Either way: not a checkpoint.
                continue
            if not isinstance(entry, dict):
                continue
            if entry.get("type") == "header":
                if entry.get("version") != LEDGER_VERSION:
                    raise ValueError(
                        f"ledger {self.manifest_path} is version "
                        f"{entry.get('version')!r}; this build reads "
                        f"version {LEDGER_VERSION}"
                    )
                saw_header = True
                continue
            if entry.get("type") != "point":
                continue
            key = entry.get("key")
            digest = entry.get("sha256")
            if not isinstance(key, str) or not isinstance(digest, str):
                continue
            path = self._point_path(key)
            try:
                with open(path, "rb") as handle:
                    payload = handle.read()
            except OSError:
                continue
            if hashlib.sha256(payload).hexdigest() != digest:
                continue
            self._recorded[key] = digest
            self._seq = max(self._seq, int(entry.get("seq", 0)))
        if not saw_header:
            raise ValueError(
                f"ledger {self.manifest_path} has no intact header; "
                "refusing to resume from it"
            )

    def _point_path(self, key: str) -> str:
        return os.path.join(self.points_dir, f"{key}.pkl")

    # -- the checkpoint protocol ----------------------------------------

    def lookup(self, key: str) -> Tuple[bool, object]:
        """``(True, value)`` when ``key`` was completed by a previous
        (or this) process; ``(False, None)`` when it must compute."""
        with self._lock:
            known = key in self._recorded
        if not known:
            self._bump("checkpoint.miss")
            return False, None
        try:
            with open(self._point_path(key), "rb") as handle:
                value = pickle.loads(handle.read())
        except Exception:
            self._bump("checkpoint.miss")
            with self._lock:
                self._recorded.pop(key, None)
            return False, None
        self._bump("checkpoint.hit")
        return True, value

    def record(self, key: str, value) -> bool:
        """Checkpoint one completed point; False if unpicklable or the
        write failed (the run continues, that point just won't resume)."""
        try:
            payload = pickle.dumps(value, protocol=4)
        except Exception:
            return False
        digest = hashlib.sha256(payload).hexdigest()
        with self._lock:
            if key in self._recorded:
                return True
            try:
                fd, tmp = tempfile.mkstemp(
                    dir=self.points_dir, suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(payload)
                        handle.flush()
                        fsync_fd(handle.fileno())
                    os.replace(tmp, self._point_path(key))
                except BaseException:
                    try:
                        os.remove(tmp)
                    except OSError:
                        pass
                    raise
                self._seq += 1
                self._append_line({
                    "type": "point",
                    "key": key,
                    "sha256": digest,
                    "seq": self._seq,
                })
            except OSError:
                return False
            self._recorded[key] = digest
        self._bump("checkpoint.store")
        return True

    def flush(self) -> None:
        """Force the manifest to disk (drain paths call this)."""
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                try:
                    self._handle.flush()
                    fsync_fd(self._handle.fileno())
                except (OSError, ValueError):
                    pass

    def close(self) -> None:
        self.flush()
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._recorded)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._recorded

    def digest_map(self) -> Dict[str, str]:
        """key → payload sha256 for every recorded point."""
        with self._lock:
            return dict(self._recorded)

    @property
    def results_digest(self) -> str:
        """One order-independent digest over all recorded results —
        two runs that completed the same points with identical values
        agree on it, whatever order the points resolved in."""
        with self._lock:
            material = json.dumps(
                sorted(self._recorded.items()), sort_keys=True
            )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


class graceful_drain:
    """Context manager: SIGTERM behaves like Ctrl-C while active.

    ``repro`` commands running a ledgered grid wrap the evaluation in
    this, so a polite kill (systemd stop, CI timeout, ``kill <pid>``)
    takes the same path as a keyboard interrupt: the grid flushes the
    ledger and unwinds, and the CLI prints the resume hint.  Only
    SIGKILL skips the drain — which is exactly what attach-time
    temp-file reaping and ledger replay exist for.

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


def iter_run_ids(cache_root: str) -> Iterator[str]:
    """Run IDs with a ledger under ``cache_root`` (for diagnostics)."""
    base = os.path.join(os.path.abspath(cache_root), RUNS_DIRNAME)
    try:
        names = sorted(os.listdir(base))
    except OSError:
        return
    for name in names:
        if os.path.exists(os.path.join(base, name, "ledger.jsonl")):
            yield name
