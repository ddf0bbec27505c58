"""Content-addressed artifact cache: in-memory single-flight, plus an
optional persistent on-disk layer.

Keys are value-based: a source text is identified by its SHA-256 digest,
a parameter binding by its frozen item tuple, and a generator registry by
its configuration fingerprint — so two independently constructed but
identically configured requests share one artifact.  The cache is safe
under the :class:`repro.driver.EvalGrid`'s thread pool: concurrent
requests for the same key block on a per-key lock and all but the first
are served the first computation's artifact (counted as hits).

The disk layer (:class:`DiskCache`) sits *under* the in-memory cache: a
memory miss consults the cache directory before computing, and every
fresh computation is written back, so a second process over the same
sources is served warm.  Entries are content-addressed files — a JSON
header carrying a schema version and an integrity digest, followed by a
pickled :class:`StageArtifact` — and every fingerprint that feeds a key
is value-based (no ``id()``, no memory addresses), which is what makes
keys stable across processes.  Corrupt, truncated, or schema-mismatched
entries are deleted and treated as misses, never served.
"""

from __future__ import annotations

import copy
import errno
import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import faults
from .artifact import StageArtifact

#: The disk format's epoch.  Bump whenever old entries must not survive
#: the current code: artifact values or key composition changing shape,
#: or a *stage's semantics* changing without its own fingerprint in the
#: key (pass pipelines carry ``Pass.version``, simulate keys carry the
#: backend's ``name@version`` — anything else rides on this constant).
#: Readers reject (and delete) entries from any other schema, so a
#: stale cache degrades to cold, never to wrong.
#:
#: v2: simulate keys gained a lane count and ``SimTrace`` gained the
#: ``lanes`` attribute (multi-lane batched simulation).
#:
#: v3: new ``"smt"`` pseudo-stage (persistent obligation verdicts keyed
#: ``(digest, SOLVER_VERSION)`` — see :class:`PseudoStore`), and SMT
#: terms inside pickled typecheck artifacts became hash-consed (their
#: pickle shape re-enters the intern table via ``__reduce__``).
#:
#: v4: new ``"tuner"`` pseudo-stage (persistent backend calibration
#: profiles for the measured ``auto`` tuner), and ``"codegen"`` keys
#: gained a backend tag now that three generators (scalar/SWAR/vector)
#: share the stage.
#:
#: v5: new ``"profile"`` pseudo-stage (persistent per-net activity
#: profiles keyed ``(structural_hash, PROFILE_VERSION)``),
#: ``optimize``/``simulate`` keys distinguish the profile-guided
#: ``-O3`` pipeline, and ``CODEGEN_VERSION`` → 3 (payloads gained
#: ``extra_slots``/``inlined_nets``).
#:
#: v6: the ``"profile"`` pseudo-stage is gone, and ``optimize``/
#: ``simulate`` keys no longer have an ``-O3`` shape (simulate keys
#: dropped the explicit level; the pipeline fingerprint separates
#: ``-O0``/``-O1``/``-O2``).
#:
#: Still v6 after the ``"tuner"`` pseudo-stage and the ``vector-numpy``
#: / ``vector-stdlib`` codegen tags went away: no key looks them up any
#: more (vector kernels are stored under the ``"vector"`` tag), so old
#: entries are dead weight the size bound trims, not a hazard, and
#: they stay digest-valid for ``repro fsck``.  The same holds for the
#: ``elaborate``/``optimize``/``simulate``/``emit_verilog``/``synthesize``
#: entries whose keys still carry the retired session ``verify`` flag.
SCHEMA_VERSION = 6

#: Soft size bound for a cache root, in bytes; the oldest entries are
#: trimmed at attach time once the tree exceeds it.  Overridable via
#: ``$REPRO_CACHE_MAX_MB`` (0 disables trimming).
DEFAULT_MAX_BYTES = 2 * 1024 * 1024 * 1024

#: Disk I/O retry policy: transient errors (EIO-class, including every
#: injected ``disk.*`` fault in its default mode) are retried this many
#: times with exponential backoff before the operation degrades to a
#: miss (reads) or a dropped write-back (writes).
DISK_RETRY_LIMIT = 3
DISK_RETRY_BACKOFF_SECONDS = 0.005

#: Unstamped ``.tmp`` files (written by earlier versions, whose temp
#: names carry no writer PID) younger than this may be *live writers*
#: as far as :meth:`DiskCache._trim` and ``repro fsck`` are concerned:
#: they count toward the size bound but are never reaped.  Older ones
#: are orphans from writers that died mid-store.
TMP_REAP_AGE_SECONDS = 3600.0

#: ``$REPRO_CACHE_FSYNC=0`` turns every fsync in the store into a no-op.
FSYNC_ENV = "REPRO_CACHE_FSYNC"

#: errnos that mean "retry might work" vs "this root is done for":
#: a full or read-only cache directory cannot heal within a run, so
#: those degrade the disk layer to memory-only mode instead of burning
#: retries on every later operation.
_TRANSIENT_ERRNOS = frozenset(
    {errno.EIO, errno.EAGAIN, errno.EINTR, errno.EBUSY, errno.ETIMEDOUT}
)
_DEGRADE_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EROFS, errno.EACCES, errno.EPERM, errno.EDQUOT}
)


def fsync_enabled() -> bool:
    """Whether the store pays for real ``fsync`` calls (default: yes)."""
    return os.environ.get(FSYNC_ENV, "1") != "0"


def fsync_fd(fd: int) -> None:
    if fsync_enabled():
        os.fsync(fd)


def fsync_dir(path: str) -> None:
    """Flush a directory's entry table (the rename/replace itself)."""
    if not fsync_enabled():
        return
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0; EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def tmp_writer_pid(name: str) -> Optional[int]:
    """The writer PID stamped into a store temp file's name
    (``<entry>.pkl.<pid>.<random>.tmp``), or None for any other name —
    notably the unstamped ``tmp<random>.tmp`` of earlier versions."""
    parts = name.split(".")
    if (len(parts) != 5 or parts[1] != "pkl" or parts[4] != "tmp"
            or not parts[2].isdecimal()):
        return None
    return int(parts[2])


def split_entry(data: bytes) -> Tuple[dict, bytes]:
    """``(header, payload)`` of raw entry bytes whose payload matches
    the header's digest.  Raises ValueError naming the first failure:
    ``"unparseable header"`` or ``"payload digest mismatch"``.  Whether
    the header's schema and key fit the entry's path is the caller's
    concern."""
    header_line, _, payload = data.partition(b"\n")
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (ValueError, RecursionError):
        header = None
    if not isinstance(header, dict):
        raise ValueError("unparseable header")
    if header.get("sha256") != hashlib.sha256(payload).hexdigest():
        raise ValueError("payload digest mismatch")
    return header, payload


def source_digest(source: str) -> str:
    """Stable content address of a Lilac source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def _freeze_value(value) -> object:
    """One parameter value in canonical, collision-free form.

    ``bool`` is a subclass of ``int``, so ``int(True) == 1`` would fold
    ``True`` and ``1`` into one cache-key spelling — distinct bindings
    silently sharing artifacts.  Bools therefore get their own tag.
    """
    if isinstance(value, bool):
        return ("bool", value)
    return int(value)


def freeze_params(params: Union[Dict[str, int], Sequence[int], None]) -> Tuple:
    """Canonical hashable form of a parameter binding.

    Dict bindings are order-insensitive; positional bindings keep their
    order (the signature defines it).  The two spellings are distinct
    keys by design — mapping positions to names would require the parsed
    signature, which the cache deliberately knows nothing about.
    """
    if params is None:
        return ("kw",)
    if isinstance(params, dict):
        return ("kw",) + tuple(
            sorted((k, _freeze_value(v)) for k, v in params.items())
        )
    return ("pos",) + tuple(_freeze_value(v) for v in params)


class CacheStats:
    """Hit/miss counters per stage plus free-form work counters and
    wall-time attribution timers.

    Timers are the substrate of the whole-run profiler
    (:mod:`repro.driver.profiler`): every instrumented wait or compute
    site accumulates seconds under a dotted name — ``compute.<stage>``
    for stage computations, ``wait.disk_read`` / ``wait.disk_write``
    for disk-cache I/O, ``wait.cache_lock`` for time blocked behind
    another thread's single-flight computation, ``wait.pool_queue`` for
    grid points sitting unstarted in the grid's thread-pool queue.
    Nested sites both record (a stage computation that reads the disk
    counts under both names), so timers attribute wall time by *site*,
    they do not partition it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}

    def record_hit(self, stage: str) -> None:
        with self._lock:
            self.hits[stage] = self.hits.get(stage, 0) + 1

    def record_miss(self, stage: str) -> None:
        with self._lock:
            self.misses[stage] = self.misses.get(stage, 0) + 1

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def add_seconds(self, timer: str, seconds: float) -> None:
        with self._lock:
            self.timers[timer] = self.timers.get(timer, 0.0) + seconds

    def seconds(self, timer: str) -> float:
        with self._lock:
            return self.timers.get(timer, 0.0)

    def hit_count(self, stage: str = None) -> int:
        with self._lock:
            if stage is None:
                return sum(self.hits.values())
            return self.hits.get(stage, 0)

    def miss_count(self, stage: str = None) -> int:
        with self._lock:
            if stage is None:
                return sum(self.misses.values())
            return self.misses.get(stage, 0)

    def counter(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            return {
                "hits": dict(self.hits),
                "misses": dict(self.misses),
                "counters": dict(self.counters),
                "timers": dict(self.timers),
            }

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Add another stats object's :meth:`snapshot` (say, one taken
        in a helper process) into these counts and timers."""
        with self._lock:
            for field in ("hits", "misses", "counters", "timers"):
                totals = getattr(self, field)
                for name, value in snapshot[field].items():
                    totals[name] = totals.get(name, 0) + value

    def render(self) -> str:
        snap = self.snapshot()
        stages = sorted(set(snap["hits"]) | set(snap["misses"]))
        lines = ["cache statistics:"]
        for stage in stages:
            hits = snap["hits"].get(stage, 0)
            misses = snap["misses"].get(stage, 0)
            lines.append(f"  {stage:12s} {hits:4d} hits  {misses:4d} misses")
        for name, value in sorted(snap["counters"].items()):
            lines.append(f"  {name}: {value}")
        for name, value in sorted(snap["timers"].items()):
            lines.append(f"  {name}: {value:.3f}s")
        return "\n".join(lines)


class DiskCache:
    """Persistent, content-addressed artifact store under one directory.

    Layout: ``<root>/v<schema>/<stage>/<sha256-of-key>.pkl``.  Each entry
    is one JSON header line — schema version, stage, the key's repr, and
    the SHA-256 of the payload — followed by the pickled artifact.  The
    schema version appears both in the path (so a bump strands old
    entries where a ``rm -rf`` of the versioned subtree reclaims them)
    and in the header (so a hand-moved file still can't cross versions).

    Writes are atomic (temp file + ``os.replace``), which is all the
    cross-process coordination needed: concurrent writers of the same
    key write identical content, and readers only ever observe complete
    files.  Load failures of any kind — bad header, wrong schema, digest
    mismatch, unpicklable payload — delete the entry and report a miss.

    Fault tolerance: transient I/O errors (EIO-class) are retried up to
    :data:`DISK_RETRY_LIMIT` times with exponential backoff
    (``retry.disk.read`` / ``retry.disk.write`` counters); exhausted
    retries degrade the single operation to a miss or dropped write.
    Unrecoverable roots — ENOSPC, read-only filesystems, permission
    loss — flip the whole layer into *memory-only mode*: a one-way
    degradation (``degrade.disk`` counter, one warning) after which
    every load is a miss and every store a no-op, so a full disk slows
    the pipeline down instead of failing it.

    Crash consistency: a store writes a temp file in the entry's own
    directory, named ``<entry>.pkl.<pid>.<random>.tmp``, fsyncs it,
    moves it over the entry with ``os.replace`` and fsyncs the
    directory.  The replace is atomic and every reader checks the
    entry's digest, so a SIGKILLed — or power-lost — writer leaves at
    most its temp file, whose name says which process wrote it.
    Attaching a cache unlinks every temp file stamped with a dead PID
    (``disk.reaped``), so the store ends exactly as consistent as a
    clean shutdown would have left it; ``repro fsck`` runs the same
    classification offline.  ``$REPRO_CACHE_FSYNC=0`` skips the two
    fsyncs (kill-safety needs only the atomic replace; power-loss
    durability needs the syncs).
    """

    def __init__(
        self,
        root: Optional[str] = None,
        stats: CacheStats = None,
        max_bytes: Optional[int] = None,
    ):
        self.root = os.path.abspath(root or self.default_root())
        self.stats = stats or CacheStats()
        self._degraded = False
        self._degrade_lock = threading.Lock()
        if max_bytes is None:
            override = os.environ.get("REPRO_CACHE_MAX_MB")
            if override is not None:
                try:
                    max_bytes = int(override) * 1024 * 1024
                except ValueError:
                    max_bytes = DEFAULT_MAX_BYTES
            else:
                max_bytes = DEFAULT_MAX_BYTES
        self.max_bytes = max_bytes
        self._trim()

    @staticmethod
    def default_root() -> str:
        """``$REPRO_CACHE_DIR`` → ``$XDG_CACHE_HOME/repro-lilac`` →
        ``~/.cache/repro-lilac``."""
        explicit = os.environ.get("REPRO_CACHE_DIR")
        if explicit:
            return explicit
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
        return os.path.join(base, "repro-lilac")

    def _entry_path(self, key: Tuple) -> str:
        stage = str(key[0])
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return os.path.join(
            self.root, f"v{SCHEMA_VERSION}", stage, f"{digest}.pkl"
        )

    @property
    def degraded(self) -> bool:
        """True once the layer has dropped to memory-only mode."""
        return self._degraded

    def _degrade(self, error: OSError) -> None:
        """One-way drop to memory-only mode (full/read-only root)."""
        with self._degrade_lock:
            if self._degraded:
                return
            self._degraded = True
        self.stats.bump("degrade.disk")
        warnings.warn(
            f"disk cache at {self.root} degraded to memory-only mode: "
            f"{error}",
            RuntimeWarning,
            stacklevel=3,
        )

    @staticmethod
    def _is_fatal(error: OSError) -> bool:
        return error.errno in _DEGRADE_ERRNOS

    def load(self, key: Tuple) -> Optional[StageArtifact]:
        """The artifact stored for ``key``, or None (miss/corrupt)."""
        if self._degraded:
            return None
        started = time.perf_counter()
        try:
            return self._load(key)
        finally:
            self.stats.add_seconds(
                "wait.disk_read", time.perf_counter() - started
            )

    def _read_entry(self, path: str) -> Optional[bytes]:
        """Raw entry bytes, retrying transient I/O errors; None on a
        plain miss, on exhausted retries, or once the root degrades."""
        for attempt in range(DISK_RETRY_LIMIT):
            try:
                faults.inject("disk.read", self.stats)
                with open(path, "rb") as handle:
                    return handle.read()
            except FileNotFoundError:
                return None
            except OSError as error:
                if self._is_fatal(error):
                    self._degrade(error)
                    return None
                if attempt + 1 >= DISK_RETRY_LIMIT:
                    self.stats.bump("disk.read_error")
                    return None
                self.stats.bump("retry.disk.read")
                time.sleep(DISK_RETRY_BACKOFF_SECONDS * (2 ** attempt))
        return None

    def _load(self, key: Tuple) -> Optional[StageArtifact]:
        path = self._entry_path(key)
        data = self._read_entry(path)
        if data is None:
            return None
        try:
            header, payload = split_entry(data)
            if header.get("schema") != SCHEMA_VERSION:
                raise ValueError("schema version mismatch")
            if header.get("key") != repr(key):
                raise ValueError("key collision or renamed entry")
            faults.inject("pickle.load", self.stats)
            artifact = pickle.loads(payload)
            if not isinstance(artifact, StageArtifact):
                raise ValueError("payload is not a StageArtifact")
            return artifact
        except Exception:
            # Integrity failure: drop the entry so it cannot keep
            # poisoning this key, and treat the lookup as a miss.
            self.stats.bump("disk.corrupt")
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def store(self, key: Tuple, artifact: StageArtifact) -> bool:
        """Persist ``artifact`` under ``key``; False if unpicklable."""
        if self._degraded:
            return False
        started = time.perf_counter()
        try:
            return self._store(key, artifact)
        finally:
            self.stats.add_seconds(
                "wait.disk_write", time.perf_counter() - started
            )

    def _write_entry(self, path: str, header: bytes, payload: bytes) -> None:
        """One atomic write attempt (may raise OSError).

        The temp file is written and fsynced in the entry's directory
        under a name stamped with this process's PID, moved over the
        entry with ``os.replace``, and the directory is fsynced.  The
        two ``proc.kill.write`` consultations bracket the replace: the
        first dies leaving the stamped temp file, the second leaving
        the published entry.
        """
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        faults.inject("disk.write", self.stats)
        fd, tmp_path = tempfile.mkstemp(
            dir=directory,
            prefix=f"{os.path.basename(path)}.{os.getpid()}.",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                handle.write(b"\n")
                handle.write(payload)
                handle.flush()
                fsync_fd(handle.fileno())
            faults.kill_here("proc.kill.write", self.stats)
            faults.inject("disk.replace", self.stats)
            os.replace(tmp_path, path)
            fsync_dir(directory)
            faults.kill_here("proc.kill.write", self.stats)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise

    def _store(self, key: Tuple, artifact: StageArtifact) -> bool:
        try:
            payload = pickle.dumps(artifact, protocol=4)
        except Exception:
            self.stats.bump("disk.unpicklable")
            return False
        header = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "stage": str(key[0]),
                "key": repr(key),
                "sha256": hashlib.sha256(payload).hexdigest(),
                "size": len(payload),
            },
            sort_keys=True,
        ).encode("utf-8")
        path = self._entry_path(key)
        for attempt in range(DISK_RETRY_LIMIT):
            try:
                self._write_entry(path, header, payload)
                self.stats.bump("disk.write")
                return True
            except OSError as error:
                if self._is_fatal(error):
                    # A full or read-only cache root can't heal within
                    # this run: drop the whole layer to memory-only
                    # mode rather than failing the compilation (or
                    # paying retries on every later write).
                    self._degrade(error)
                    return False
                if attempt + 1 >= DISK_RETRY_LIMIT:
                    self.stats.bump("disk.write_error")
                    return False
                self.stats.bump("retry.disk.write")
                time.sleep(DISK_RETRY_BACKOFF_SECONDS * (2 ** attempt))
        return False

    def entry_count(self) -> int:
        """Entries currently on disk for the active schema version."""
        count = 0
        base = os.path.join(self.root, f"v{SCHEMA_VERSION}")
        for _, _, files in os.walk(base):
            count += sum(1 for f in files if f.endswith(".pkl"))
        return count

    def stage_headers(self, stage: str) -> List[dict]:
        """The headers of ``stage``'s entries, in no particular order.

        Reads each entry's header line only: the payload digest it
        carries is checked when the entry is loaded.  An entry whose
        header does not parse is left out, as a load would miss it.
        """
        directory = os.path.join(self.root, f"v{SCHEMA_VERSION}", stage)
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        headers = []
        for name in names:
            if not name.endswith(".pkl"):
                continue
            try:
                with open(os.path.join(directory, name), "rb") as handle:
                    header = json.loads(handle.readline().decode("utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(header, dict) and "sha256" in header:
                headers.append(header)
        return headers

    def _trim(self) -> None:
        """Reap dead writers' temp files, then evict the oldest entries
        (by mtime) until the tree is under ``max_bytes``.

        Runs once when the cache is attached.  A temp file stamped with
        a dead PID is unlinked whatever the bound (``disk.reaped``): its
        writer died between ``mkstemp`` and ``os.replace``.  A live
        PID's temp file is never touched, however old (a writer stalled
        behind a slow pickle is still a writer), and an unstamped one
        only once it ages past :data:`TMP_REAP_AGE_SECONDS`.  Eviction
        bounds the default-on CLI cache: steady-state iteration on
        changing sources accretes dead content digests forever
        otherwise.  Every schema subtree counts toward the bound (stale
        schemas are pure waste, so they are the first candidates by
        age).
        """
        entries = []
        total = 0
        reaped = 0
        now = time.time()
        for directory, _, files in os.walk(self.root):
            for name in files:
                if not name.endswith((".pkl", ".tmp")):
                    continue
                path = os.path.join(directory, name)
                pid = tmp_writer_pid(name)
                if pid is not None and not pid_alive(pid):
                    try:
                        os.remove(path)
                        reaped += 1
                    except OSError:
                        pass
                    continue
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                total += info.st_size
                if name.endswith(".tmp") and (
                    pid is not None
                    or now - info.st_mtime < TMP_REAP_AGE_SECONDS
                ):
                    continue
                entries.append((info.st_mtime, info.st_size, path))
        if reaped:
            self.stats.bump("disk.reaped", reaped)
        if not self.max_bytes or total <= self.max_bytes:
            return
        removed = 0
        for _, size, path in sorted(entries):
            if total <= self.max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            removed += 1
        if removed:
            self.stats.bump("disk.trimmed", removed)


class PseudoStore:
    """One pseudo-stage of a :class:`DiskCache`: payloads that are not a
    pipeline stage's artifacts, keyed ``(stage, *parts, version)``.

    The session builds two, and every process that reaches an equal key
    shares one payload:

    * ``"codegen"`` — generated simulation programs (source plus slot
      layout) of the one compile path of all three generators, ``parts``
      ``(structural_hash, backend, lanes)`` under ``CODEGEN_VERSION``.
      A warm process skips levelization and generation and only pays
      ``compile()`` + ``exec()``.
    * ``"smt"`` — obligation verdicts (status plus the SAT model in
      canonical variable names, see :mod:`repro.smt.canon`), ``parts``
      ``(obligation_digest,)`` under ``SOLVER_VERSION``.  A warm
      ``repro all`` skips the solver entirely; its Figure 8 helper
      process saves the verdicts it solves here.

    ``valid(payload, *parts)`` is applied on load, before counting, so a
    ``<stage>.disk_hit`` means a usable payload and a shape-invalid one
    is a ``<stage>.disk_miss``; ``<stage>.store`` counts write-backs.
    Corrupt entries are deleted by the :class:`DiskCache` like any other.
    """

    def __init__(self, disk: DiskCache, stage: str, version,
                 valid: Callable[..., bool]):
        self.disk = disk
        self.stage = stage
        self.version = version
        self.valid = valid

    def key(self, *parts) -> Tuple:
        return (self.stage, *parts, self.version)

    def load(self, *parts):
        """The stored payload for ``parts`` if it is valid, else None."""
        artifact = self.disk.load(self.key(*parts))
        if artifact is None or not self.valid(artifact.value, *parts):
            self.disk.stats.bump(f"{self.stage}.disk_miss")
            return None
        self.disk.stats.bump(f"{self.stage}.disk_hit")
        return artifact.value

    def save(self, payload, *parts) -> bool:
        key = self.key(*parts)
        stored = self.disk.store(
            key, StageArtifact(self.stage, key, payload, 0.0)
        )
        if stored:
            self.disk.stats.bump(f"{self.stage}.store")
        return stored


class ArtifactCache:
    """Keyed store of :class:`StageArtifact` with single-flight compute.

    With a :class:`DiskCache` attached, a memory miss falls through to
    disk (still under the per-key single-flight lock, so one thread does
    the I/O) and fresh computations are written back for the next
    process.
    """

    def __init__(self, stats: CacheStats = None, disk: Optional[DiskCache] = None):
        self.stats = stats or CacheStats()
        self.disk = disk
        if disk is not None:
            # Route the disk layer's counters into this cache's stats.
            disk.stats = self.stats
        self._mutex = threading.Lock()
        self._artifacts: Dict[Tuple, StageArtifact] = {}
        self._key_locks: Dict[Tuple, threading.Lock] = {}

    def __len__(self) -> int:
        with self._mutex:
            return len(self._artifacts)

    def peek(self, key: Tuple):
        with self._mutex:
            return self._artifacts.get(key)

    def get_or_compute(
        self, key: Tuple, compute: Callable[[], StageArtifact]
    ) -> StageArtifact:
        """Return the artifact for ``key``, computing it at most once.

        The first requester runs ``compute`` under a per-key lock;
        concurrent requesters for the same key block and then receive the
        published artifact's value.  A failed compute publishes nothing,
        so the next request retries.  A memory hit returns a shallow copy
        marked ``from_cache``, sharing the value: the published artifact
        is never mutated, so whoever received it first still reads how
        it was produced.
        """
        stage = key[0]
        with self._mutex:
            artifact = self._artifacts.get(key)
            if artifact is not None:
                self.stats.record_hit(stage)
                return self._reused(artifact)
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        lock_started = time.perf_counter()
        with key_lock:
            self.stats.add_seconds(
                "wait.cache_lock", time.perf_counter() - lock_started
            )
            with self._mutex:
                artifact = self._artifacts.get(key)
            if artifact is not None:
                self.stats.record_hit(stage)
                return self._reused(artifact)
            if self.disk is not None:
                artifact = self.disk.load(key)
                if artifact is not None:
                    self.stats.bump("disk.hit")
                    self.stats.record_hit(stage)
                    artifact.from_cache = True
                    with self._mutex:
                        self._artifacts[key] = artifact
                        self._key_locks.pop(key, None)
                    return artifact
                self.stats.bump("disk.miss")
            self.stats.record_miss(stage)
            compute_started = time.perf_counter()
            artifact = compute()
            self.stats.add_seconds(
                f"compute.{stage}", time.perf_counter() - compute_started
            )
            with self._mutex:
                self._artifacts[key] = artifact
                self._key_locks.pop(key, None)
        # Write-back happens outside the single-flight lock: waiters can
        # be served from memory while this thread pays the pickle + I/O.
        if self.disk is not None:
            self.disk.store(key, artifact)
        return artifact

    @staticmethod
    def _reused(artifact: StageArtifact) -> StageArtifact:
        """A memory hit's own record of ``artifact``: same value, marked
        ``from_cache``."""
        hit = copy.copy(artifact)
        hit.from_cache = True
        return hit

    def clear(self) -> None:
        with self._mutex:
            self._artifacts.clear()
            self._key_locks.clear()
