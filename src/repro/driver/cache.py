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

import atexit
import errno
import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
import warnings
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from . import faults, journal as journal_mod
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
#: ``(digest, SOLVER_VERSION)`` — see :class:`ObligationStore`), and SMT
#: terms inside pickled typecheck artifacts became hash-consed (their
#: pickle shape re-enters the intern table via ``__reduce__``).
#:
#: v4: new ``"tuner"`` pseudo-stage (persistent backend calibration
#: profiles keyed ``(structural_hash, flavor, TUNER_VERSION)`` — see
#: :class:`TunerStore`), and ``"codegen"`` keys gained a backend tag
#: now that three generators (scalar/SWAR/vector) share the stage.
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

#: ``.tmp`` files younger than this are *live writers* (between
#: ``mkstemp`` and ``os.replace``) as far as :meth:`DiskCache._trim` is
#: concerned: they count toward the size bound but are never reaped.
#: Older ones are orphans from writers that died mid-store.
TMP_REAP_AGE_SECONDS = 3600.0

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
    grid tasks sitting unstarted in the executor queue.  Nested sites
    both record (a stage computation that reads the disk counts under
    both names), so timers attribute wall time by *site*, they do not
    partition it.
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

    Crash consistency (:mod:`repro.driver.journal`): every store is a
    journaled transaction — the temp file is fsynced, a write-ahead
    *intent record* goes durable before the ``os.replace``, the
    directory entry is fsynced after it, and only then is the record
    retired.  Attaching a cache replays any dead writer's dangling
    intents (roll forward when the destination landed intact, roll back
    otherwise) and reaps dead-PID writer leases, so a SIGKILLed — or
    power-lost — predecessor leaves this store exactly as consistent
    as a clean shutdown would have.  ``repro fsck`` runs the same
    classification offline.  ``$REPRO_CACHE_FSYNC=0`` skips the fsyncs
    (kill-safety needs only the ordering; power-loss durability needs
    the syncs).
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
        #: write-ahead intent journal + writer leases; both live outside
        #: the schema-versioned subtree and survive schema bumps.
        self.journal = journal_mod.IntentJournal(self.root, self.stats)
        self.leases = journal_mod.LeaseManager(self.root, self.stats)
        self._lease_held = False
        if os.path.isdir(self.root):
            # Crash recovery before anything reads or trims: replay any
            # dead predecessor's dangling write intents and drop its
            # lease, so the rest of this session sees a clean store.
            self.journal.recover()
            self.leases.reap_stale()
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
        if self.max_bytes:
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

    def bind_stats(self, stats: CacheStats) -> None:
        """Route this layer's counters (and the journal's / leases')
        into ``stats`` — the session's shared object — from now on."""
        self.stats = stats
        self.journal.stats = stats
        self.leases.stats = stats

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
            header_line, _, payload = data.partition(b"\n")
            header = json.loads(header_line.decode("utf-8"))
            if header.get("schema") != SCHEMA_VERSION:
                raise ValueError("schema version mismatch")
            if header.get("key") != repr(key):
                raise ValueError("key collision or renamed entry")
            if header.get("sha256") != hashlib.sha256(payload).hexdigest():
                raise ValueError("payload digest mismatch")
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
        """One atomic, journaled write attempt (may raise OSError).

        The crash-consistency protocol, in order: (1) temp file written
        and fsynced — a later replace never publishes torn bytes;
        (2) write-ahead intent record made durable — any crash from
        here on is classifiable by recovery/fsck; (3) atomic
        ``os.replace`` plus a directory fsync — the publish itself
        survives power loss; (4) the record retired.  The two
        ``proc.kill.write`` consultations bracket the replace: the
        first dies in the roll-*back* window (intent durable, entry
        unpublished), the second in the roll-*forward* window (entry
        published, commit lost).
        """
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        self._ensure_lease()
        faults.inject("disk.write", self.stats)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        record = None
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                handle.write(b"\n")
                handle.write(payload)
                handle.flush()
                journal_mod.fsync_fd(handle.fileno())
            record = self.journal.begin(path, tmp_path)
            faults.kill_here("proc.kill.write", self.stats)
            faults.inject("disk.replace", self.stats)
            os.replace(tmp_path, path)
            journal_mod.fsync_dir(directory)
            faults.kill_here("proc.kill.write", self.stats)
            self.journal.commit(record)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            self.journal.abort(record)
            raise

    def _ensure_lease(self) -> None:
        """Hold this process's writer lease (idempotent, first write).

        A clean interpreter exit releases it, so only a writer that died
        mid-run leaves a lease for fsck to report as stale.
        """
        if not self._lease_held:
            self.leases.acquire()
            self._lease_held = True
            atexit.register(self.leases.release)

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

    def _trim(self) -> int:
        """Evict oldest entries (by mtime) until under ``max_bytes``.

        Runs once when the cache is attached, bounding the default-on
        CLI cache: steady-state iteration on changing sources accretes
        dead content digests forever otherwise.  Every schema subtree
        counts toward the bound (stale schemas are pure waste, so they
        are the first candidates by age).  Returns entries removed.
        """
        entries = []
        total = 0
        now = time.time()
        pending = self.journal.pending_tmps()
        for directory, _, files in os.walk(self.root):
            for name in files:
                if not name.endswith((".pkl", ".tmp")):
                    continue
                path = os.path.join(directory, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                total += info.st_size
                # A .tmp file may be a *live* writer in another process,
                # mid-way between mkstemp and os.replace — unlinking it
                # would lose that writer's entry.  The intent journal
                # makes this exact, where the age heuristic only guesses:
                # a tmp whose intent record's owner PID is alive is never
                # an eviction candidate no matter how old (a writer
                # stalled behind a slow pickle is still a writer), while
                # a dead owner's tmp is a reapable orphan immediately.
                # Unjournaled tmps (a writer that died before its
                # ``begin()``) fall back to the age heuristic.
                if name.endswith(".tmp"):
                    record = pending.get(os.path.abspath(path))
                    if record is not None:
                        if journal_mod.pid_alive(record.pid):
                            continue
                    elif now - info.st_mtime < TMP_REAP_AGE_SECONDS:
                        continue
                entries.append((info.st_mtime, info.st_size, path))
        if total <= self.max_bytes:
            return 0
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
        return removed


class CodegenStore:
    """Persists compiled-simulator step sources in a :class:`DiskCache`.

    The adapter :func:`repro.rtl.compile.compile_netlist` plugs into:
    codegen payloads (generated source + slot layout, plain picklable
    dicts) are wrapped in a ``StageArtifact`` under the pseudo-stage
    ``"codegen"`` and keyed by ``(structural_hash, backend, lanes,
    CODEGEN_VERSION)`` — fully value-based, so every process over a
    structurally equal netlist shares one levelization + generation.
    The backend tag (``"scalar"``, ``"swar"``, ``"vector-numpy"``,
    ``"vector-stdlib"``) keeps the generators' entries apart now that
    three codegen targets share the stage.  Grid workers in process
    mode rendezvous here: the first worker to compile a netlist pays
    codegen, the rest load the source and only pay ``compile()`` +
    ``exec()``.

    Counters on the shared :class:`CacheStats`: ``codegen.disk_hit`` /
    ``codegen.disk_miss`` per lookup, ``codegen.store`` per write-back
    (a warm run therefore shows hits and zero stores).
    """

    def __init__(self, disk: DiskCache):
        self.disk = disk

    @staticmethod
    def _key(structural_hash: str, lanes, backend: str) -> Tuple:
        from ..rtl.compile import CODEGEN_VERSION

        return ("codegen", structural_hash, backend, lanes, CODEGEN_VERSION)

    def load(self, structural_hash: str, lanes, backend: str) -> Optional[dict]:
        from ..rtl.compile import valid_codegen_payload

        artifact = self.disk.load(self._key(structural_hash, lanes, backend))
        # Validate *before* counting: a hit means a usable entry, not
        # merely a readable file.
        if artifact is None or not valid_codegen_payload(
            artifact.value, structural_hash, lanes, backend
        ):
            self.disk.stats.bump("codegen.disk_miss")
            return None
        self.disk.stats.bump("codegen.disk_hit")
        return artifact.value

    def save(self, payload: dict) -> bool:
        key = self._key(
            payload["structural_hash"], payload["lanes"], payload["backend"]
        )
        stored = self.disk.store(
            key, StageArtifact("codegen", key, payload, 0.0)
        )
        if stored:
            self.disk.stats.bump("codegen.store")
        return stored


class ObligationStore:
    """Persists SMT obligation verdicts in a :class:`DiskCache`.

    The adapter the type checker's discharge loop plugs into: verdict
    payloads (status plus the SAT model in *canonical* variable names —
    see :mod:`repro.smt.canon`) are wrapped in a ``StageArtifact`` under
    the pseudo-stage ``"smt"`` and keyed by ``(obligation_digest,
    SOLVER_VERSION)``.  The digest is the alpha-renamed, sorted,
    structural hash of the full assertion set, so every process that
    reaches a structurally equal obligation — across components,
    designs, and runs — shares one solver verdict, and a warm
    ``repro all`` skips the solver entirely.

    Counters on the shared :class:`CacheStats`: ``smt.disk_hit`` /
    ``smt.disk_miss`` per lookup, ``smt.store`` per write-back.
    Corrupt or shape-invalid entries are quarantined by the underlying
    :class:`DiskCache` exactly like any other artifact.
    """

    #: statuses a payload may carry (mirrors repro.smt.solver).
    _STATUSES = ("sat", "unsat")

    def __init__(self, disk: DiskCache):
        self.disk = disk

    @staticmethod
    def _key(digest: str) -> Tuple:
        from ..smt.solver import SOLVER_VERSION

        return ("smt", digest, SOLVER_VERSION)

    def load(self, digest: str) -> Optional[dict]:
        artifact = self.disk.load(self._key(digest))
        payload = artifact.value if artifact is not None else None
        # Validate before counting: a hit means a usable verdict.
        if (
            not isinstance(payload, dict)
            or payload.get("digest") != digest
            or payload.get("status") not in self._STATUSES
            or not (
                payload.get("model") is None
                or isinstance(payload.get("model"), dict)
            )
        ):
            self.disk.stats.bump("smt.disk_miss")
            return None
        self.disk.stats.bump("smt.disk_hit")
        return payload

    def save(self, digest: str, status: str, model) -> bool:
        # Crash-chaos site: die with a discharged-but-unpersisted
        # verdict in hand, the worst possible moment for this store.
        faults.kill_here("proc.kill.solver", self.disk.stats)
        key = self._key(digest)
        payload = {"digest": digest, "status": status, "model": model}
        stored = self.disk.store(
            key, StageArtifact("smt", key, payload, 0.0)
        )
        if stored:
            self.disk.stats.bump("smt.store")
        return stored


class TunerStore:
    """Persists backend calibration profiles in a :class:`DiskCache`.

    The adapter :func:`repro.rtl.tuner.tune` plugs into: measurement
    payloads (lane-cycles/s per candidate engine, plain picklable
    dicts) are wrapped in a ``StageArtifact`` under the pseudo-stage
    ``"tuner"`` and keyed by ``(structural_hash, flavor,
    TUNER_VERSION)``.  The structural hash identifies the design, the
    vector flavor records which kernel family the profile timed (a
    numpy profile must not steer a numpy-less process), and the tuner
    version retires profiles whose measured quantities or decision rule
    changed.  One calibration run per design per machine, every later
    ``--sim-backend auto`` resolves from disk.

    Counters on the shared :class:`CacheStats`: ``tuner.disk_hit`` /
    ``tuner.disk_miss`` per lookup, ``tuner.store`` per write-back.
    """

    def __init__(self, disk: DiskCache):
        self.disk = disk

    @staticmethod
    def _key(structural_hash: str, flavor: str) -> Tuple:
        from ..rtl.tuner import TUNER_VERSION

        return ("tuner", structural_hash, flavor, TUNER_VERSION)

    def load(self, structural_hash: str, flavor: str) -> Optional[dict]:
        from ..rtl.tuner import valid_tuner_payload

        artifact = self.disk.load(self._key(structural_hash, flavor))
        # Validate before counting: a hit means a usable profile.
        if artifact is None or not valid_tuner_payload(
            artifact.value, structural_hash, flavor
        ):
            self.disk.stats.bump("tuner.disk_miss")
            return None
        self.disk.stats.bump("tuner.disk_hit")
        return artifact.value

    def save(self, payload: dict) -> bool:
        key = self._key(payload["structural_hash"], payload["flavor"])
        stored = self.disk.store(
            key, StageArtifact("tuner", key, payload, 0.0)
        )
        if stored:
            self.disk.stats.bump("tuner.store")
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
            disk.bind_stats(self.stats)
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
        published artifact.  A failed compute publishes nothing, so the
        next request retries.
        """
        stage = key[0]
        with self._mutex:
            artifact = self._artifacts.get(key)
            if artifact is not None:
                self.stats.record_hit(stage)
                artifact.from_cache = True
                return artifact
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        try:
            faults.inject("cache.lock", self.stats)
        except faults.InjectedFault:
            # Single-flight dedup lost for this request: degrade to a
            # private lock (no contention, no sharing).  At worst the
            # same artifact is computed twice — identical content, so
            # correctness is untouched; last publisher wins in memory.
            self.stats.bump("degrade.cache_lock")
            key_lock = threading.Lock()
        lock_started = time.perf_counter()
        with key_lock:
            self.stats.add_seconds(
                "wait.cache_lock", time.perf_counter() - lock_started
            )
            with self._mutex:
                artifact = self._artifacts.get(key)
            if artifact is not None:
                self.stats.record_hit(stage)
                artifact.from_cache = True
                return artifact
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

    def clear(self) -> None:
        with self._mutex:
            self._artifacts.clear()
            self._key_locks.clear()
