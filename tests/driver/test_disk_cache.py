"""The persistent disk layer under the artifact cache.

Round trips are the headline: a fresh ``CompileSession`` pointed at a
directory another session populated must be served from disk — no
elaboration, no passes — and the integrity machinery must reject (and
quarantine) corrupted or schema-mismatched entries instead of serving
them.
"""

import hashlib
import json
import os
import signal
import stat
import subprocess
import sys
import time

import pytest

from repro.driver import (
    CacheStats,
    CompileSession,
    DiskCache,
    SCHEMA_VERSION,
    StageArtifact,
    faults,
    freeze_params,
    run_fsck,
)
from repro.driver.cache import (
    DISK_RETRY_LIMIT,
    FSYNC_ENV,
    TMP_REAP_AGE_SECONDS,
    fsync_enabled,
    pid_alive,
    split_entry,
    tmp_writer_pid,
)

SOURCE = """
comp Double[#W]<G:1>(x: [G, G+1] #W) -> (y: [G+1, G+2] #W) {
  s := new Add[#W]<G>(x, x);
  r := new Reg[#W]<G>(s.out);
  y = r.out;
}
"""


def _warm(tmp_path, **kwargs):
    session = CompileSession(cache_dir=str(tmp_path), **kwargs)
    artifact = session.synthesize(SOURCE, "Double", {"#W": 8})
    return session, artifact


def test_round_trip_into_a_fresh_session(tmp_path):
    cold_session, cold = _warm(tmp_path)
    assert cold_session.stats.counter("disk.write") > 0

    warm_session = CompileSession(cache_dir=str(tmp_path))
    warm = warm_session.synthesize(SOURCE, "Double", {"#W": 8})
    assert warm.from_cache
    assert warm_session.stats.counter("disk.hit") >= 1
    assert warm_session.stats.miss_count("synthesize") == 0
    assert warm.value.luts == cold.value.luts
    assert warm.value.registers == cold.value.registers


def test_warm_session_runs_no_passes_and_no_elaboration(tmp_path):
    cold = CompileSession(opt_level=2, cache_dir=str(tmp_path))
    cold.simulate(SOURCE, "Double", {"#W": 8}, cycles=16)
    assert cold.pass_log()

    warm = CompileSession(opt_level=2, cache_dir=str(tmp_path))
    trace = warm.simulate(SOURCE, "Double", {"#W": 8}, cycles=16)
    assert trace.from_cache
    assert warm.pass_log() == []
    assert warm.stats.counter("elaborate.components") == 0
    assert warm.disk_stats()["hit_rate"] == 1.0


def test_disk_artifacts_are_keyed_per_backend(tmp_path):
    session = CompileSession(cache_dir=str(tmp_path))
    interp = session.simulate(
        SOURCE, "Double", {"#W": 8}, cycles=32, backend="interp"
    ).value
    compiled = session.simulate(
        SOURCE, "Double", {"#W": 8}, cycles=32, backend="compiled"
    ).value
    assert interp.backend == "interp"
    assert compiled.backend == "compiled"
    assert interp.outputs == compiled.outputs

    warm = CompileSession(cache_dir=str(tmp_path), sim_backend="compiled")
    trace = warm.simulate(SOURCE, "Double", {"#W": 8}, cycles=32).value
    assert trace.backend == "compiled"


def _entry_files(tmp_path):
    files = []
    for directory, _, names in os.walk(tmp_path):
        files.extend(
            os.path.join(directory, n) for n in names if n.endswith(".pkl")
        )
    return files


def test_corrupted_entries_are_rejected_and_removed(tmp_path):
    _warm(tmp_path)
    victims = _entry_files(tmp_path)
    assert victims
    for path in victims:
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\x00")

    warm = CompileSession(cache_dir=str(tmp_path))
    artifact = warm.synthesize(SOURCE, "Double", {"#W": 8})
    assert not artifact.from_cache  # recomputed, not served corrupt bytes
    assert warm.stats.counter("disk.corrupt") > 0
    # Quarantined entries were deleted, then rewritten by the recompute.
    assert warm.stats.counter("disk.write") > 0


def test_schema_mismatch_is_a_miss(tmp_path):
    _warm(tmp_path)
    for path in _entry_files(tmp_path):
        with open(path, "rb") as handle:
            header, payload = handle.read().split(b"\n", 1)
        doctored = json.loads(header)
        doctored["schema"] = SCHEMA_VERSION + 1
        with open(path, "wb") as handle:
            handle.write(json.dumps(doctored).encode() + b"\n" + payload)

    warm = CompileSession(cache_dir=str(tmp_path))
    artifact = warm.synthesize(SOURCE, "Double", {"#W": 8})
    assert not artifact.from_cache
    assert warm.stats.counter("disk.hit") == 0


def test_old_schema_subtrees_are_stranded_not_misread(tmp_path):
    # Entries live under root/v{SCHEMA_VERSION}/: a schema bump (v3 → v4
    # added the tuner pseudo-stage and the codegen backend tag) strands
    # the old subtree by path.  Old entries must never satisfy a lookup
    # — their key layout is incompatible — but they also must not be
    # destroyed: a rollback to the old code finds its cache intact.
    cache = DiskCache(str(tmp_path))
    key = ("codegen", "deadbeef", 4, 1)  # v3 layout: no backend tag
    old_dir = os.path.join(str(tmp_path), f"v{SCHEMA_VERSION - 1}", "codegen")
    os.makedirs(old_dir)
    stale = os.path.join(old_dir, "stale.pkl")
    with open(stale, "wb") as handle:
        handle.write(b'{"schema": %d}\n' % (SCHEMA_VERSION - 1) + b"junk")

    assert cache.load(key) is None
    assert cache.stats.counter("disk.corrupt") == 0  # never even opened
    assert os.path.exists(stale)  # quarantine by path, not deletion

    # The same logical key written under the current schema round-trips
    # without touching the stranded subtree.
    assert cache.store(key, StageArtifact("codegen", key, {"v": 2}, 0.0))
    assert cache.load(key).value == {"v": 2}
    assert os.path.exists(stale)


def test_unpicklable_artifacts_degrade_to_memory_only(tmp_path):
    cache = DiskCache(str(tmp_path))
    key = ("synthesize", "unpicklable")
    artifact = StageArtifact("synthesize", key, lambda: None, 0.0)
    assert not cache.store(key, artifact)
    assert cache.stats.counter("disk.unpicklable") == 1
    assert cache.load(key) is None


def test_disk_cache_resolves_default_root_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
    assert DiskCache.default_root() == str(tmp_path / "env-root")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert DiskCache.default_root() == str(tmp_path / "xdg" / "repro-lilac")


def test_entry_count_tracks_store(tmp_path):
    cache = DiskCache(str(tmp_path))
    assert cache.entry_count() == 0
    key = ("parse", "x")
    assert cache.store(key, StageArtifact("parse", key, {"v": 1}, 0.0))
    assert cache.entry_count() == 1
    loaded = cache.load(key)
    assert loaded.value == {"v": 1}


def test_backend_version_bump_invalidates_persisted_traces(
    tmp_path, monkeypatch
):
    # A simulate key carries the backend's name@version, so fixing the
    # codegen (and bumping its version) must re-run the simulation
    # instead of serving the old backend's persisted trace.
    from repro.rtl import compile as rtl_compile

    cold = CompileSession(cache_dir=str(tmp_path), sim_backend="compiled")
    artifact = cold.simulate(SOURCE, "Double", {"#W": 8}, cycles=16)
    assert "compiled@1" in artifact.key

    monkeypatch.setitem(rtl_compile.SIM_BACKEND_VERSIONS, "compiled", 2)
    warm = CompileSession(cache_dir=str(tmp_path), sim_backend="compiled")
    rerun = warm.simulate(SOURCE, "Double", {"#W": 8}, cycles=16)
    assert "compiled@2" in rerun.key
    assert not rerun.from_cache
    assert warm.stats.miss_count("simulate") == 1


def test_trim_evicts_oldest_entries_beyond_the_size_bound(tmp_path):
    cache = DiskCache(str(tmp_path))
    for index in range(6):
        key = ("parse", f"entry{index}")
        assert cache.store(key, StageArtifact("parse", key, "x" * 512, 0.0))
    # Make eviction order deterministic: entry0 oldest, entry5 newest.
    for age, path in enumerate(sorted(_entry_files(tmp_path))):
        os.utime(path, (1_000_000 + age, 1_000_000 + age))
    size = sum(os.path.getsize(p) for p in _entry_files(tmp_path))

    bounded = DiskCache(str(tmp_path), max_bytes=size // 2)
    assert bounded.stats.counter("disk.trimmed") > 0
    remaining = sum(os.path.getsize(p) for p in _entry_files(tmp_path))
    assert remaining <= size // 2
    assert bounded.entry_count() < 6


def test_trim_can_be_disabled(tmp_path):
    cache = DiskCache(str(tmp_path))
    key = ("parse", "kept")
    assert cache.store(key, StageArtifact("parse", key, "y" * 256, 0.0))
    unbounded = DiskCache(str(tmp_path), max_bytes=0)
    assert unbounded.entry_count() == 1


def test_freeze_params_distinguishes_bool_from_int():
    # Regression: bool is an int subclass, so True froze identically to
    # 1 and the two bindings shared one cache entry.
    assert freeze_params({"x": True}) != freeze_params({"x": 1})
    assert freeze_params({"x": False}) != freeze_params({"x": 0})
    assert freeze_params([True]) != freeze_params([1])
    # Equal bindings still freeze equal, and the dict stays order-free.
    assert freeze_params({"x": True, "y": 2}) == freeze_params(
        {"y": 2, "x": True}
    )
    # Positional and keyword spellings remain distinct keys.
    assert freeze_params([1]) != freeze_params({"x": 1})


# -- fault tolerance: retries, quarantine, memory-only degradation ------


def test_transient_read_faults_are_retried_and_served(tmp_path):
    _warm(tmp_path)
    warm = CompileSession(cache_dir=str(tmp_path), fault_plan="disk.read:2")
    artifact = warm.synthesize(SOURCE, "Double", {"#W": 8})
    assert artifact.from_cache  # the retries healed the injected EIOs
    assert warm.stats.counter("retry.disk.read") == 2
    assert warm.stats.counter("fault.injected.disk.read") == 2
    assert not warm.cache.disk.degraded


def test_transient_write_faults_are_retried_and_persisted(tmp_path):
    cold = CompileSession(
        cache_dir=str(tmp_path), fault_plan="disk.write,disk.replace@2"
    )
    cold.synthesize(SOURCE, "Double", {"#W": 8})
    assert cold.stats.counter("retry.disk.write") == 2
    assert not cold.cache.disk.degraded

    warm = CompileSession(cache_dir=str(tmp_path))
    assert warm.synthesize(SOURCE, "Double", {"#W": 8}).from_cache


def test_exhausted_read_retries_degrade_to_a_miss(tmp_path):
    cold_session, cold = _warm(tmp_path)
    # Enough scheduled failures to exhaust every retry of the first load.
    warm = CompileSession(cache_dir=str(tmp_path), fault_plan="disk.read:3")
    artifact = warm.synthesize(SOURCE, "Double", {"#W": 8})
    assert artifact.value.luts == cold.value.luts  # recomputed, same bits
    assert warm.stats.counter("disk.read_error") == 1
    assert not warm.cache.disk.degraded  # transient errors never degrade


def test_enospc_degrades_to_memory_only_once(tmp_path):
    with pytest.warns(RuntimeWarning, match="memory-only"):
        session = CompileSession(
            cache_dir=str(tmp_path), fault_plan="disk.write#enospc"
        )
        first = session.synthesize(SOURCE, "Double", {"#W": 8})
    assert session.cache.disk.degraded
    assert session.stats.counter("degrade.disk") == 1
    # The session keeps working from memory; nothing further persists.
    again = session.synthesize(SOURCE, "Double", {"#W": 8})
    assert again.from_cache
    assert first.value.luts == again.value.luts
    assert session.cache.disk.entry_count() == 0
    assert session.stats.counter("degrade.disk") == 1  # warned once


def test_readonly_root_degrades_on_load_too(tmp_path):
    _warm(tmp_path)
    warm = CompileSession(
        cache_dir=str(tmp_path), fault_plan="disk.read#erofs"
    )
    artifact = warm.synthesize(SOURCE, "Double", {"#W": 8})
    assert not artifact.from_cache  # every later lookup is a miss
    assert warm.cache.disk.degraded
    assert warm.stats.counter("degrade.disk") == 1


def test_injected_pickle_garbage_is_quarantined(tmp_path):
    cold_session, cold = _warm(tmp_path)
    entries_before = len(_entry_files(tmp_path))
    warm = CompileSession(cache_dir=str(tmp_path), fault_plan="pickle.load")
    artifact = warm.synthesize(SOURCE, "Double", {"#W": 8})
    assert artifact.value.luts == cold.value.luts
    assert warm.stats.counter("disk.corrupt") == 1
    # Quarantine deleted the poisoned entry; the recompute re-stored it.
    assert len(_entry_files(tmp_path)) == entries_before


def test_trim_spares_young_tmp_files_of_live_writers(tmp_path):
    cache = DiskCache(str(tmp_path))
    for index in range(4):
        key = ("parse", f"entry{index}")
        assert cache.store(key, StageArtifact("parse", key, "x" * 512, 0.0))
    stage_dir = os.path.join(
        str(tmp_path), f"v{SCHEMA_VERSION}", "parse"
    )
    young = os.path.join(stage_dir, "live-writer.tmp")
    stale = os.path.join(stage_dir, "orphan.tmp")
    with open(young, "wb") as handle:
        handle.write(b"z" * 512)
    with open(stale, "wb") as handle:
        handle.write(b"z" * 512)
    os.utime(stale, (1_000_000, 1_000_000))  # ancient: a dead writer's
    for age, path in enumerate(sorted(_entry_files(tmp_path))):
        os.utime(path, (2_000_000 + age, 2_000_000 + age))

    DiskCache(str(tmp_path), max_bytes=1)  # trim everything trimmable
    assert os.path.exists(young)  # may be mid-mkstemp/os.replace: spared
    assert not os.path.exists(stale)  # orphan: reaped
    assert not _entry_files(tmp_path)


# -- the write protocol, its crash windows and liveness ------------------


def _dead_pid():
    """A PID that provably belonged to a now-dead process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def _temp_files(root):
    return [
        name for _, _, names in os.walk(root)
        for name in names if name.endswith(".tmp")
    ]


def _plant_tmp(directory, name, mtime=None):
    path = os.path.join(directory, name)
    with open(path, "wb") as handle:
        handle.write(b"half-written payload")
    if mtime is not None:
        os.utime(path, (mtime, mtime))
    return path


def test_pid_alive_probes():
    assert pid_alive(os.getpid())
    assert not pid_alive(_dead_pid())
    assert not pid_alive(0)
    assert not pid_alive(-1)


def test_fsync_gate_reads_the_environment(monkeypatch):
    monkeypatch.setenv(FSYNC_ENV, "0")
    assert not fsync_enabled()
    monkeypatch.setenv(FSYNC_ENV, "1")
    assert fsync_enabled()
    monkeypatch.delenv(FSYNC_ENV)
    assert fsync_enabled()  # durable by default


def test_split_entry_names_the_first_failure():
    payload = b"payload"
    header = {"sha256": hashlib.sha256(payload).hexdigest()}
    entry = json.dumps(header).encode("utf-8") + b"\n" + payload
    assert split_entry(entry) == (header, payload)
    for data, reason in (
        (b"no header here", "unparseable header"),
        (b"[1, 2]\n" + payload, "unparseable header"),
        (entry + b"extra", "payload digest mismatch"),
    ):
        with pytest.raises(ValueError, match=reason):
            split_entry(data)


def test_store_fsyncs_the_temp_file_then_replaces_then_fsyncs_the_directory(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(FSYNC_ENV, "1")
    cache = DiskCache(str(tmp_path))
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        mode = os.fstat(fd).st_mode
        calls.append(("fsync", "dir" if stat.S_ISDIR(mode) else "file"))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    key = ("parse", "protocol")
    assert cache.store(key, StageArtifact("parse", key, "x", 0.0))

    assert [call[0] for call in calls] == ["fsync", "replace", "fsync"], calls
    (_, first), (_, tmp, entry), (_, last) = calls
    assert (first, last) == ("file", "dir")
    assert entry == cache._entry_path(key)
    assert os.path.dirname(tmp) == os.path.dirname(entry)
    assert tmp_writer_pid(os.path.basename(tmp)) == os.getpid()
    # The entry is the only file the store left anywhere under the root.
    assert [
        os.path.join(directory, name)
        for directory, _, names in os.walk(str(tmp_path)) for name in names
    ] == [entry]


def test_a_failed_replace_leaves_no_temp_file(tmp_path):
    cache = DiskCache(str(tmp_path))
    key = ("parse", "unlucky")
    plan = faults.FaultPlan.parse(f"disk.replace:{DISK_RETRY_LIMIT}")
    with faults.installed(plan):
        assert not cache.store(key, StageArtifact("parse", key, "x", 0.0))
    assert cache.stats.counter("disk.write_error") == 1
    assert _temp_files(str(tmp_path)) == []
    assert cache.load(key) is None


_KILLED_WRITER = (
    "import sys\n"
    "from repro.driver import faults\n"
    "from repro.driver.artifact import StageArtifact\n"
    "from repro.driver.cache import DiskCache\n"
    "faults.install(faults.FaultPlan.parse(sys.argv[2]))\n"
    "key = ('stage', 'k')\n"
    "DiskCache(sys.argv[1]).store(key, StageArtifact('stage', key, 1, 0.0))\n"
)


@pytest.mark.parametrize("skip", [0, 1])
def test_a_writer_killed_in_either_window_leaves_a_consistent_store(
    tmp_path, skip
):
    """``proc.kill.write@0`` dies before the replace, leaving only the
    stamped temp file; ``@1`` dies after it, leaving the published
    entry.  One attach makes either store clean, with no repair."""
    root = str(tmp_path)
    child = subprocess.Popen([
        sys.executable, "-c", _KILLED_WRITER, root,
        f"proc.kill.write:1@{skip}",
    ])
    assert child.wait() == -signal.SIGKILL
    left = _temp_files(root)
    if skip == 0:
        assert len(left) == 1 and tmp_writer_pid(left[0]) == child.pid
    else:
        assert left == []

    stats = CacheStats()
    cache = DiskCache(root, stats)
    assert _temp_files(root) == []
    report = run_fsck(root)
    assert report.consistent and report.findings == []
    loaded = cache.load(("stage", "k"))
    if skip == 0:
        assert loaded is None
        assert stats.counter("disk.reaped") == 1
    else:
        assert loaded.value == 1
        assert stats.counter("disk.reaped") == 0


def test_trim_spares_live_writers_and_reaps_dead_ones(tmp_path):
    """A ``.tmp`` stamped with a live PID is never touched, however old;
    one stamped with a dead PID is reaped at attach, whatever the size
    bound; unstamped ones (earlier versions' writers) follow the age
    rule and are only evicted over the bound."""
    root = str(tmp_path)
    subtree = os.path.join(root, f"v{SCHEMA_VERSION}", "stage")
    os.makedirs(subtree)
    ancient = time.time() - 2 * TMP_REAP_AGE_SECONDS
    entry = "ab" * 32 + ".pkl"
    live = _plant_tmp(subtree, f"{entry}.{os.getppid()}.a1b2c3d4.tmp", ancient)
    dead = _plant_tmp(subtree, f"{entry}.{_dead_pid()}.e5f6g7h8.tmp")
    old_orphan = _plant_tmp(subtree, "tmpold.tmp", ancient)
    young = _plant_tmp(subtree, "tmpyoung.tmp")

    attached = DiskCache(root)  # far under the default bound
    assert attached.stats.counter("disk.reaped") == 1
    assert attached.stats.counter("disk.trimmed") == 0
    assert not os.path.exists(dead)
    assert all(os.path.exists(p) for p in (live, old_orphan, young))

    trimmed = DiskCache(root, max_bytes=1)  # trim everything trimmable
    assert trimmed.stats.counter("disk.trimmed") == 1
    assert not os.path.exists(old_orphan)  # aged-out orphan
    assert os.path.exists(live)            # stamped live writer
    assert os.path.exists(young)           # young: benefit of the doubt
