"""The run ledger: checkpoints as disk-cache entries, identity, digests,
drains."""

import builtins
import functools
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.driver import (
    CacheStats,
    DiskCache,
    RunLedger,
    StageArtifact,
    graceful_drain,
    point_key,
    run_fsck,
)
from repro.driver.cache import TMP_REAP_AGE_SECONDS
from repro.driver.ledger import describe_fn


def _fn(session, point):
    return point


def _disk(tmp_path) -> DiskCache:
    return DiskCache(str(tmp_path), CacheStats())


def _checkpoint_path(ledger, key) -> str:
    return ledger.disk._entry_path((ledger.stage, key))


def _dead_pid():
    """A PID that provably belonged to a now-dead process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_record_then_lookup_round_trips(tmp_path):
    ledger = RunLedger(_disk(tmp_path), "run-a")
    stats = ledger.disk.stats
    key = point_key(_fn, 7)
    assert ledger.lookup(key) == (False, None)
    assert ledger.record(key, {"value": 7})
    assert ledger.lookup(key) == (True, {"value": 7})
    assert len(ledger) == 1
    assert stats.counter("checkpoint.miss") == 1
    assert stats.counter("checkpoint.hit") == 1
    assert stats.counter("checkpoint.store") == 1


def test_fresh_run_refuses_an_existing_ledger(tmp_path):
    RunLedger(_disk(tmp_path), "run-a").record(point_key(_fn, 1), 1)
    with pytest.raises(FileExistsError, match="pass --resume"):
        RunLedger(_disk(tmp_path), "run-a")


def test_resume_replays_recorded_points(tmp_path):
    first = RunLedger(_disk(tmp_path), "run-a")
    keys = [point_key(_fn, n) for n in range(3)]
    for n, key in enumerate(keys):
        first.record(key, n * 10)

    resumed = RunLedger(_disk(tmp_path), "run-a", resume=True)
    assert len(resumed) == 3
    for n, key in enumerate(keys):
        assert resumed.lookup(key) == (True, n * 10)
    assert resumed.results_digest == first.results_digest


def test_resumed_run_reports_the_first_runs_picture_before_any_lookup(
    tmp_path
):
    first = RunLedger(_disk(tmp_path), "run-a")
    for n in range(3):
        first.record(point_key(_fn, n), {"n": n})
    resumed = RunLedger(_disk(tmp_path), "run-a", resume=True)
    assert len(resumed) == len(first) == 3
    assert resumed.results_digest == first.results_digest
    assert resumed.disk.stats.counter("checkpoint.hit") == 0


def test_recorded_checkpoint_is_an_entry_fsck_finds_valid(tmp_path):
    ledger = RunLedger(_disk(tmp_path), "run-a")
    key = point_key(_fn, 1)
    assert ledger.record(key, "kept")
    assert os.path.exists(_checkpoint_path(ledger, key))
    report = run_fsck(str(tmp_path))
    assert report.consistent
    assert report.scanned == report.valid == 1


def test_corrupted_checkpoint_is_flagged_by_fsck_and_misses(tmp_path):
    ledger = RunLedger(_disk(tmp_path), "run-a")
    key = point_key(_fn, 1)
    ledger.record(key, "damaged")
    path = _checkpoint_path(ledger, key)
    with open(path, "ab") as handle:
        handle.write(b"bitrot")
    assert run_fsck(str(tmp_path)).counts() == {"corrupt_entry": 1}

    resumed = RunLedger(_disk(tmp_path), "run-a", resume=True)
    # A dropped checkpoint degrades to a recompute, never a wrong result.
    assert resumed.lookup(key) == (False, None)
    assert resumed.disk.stats.counter("disk.corrupt") == 1
    assert resumed.disk.stats.counter("checkpoint.miss") == 1
    assert not os.path.exists(path)


def test_dead_writers_temp_file_in_a_run_is_reaped_at_attach(tmp_path):
    ledger = RunLedger(_disk(tmp_path), "run-a")
    key = point_key(_fn, 1)
    ledger.record(key, "kept")
    path = _checkpoint_path(ledger, key)
    tmp = f"{path}.{_dead_pid()}.a1b2c3d4.tmp"
    with open(tmp, "wb") as handle:
        handle.write(b"half-written checkpoint")
    assert run_fsck(str(tmp_path)).counts() == {"orphan_tmp": 1}

    attached = _disk(tmp_path)
    assert attached.stats.counter("disk.reaped") == 1
    assert not os.path.exists(tmp)
    assert RunLedger(attached, "run-a", resume=True).lookup(key) == (
        True, "kept"
    )
    assert run_fsck(str(tmp_path)).findings == []


@pytest.mark.parametrize("bad", ["", ".", "..", "a/b"])
def test_hostile_run_ids_are_rejected(tmp_path, bad):
    with pytest.raises(ValueError, match="invalid run id"):
        RunLedger(_disk(tmp_path), bad)


def test_results_digest_is_order_independent(tmp_path):
    forward = RunLedger(_disk(tmp_path), "fwd")
    backward = RunLedger(_disk(tmp_path), "bwd")
    keys = [point_key(_fn, n) for n in range(4)]
    for n, key in enumerate(keys):
        forward.record(key, n)
    for n, key in reversed(list(enumerate(keys))):
        backward.record(key, n)
    assert forward.results_digest == backward.results_digest


def test_a_store_in_the_old_ledger_layout_stays_usable(
    tmp_path, monkeypatch
):
    """Earlier versions kept a run's checkpoints under ``runs/<id>/``:
    a JSONL manifest plus raw-pickle side files.  Nothing reads them
    any more: fsck skips the directory, the old checkpoint misses, and
    the run id is free for a fresh run."""
    root = str(tmp_path)
    writer = _disk(tmp_path)
    keys = [("stage", "a"), ("stage", "b")]
    for key in keys:
        assert writer.store(key, StageArtifact("stage", key, key[1], 0.0))
    point = point_key(_fn, 1)
    payload = pickle.dumps("old result", protocol=4)
    run_dir = os.path.join(root, "runs", "nightly")
    os.makedirs(os.path.join(run_dir, "points"))
    with open(os.path.join(run_dir, "ledger.jsonl"), "w") as handle:
        for line in (
            {"type": "header", "version": 1, "run_id": "nightly"},
            {"type": "point", "key": point,
             "sha256": hashlib.sha256(payload).hexdigest(), "seq": 1},
        ):
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    side_file = os.path.join(run_dir, "points", f"{point}.pkl")
    with open(side_file, "wb") as handle:
        handle.write(payload)
    ancient = time.time() - 2 * TMP_REAP_AGE_SECONDS
    stale = os.path.join(run_dir, "points", "tmpX.tmp")
    with open(stale, "wb") as handle:
        handle.write(b"half")
    os.utime(stale, (ancient, ancient))

    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)):
            opened.append(os.path.abspath(os.fsdecode(file)))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    report = run_fsck(root)
    assert report.consistent and report.scanned == report.valid == 2
    disk = _disk(tmp_path)
    assert [disk.load(key).value for key in keys] == ["a", "b"]
    assert RunLedger(disk, "nightly", resume=True).lookup(point) == (
        False, None
    )
    assert len(RunLedger(disk, "nightly")) == 0  # a fresh run is allowed
    runs = os.path.join(root, "runs") + os.sep
    assert [path for path in opened if path.startswith(runs)] == []


def test_point_key_separates_functions_points_and_bindings():
    assert point_key(_fn, 1) == point_key(_fn, 1)
    assert point_key(_fn, 1) != point_key(_fn, 2)
    narrow = functools.partial(_fn, width=8)
    wide = functools.partial(_fn, width=16)
    assert point_key(narrow, 1) != point_key(wide, 1)
    assert "partial" in describe_fn(narrow)
    assert describe_fn(_fn).endswith(":_fn")


def test_graceful_drain_turns_sigterm_into_keyboard_interrupt():
    previous = signal.getsignal(signal.SIGTERM)
    stats = CacheStats()
    with pytest.raises(KeyboardInterrupt, match="drain on signal"):
        with graceful_drain(stats) as drain:
            os.kill(os.getpid(), signal.SIGTERM)
    assert drain.drained
    assert stats.counter("checkpoint.drain") == 1
    assert signal.getsignal(signal.SIGTERM) == previous
