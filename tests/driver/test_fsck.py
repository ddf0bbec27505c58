"""``repro fsck``: classification, repair, exit codes, machine output.

The checker is the store's independent auditor — every finding kind has
a test that manufactures the on-disk shape and asserts both the verdict
and the repair action.
"""

import builtins
import hashlib
import json
import os
import subprocess
import sys
import time

from repro.driver import (
    CacheStats,
    DiskCache,
    SCHEMA_VERSION,
    StageArtifact,
    run_fsck,
)
from repro.driver.cache import TMP_REAP_AGE_SECONDS
from repro.driver.fsck import QUARANTINE_SUFFIX


def _dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_a_cleanly_exited_writer_leaves_a_consistent_store(tmp_path):
    root = str(tmp_path)
    writer = (
        "import sys\n"
        "from repro.driver.artifact import StageArtifact\n"
        "from repro.driver.cache import DiskCache\n"
        "key = ('stage', 'k')\n"
        "assert DiskCache(sys.argv[1]).store(\n"
        "    key, StageArtifact('stage', key, 1, 0.0))\n"
    )
    subprocess.run([sys.executable, "-c", writer, root], check=True)
    (entry,) = [
        os.path.relpath(os.path.join(directory, name), root)
        for directory, _, names in os.walk(root) for name in names
    ]
    assert entry.startswith(os.path.join(f"v{SCHEMA_VERSION}", "stage", ""))
    assert entry.endswith(".pkl")
    report = run_fsck(root)
    assert report.consistent and report.scanned == 1


def test_a_process_mode_sweep_leaves_a_consistent_store(tmp_path):
    """Pool workers exit without running ``atexit`` hooks, so nothing a
    store write leaves behind may depend on a clean exit."""
    root = str(tmp_path / "store")
    subprocess.run(
        [
            sys.executable, "-m", "repro", "sweep",
            "--designs", "fpu", "risc", "--cycles", "8",
            "--executor", "process", "--workers", "2", "--cache-dir", root,
        ],
        check=True, stdout=subprocess.DEVNULL,
    )
    report = run_fsck(root)
    assert report.consistent, report.render()
    assert [f for f in report.findings if f.damage] == []
    assert report.scanned == report.valid > 0


def _write_entry(root, name="a", payload=b"data", schema=None,
                 header_schema=None):
    """A store entry under ``v<schema>/stage/`` whose header claims
    ``header_schema`` (defaults: both current — a healthy entry)."""
    schema = SCHEMA_VERSION if schema is None else schema
    header_schema = schema if header_schema is None else header_schema
    directory = os.path.join(root, f"v{schema}", "stage")
    os.makedirs(directory, exist_ok=True)
    header = json.dumps({
        "schema": header_schema,
        "key": name,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }).encode("utf-8")
    path = os.path.join(directory, f"{name}.pkl")
    with open(path, "wb") as handle:
        handle.write(header + b"\n" + payload)
    return path


def _stamped_tmp(root, pid, mtime=None):
    """A temp file named the way a store writer with ``pid`` names its
    own: ``<entry>.pkl.<pid>.<random>.tmp``."""
    directory = os.path.join(root, f"v{SCHEMA_VERSION}", "stage")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{'cd' * 32}.pkl.{pid}.q9r8s7t6.tmp")
    with open(path, "wb") as handle:
        handle.write(b"half-written")
    if mtime is not None:
        os.utime(path, (mtime, mtime))
    return path


def test_clean_store_is_consistent(tmp_path):
    root = str(tmp_path)
    _write_entry(root, "a")
    _write_entry(root, "b", payload=b"other")
    report = run_fsck(root)
    assert report.consistent
    assert report.exit_code == 0
    assert report.scanned == 2 and report.valid == 2
    assert report.findings == []
    assert "store is consistent" in report.render()


def test_corrupt_entry_fails_then_repair_quarantines(tmp_path):
    root = str(tmp_path)
    path = _write_entry(root, "a")
    with open(path, "ab") as handle:
        handle.write(b"bitrot")
    stats = CacheStats()
    report = run_fsck(root, stats=stats)
    assert not report.consistent and report.exit_code == 1
    assert report.counts() == {"corrupt_entry": 1}
    assert stats.counter("fsck.corrupt_entry") == 1

    repaired = run_fsck(root, repair=True, stats=stats)
    assert repaired.consistent and repaired.exit_code == 0
    assert repaired.by_kind("corrupt_entry")[0].action == "quarantined"
    assert os.path.exists(path + QUARANTINE_SUFFIX)
    assert not os.path.exists(path)
    assert stats.counter("fsck.repaired") == 1
    # The evidence file is ignored by a subsequent pass.
    assert run_fsck(root).consistent


def test_schema_lie_under_current_subtree_is_corruption(tmp_path):
    root = str(tmp_path)
    _write_entry(root, "a", header_schema=SCHEMA_VERSION + 7)
    report = run_fsck(root)
    assert report.counts() == {"corrupt_entry": 1}


def test_foreign_schema_subtree_is_informational(tmp_path):
    root = str(tmp_path)
    _write_entry(root, "old", schema=SCHEMA_VERSION - 1)
    report = run_fsck(root)
    assert report.counts() == {"foreign_schema": 1}
    assert report.consistent  # stale, not damaged


def test_orphan_tmp_ages_into_damage_and_repair_unlinks(tmp_path):
    root = str(tmp_path)
    directory = os.path.join(root, f"v{SCHEMA_VERSION}", "stage")
    os.makedirs(directory)
    young = os.path.join(directory, "young.tmp")
    old = os.path.join(directory, "old.tmp")
    for path in (young, old):
        with open(path, "wb") as handle:
            handle.write(b"x")
    ancient = time.time() - 2 * TMP_REAP_AGE_SECONDS
    os.utime(old, (ancient, ancient))

    report = run_fsck(root)
    assert report.counts() == {"live_tmp": 1, "orphan_tmp": 1}
    assert not report.consistent

    repaired = run_fsck(root, repair=True)
    assert repaired.consistent
    assert not os.path.exists(old)
    assert os.path.exists(young)  # possibly a live earlier-version writer


def test_dead_writers_tmp_is_an_orphan_and_repair_unlinks(tmp_path):
    root = str(tmp_path)
    tmp = _stamped_tmp(root, _dead_pid())  # young, but its writer is gone
    report = run_fsck(root)
    assert report.counts() == {"orphan_tmp": 1}
    assert not report.consistent
    assert "is dead" in report.by_kind("orphan_tmp")[0].detail

    repaired = run_fsck(root, repair=True)
    assert repaired.consistent
    assert repaired.by_kind("orphan_tmp")[0].action == "unlinked"
    assert not os.path.exists(tmp)
    assert run_fsck(root).findings == []


def test_live_writers_tmp_is_informational(tmp_path):
    root = str(tmp_path)
    ancient = time.time() - 2 * TMP_REAP_AGE_SECONDS
    tmp = _stamped_tmp(root, os.getppid(), ancient)
    report = run_fsck(root, repair=True)
    assert report.counts() == {"live_tmp": 1}
    assert report.consistent
    assert os.path.exists(tmp)  # never repaired, however old


def test_a_store_with_journal_and_lease_leftovers_stays_usable(
    tmp_path, monkeypatch
):
    """Earlier versions kept write-intent records under ``journal/``
    and writer leases under ``leases/``.  Nothing reads them any more:
    a store holding them attaches, serves its entries, and fscks
    consistent after one ``--repair`` of its ancient temp files."""
    root = str(tmp_path)
    writer = DiskCache(root)
    keys = [("stage", "a"), ("stage", "b")]
    for key in keys:
        assert writer.store(key, StageArtifact("stage", key, key[1], 0.0))
    dead = _dead_pid()
    # The record names entry b as its temp file: replaying it would
    # have rolled forward and unlinked a valid entry.
    record = {
        "version": 1, "txn": f"{dead}-1-x", "pid": dead,
        "dest": writer._entry_path(keys[0]),
        "tmp": writer._entry_path(keys[1]), "created": 0.0,
    }
    lease = {"version": 1, "pid": dead}
    ancient = time.time() - 2 * TMP_REAP_AGE_SECONDS
    for relative, text in (
        (os.path.join("journal", f"{dead}-1-x.json"), json.dumps(record)),
        (os.path.join("journal", "tmpab12cd34.rec.tmp"), "{"),
        (os.path.join("leases", f"{dead}.json"), json.dumps(lease)),
        (os.path.join(f"v{SCHEMA_VERSION}", "stage", "tmpold.tmp"), "half"),
    ):
        path = os.path.join(root, relative)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.utime(path, (ancient, ancient))

    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)):
            opened.append(os.path.abspath(os.fsdecode(file)))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    reader = DiskCache(root)
    assert [reader.load(key).value for key in keys] == ["a", "b"]
    report = run_fsck(root)
    assert report.counts() == {"orphan_tmp": 2}
    assert run_fsck(root, repair=True).consistent
    assert run_fsck(root).findings == []
    old_dirs = tuple(
        os.path.join(root, name) + os.sep for name in ("journal", "leases")
    )
    assert [path for path in opened if path.startswith(old_dirs)] == []


def test_report_to_dict_is_machine_readable(tmp_path):
    root = str(tmp_path)
    path = _write_entry(root, "a")
    with open(path, "ab") as handle:
        handle.write(b"bitrot")
    payload = run_fsck(root).to_dict()
    assert payload["consistent"] is False
    assert payload["exit_code"] == 1
    assert payload["scanned"] == 1
    assert payload["counts"] == {"corrupt_entry": 1}
    finding = payload["findings"][0]
    assert finding["kind"] == "corrupt_entry"
    assert finding["damage"] is True and finding["repaired"] is False
    json.dumps(payload)  # the --stats json path must serialize as-is
