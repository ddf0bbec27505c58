"""``repro fsck``: classification, repair, exit codes, machine output.

The checker is the store's independent auditor — every finding kind has
a test that manufactures the on-disk shape and asserts both the verdict
and the repair action.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

from repro.driver import CacheStats, SCHEMA_VERSION, run_fsck
from repro.driver import journal
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
    assert journal.LeaseManager(root).holders() == {}
    report = run_fsck(root)
    assert report.consistent and report.scanned == 1


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


def _plant_intent(root, pid, dest, tmp=None):
    if tmp is None:
        tmp = os.path.join(root, f"v{SCHEMA_VERSION}", "stage", "w.tmp")
        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(b"half-written")
    journal_dir = os.path.join(root, journal.JOURNAL_DIRNAME)
    os.makedirs(journal_dir, exist_ok=True)
    record = journal.IntentRecord(f"{pid}-1-x", pid, dest, tmp, 0.0)
    record.path = os.path.join(journal_dir, f"{record.txn}.json")
    with open(record.path, "w", encoding="utf-8") as handle:
        json.dump(record.to_dict(), handle)
    return record


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
    assert os.path.exists(young)  # possibly a live pre-journal writer


def test_dangling_intent_rolls_back_when_dest_missing(tmp_path):
    root = str(tmp_path)
    dest = os.path.join(root, f"v{SCHEMA_VERSION}", "stage", "a.pkl")
    record = _plant_intent(root, _dead_pid(), dest)
    report = run_fsck(root)
    assert report.counts() == {"dangling_intent": 1}
    assert "roll back" in report.by_kind("dangling_intent")[0].detail

    repaired = run_fsck(root, repair=True)
    assert repaired.consistent
    assert repaired.by_kind("dangling_intent")[0].action == "roll_back"
    assert not os.path.exists(record.tmp)
    assert not os.path.exists(record.path)
    assert run_fsck(root).findings == []


def test_dangling_intent_rolls_forward_when_dest_is_intact(tmp_path):
    root = str(tmp_path)
    dest = _write_entry(root, "a")
    record = _plant_intent(root, _dead_pid(), dest)
    repaired = run_fsck(root, repair=True)
    assert repaired.consistent
    assert repaired.by_kind("dangling_intent")[0].action == "roll_forward"
    assert os.path.exists(dest)  # the published entry survives
    assert not os.path.exists(record.tmp)


def test_live_writers_tmp_is_informational(tmp_path):
    root = str(tmp_path)
    dest = os.path.join(root, f"v{SCHEMA_VERSION}", "stage", "a.pkl")
    record = _plant_intent(root, os.getppid(), dest)
    report = run_fsck(root, repair=True)
    assert report.counts() == {"live_tmp": 1}
    assert report.consistent
    assert os.path.exists(record.tmp)  # never repaired


def test_stale_lease_is_reaped_live_lease_kept(tmp_path):
    root = str(tmp_path)
    leases = journal.LeaseManager(root)
    leases.acquire()
    dead = _dead_pid()
    with open(leases.lease_path(dead), "w", encoding="utf-8") as handle:
        json.dump({"version": journal.JOURNAL_VERSION, "pid": dead}, handle)

    report = run_fsck(root)
    assert report.counts() == {"stale_lease": 1}
    repaired = run_fsck(root, repair=True)
    assert repaired.consistent
    assert repaired.by_kind("stale_lease")[0].action == "reaped"
    assert list(leases.holders()) == [os.getpid()]


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
