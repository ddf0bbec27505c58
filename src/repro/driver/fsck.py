"""Offline consistency checker for the on-disk artifact store.

``repro fsck`` is the store's independent auditor: where attaching a
:class:`~repro.driver.cache.DiskCache` reaps what it can, fsck
*classifies everything* — every entry and temp file under a cache
root, the pseudo-stages' payloads and the ``--run-id`` checkpoints
included, since all of them are ordinary entries — and either reports
(read-only, the default) or repairs (``--repair``).  The crash-chaos
harness and CI assert on its verdict: after any SIGKILL the store must
fsck clean, or clean after one ``--repair`` pass.  A top-level
``runs/`` directory holds run ledgers written by earlier versions,
which nothing reads; fsck skips it.

Finding kinds, from worst to mildest:

``corrupt_entry``
    A ``.pkl`` whose header fails to parse, whose payload digest
    disagrees with its header, or whose header schema disagrees with the
    ``v<N>/`` directory it sits in.  Repair quarantines the file
    (renamed ``*.quarantine`` so evidence survives for a post-mortem;
    readers ignore it).
``orphan_tmp``
    A ``.tmp`` whose writer is gone: its name is stamped with a dead
    PID, or it is unstamped (an earlier version's writer) and older
    than the age threshold.  Repair unlinks it.
``live_tmp`` *(informational)*
    A ``.tmp`` stamped with a live PID, however old, or an unstamped
    one young enough for the age rule.  Never repaired — a concurrent
    writer is not damage.
``foreign_schema`` *(informational)*
    A self-consistent entry under a non-current ``v<N>/`` subtree.
    Stale but harmless (trim evicts by age); never repaired.

Only the non-informational kinds make a store inconsistent.  Exit code
(see :attr:`FsckReport.exit_code`): 0 when consistent — including after
repairs, which is what "repairable" means — 1 when damage remains.

Counters (on a caller-supplied ``CacheStats``): ``fsck.scanned`` per
``.pkl`` examined, ``fsck.<kind>`` per finding, ``fsck.repaired`` per
repair action taken.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

from .cache import (
    SCHEMA_VERSION,
    TMP_REAP_AGE_SECONDS,
    pid_alive,
    split_entry,
    tmp_writer_pid,
)

#: Where earlier versions kept their run ledgers (a JSONL manifest and
#: raw-pickle side files, not store entries); nothing reads it now.
LEGACY_RUNS_DIRNAME = "runs"

#: Finding kinds that leave the store damaged (vs merely noteworthy).
DAMAGE_KINDS = ("corrupt_entry", "orphan_tmp")
INFO_KINDS = ("live_tmp", "foreign_schema")

#: Suffix repair gives corrupt entries instead of deleting them: the
#: bytes stay on disk for a post-mortem, readers never see the file.
QUARANTINE_SUFFIX = ".quarantine"


class Finding:
    """One classified irregularity (or notable fact) in the store."""

    __slots__ = ("kind", "path", "detail", "repaired", "action")

    def __init__(self, kind: str, path: str, detail: str):
        self.kind = kind
        self.path = path
        self.detail = detail
        #: set by the repair pass.
        self.repaired = False
        self.action: Optional[str] = None

    @property
    def damage(self) -> bool:
        return self.kind in DAMAGE_KINDS

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "damage": self.damage,
            "repaired": self.repaired,
            "action": self.action,
        }

    def __repr__(self) -> str:
        return f"Finding({self.kind}, {self.path!r})"


class FsckReport:
    """Everything one fsck pass learned about a store root."""

    def __init__(self, root: str, repair: bool):
        self.root = root
        self.repair = repair
        self.findings: List[Finding] = []
        self.scanned = 0
        self.valid = 0

    def add(self, finding: Finding) -> Finding:
        self.findings.append(finding)
        return finding

    def by_kind(self, kind: str) -> List[Finding]:
        return [f for f in self.findings if f.kind == kind]

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for finding in self.findings:
            tally[finding.kind] = tally.get(finding.kind, 0) + 1
        return tally

    @property
    def consistent(self) -> bool:
        """No damage outstanding (repaired damage doesn't count)."""
        return not any(f.damage and not f.repaired for f in self.findings)

    @property
    def exit_code(self) -> int:
        return 0 if self.consistent else 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "repair": self.repair,
            "scanned": self.scanned,
            "valid": self.valid,
            "consistent": self.consistent,
            "exit_code": self.exit_code,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        lines = [f"fsck {self.root}"]
        lines.append(
            f"  scanned {self.scanned} entries, {self.valid} valid"
        )
        for finding in self.findings:
            status = ""
            if finding.repaired:
                status = f" [repaired: {finding.action}]"
            elif not finding.damage:
                status = " [info]"
            lines.append(
                f"  {finding.kind}: {finding.path} — "
                f"{finding.detail}{status}"
            )
        verdict = "consistent" if self.consistent else "INCONSISTENT"
        lines.append(f"  store is {verdict}")
        return "\n".join(lines)


def _bump(stats, counter: str, amount: int = 1) -> None:
    if stats is not None:
        stats.bump(counter, amount)


def _classify_entry(path: str, current_subtree: bool) -> Optional[Finding]:
    """A finding for one ``.pkl``, or None when the entry is healthy."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        return Finding("corrupt_entry", path, f"unreadable: {error}")
    try:
        header, _ = split_entry(data)
    except ValueError as error:
        return Finding("corrupt_entry", path, str(error))
    schema = header.get("schema")
    if current_subtree:
        if schema != SCHEMA_VERSION:
            # A valid entry filed under the wrong version directory can
            # only come from tampering or a copy gone wrong; readers
            # would reject it anyway, so it is damage, not history.
            return Finding(
                "corrupt_entry", path,
                f"header schema {schema!r} under v{SCHEMA_VERSION}/ subtree",
            )
        return None
    return Finding(
        "foreign_schema", path,
        f"valid entry of schema {schema!r} (current is {SCHEMA_VERSION})",
    )


def _classify_tmp(path: str, now: float) -> Optional[Finding]:
    """A finding for one ``.tmp`` (None if it vanished: its writer
    published it)."""
    pid = tmp_writer_pid(os.path.basename(path))
    if pid is not None:
        if pid_alive(pid):
            return Finding("live_tmp", path, f"writer pid {pid} is alive")
        return Finding("orphan_tmp", path, f"writer pid {pid} is dead")
    try:
        age = now - os.stat(path).st_mtime
    except OSError:
        return None
    if age < TMP_REAP_AGE_SECONDS:
        return Finding(
            "live_tmp", path,
            f"unstamped but young ({age:.0f}s); possibly a live writer",
        )
    return Finding("orphan_tmp", path, f"unstamped, {age:.0f}s old")


def _repair(finding: Finding, stats) -> None:
    """Quarantine a corrupt entry, or unlink an orphan temp file."""
    quarantine = finding.kind == "corrupt_entry"
    try:
        if quarantine:
            os.replace(finding.path, finding.path + QUARANTINE_SUFFIX)
        else:
            os.remove(finding.path)
    except OSError as error:
        finding.detail += f"; repair failed: {error}"
        return
    finding.repaired = True
    finding.action = "quarantined" if quarantine else "unlinked"
    _bump(stats, "fsck.repaired")


def run_fsck(root: str, repair: bool = False, stats=None) -> FsckReport:
    """Scan (and with ``repair=True``, mend) the store at ``root``.

    Safe to run against a store other processes are actively writing:
    repairs only ever touch quarantined corruption, temp files stamped
    with a provably dead PID, or unstamped ones past the age threshold
    — the same discretion attach-time reaping exercises.
    """
    root = os.path.abspath(root)
    report = FsckReport(root, repair)
    now = time.time()
    current_prefix = os.path.join(root, f"v{SCHEMA_VERSION}") + os.sep
    for directory, _, files in os.walk(root):
        relative = os.path.relpath(directory, root)
        if relative.split(os.sep, 1)[0] == LEGACY_RUNS_DIRNAME:
            continue
        for name in sorted(files):
            path = os.path.join(directory, name)
            if name.endswith(".pkl"):
                report.scanned += 1
                _bump(stats, "fsck.scanned")
                finding = _classify_entry(
                    path, path.startswith(current_prefix) or directory == root
                )
                if finding is None:
                    report.valid += 1
            elif name.endswith(".tmp"):
                finding = _classify_tmp(path, now)
            else:
                continue
            if finding is None:
                continue
            report.add(finding)
            _bump(stats, f"fsck.{finding.kind}")
            if repair and finding.damage:
                _repair(finding, stats)
    return report
