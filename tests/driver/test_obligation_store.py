"""The persistent "smt" pseudo-stage: round-trips, validation, keys."""

import os

from repro.driver import CacheStats, DiskCache, PseudoStore
from repro.lilac.typecheck.check import valid_verdict_payload
from repro.smt import SOLVER_VERSION


def _smt_store(disk) -> PseudoStore:
    return PseudoStore(disk, "smt", SOLVER_VERSION, valid_verdict_payload)


def _store(tmp_path):
    return _smt_store(DiskCache(str(tmp_path / "cache"), CacheStats()))


def _verdict(digest, status, model):
    return {"digest": digest, "status": status, "model": model}


def test_round_trip(tmp_path):
    store = _store(tmp_path)
    digest = "d" * 64
    assert store.load(digest) is None
    assert store.save(_verdict(digest, "unsat", None), digest)
    payload = store.load(digest)
    assert payload == {"digest": digest, "status": "unsat", "model": None}


def test_sat_model_round_trip(tmp_path):
    store = _store(tmp_path)
    digest = "e" * 64
    model = {"?v000000": 3, "(FPAdd.#L ?v000001)": 2}
    store.save(_verdict(digest, "sat", model), digest)
    assert store.load(digest)["model"] == model


def test_counters(tmp_path):
    store = _store(tmp_path)
    digest = "f" * 64
    store.load(digest)
    store.save(_verdict(digest, "unsat", None), digest)
    store.load(digest)
    stats = store.disk.stats
    assert stats.counter("smt.disk_miss") == 1
    assert stats.counter("smt.store") == 1
    assert stats.counter("smt.disk_hit") == 1


def test_invalid_payload_is_a_miss(tmp_path):
    store = _store(tmp_path)
    digest = "a" * 64
    # store under one digest, ask for another: key mismatch, miss.
    store.save(_verdict(digest, "unsat", None), digest)
    assert store.load("b" * 64) is None
    # A readable entry of the wrong shape is a miss, never a verdict.
    for bad in (
        _verdict(digest, "maybe", None),
        _verdict("b" * 64, "unsat", None),
        _verdict(digest, "sat", ["not", "a", "model"]),
        "unsat",
    ):
        assert store.save(bad, digest)
        assert store.load(digest) is None
    assert store.disk.stats.counter("smt.disk_miss") == 5
    assert store.disk.stats.counter("smt.disk_hit") == 0


def test_corrupt_entry_quarantined(tmp_path):
    store = _store(tmp_path)
    digest = "c" * 64
    store.save(_verdict(digest, "unsat", None), digest)
    path = store.disk._entry_path(store.key(digest))
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        handle.seek(size // 2)
        handle.write(b"\xff\xff\xff")
    assert store.load(digest) is None  # quarantined, not served
    assert not os.path.exists(path)
    assert store.disk.stats.counter("disk.corrupt") == 1


def test_key_carries_solver_version(tmp_path):
    key = _store(tmp_path).key("x" * 64)
    assert key[0] == "smt"
    assert key[-1] == SOLVER_VERSION
    assert key == ("smt", "x" * 64, SOLVER_VERSION)


#: One obligation fails (the adder's output is read before its latency
#: elapses), so the store holds SAT verdicts with models as well as
#: UNSAT ones.
_FAILING_SOURCE = """
gen "flopoco" comp FPAdd[#W]<G:1>(
    l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };

comp Bad[#W]<G:1>(l: [G, G+1] #W, r: [G, G+1] #W) -> (o: [G, G+1] #W) {
  Add := new FPAdd[#W];
  add := Add<G>(l, r);
  o = add.o;
}
"""


def test_verdicts_from_before_the_elimination_fix_stay_inert(
    tmp_path, monkeypatch
):
    """A store written at ``SOLVER_VERSION`` 1 may hold verdicts that
    equality elimination got wrong.  Their key carries the old version,
    so a check over them misses, re-solves and stores new entries, and
    the old ones stay digest-valid for fsck.  The planted version-1
    verdicts are the real obligations' verdicts with the status
    flipped, so serving any of them would change the report."""
    from repro.driver import run_fsck
    from repro.driver.artifact import StageArtifact
    from repro.lilac.stdlib import stdlib_program
    from repro.lilac.typecheck import check as check_mod
    from repro.lilac.typecheck import check_program

    assert SOLVER_VERSION == 2
    program = stdlib_program(_FAILING_SOURCE)
    saved = []
    original_save = PseudoStore.save

    def recording_save(self, payload, *parts):
        saved.append((payload["digest"], payload["status"], payload["model"]))
        return original_save(self, payload, *parts)

    monkeypatch.setattr(PseudoStore, "save", recording_save)
    check_mod.clear_obligation_memo()
    fresh = check_program(
        program, raise_on_error=False,
        obligation_store=_store(tmp_path / "fresh"),
    )
    fresh_errors = [(e.reason, e.counterexample)
                    for report in fresh for e in report.errors]
    assert fresh_errors and any(status == "unsat" for _, status, _ in saved)

    root = str(tmp_path / "old")
    disk = DiskCache(root)
    for digest, status, model in saved:
        key = ("smt", digest, 1)
        flipped = (
            {"digest": digest, "status": "sat", "model": {}}
            if status == "unsat"
            else {"digest": digest, "status": "unsat", "model": None}
        )
        assert disk.store(key, StageArtifact("smt", key, flipped, 0.0))
    report = run_fsck(root)
    assert report.consistent and report.scanned == len(saved)

    planted = list(saved)
    check_mod.clear_obligation_memo()
    saved.clear()
    stats = CacheStats()
    store = _smt_store(DiskCache(root, stats))
    reports = check_program(
        program, raise_on_error=False, obligation_store=store, stats=stats,
    )
    check_mod.clear_obligation_memo()
    assert [(e.reason, e.counterexample)
            for report in reports for e in report.errors] == fresh_errors
    assert stats.counter("smt.disk_hit") == 0
    assert stats.counter("smt.disk_miss") == len(planted)
    assert stats.counter("smt.queries") == len(planted)
    assert saved == planted  # re-solved to the same verdicts, re-stored
    report = run_fsck(root)
    assert report.consistent and report.scanned == 2 * len(planted)
