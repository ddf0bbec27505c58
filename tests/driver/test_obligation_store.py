"""The persistent "smt" pseudo-stage: round-trips, validation, keys."""

import os

from repro.driver import CacheStats, DiskCache, ObligationStore


def _store(tmp_path):
    return ObligationStore(DiskCache(str(tmp_path / "cache"), CacheStats()))


def test_round_trip(tmp_path):
    store = _store(tmp_path)
    digest = "d" * 64
    assert store.load(digest) is None
    assert store.save(digest, "unsat", None)
    payload = store.load(digest)
    assert payload == {"digest": digest, "status": "unsat", "model": None}


def test_sat_model_round_trip(tmp_path):
    store = _store(tmp_path)
    digest = "e" * 64
    model = {"?v000000": 3, "(FPAdd.#L ?v000001)": 2}
    store.save(digest, "sat", model)
    assert store.load(digest)["model"] == model


def test_counters(tmp_path):
    store = _store(tmp_path)
    digest = "f" * 64
    store.load(digest)
    store.save(digest, "unsat", None)
    store.load(digest)
    stats = store.disk.stats
    assert stats.counter("smt.disk_miss") == 1
    assert stats.counter("smt.store") == 1
    assert stats.counter("smt.disk_hit") == 1


def test_invalid_payload_is_a_miss(tmp_path):
    store = _store(tmp_path)
    digest = "a" * 64
    # store under one digest, ask for another: key mismatch, miss.
    store.save(digest, "unsat", None)
    assert store.load("b" * 64) is None


def test_corrupt_entry_quarantined(tmp_path):
    store = _store(tmp_path)
    digest = "c" * 64
    store.save(digest, "unsat", None)
    path = store.disk._entry_path(ObligationStore._key(digest))
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        handle.seek(size // 2)
        handle.write(b"\xff\xff\xff")
    assert store.load(digest) is None  # quarantined, not served
    assert not os.path.exists(path)
    assert store.disk.stats.counter("disk.corrupt") == 1


def test_key_carries_solver_version(tmp_path):
    from repro.smt import SOLVER_VERSION

    key = ObligationStore._key("x" * 64)
    assert key[0] == "smt"
    assert key[-1] == SOLVER_VERSION


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
    from repro.smt import SOLVER_VERSION

    assert SOLVER_VERSION == 2
    program = stdlib_program(_FAILING_SOURCE)
    saved = []
    original_save = ObligationStore.save

    def recording_save(self, digest, status, model):
        saved.append((digest, status, model))
        return original_save(self, digest, status, model)

    monkeypatch.setattr(ObligationStore, "save", recording_save)
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
    store = ObligationStore(DiskCache(root, stats))
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
