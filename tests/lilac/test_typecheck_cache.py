"""Differential tests for the obligation cache and discharge engines.

The load-bearing guarantee: a verdict served from the canonical
obligation cache (memory or disk) is *identical* — status and model —
to what the solver would have produced freshly, for every obligation of
every catalog design.
"""

import pytest

from repro import smt
from repro.designs.catalog import DESIGNS, design_point
from repro.driver import CacheStats, DiskCache, PseudoStore
from repro.lilac.stdlib import stdlib_program
from repro.lilac.typecheck import check_program
from repro.lilac.typecheck import check as check_mod


def _smt_store(root, stats) -> PseudoStore:
    return PseudoStore(
        DiskCache(root, stats), "smt", smt.SOLVER_VERSION,
        check_mod.valid_verdict_payload,
    )


@pytest.fixture(autouse=True)
def _cold_memo():
    """Each test starts with a cold in-process obligation memo."""
    check_mod.clear_obligation_memo()
    yield
    check_mod.clear_obligation_memo()


def _recording_results():
    """Patch the discharge cache entry point to record every obligation's
    (status, model) in order."""
    recorded = []
    original = check_mod.ComponentChecker._cached_discharge

    def patched(self, assertions, solve):
        result = original(self, assertions, solve)
        recorded.append((result.status, result.model))
        return result

    return recorded, patched, original


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_cached_equals_fresh_across_catalog(design, tmp_path, monkeypatch):
    """Cold (solver) vs warm (disk-hit) per-obligation verdicts are
    identical for every catalog design, and the warm run never invokes
    the solver."""
    source, _, _, _ = design_point(design)
    program = stdlib_program(source)

    recorded, patched, original = _recording_results()
    monkeypatch.setattr(
        check_mod.ComponentChecker, "_cached_discharge", patched
    )

    stats_cold = CacheStats()
    store = _smt_store(str(tmp_path / "smt"), stats_cold)
    cold_reports = check_program(
        program, raise_on_error=False, obligation_store=store,
        stats=stats_cold,
    )
    cold = list(recorded)
    assert stats_cold.counter("smt.queries") > 0

    # Fresh process-equivalent: clear the in-memory memo so every
    # verdict must come from the persistent store.
    check_mod.clear_obligation_memo()
    recorded.clear()
    stats_warm = CacheStats()
    warm_store = _smt_store(str(tmp_path / "smt"), stats_warm)
    warm_reports = check_program(
        program, raise_on_error=False, obligation_store=warm_store,
        stats=stats_warm,
    )
    warm = list(recorded)

    assert warm == cold  # statuses AND models, obligation by obligation
    assert stats_warm.counter("smt.queries") == 0
    assert stats_warm.counter("smt.disk_hit") > 0
    assert [len(r.errors) for r in warm_reports] == [
        len(r.errors) for r in cold_reports
    ]


def test_engines_agree_on_catalog_statuses(monkeypatch):
    """The shared incremental solver and the one-shot
    ``_solve_obligation`` (the ``degrade.solver`` rung) reach the same
    status on every obligation of five catalog designs; gbp, the sixth,
    is left out for time."""
    pairs = []
    original = check_mod.ComponentChecker._recovering_discharge

    def patched(self, obligation, assertions, solve, on_degrade):
        result = original(self, obligation, assertions, solve, on_degrade)
        oneshot = self._solve_obligation(obligation)
        pairs.append((obligation.message, result.status, oneshot.status))
        return result

    monkeypatch.setattr(
        check_mod.ComponentChecker, "_recovering_discharge", patched
    )
    for design in ("blas", "fft", "flofft", "fpu", "risc"):
        source, _, _, _ = design_point(design)
        check_program(stdlib_program(source), raise_on_error=False)
    assert len(pairs) == 1343
    assert [p for p in pairs if p[1] != p[2]] == []


def test_sat_models_survive_the_cache(tmp_path, monkeypatch):
    """A failing design's counterexample is identical cached vs fresh."""
    source = """
gen "flopoco" comp FPAdd[#W]<G:1>(
    l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };

comp Bad[#W]<G:1>(l: [G, G+1] #W, r: [G, G+1] #W) -> (o: [G, G+1] #W) {
  Add := new FPAdd[#W];
  add := Add<G>(l, r);
  o = add.o;
}
"""
    program = stdlib_program(source)
    recorded, patched, original = _recording_results()
    monkeypatch.setattr(
        check_mod.ComponentChecker, "_cached_discharge", patched
    )
    stats = CacheStats()
    store = _smt_store(str(tmp_path / "smt"), stats)
    cold_reports = check_program(
        program, raise_on_error=False, obligation_store=store, stats=stats
    )
    assert any(r.errors for r in cold_reports)
    cold = list(recorded)
    assert any(status == "sat" for status, _ in cold)

    check_mod.clear_obligation_memo()
    recorded.clear()
    warm_reports = check_program(
        program, raise_on_error=False,
        obligation_store=_smt_store(str(tmp_path / "smt"), CacheStats()),
    )
    assert recorded == cold
    assert [e.counterexample for r in warm_reports for e in r.errors] == [
        e.counterexample for r in cold_reports for e in r.errors
    ]


def test_typecheck_error_pickle_round_trip():
    """Failing reports travel through the disk cache and process pools;
    TypeCheckError must survive pickling with all fields intact."""
    import pickle

    from repro.lilac.typecheck import TypeCheckError

    error = TypeCheckError("FPU", "boom", {"#W": 3}, kind="latency")
    clone = pickle.loads(pickle.dumps(error))
    assert clone.component == "FPU"
    assert clone.reason == "boom"
    assert clone.counterexample == {"#W": 3}
    assert clone.kind == "latency"


def test_memo_dedupes_alpha_equivalent_obligations():
    """Within one run the canonical memo answers repeated obligations."""
    source, _, _, _ = design_point("fpu")
    program = stdlib_program(source)
    stats = CacheStats()
    check_program(program, raise_on_error=False, stats=stats)
    assert stats.counter("smt.memo_hit") > 0
    assert stats.counter("smt.queries") < (
        stats.counter("smt.queries") + stats.counter("smt.memo_hit")
    )


def test_concurrent_misses_on_one_obligation_solve_it_once(tmp_path):
    """Grid threads missing the memo on one assertion set: the first
    solves and stores the verdict, and the others wait for it instead
    of solving and storing it again."""
    import sys
    import threading
    import time

    source, component, _, _ = design_point("fpu")
    program = stdlib_program(source)
    stats = CacheStats()
    store = _smt_store(str(tmp_path / "smt"), stats)
    x = smt.Int("x")
    assertions = [smt.Ge(x, 3), smt.Le(x, 5)]
    solves = []

    def solve():
        solves.append(threading.current_thread().name)
        time.sleep(0.2)  # every other thread misses the memo meanwhile
        return smt.check_sat(smt.And(*assertions))

    verdicts = {}

    def discharge():
        checker = check_mod.ComponentChecker(
            program, program.get(component),
            obligation_store=store, stats=stats,
        )
        verdicts[threading.current_thread().name] = (
            checker._cached_discharge(assertions, solve)
        )

    threads = [threading.Thread(target=discharge) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(solves) == 1, solves
    first, *rest = verdicts.values()
    assert len(rest) == 3 and first.status == smt.SAT
    assert all((v.status, v.model) == (first.status, first.model)
               for v in rest)
    assert stats.counter("smt.queries") == 1
    assert stats.counter("smt.memo_hit") == 3
    assert stats.counter("smt.store") == 1
