"""Benchmark: the SMT-backed type checker, cold vs warm vs parallel.

Writes ``BENCH_typecheck.json`` under the test's ``tmp_path``, so a test
run never rewrites the committed copy at the repo root; refresh that
copy by hand with a fixed base directory and a copy::

    PYTHONPATH=src python -m pytest benchmarks/test_typecheck.py -q \
        --basetemp /tmp/bench
    cp /tmp/bench/test_typecheck_benchmark0/BENCH_typecheck.json .

It records per-design wall clocks for

* ``legacy`` — the pre-PR5 pipeline, reachable in-binary via
  ``$REPRO_SMT_LEGACY=1`` (one-shot discharge, monolithic theory checks,
  unbudgeted chunk minimization, full-rescan SAT propagation, no LIA
  redundancy elimination, no memos, no verdict caches);
* ``cold`` — the accelerated front end (incremental DPLL(T) engine with
  hash-consed terms, component-decomposed memoized theory checks,
  certificate-based conflict minimization, canonical obligation memo)
  started with every process-level cache cleared;
* ``warm`` — a cleared-memo run answered entirely by the persistent
  obligation store (the disk cache's "smt" pseudo-stage);
* ``parallel`` — the session's ``typecheck_jobs`` fan-out (recorded, not
  asserted: single-core CI boxes gain nothing).

The committed JSON additionally records the actual PR4 checkout's gbp
wall clock measured on the development machine when this change was
made, so the headline speedups are anchored to a real baseline, not just
the in-binary legacy mode (which still benefits from ungateable
substrate work such as term interning).

Assertions encode the acceptance bars with CI-tunable thresholds:
``$REPRO_BENCH_MIN_TC_SPEEDUP`` (cold vs legacy, default 1.4) and
``$REPRO_BENCH_MIN_TC_WARM_SPEEDUP`` (warm vs legacy, default 8).
``$REPRO_BENCH_TC_DESIGNS`` restricts the design set for smoke runs.
"""

import json
import math
import os
import time

from repro import smt
from repro.designs.catalog import design_point
from repro.driver import CacheStats, CompileSession, DiskCache, ObligationStore
from repro.lilac.stdlib import stdlib_program
from repro.lilac.typecheck import check_program
from repro.lilac.typecheck import check as check_mod

DESIGNS = tuple(
    name.strip()
    for name in os.environ.get("REPRO_BENCH_TC_DESIGNS", "gbp,fpu").split(",")
    if name.strip()
)
MIN_TC_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_TC_SPEEDUP", "1.4"))
MIN_TC_WARM_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_TC_WARM_SPEEDUP", "8.0")
)

#: The slowest catalog design — the acceptance bars are measured on it.
HEADLINE = "gbp"

#: PR4 checkout, this repository, measured on the development machine at
#: the time of this change: ``check_program`` over the gbp design source,
#: fresh process.  Anchors the headline ratios to the real predecessor.
PR4_RECORDED_GBP_COLD_SECONDS = 12.25


def _sig(value: float, digits: int = 3) -> float:
    """Round to ``digits`` significant figures — committed benchmark
    figures carry measurement jitter, not precision, and fewer digits
    keep regeneration diffs small."""
    if not value or not math.isfinite(value):
        return value
    return round(value, digits - 1 - math.floor(math.log10(abs(value))))


def _cold_caches():
    smt.clear_solver_caches()
    check_mod.clear_obligation_memo()


def _timed_check(program, store=None, stats=None):
    start = time.perf_counter()
    reports = check_program(
        program, raise_on_error=False, obligation_store=store, stats=stats
    )
    seconds = time.perf_counter() - start
    assert all(r.ok for r in reports), "benchmark designs must check clean"
    return seconds, reports


def _bench_design(name, tmp_path):
    source, _, _, _ = design_point(name)
    program = stdlib_program(source)

    # Legacy baseline (bypasses every PR5 cache by construction).
    os.environ["REPRO_SMT_LEGACY"] = "1"
    try:
        _cold_caches()
        legacy_seconds, reports = _timed_check(program)
    finally:
        os.environ.pop("REPRO_SMT_LEGACY", None)
    obligations = sum(r.obligations for r in reports)

    # Cold: accelerated engine, empty caches, populate the disk store.
    _cold_caches()
    stats_cold = CacheStats()
    store = ObligationStore(
        DiskCache(str(tmp_path / f"smt-{name}"), stats_cold)
    )
    cold_seconds, _ = _timed_check(program, store=store, stats=stats_cold)

    # Warm: cleared memos, verdicts answered from disk only.
    _cold_caches()
    stats_warm = CacheStats()
    warm_store = ObligationStore(
        DiskCache(str(tmp_path / f"smt-{name}"), stats_warm)
    )
    warm_seconds, _ = _timed_check(
        program, store=warm_store, stats=stats_warm
    )
    assert stats_warm.counter("smt.queries") == 0, (
        "warm run must be solver-free"
    )

    # Parallel: the session fan-out (process pool, disk rendezvous).
    _cold_caches()
    session = CompileSession(
        typecheck_jobs=2,
        typecheck_executor="process",
        cache_dir=str(tmp_path / f"grid-{name}"),
    )
    start = time.perf_counter()
    session.typecheck(source)
    parallel_seconds = time.perf_counter() - start

    return {
        "name": name,
        "obligations": obligations,
        "legacy_seconds": _sig(legacy_seconds),
        "cold_seconds": _sig(cold_seconds),
        "warm_seconds": _sig(warm_seconds),
        "parallel_seconds": _sig(parallel_seconds),
        "speedup_cold_vs_legacy": _sig(legacy_seconds / cold_seconds),
        "speedup_warm_vs_legacy": _sig(legacy_seconds / warm_seconds),
        "cold_solver_queries": stats_cold.counter("smt.queries"),
        "cold_memo_hits": stats_cold.counter("smt.memo_hit"),
        "cold_disk_stores": stats_cold.counter("smt.store"),
        "warm_disk_hits": stats_warm.counter("smt.disk_hit"),
    }


def test_typecheck_benchmark(tmp_path):
    rows = [_bench_design(name, tmp_path) for name in DESIGNS]

    payload = {
        "generated_by": "benchmarks/test_typecheck.py",
        "designs": rows,
        "headline_design": HEADLINE,
        "pr4_recorded": {
            "design": HEADLINE,
            "cold_seconds": PR4_RECORDED_GBP_COLD_SECONDS,
            "note": (
                "actual PR4 checkout measured on the development machine "
                "at the time of this change (fresh process, check_program "
                "over the gbp source)"
            ),
        },
        "thresholds": {
            "min_cold_speedup_vs_legacy": MIN_TC_SPEEDUP,
            "min_warm_speedup_vs_legacy": MIN_TC_WARM_SPEEDUP,
        },
    }
    headline = next((row for row in rows if row["name"] == HEADLINE), None)
    if headline is not None:
        payload["headline"] = {
            "speedup_cold_vs_pr4_recorded": _sig(
                PR4_RECORDED_GBP_COLD_SECONDS / headline["cold_seconds"]
            ),
            "speedup_warm_vs_pr4_recorded": _sig(
                PR4_RECORDED_GBP_COLD_SECONDS / headline["warm_seconds"]
            ),
            "speedup_cold_vs_legacy": headline["speedup_cold_vs_legacy"],
            "speedup_warm_vs_legacy": headline["speedup_warm_vs_legacy"],
        }
    bench_path = tmp_path / "BENCH_typecheck.json"
    bench_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    print("\nTypecheck benchmark (seconds):\n")
    for row in rows:
        print(
            f"  {row['name']:8s} {row['obligations']:4d} obligations  "
            f"legacy {row['legacy_seconds']:7.2f}  "
            f"cold {row['cold_seconds']:7.2f} "
            f"({row['speedup_cold_vs_legacy']:.2f}x)  "
            f"warm {row['warm_seconds']:7.3f} "
            f"({row['speedup_warm_vs_legacy']:.0f}x)  "
            f"parallel {row['parallel_seconds']:7.2f}"
        )
    if headline is not None:
        h = payload["headline"]
        print(
            f"\n  {HEADLINE} vs recorded PR4 baseline "
            f"({PR4_RECORDED_GBP_COLD_SECONDS:.2f}s): cold "
            f"{h['speedup_cold_vs_pr4_recorded']:.2f}x, warm "
            f"{h['speedup_warm_vs_pr4_recorded']:.0f}x"
        )
    print(f"  wrote {bench_path}")

    for row in rows:
        if row["name"] != HEADLINE:
            continue
        assert row["speedup_cold_vs_legacy"] >= MIN_TC_SPEEDUP, row
        assert row["speedup_warm_vs_legacy"] >= MIN_TC_WARM_SPEEDUP, row
        assert row["warm_disk_hits"] > 0, row
