"""EvalGrid: parallel fan-out with worker-count-independent results."""

import threading
import time

import pytest

from repro.designs.fpu import FPU_LA_SOURCE
from repro.driver import CompileSession, EvalGrid, RunLedger
from repro.generators.flopoco import FloPoCoGenerator

FREQUENCIES = (100, 150, 250, 400, 100, 400)


def _latency(session, frequency):
    artifact = session.elaborate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, [FloPoCoGenerator(frequency)]
    )
    return artifact.value.out_params["#L"]


def test_results_keep_point_order():
    grid = EvalGrid(CompileSession(), max_workers=3)
    assert grid.map(lambda s, x: x * 2, [3, 1, 2]) == [6, 2, 4]


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_results_independent_of_worker_count(workers):
    baseline = EvalGrid(CompileSession(), max_workers=1).map(
        _latency, FREQUENCIES
    )
    grid = EvalGrid(CompileSession(), max_workers=workers)
    assert grid.map(_latency, FREQUENCIES) == baseline


def test_duplicate_points_elaborate_once():
    session = CompileSession()
    grid = EvalGrid(session, max_workers=4)
    results = grid.map(_latency, (400,) * 8)
    assert results == [4] * 8
    # single-flight: the seven waiters are hits on the one computation.
    assert session.stats.miss_count("elaborate") == 1
    assert session.stats.hit_count("elaborate") == 7


def test_grid_runs_points_concurrently():
    """With enough workers every point is in flight at once."""
    barrier = threading.Barrier(4, timeout=10)

    def rendezvous(session, point):
        barrier.wait()  # deadlocks (and times out) if run sequentially
        return point

    grid = EvalGrid(CompileSession(), max_workers=4)
    assert grid.map(rendezvous, [1, 2, 3, 4]) == [1, 2, 3, 4]


def test_worker_exception_propagates():
    def boom(session, point):
        if point == 2:
            raise RuntimeError("grid point failed")
        return point

    grid = EvalGrid(CompileSession(), max_workers=2)
    with pytest.raises(RuntimeError, match="grid point failed"):
        grid.map(boom, [1, 2, 3])


def test_failing_worker_cancels_outstanding_points():
    """A raise prunes the queue instead of draining the whole grid.

    Two workers (the pool path — one worker short-circuits to a plain
    loop) and an immediately-failing first point: the failure cancels
    the ~40 queued points, so only the couple already in flight run.
    The old drain-then-raise behavior executed every one of them.
    """
    executed = []

    def worker(session, point):
        if point == "boom":
            raise RuntimeError("first point fails")
        executed.append(point)
        time.sleep(0.005)
        return point

    points = ["boom"] + list(range(40))
    grid = EvalGrid(CompileSession(), max_workers=2)
    with pytest.raises(RuntimeError, match="first point fails"):
        grid.map(worker, points)
    assert len(executed) < 10, executed


def test_grid_rejects_unknown_executor():
    for executor in ("fiber", "auto"):
        with pytest.raises(ValueError, match="unknown executor"):
            EvalGrid(CompileSession(), executor=executor)


# -- process executor ---------------------------------------------------


def _simulate_trace(session, name):
    """Module-level (hence picklable) worker: a compiled simulate."""
    from repro.designs.catalog import design_point

    source, component, generators, params = design_point(name)
    return session.simulate(
        source, component, params, generators,
        cycles=24, seed=0xA5, opt_level=2, backend="compiled",
    ).value.outputs


def test_process_grid_matches_thread_grid(tmp_path):
    """Workers rebuilt from session.spec() in separate processes must
    produce bit-identical results, rendezvousing via the disk cache."""
    cache = str(tmp_path / "grid-cache")
    points = ("fpu", "risc", "blas")
    thread = EvalGrid(
        CompileSession(opt_level=2, cache_dir=cache),
        max_workers=3,
        executor="thread",
    ).map(_simulate_trace, points)
    process = EvalGrid(
        CompileSession(opt_level=2, cache_dir=cache),
        max_workers=3,
        executor="process",
    ).map(_simulate_trace, points)
    assert process == thread


def test_process_workers_rendezvous_through_the_disk_cache(tmp_path):
    cache = str(tmp_path / "grid-cache")
    EvalGrid(
        CompileSession(opt_level=2, cache_dir=cache),
        max_workers=2,
        executor="process",
    ).map(_simulate_trace, ("fpu", "risc"))
    # The children persisted their artifacts: a warm in-process session
    # over the same directory is served without computing anything.
    from repro.designs.catalog import design_point

    warm = CompileSession(opt_level=2, cache_dir=cache)
    source, component, generators, params = design_point("fpu")
    artifact = warm.simulate(
        source, component, params, generators,
        cycles=24, seed=0xA5, opt_level=2, backend="compiled",
    )
    assert artifact.from_cache
    assert warm.stats.counter("disk.hit") >= 1


# -- fault tolerance: retries, the degradation ladder -------------------


def test_injected_crash_is_retried_in_thread_mode():
    session = CompileSession(fault_plan="worker.crash:2@1")
    grid = EvalGrid(session, max_workers=2)
    assert grid.map(lambda s, p: p * 10, [1, 2, 3, 4]) == [10, 20, 30, 40]
    assert session.stats.counter("retry.worker") == 2
    assert session.stats.counter("fault.injected.worker.crash") == 2
    assert session.stats.counter("degrade.executor") == 0


def test_injected_crash_is_retried_serially():
    session = CompileSession(fault_plan="worker.crash")
    grid = EvalGrid(session, max_workers=1)
    assert grid.map(lambda s, p: p + 1, [1, 2]) == [2, 3]
    assert session.stats.counter("retry.worker") == 1


def test_crash_retries_exhaust_and_propagate(monkeypatch):
    from repro.driver import grid as grid_module
    from repro.driver.faults import InjectedCrash

    monkeypatch.setattr(grid_module, "POINT_RETRY_BACKOFF_SECONDS", 0.001)
    session = CompileSession(fault_plan="worker.crash:9")
    grid = EvalGrid(session, max_workers=2)
    with pytest.raises(InjectedCrash):
        grid.map(lambda s, p: p, [1, 2, 3])
    assert session.stats.counter("retry.worker") == (
        grid_module.POINT_RETRY_LIMIT
    )


def test_a_worker_timeout_error_is_a_genuine_failure():
    """Only an injected crash is retried in place: a ``TimeoutError``
    the worker raises itself propagates on its first raise."""
    calls = []

    def times_out(session, point):
        calls.append(point)
        if point == 2:
            raise TimeoutError("worker gave up")
        return point

    session = CompileSession()
    grid = EvalGrid(session, max_workers=2)
    with pytest.raises(TimeoutError, match="worker gave up"):
        grid.map(times_out, [1, 2, 3])
    assert calls.count(2) == 1
    assert session.stats.counter("retry.worker") == 0


def test_spawn_failure_degrades_process_to_thread(tmp_path):
    session = CompileSession(
        cache_dir=str(tmp_path), fault_plan="worker.spawn"
    )
    grid = EvalGrid(session, max_workers=2, executor="process")
    with pytest.warns(RuntimeWarning, match="degraded process -> thread"):
        assert grid.map(_double, [1, 2, 3]) == [2, 4, 6]
    assert session.stats.counter("degrade.executor") == 1
    assert session.stats.counter("fault.injected.worker.spawn") == 1


def test_worker_process_death_degrades_to_thread(tmp_path):
    """A real worker death (os._exit via the injected crash) surfaces
    as BrokenProcessPool; the grid re-runs the sweep on threads with
    identical results."""
    session = CompileSession(
        cache_dir=str(tmp_path), fault_plan="worker.crash"
    )
    grid = EvalGrid(session, max_workers=2, executor="process")
    with pytest.warns(RuntimeWarning, match="degraded process -> thread"):
        assert grid.map(_double, [1, 2, 3]) == [2, 4, 6]
    assert session.stats.counter("degrade.executor") == 1


def _double(session, point):
    return point * 2


def test_figure13_rows_match_across_worker_counts():
    """A real evalx grid: values identical no matter the pool size."""
    from repro.evalx import figure13

    sequential = figure13.build_rows(
        parallelisms=(4, 16), session=CompileSession(), workers=1
    )
    parallel = figure13.build_rows(
        parallelisms=(4, 16), session=CompileSession(), workers=4
    )
    for a, b in zip(sequential, parallel):
        assert a.parallelism == b.parallelism
        assert a.lilac.luts == b.lilac.luts
        assert a.lilac.registers == b.lilac.registers
        assert a.rv.luts == b.rv.luts
        assert a.rv.registers == b.rv.registers
        assert a.lilac.fmax_mhz == pytest.approx(b.lilac.fmax_mhz)
        assert a.rv.fmax_mhz == pytest.approx(b.rv.fmax_mhz)


# -- checkpointing: the run ledger --------------------------------------


def _triple(session, point):
    return point * 3


def test_ledgered_grid_resumes_without_recomputing(tmp_path):
    cache = str(tmp_path / "cache")
    cold = CompileSession(cache_dir=cache)
    cold.ledger = RunLedger(cold.cache.disk, "run-a")
    assert EvalGrid(cold, max_workers=1).map(
        _triple, [1, 2, 3]
    ) == [3, 6, 9]
    assert cold.stats.counter("checkpoint.store") == 3

    warm = CompileSession(cache_dir=cache)
    warm.ledger = RunLedger(warm.cache.disk, "run-a", resume=True)
    calls = []

    def tracked(session, point):
        calls.append(point)
        return _triple(session, point)

    tracked.__module__ = _triple.__module__
    tracked.__qualname__ = _triple.__qualname__  # same point identity
    assert EvalGrid(warm, max_workers=1).map(
        tracked, [1, 2, 3]
    ) == [3, 6, 9]
    assert calls == []  # every point served from the ledger
    assert warm.stats.counter("checkpoint.hit") == 3
    assert warm.ledger.results_digest == cold.ledger.results_digest


def test_grid_picks_up_the_session_attached_ledger(tmp_path):
    session = CompileSession(cache_dir=str(tmp_path))
    session.ledger = RunLedger(session.cache.disk, "run-s")
    assert EvalGrid(session, max_workers=1).map(_triple, [1, 2]) == [3, 6]
    assert session.stats.counter("checkpoint.store") == 2


def test_keyboard_interrupt_flushes_the_ledger_and_propagates(tmp_path):
    """Ctrl-C exits promptly — no retry, no next point — and what
    already completed is on disk for ``--resume``, with nothing left to
    flush."""
    session = CompileSession(cache_dir=str(tmp_path))
    session.ledger = RunLedger(session.cache.disk, "run-ki")

    def interrupt(sess, point):
        if point == 2:
            raise KeyboardInterrupt()
        return point

    grid = EvalGrid(session, max_workers=1)
    with pytest.raises(KeyboardInterrupt):
        grid.map(interrupt, [1, 2, 3])
    assert session.stats.counter("retry.worker") == 0
    assert session.stats.counter("checkpoint.store") == 1
    resumed = RunLedger(session.cache.disk, "run-ki", resume=True)
    assert len(resumed) == 1  # point 1 survived the interrupt
