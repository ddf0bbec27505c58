"""The whole-run wall-time attributor behind ``repro profile``.

:class:`RunProfiler` snapshots a session's timer counters around a
block of work and splits the elapsed wall clock into ``compute.*``
(stage recomputation) and ``wait.*`` (disk I/O, cache-lock contention,
pool queueing) sites.  The report is a *site* view, not a partition —
nested and parallel sites may overlap — which the rendering states
outright and the arithmetic here pins down.
"""

from repro.driver import CompileSession, EvalGrid, RunProfiler, RunReport
from repro.driver.profiler import simulate_catalog_point

SOURCE = """
comp Double[#W]<G:1>(x: [G, G+1] #W) -> (y: [G+1, G+2] #W) {
  s := new Add[#W]<G>(x, x);
  r := new Reg[#W]<G>(s.out);
  y = r.out;
}
"""


def test_profiler_attributes_cold_compute(tmp_path):
    session = CompileSession(cache_dir=str(tmp_path))
    with RunProfiler(session) as profiler:
        session.simulate(SOURCE, "Double", {"#W": 8}, cycles=64)
    report = profiler.report()
    assert report.wall_seconds > 0.0
    assert report.compute_seconds > 0.0
    assert "simulate" in report.compute
    # The disk-backed session at least wrote artifacts out.
    assert "disk_write" in report.waits
    payload = report.to_dict()
    assert payload["wall_seconds"] == report.wall_seconds
    assert payload["compute"]["simulate"] > 0.0
    text = report.render()
    assert "run profile:" in text
    assert "simulate" in text
    assert "not a partition" in text  # the caveat ships with the data


def test_profiler_baseline_excludes_prior_work(tmp_path):
    session = CompileSession(cache_dir=str(tmp_path))
    session.simulate(SOURCE, "Double", {"#W": 8}, cycles=64)  # outside
    with RunProfiler(session) as profiler:
        session.simulate(SOURCE, "Double", {"#W": 8}, cycles=64)  # hit
    report = profiler.report()
    # The repeat is a pure in-memory cache hit: no compute site moved,
    # even though the session's cumulative timers are non-zero.
    assert report.compute == {}
    assert report.wall_seconds >= report.compute_seconds


def test_unattributed_time_clamps_at_zero():
    # Parallel compute sites can sum past the wall clock; the residual
    # must clamp instead of going negative.
    report = RunReport(
        wall_seconds=1.0,
        compute={"simulate": 1.5, "optimize": 0.5},
        waits={"pool_queue": 0.25},
    )
    assert report.compute_seconds == 2.0
    assert report.wait_seconds == 0.25
    assert report.unattributed_seconds == 0.0
    lean = RunReport(wall_seconds=1.0, compute={"parse": 0.25}, waits={})
    assert abs(lean.unattributed_seconds - 0.75) < 1e-12


def test_grid_worker_reports_pool_queue_waits(tmp_path):
    session = CompileSession(cache_dir=str(tmp_path))
    grid = EvalGrid(session, max_workers=2)
    with RunProfiler(session) as profiler:
        rows = grid.map(
            simulate_catalog_point,
            [("fpu", 32, 0), ("fft", 32, 0)],
        )
    assert [row["design"] for row in rows] == ["fpu", "fft"]
    assert all(row["run_seconds"] >= 0.0 for row in rows)
    assert all(row["cells"] > 0 for row in rows)
    report = profiler.report()
    # Queue waits may round to ~0 when a worker was free immediately —
    # the site only appears in the report when time actually accrued,
    # but whatever is there must be non-negative.
    assert report.waits.get("pool_queue", 0.0) >= 0.0


def test_profiler_reports_fault_recovery_counters(tmp_path):
    """Injected faults and their recoveries show up in the run report
    as counter deltas scoped to the profiled block."""
    session = CompileSession(
        cache_dir=str(tmp_path), fault_plan="disk.read"
    )
    with RunProfiler(session) as profiler:
        session.simulate(SOURCE, "Double", {"#W": 8}, cycles=16)
    report = profiler.report()
    assert report.faults["fault.injected.disk.read"] == 1
    assert report.faults["retry.disk.read"] == 1
    assert report.to_dict()["faults"] == report.faults
    text = report.render()
    assert "faults" in text
    assert "fault.injected.disk.read" in text


def test_profiler_fault_section_is_baseline_relative(tmp_path):
    session = CompileSession(
        cache_dir=str(tmp_path), fault_plan="disk.read"
    )
    session.synthesize(SOURCE, "Double", {"#W": 8})
    with RunProfiler(session) as profiler:
        pass  # the injection happened before the profiled block
    report = profiler.report()
    assert not report.faults
    assert "fault.injected" not in report.render()
