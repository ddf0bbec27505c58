"""Tests for the optimize/simulate stages and pass-pipeline cache keys."""

from repro.designs.fpu import FPU_LA_SOURCE
from repro.driver import CompileSession
from repro.generators.flopoco import FloPoCoGenerator


def generators(frequency=400):
    return [FloPoCoGenerator(frequency)]


def test_optimize_stage_shrinks_and_preserves_interface():
    session = CompileSession()
    base = session.optimize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=0
    ).value
    opt = session.optimize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=2
    ).value
    assert opt.cells_after < base.cells_after
    assert opt.opt_level == 2 and base.opt_level == 0
    assert sorted(opt.module.ports) == sorted(base.module.ports)
    # -O0 runs no passes; -O2 reports what each pass did.
    assert base.pass_stats == []
    assert sum(s.cells_removed for s in opt.pass_stats) == opt.cells_removed


def test_optimize_stage_is_cached_per_pipeline():
    session = CompileSession()
    first = session.optimize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=2
    )
    again = session.optimize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=2
    )
    assert again.value is first.value
    assert again.from_cache and not first.from_cache
    assert session.stats.hit_count("optimize") == 1
    # A different pipeline is a different artifact, not a stale hit.
    other = session.optimize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=1
    )
    assert other is not first
    assert session.stats.miss_count("optimize") == 2


def test_a_later_hit_leaves_the_first_callers_provenance_alone():
    session = CompileSession()
    first = session.optimize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=2
    )
    # simulate looks its netlist up through optimize: a memory hit.
    session.simulate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=2,
        cycles=4,
    )
    assert session.stats.hit_count("optimize") == 1
    assert not first.from_cache


def test_pipeline_change_invalidates_downstream_stages():
    session = CompileSession()
    plain = session.emit_verilog(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=0
    )
    optimized = session.emit_verilog(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=2
    )
    assert plain.key != optimized.key
    assert plain.value != optimized.value  # fewer cells → different text
    report0 = session.synthesize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=0
    ).value
    report2 = session.synthesize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), opt_level=2
    ).value
    assert report2.registers <= report0.registers


def test_session_default_opt_level_applies_to_stages():
    plain = CompileSession()
    tuned = CompileSession(opt_level=2)
    module_a = plain.optimize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators()
    ).value
    module_b = tuned.optimize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators()
    ).value
    assert module_b.cells_after < module_a.cells_after


def test_simulate_stage_is_deterministic_and_differential():
    session = CompileSession()
    kwargs = dict(cycles=64, seed=42)
    trace0 = session.simulate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(),
        opt_level=0, **kwargs
    ).value
    trace2 = session.simulate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(),
        opt_level=2, **kwargs
    ).value
    assert len(trace0.outputs) == 64
    # Differential simulation: optimization must not change behaviour.
    assert trace0.outputs == trace2.outputs
    # Same request → cached artifact; different seed → different trace.
    assert session.simulate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(),
        opt_level=0, **kwargs
    ).value is trace0
    reseeded = session.simulate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(),
        opt_level=0, cycles=64, seed=43,
    ).value
    assert reseeded.outputs != trace0.outputs


def test_compile_front_door_reaches_new_stages():
    session = CompileSession(opt_level=2)
    result = session.compile(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(),
        stages=("elaborate", "optimize", "simulate"),
    )
    assert result.optimized is not None
    assert result.trace is not None
    assert "pass.dead-cell-elim" in result.timings()


def test_pass_statistics_surface_on_the_session():
    session = CompileSession(opt_level=2)
    session.optimize(FPU_LA_SOURCE, "FPU", {"#W": 32}, generators())
    summary = session.pass_summary()
    assert summary["common-cell-sharing"]["runs"] == 2
    stats = session.stats_dict()
    assert stats["opt_level"] == 2
    assert "hits" in stats["cache"]
    assert "dead-cell-elim" in stats["passes"]
    assert "cells removed" in session.render_pass_stats()


def test_o2_entries_from_before_slice_narrowing_stay_inert(tmp_path):
    """A store written under the version-1 ``-O2`` pipeline holds
    netlists whose slices still read through concats.  Their keys name
    ``delay-coalesce@1``, so a session over them misses, recomputes and
    stores new entries, and the old ones stay digest-valid for fsck.
    The planted trace is the real one with every output flipped, so
    serving it would change the result."""
    from repro.designs.catalog import design_point
    from repro.driver import DiskCache, run_fsck
    from repro.driver.artifact import OptimizedNetlist, SimTrace, StageArtifact
    from repro.rtl import flatten
    from repro.rtl.passes import DelayCoalesce, PassManager, pipeline_for_level

    class VersionOneCoalesce(DelayCoalesce):
        version = 1

        @staticmethod
        def _narrow_slices(module):
            return 0

    pipeline = pipeline_for_level(2)
    new_print = pipeline.fingerprint()
    assert "delay-coalesce@2" in new_print
    old_pipeline = PassManager([
        VersionOneCoalesce() if isinstance(p, DelayCoalesce) else p
        for p in pipeline.passes
    ])
    old_print = old_pipeline.fingerprint()
    assert old_print == tuple(
        "delay-coalesce@1" if part == "delay-coalesce@2" else part
        for part in new_print
    )

    def old_key(key):
        return tuple(old_print if part == new_print else part for part in key)

    source, component, generators, params = design_point("blas")
    design = (source, component, params, generators)
    fresh = CompileSession(opt_level=2)
    optimized = fresh.optimize(*design)
    trace = fresh.simulate(*design, cycles=24, seed=5)
    old_module = flatten(fresh.elaborate(*design).value.module)
    old_stats = old_pipeline.run(old_module)
    assert (len(old_module.cells), optimized.value.cells_after) == (133, 118)
    planted = [
        StageArtifact("optimize", old_key(optimized.key), OptimizedNetlist(
            old_module, 2, optimized.value.cells_before, old_stats
        ), 0.0),
        StageArtifact("simulate", old_key(trace.key), SimTrace(
            [{port: value ^ 1 for port, value in cycle.items()}
             for cycle in trace.value.outputs],
            24, 5, 2, 0.0, 133, backend=trace.value.backend,
        ), 0.0),
    ]
    root = str(tmp_path)
    disk = DiskCache(root)
    for artifact in planted:
        assert disk.store(artifact.key, artifact)
    report = run_fsck(root)
    assert report.consistent and report.scanned == 2

    session = CompileSession(opt_level=2, cache_dir=root)
    again = session.optimize(*design)
    assert not again.from_cache
    retraced = session.simulate(*design, cycles=24, seed=5)
    assert not retraced.from_cache
    assert session.stats.counter("disk.hit") == 0
    assert session.stats.miss_count("optimize") == 1
    assert session.stats.miss_count("simulate") == 1
    assert again.value.module == optimized.value.module
    assert retraced.value.outputs == trace.value.outputs

    warm = CompileSession(opt_level=2, cache_dir=root)
    served = warm.simulate(*design, cycles=24, seed=5)
    assert served.from_cache and served.value.outputs == trace.value.outputs
    report = run_fsck(root)
    assert report.consistent and report.scanned == report.valid > 2
    for artifact in planted:
        assert DiskCache(root).load(artifact.key) is not None
