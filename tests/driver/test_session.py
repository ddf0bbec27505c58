"""Tests for the staged compiler driver: stages, artifacts, caching."""

import pytest

from repro.designs.fpu import FPU_LA_SOURCE
from repro.driver import CompileSession, freeze_params, source_digest
from repro.generators.base import GeneratorError
from repro.generators.flopoco import FloPoCoGenerator
from repro.lilac.elaborate import ElabError

BAD_FPU = FPU_LA_SOURCE + """
comp BadFPU[#W]<G:1>(
    op: [G, G+1] 1, l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G, G+1] #W) {
  Add := new FPAdd[#W];
  add := Add<G>(l, r);
  o = add.o;
}
"""


def generators(frequency=400):
    return [FloPoCoGenerator(frequency)]


# ---------------------------------------------------------------------------
# Stage basics.


def test_parse_stage_returns_program():
    session = CompileSession()
    artifact = session.parse(FPU_LA_SOURCE)
    assert artifact.stage == "parse"
    assert artifact.value.has("FPU")
    assert artifact.value.has("Shift")  # stdlib merged
    assert artifact.seconds >= 0
    bare = session.parse(FPU_LA_SOURCE, stdlib=False)
    assert not bare.value.has("Shift")


def test_elaborate_stage_produces_schedule_and_sub_timings():
    session = CompileSession()
    artifact = session.elaborate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators()
    )
    elab = artifact.value
    assert elab.out_params["#L"] == 4
    assert elab.delay == 1
    # wellformed + lower run inside elaboration and surface as sub-stages.
    assert "wellformed" in artifact.sub_timings
    assert "lower" in artifact.sub_timings


def test_emit_verilog_and_synthesize_stages():
    session = CompileSession()
    verilog = session.emit_verilog(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators()
    )
    assert "module FPU_32" in verilog.value
    report = session.synthesize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators()
    )
    assert report.value.luts > 0
    assert report.value.registers > 0


def test_typecheck_stage_reports_errors_as_diagnostics():
    session = CompileSession()
    artifact = session.typecheck(BAD_FPU, "BadFPU")
    assert not artifact.ok
    assert artifact.errors
    assert "requires" in artifact.errors[0].message
    good = session.typecheck(BAD_FPU, "FPU")
    assert good.ok


def test_compile_runs_requested_stages_in_order():
    session = CompileSession()
    result = session.compile(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators()
    )
    assert result.elab is not None
    assert "module FPU_32" in result.verilog
    assert result.report.luts > 0
    timings = result.timings()
    for stage in ("parse", "elaborate", "wellformed", "lower",
                  "emit_verilog", "synthesize"):
        assert stage in timings


def test_compile_runs_only_requested_stages():
    session = CompileSession()
    result = session.compile(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(),
        stages=("elaborate",),
    )
    assert result.elab is not None
    assert result.get("parse") is None
    assert result.verilog is None
    assert result.report is None


def test_compile_stops_on_failed_typecheck():
    session = CompileSession()
    result = session.compile(
        BAD_FPU, "BadFPU", {"#W": 8}, generators(),
        stages=("typecheck", "elaborate", "synthesize"),
    )
    assert not result.ok
    assert result.elab is None
    assert result.report is None


def test_compile_rejects_unknown_stage():
    session = CompileSession()
    with pytest.raises(ValueError):
        session.compile(FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(),
                        stages=("elaborate", "place_and_route"))


def test_elaboration_errors_propagate():
    session = CompileSession()
    # missing generator: surfaces from the gen-component stage
    with pytest.raises(GeneratorError):
        session.elaborate(FPU_LA_SOURCE, "FPU", {"#W": 32})
    # violated where-clause: surfaces from the elaborator
    with pytest.raises(ElabError):
        session.elaborate(
            FPU_LA_SOURCE, "FPU", {"#W": 32, "#X": 1},
            [FloPoCoGenerator(400)],
        )


# ---------------------------------------------------------------------------
# Caching: hits are identical artifacts, keys are content-addressed.


def test_cache_hit_returns_identical_artifact_without_rerun():
    session = CompileSession()
    first = session.elaborate(FPU_LA_SOURCE, "FPU", {"#W": 32}, generators())
    ran = session.stats.counter("elaborate.components")
    again = session.elaborate(FPU_LA_SOURCE, "FPU", {"#W": 32}, generators())
    assert again.value is first.value  # the very same value object
    assert again.from_cache and not first.from_cache
    assert session.stats.counter("elaborate.components") == ran  # no rerun
    assert session.stats.hit_count("elaborate") == 1
    assert session.stats.miss_count("elaborate") == 1


def test_cache_hits_across_equal_but_distinct_registries():
    session = CompileSession()
    first = session.elaborate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, [FloPoCoGenerator(400)]
    )
    again = session.elaborate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, [FloPoCoGenerator(400)]
    )
    # fingerprint is value-based, not identity-based
    assert again.value is first.value
    assert again.from_cache and not first.from_cache


def test_cache_invalidates_on_parameter_change():
    session = CompileSession()
    w32 = session.elaborate(FPU_LA_SOURCE, "FPU", {"#W": 32}, generators())
    w16 = session.elaborate(FPU_LA_SOURCE, "FPU", {"#W": 16}, generators())
    assert w16 is not w32
    assert w16.value.module.name != w32.value.module.name
    assert session.stats.miss_count("elaborate") == 2


def test_cache_invalidates_on_source_change():
    session = CompileSession()
    original = session.elaborate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators()
    )
    touched = FPU_LA_SOURCE + "\n// a trailing comment changes the digest\n"
    again = session.elaborate(touched, "FPU", {"#W": 32}, generators())
    assert again is not original
    assert session.stats.miss_count("elaborate") == 2


def test_cache_invalidates_on_generator_config_change():
    session = CompileSession()
    fast = session.elaborate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, [FloPoCoGenerator(400)]
    )
    slow = session.elaborate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, [FloPoCoGenerator(100)]
    )
    assert slow is not fast
    assert slow.value.out_params["#L"] != fast.value.out_params["#L"]


def test_shared_elaborator_reuses_children_across_calls():
    session = CompileSession()
    session.elaborate(FPU_LA_SOURCE, "FPU", {"#W": 32}, generators())
    ran = session.stats.counter("elaborate.components")
    # FPAdd was already elaborated as a child of FPU: the stage runs
    # (session-level miss) but no new component elaboration happens.
    session.elaborate(FPU_LA_SOURCE, "FPAdd", {"#W": 32}, generators())
    assert session.stats.counter("elaborate.components") == ran


def test_typecheck_cache_preserves_measured_time():
    session = CompileSession()
    first = session.typecheck(FPU_LA_SOURCE, "FPU")
    again = session.typecheck(FPU_LA_SOURCE, "FPU")
    assert again.value is first.value
    assert again.from_cache and not first.from_cache
    assert again.seconds == first.seconds  # original measurement survives


# ---------------------------------------------------------------------------
# Key helpers.


def test_freeze_params_is_order_insensitive_for_dicts():
    assert freeze_params({"#A": 1, "#B": 2}) == freeze_params(
        {"#B": 2, "#A": 1}
    )
    assert freeze_params([1, 2]) != freeze_params([2, 1])
    assert freeze_params(None) == freeze_params({})


def test_source_digest_is_stable_and_content_sensitive():
    assert source_digest("abc") == source_digest("abc")
    assert source_digest("abc") != source_digest("abd")


# ---------------------------------------------------------------------------
# Multi-lane simulate.


def test_simulate_lanes_are_distinct_cache_entries():
    session = CompileSession(sim_backend="compiled")
    single = session.simulate(FPU_LA_SOURCE, "FPU", {"#W": 32},
                              generators(), cycles=16)
    batch = session.simulate(FPU_LA_SOURCE, "FPU", {"#W": 32},
                             generators(), cycles=16, lanes=4)
    assert single is not batch
    assert session.stats.miss_count("simulate") == 2
    assert batch.value.lanes == 4
    assert len(batch.value.outputs) == 4
    # Lane 0 reproduces the single-lane trace (same derived seed).
    assert batch.value.outputs[0] == single.value.outputs
    # Requesting the same batch again is a hit.
    again = session.simulate(FPU_LA_SOURCE, "FPU", {"#W": 32},
                             generators(), cycles=16, lanes=4)
    assert again.value is batch.value
    assert again.from_cache and not batch.from_cache


def test_session_default_lanes_drive_simulate():
    session = CompileSession(sim_backend="compiled", sim_lanes=3)
    trace = session.simulate(FPU_LA_SOURCE, "FPU", {"#W": 32},
                             generators(), cycles=8).value
    assert trace.lanes == 3
    explicit = session.simulate(FPU_LA_SOURCE, "FPU", {"#W": 32},
                                generators(), cycles=8, lanes=1).value
    assert explicit.lanes == 1
    assert trace.outputs[0] == explicit.outputs


@pytest.mark.parametrize(
    "backend", ["batched", pytest.param("vector", marks=pytest.mark.numpy)]
)
def test_one_lane_lane_engine_simulate_matches_the_scalar_engines(backend):
    """A lane engine asked for one lane runs that lane through its lane
    surface: the trace equals the ``compiled`` and ``interp`` ones, and
    the artifact names the requested engine."""
    def simulate(engine):
        return CompileSession(sim_backend=engine).simulate(
            FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), cycles=16,
            lanes=1,
        ).value

    trace = simulate(backend)
    assert trace.backend == backend
    assert trace.lanes == 1
    assert len(trace.outputs) == 16
    assert trace.outputs == simulate("compiled").outputs
    assert trace.outputs == simulate("interp").outputs


def test_session_rejects_bad_lane_counts():
    with pytest.raises(ValueError):
        CompileSession(sim_lanes=0)
    session = CompileSession()
    with pytest.raises(ValueError):
        session.simulate(FPU_LA_SOURCE, "FPU", {"#W": 32},
                         generators(), cycles=8, lanes=0)


def test_simulate_levels_are_distinct_cache_entries():
    """The pass-pipeline fingerprint alone keeps -O0/-O1/-O2 traces
    apart in the simulate key; repeats are pure hits."""
    session = CompileSession(sim_backend="compiled")

    def simulate(level):
        return session.simulate(FPU_LA_SOURCE, "FPU", {"#W": 32},
                                generators(), cycles=16, opt_level=level)

    traces = [simulate(level) for level in (0, 1, 2)]
    assert session.stats.miss_count("simulate") == 3
    assert [trace.value.opt_level for trace in traces] == [0, 1, 2]
    hits = [simulate(level) for level in (0, 1, 2)]
    assert all(hit.value is trace.value and hit.from_cache
               and not trace.from_cache for hit, trace in zip(hits, traces))
    assert session.stats.hit_count("simulate") == 3
    # Optimization never changes what the design computes.
    assert traces[0].value.outputs == traces[2].value.outputs


def test_stats_dict_has_no_tuner_section(tmp_path):
    session = CompileSession(cache_dir=str(tmp_path), sim_backend="auto")
    trace = session.simulate(FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(),
                             cycles=16, opt_level=2)
    # "auto" is a static rule: nothing measured, nothing to report.
    assert trace.value.backend == "compiled"
    payload = session.stats_dict()
    assert "profile" not in payload and "tuner" not in payload
    assert not any(
        name.startswith("tuner.") for name in payload["cache"]["counters"]
    )
    # Compute/wait wall-time attribution flows through the same stats.
    timers = payload["cache"]["timers"]
    assert any(name.startswith("compute.") for name in timers)


def test_session_spec_round_trips():
    session = CompileSession(opt_level=2, sim_backend="compiled", sim_lanes=4)
    clone = CompileSession.from_spec(session.spec())
    assert clone.spec() == session.spec()


# ---------------------------------------------------------------------------
# The simulation-backend degradation: only a vector engine can be
# missing, and it falls back in one step.


def test_unavailable_backend_degrades_down_the_ladder(monkeypatch):
    """A vector engine that cannot be built runs the engine ``auto``
    picks without it, with an identical trace under the *requested*
    engine's cache key."""
    from repro.driver import session as session_mod
    from repro.rtl import SimBackendUnavailable, auto_backend

    baseline = CompileSession(sim_backend="compiled").simulate(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), cycles=16
    ).value.outputs

    real = session_mod.make_simulator
    asked = []

    def flaky(module, backend, **kwargs):
        asked.append(backend)
        if backend == "vector":
            raise SimBackendUnavailable("vector backend disabled")
        return real(module, backend, **kwargs)

    monkeypatch.setattr(session_mod, "make_simulator", flaky)
    degraded = CompileSession(sim_backend="vector", sim_lanes=4)
    module = degraded.optimize(
        FPU_LA_SOURCE, "FPU", {"#W": 32}, generators()
    ).value.module
    fallback = auto_backend(module, 4)  # vector only from 64 lanes up
    with pytest.warns(RuntimeWarning, match=f"degrading to '{fallback}'"):
        trace = degraded.simulate(
            FPU_LA_SOURCE, "FPU", {"#W": 32}, generators(), cycles=16
        ).value
    assert asked == ["vector", fallback]
    assert trace.backend == fallback
    assert degraded.stats.counter("degrade.sim_backend") == 1
    assert trace.outputs[0] == baseline


def test_ladder_exhaustion_reraises(monkeypatch):
    from repro.driver import session as session_mod
    from repro.rtl import SimBackendUnavailable

    def broken(module, backend, **kwargs):
        raise SimBackendUnavailable(f"{backend} disabled")

    monkeypatch.setattr(session_mod, "make_simulator", broken)
    # vector falls back once; when the engine it falls back to cannot
    # be built either, that error escapes.
    session = CompileSession(sim_backend="vector", sim_lanes=4)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(SimBackendUnavailable,
                           match="(compiled|batched) disabled"):
            session.simulate(FPU_LA_SOURCE, "FPU", {"#W": 32},
                             generators(), cycles=8)
    assert session.stats.counter("degrade.sim_backend") == 1
    # Only vector degrades: any other engine's error escapes at once.
    session = CompileSession(sim_backend="batched", sim_lanes=4)
    with pytest.raises(SimBackendUnavailable, match="batched disabled"):
        session.simulate(FPU_LA_SOURCE, "FPU", {"#W": 32},
                         generators(), cycles=8)
    assert session.stats.counter("degrade.sim_backend") == 0
