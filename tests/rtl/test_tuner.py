"""Engine selection: the static ``auto`` rule and the calibrated SWAR
predicate it leans on.

``auto`` is one function (:func:`repro.rtl.auto_backend`), and no other
code picks an engine: ``compiled`` at one lane, the numpy vector engine
from ``AUTO_VECTOR_LANES`` (64) lanes up, and below that (or without
numpy) ``batched`` where :func:`swar_profitable` predicts that SWAR
beats sequential scalar lanes, ``compiled`` where it does not.  The
predicate carries its own regression: ``BENCH_sim.json`` recorded SWAR
batching at 0.51x scalar on ``blas``, so it must say no on blas-shaped
netlists.  Every other name is one engine at every lane count.  The
picks on the catalog are pinned, with numpy and without, and the
session surface is pinned too: ``CompileSession(sim_backend="auto")``
produces interpreter-exact traces and records which engine ran.
"""

import pytest

from repro.designs.catalog import DESIGNS, design_point
from repro.driver import CompileSession
from repro.rtl import (
    AUTO_VECTOR_LANES,
    BatchedCompiledSimulator,
    CompiledSimulator,
    Module,
    VectorCompiledSimulator,
    auto_backend,
    make_simulator,
    swar_profitable,
)
from repro.rtl import vectorize


def _adder(width=8) -> Module:
    module = Module("adder")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    out = module.add_output("out", width)
    module.add_cell("add", {"a": a, "b": b, "out": out})
    return module


# -- the static predicate and the blas regression -----------------------


def _optimized(name):
    source, component, generators, params = design_point(name)
    session = CompileSession(opt_level=0)
    return session.optimize(source, component, params, generators).value.module


def test_swar_profitable_rejects_blas_shaped_netlists():
    blas = _optimized("blas")
    # BENCH_sim.json measured SWAR lane-16 at 0.51x scalar on blas; the
    # calibrated predicate must predict the loss at every lane count the
    # session would actually pick.
    assert not swar_profitable(blas, 16)
    assert not swar_profitable(blas, 64)


def test_swar_profitable_accepts_packed_friendly_designs():
    fft = _optimized("fft")
    assert swar_profitable(fft, 16)
    assert swar_profitable(fft, 64)


def test_swar_profitable_degenerate_cases():
    module = _adder()
    assert not swar_profitable(module, 1)  # nothing to batch
    # A comb-free module has no eligibility question to ask.
    seq = Module("seq")
    en = seq.add_input("en", 1)
    out = seq.add_output("out", 4)
    seq.add_cell("regen", {"d": out, "en": en, "q": out}, {"init": 1})
    assert swar_profitable(seq, 8)


# -- the picks on the catalog -------------------------------------------

C, B, V = "compiled", "batched", "vector"

#: Lane counts the pick tables cover.
PIN_LANES = (1, 2, 4, 16, 63, 64, 1024)

#: (-O level, design) → the engine ``auto`` runs at each of
#: ``PIN_LANES``, with numpy installed and without.  Recorded from the
#: engine class that the earlier two-step chain built (``auto`` meant
#: ``vector`` from 64 lanes up with numpy and ``compiled`` otherwise,
#: and ``compiled`` then consulted ``swar_profitable``), so
#: ``auto_backend`` reproducing them means that no pick moved when it
#: became the one place that picks.
AUTO_PICKS = {
    (0, "blas"): (C, C, C, C, C, V, V),
    (0, "fft"): (C, B, B, B, B, V, V),
    (0, "flofft"): (C, B, B, B, B, V, V),
    (0, "fpu"): (C, B, B, B, B, V, V),
    (0, "gbp"): (C, B, B, B, B, V, V),
    (0, "risc"): (C, B, B, B, B, V, V),
    (2, "blas"): (C, C, C, C, C, V, V),
    (2, "fft"): (C, B, B, B, B, V, V),
    (2, "flofft"): (C, B, B, B, B, V, V),
    (2, "fpu"): (C, B, B, B, B, V, V),
    (2, "gbp"): (C, C, C, C, C, V, V),
    (2, "risc"): (C, B, B, B, B, V, V),
}
AUTO_PICKS_WITHOUT_NUMPY = {
    (0, "blas"): (C, C, C, C, C, C, C),
    (0, "fft"): (C, B, B, B, B, B, B),
    (0, "flofft"): (C, B, B, B, B, B, B),
    (0, "fpu"): (C, B, B, B, B, B, B),
    (0, "gbp"): (C, B, B, B, B, B, B),
    (0, "risc"): (C, B, B, B, B, B, B),
    (2, "blas"): (C, C, C, C, C, C, C),
    (2, "fft"): (C, B, B, B, B, B, B),
    (2, "flofft"): (C, B, B, B, B, B, B),
    (2, "fpu"): (C, B, B, B, B, B, B),
    (2, "gbp"): (C, C, C, C, C, C, C),
    (2, "risc"): (C, B, B, B, B, B, B),
}


@pytest.fixture(scope="module")
def catalog_modules():
    modules = {}
    for level in (0, 2):
        session = CompileSession(opt_level=level)
        for name in sorted(DESIGNS):
            source, component, generators, params = design_point(name)
            modules[level, name] = session.optimize(
                source, component, params, generators
            ).value.module
    return modules


def _picks(modules):
    return {
        point: tuple(auto_backend(module, lanes) for lanes in PIN_LANES)
        for point, module in modules.items()
    }


@pytest.mark.numpy
def test_auto_picks_on_the_catalog_are_pinned(catalog_modules):
    assert sorted(AUTO_PICKS) == sorted(catalog_modules)
    assert _picks(catalog_modules) == AUTO_PICKS


def test_auto_picks_on_the_catalog_without_numpy_are_pinned(
    catalog_modules, monkeypatch
):
    monkeypatch.setattr(vectorize, "_NUMPY", None)
    monkeypatch.setattr(vectorize, "_NUMPY_PROBED", True)
    assert _picks(catalog_modules) == AUTO_PICKS_WITHOUT_NUMPY


# -- one name, one engine -----------------------------------------------


def test_compiled_is_the_scalar_engine_at_every_lane_count():
    blas, fft = _optimized("blas"), _optimized("fft")
    for lanes in (1, 4, 16):
        for module in (blas, fft):
            engine = make_simulator(module, "compiled", lanes=lanes)
            assert type(engine) is CompiledSimulator
        assert type(make_simulator(fft, "batched", lanes=lanes)) is (
            BatchedCompiledSimulator
        )


def _auto(module, lanes):
    """The engine a session running ``auto`` builds for ``lanes``."""
    return make_simulator(module, auto_backend(module, lanes), lanes=lanes)


def test_auto_single_lane_is_scalar_compiled():
    assert auto_backend(_adder(), 1) == "compiled"
    assert type(_auto(_adder(), 1)) is CompiledSimulator


@pytest.mark.numpy
def test_auto_picks_vector_from_64_lanes():
    assert AUTO_VECTOR_LANES == 64
    assert auto_backend(_adder(), AUTO_VECTOR_LANES - 1) == "batched"
    for lanes in (64, 1024):
        assert auto_backend(_adder(), lanes) == "vector"
        assert isinstance(_auto(_adder(), lanes), VectorCompiledSimulator)



# -- the session surface ------------------------------------------------


SOURCE = """
comp Double[#W]<G:1>(x: [G, G+1] #W) -> (y: [G+1, G+2] #W) {
  s := new Add[#W]<G>(x, x);
  r := new Reg[#W]<G>(s.out);
  y = r.out;
}
"""


def test_session_auto_backend_matches_interp_and_records_the_engine(
    tmp_path,
):
    interp = CompileSession(sim_backend="interp")
    auto = CompileSession(cache_dir=str(tmp_path), sim_backend="auto")
    module = auto.optimize(SOURCE, "Double", {"#W": 8}).value.module
    for lanes in (4, 64):
        base = interp.simulate(SOURCE, "Double", {"#W": 8}, cycles=12,
                               lanes=lanes).value
        trace = auto.simulate(SOURCE, "Double", {"#W": 8}, cycles=12,
                              lanes=lanes).value
        assert trace.backend == auto_backend(module, lanes)
        assert trace.lanes == lanes
        assert trace.outputs == base.outputs
    assert auto.stats.counter("degrade.sim_backend") == 0


def test_session_auto_records_the_engine_that_ran(monkeypatch):
    """At 4 lanes ``auto`` runs SWAR on fft and scalar lanes on blas, and
    the trace says so."""
    ran = []
    real_run = BatchedCompiledSimulator.run
    monkeypatch.setattr(
        BatchedCompiledSimulator, "run",
        lambda self, streams: ran.append(self.module) or real_run(
            self, streams
        ),
    )
    session = CompileSession(sim_backend="auto", sim_lanes=4)
    backends = {}
    for name in ("fft", "blas"):
        source, component, generators, params = design_point(name)
        backends[name] = session.simulate(
            source, component, params, generators, cycles=8
        ).value.backend
    assert backends == {"fft": "batched", "blas": "compiled"}
    assert len(ran) == 1


def test_session_auto_without_disk_cache_stays_static():
    # The rule never measures, so a session without a disk cache
    # resolves exactly like one with it — at 1024 lanes too.
    session = CompileSession(cache_dir=None, sim_backend="auto",
                             sim_lanes=1024)
    module = session.optimize(SOURCE, "Double", {"#W": 8}).value.module
    trace = session.simulate(SOURCE, "Double", {"#W": 8}, cycles=4).value
    assert trace.backend == auto_backend(module, 1024)
