"""Backend selection: the static ``auto`` rule and the calibrated SWAR
predicate it leans on.

``auto`` is one rule (:func:`repro.rtl.auto_backend`): the numpy vector
engine from ``AUTO_VECTOR_LANES`` (64) lanes up, ``compiled`` below
that and at one lane.  The compiled lane path then chooses between SWAR
and sequential scalar lanes with :func:`swar_profitable`, which carries
its own regression: ``BENCH_sim.json`` recorded SWAR batching at 0.51x
scalar on ``blas``, so the predicate must say no on blas-shaped
netlists.  The session surface is pinned too:
``CompileSession(sim_backend="auto")`` produces interpreter-exact
traces and records which engine actually ran.
"""

import pytest

from repro.designs.catalog import design_point
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


def test_make_simulator_compiled_consults_the_predicate():
    blas, fft = _optimized("blas"), _optimized("fft")
    # Below 64 lanes "auto" is "compiled", so it takes this same path.
    assert auto_backend(16) == "compiled"
    assert isinstance(
        make_simulator(blas, "compiled", lanes=16), CompiledSimulator
    )
    assert isinstance(
        make_simulator(fft, "compiled", lanes=16), BatchedCompiledSimulator
    )


# -- the auto rule -------------------------------------------------------


def _auto(module, lanes):
    """The engine a session running ``auto`` builds for ``lanes``."""
    return make_simulator(module, auto_backend(lanes), lanes=lanes)


def test_auto_single_lane_is_scalar_compiled():
    assert auto_backend(1) == "compiled"
    assert type(_auto(_adder(), 1)) is CompiledSimulator


@pytest.mark.numpy
def test_auto_picks_vector_from_64_lanes():
    assert AUTO_VECTOR_LANES == 64
    assert auto_backend(AUTO_VECTOR_LANES - 1) == "compiled"
    for lanes in (64, 1024):
        assert auto_backend(lanes) == "vector"
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
    for lanes in (4, 64):
        base = interp.simulate(SOURCE, "Double", {"#W": 8}, cycles=12,
                               lanes=lanes).value
        trace = auto.simulate(SOURCE, "Double", {"#W": 8}, cycles=12,
                              lanes=lanes).value
        assert trace.backend == auto_backend(lanes)
        assert trace.lanes == lanes
        assert trace.outputs == base.outputs
    assert auto.stats.counter("degrade.sim_backend") == 0


def test_session_auto_without_disk_cache_stays_static():
    # The rule never measures, so a session without a disk cache
    # resolves exactly like one with it — at 1024 lanes too.
    session = CompileSession(cache_dir=None, sim_backend="auto",
                             sim_lanes=1024)
    trace = session.simulate(SOURCE, "Double", {"#W": 8}, cycles=4).value
    assert trace.backend == auto_backend(1024)
