"""Without numpy: the vector engine refuses to build, a session asked
for ``vector`` degrades once to the engine ``auto`` picks without it
(``compiled`` at one lane, SWAR where the predicate says so), ``auto``
never picks ``vector``, and the ablation makes no vector run.

Each test switches the numpy probe of :mod:`repro.rtl.vectorize` off,
which is exactly what a numpy-less install sees, so this path is
checked on every install, numpy or not.
"""

import warnings

import pytest

from repro.driver import CompileSession
from repro.evalx import ablation
from repro.rtl import (
    Module,
    NetlistError,
    SimBackendUnavailable,
    VectorCompiledSimulator,
    auto_backend,
)
from repro.rtl import vectorize

SOURCE = """
comp Double[#W]<G:1>(x: [G, G+1] #W) -> (y: [G+1, G+2] #W) {
  s := new Add[#W]<G>(x, x);
  r := new Reg[#W]<G>(s.out);
  y = r.out;
}
"""


@pytest.fixture(autouse=True)
def _numpy_missing(monkeypatch):
    monkeypatch.setattr(vectorize, "_NUMPY", None)
    monkeypatch.setattr(vectorize, "_NUMPY_PROBED", True)


def _adder(width=8) -> Module:
    module = Module("adder")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    out = module.add_output("out", width)
    module.add_cell("add", {"a": a, "b": b, "out": out})
    return module


def test_vector_engine_raises_without_numpy():
    with pytest.raises(SimBackendUnavailable, match="'vector' extra"):
        VectorCompiledSimulator(_adder(), 3)
    # SimBackendUnavailable is a NetlistError: existing handlers keep
    # working.
    assert issubclass(SimBackendUnavailable, NetlistError)


def test_session_vector_degrades_to_compiled():
    interp = CompileSession(sim_backend="interp")
    base = interp.simulate(SOURCE, "Double", {"#W": 8}, cycles=12).value
    session = CompileSession(sim_backend="vector")
    with pytest.warns(RuntimeWarning,
                      match="degrading to 'compiled'") as record:
        trace = session.simulate(SOURCE, "Double", {"#W": 8},
                                 cycles=12).value
    # The warning names the code that called simulate.
    assert [warning.filename for warning in record] == [__file__]
    assert trace.backend == "compiled"
    assert trace.outputs == base.outputs
    assert session.stats.counter("degrade.sim_backend") == 1


def test_session_vector_degrades_to_the_lane_engine_auto_picks(
    monkeypatch,
):
    """At 4 lanes ``auto`` without the vector engine picks SWAR for this
    design, so that is where the vector run goes, in one step: nothing
    calls back into the vector engine."""
    interp = CompileSession(sim_backend="interp")
    base = interp.simulate(SOURCE, "Double", {"#W": 8}, cycles=12,
                           lanes=4).value
    built = []
    real = VectorCompiledSimulator.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(VectorCompiledSimulator, "__init__", counted)
    session = CompileSession(sim_backend="vector", sim_lanes=4)
    module = session.optimize(SOURCE, "Double", {"#W": 8}).value.module
    assert auto_backend(module, 4) == "batched"
    with pytest.warns(RuntimeWarning,
                      match="degrading to 'batched'") as record:
        trace = session.simulate(SOURCE, "Double", {"#W": 8},
                                 cycles=12).value
    assert [warning.filename for warning in record] == [__file__]
    assert trace.backend == "batched"
    assert trace.outputs == base.outputs
    assert session.stats.counter("degrade.sim_backend") == 1
    assert len(built) == 1


def test_auto_never_picks_vector_without_numpy():
    session = CompileSession(sim_backend="auto", sim_lanes=1024)
    module = session.optimize(SOURCE, "Double", {"#W": 8}).value.module
    assert auto_backend(module, 1024) == "batched"
    assert auto_backend(_adder(), 1024) == "batched"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no degrade warning either
        trace = session.simulate(SOURCE, "Double", {"#W": 8},
                                 cycles=4).value
    assert trace.backend == "batched"
    assert session.stats.counter("degrade.sim_backend") == 0


def test_ablation_makes_no_vector_run_without_numpy(monkeypatch):
    """The ablation's "Vector" column reads ``n/a`` without a run: it
    never asks the session for the vector engine, so nothing degrades,
    nothing warns, and the design stores no simulate entry for it."""
    session = CompileSession()
    backends = []
    simulate = session.simulate

    def recorded(*args, **kwargs):
        backends.append(kwargs.get("backend"))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(session, "simulate", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = ablation._build_row(session, "fpu", cycles=8)
    assert row.vector_agree is None
    assert row.cells()[-4:] == ["yes", "yes", "yes", "n/a"]
    assert set(backends) == {"interp", "compiled", "batched"}
    assert session.stats.counter("degrade.sim_backend") == 0
