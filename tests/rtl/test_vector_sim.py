"""The mega-lane vector backend: bit-identical to the interpreter.

The contract is the same one the scalar/SWAR codegen backends carry —
total interchangeability behind ``SimBackend`` — plus the vector
specifics: numpy column kernels that must agree with the interpreter
bit-for-bit at any lane count, and persistent kernels in the shared
``codegen`` pseudo-stage under the ``"vector"`` backend tag.  Every
test here needs numpy; what happens without it is in
``test_numpy_absent.py``.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import fifo_pipeline
from repro.designs.catalog import DESIGNS, design_point
from repro.driver import CodegenStore, CompileSession, DiskCache
from repro.rtl import (
    Module,
    NetlistError,
    Simulator,
    VectorCompiledSimulator,
    clear_vector_memo,
    compile_vector_netlist,
    differential_check,
    random_stimulus_batch,
)

from .lane_runs import (
    LANE_RUN_CASES,
    assert_run_matches_steps,
    free_running_counter,
    lane_run_cases,
    sink,
)

pytestmark = pytest.mark.numpy


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_vector_memo()
    yield
    clear_vector_memo()


def _alu(width: int) -> Module:
    """One module exercising every comb kind the generator lowers,
    including the width-edge cases (carry masks, shift folds, slices
    off the top, concat overflow, wide mux) at the given width."""
    m = Module(f"alu{width}")
    a = m.add_input("a", width)
    b = m.add_input("b", width)
    en = m.add_input("en", 1)
    add = m.binop("add", a, b)
    sub = m.binop("sub", a, b)
    mul = m.binop("mul", a, b, width=width)
    dv = m.binop("div", a, b)
    md = m.binop("mod", a, b)
    xr = m.binop("xor", a, b)
    an = m.binop("and", a, b)
    orr = m.binop("or", a, b)
    lt = m.binop("lt", a, b)
    eq = m.binop("eq", a, b)
    nt = m.unop("not", a)
    sh_amt = min(3, max(1, width - 1))
    shl = m.unop("shl", a, amount=sh_amt)
    shr = m.unop("shr", b, amount=sh_amt)
    sl_w = max(1, width // 2)
    sl = m.unop("slice", a, width=sl_w, lsb=width - sl_w)
    cc = m.binop("concat", lt, sl, width=sl_w + 1)
    mx = m.mux(lt, add, sub)
    r1 = m.register(mx, init=3 % (1 << width))
    r2 = m.register(xr, en=en)
    acc = m.binop("add", r1, r2, width=width)
    outs = (
        ("y_acc", acc), ("y_mul", mul), ("y_div", dv), ("y_mod", md),
        ("y_shl", shl), ("y_shr", shr), ("y_cc", cc), ("y_eq", eq),
        ("y_not", nt), ("y_and", an), ("y_or", orr),
    )
    for name, net in outs:
        out = m.add_output(name, net.width)
        m.add_cell("or", {"a": net, "b": m.constant(0, net.width), "out": out})
    m.validate()
    return m


def _freeze(values) -> None:
    for value in values:
        if isinstance(value, list):  # a wide net's word columns
            _freeze(value)
        elif hasattr(value, "flags"):
            value.flags.writeable = False


def _read_only(engine: VectorCompiledSimulator) -> VectorCompiledSimulator:
    """Mark every numpy column in the engine's slots and registers
    read-only after each evaluate and latch: ``run`` keeps output columns
    by reference, so a generated in-place write must raise here instead
    of silently rewriting an earlier cycle's outputs."""

    def frozen(kernel):
        def call(s, r, f):
            kernel(s, r, f)
            _freeze(s)
            _freeze(r)
        return call

    _freeze(engine._slots)
    _freeze(engine._regs)
    engine._evaluate = frozen(engine._evaluate)
    engine._latch = frozen(engine._latch)
    return engine


def _parity(module: Module, lanes: int, cycles=48, seed=0,
            bias=0.0) -> bool:
    """Interpreter vs. a vector engine over read-only columns."""
    interp = Simulator(module)
    engine = _read_only(VectorCompiledSimulator(interp.module, lanes))
    streams = random_stimulus_batch(interp.module, cycles, lanes, seed, bias)
    return interp.run_batch(streams) == engine.run(streams)


# -- differential parity: the catalog, both levels ----------------------


@pytest.mark.parametrize("name", sorted(DESIGNS))
@pytest.mark.parametrize("opt_level", [0, 2])
def test_catalog_designs_bit_identical_under_vector(name, opt_level):
    source, component, generators, params = design_point(name)
    session = CompileSession(opt_level=opt_level)
    module = session.optimize(source, component, params, generators).value.module
    assert differential_check(module, cycles=48, seed=0xA5, lanes=3,
                              backend="vector")
    # Whole-run marshalling agrees with stepping, over read-only columns.
    assert_run_matches_steps(
        lambda: _read_only(VectorCompiledSimulator(module, 3)),
        random_stimulus_batch(module, 24, 3, seed=0xA5),
    )


# -- odd and wide widths ------------------------------------------------


@pytest.mark.parametrize(
    "width", [1, 7, 31, 33, 64, 65, 100], ids=lambda width: f"numpy-{width}"
)
def test_vector_matches_interpreter_at_awkward_widths(width):
    module = _alu(width)
    assert _parity(module, lanes=4, cycles=48, seed=width)
    assert _parity(module, lanes=3, cycles=32, seed=width + 99, bias=0.3)


@settings(max_examples=12, deadline=None)
@given(width=st.integers(min_value=1, max_value=96),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_vector_matches_interpreter_on_random_widths(width, seed):
    module = _alu(width)
    assert _parity(module, lanes=3, cycles=24, seed=seed)


# -- FIFO-heavy control flow --------------------------------------------


@pytest.mark.parametrize("lanes", [4], ids=["numpy"])
def test_vector_matches_interpreter_on_fifo_pipeline(lanes):
    module = fifo_pipeline(stages=4, width=16, depth=3)
    assert _parity(module, lanes=lanes, cycles=200, seed=11)
    # Corner-biased stimulus stresses full/empty transitions harder.
    assert _parity(module, lanes=lanes, cycles=200, seed=11, bias=0.5)


# -- whole-run marshalling: run() == step() cycle by cycle ---------------


@pytest.mark.parametrize("case", LANE_RUN_CASES)
@pytest.mark.parametrize(
    "make_module",
    [lambda width=width: _alu(width) for width in (1, 7, 64, 65, 100, 512)]
    + [lambda: fifo_pipeline(stages=3, width=16, depth=2),
       free_running_counter, sink],
    ids=["w1", "w7", "w64", "w65", "w100", "w512", "fifo", "no-inputs",
         "no-outputs"],
)
def test_run_matches_step_by_step(make_module, case):
    module = make_module()
    assert_run_matches_steps(
        lambda: _read_only(VectorCompiledSimulator(module, 3)),
        lane_run_cases(module, 3, seed=5)[case],
    )


def test_run_rejects_unknown_ports_and_ragged_streams():
    module = _alu(8)
    sim = VectorCompiledSimulator(module, 2)
    with pytest.raises(NetlistError, match="no input port 'nope'"):
        sim.run([[{"a": 1, "nope": 2}], [{"a": 3, "nope": 4}]])
    good = random_stimulus_batch(module, 4, 2, seed=0)
    with pytest.raises(NetlistError):
        sim.run([good[0], good[1][:2]])
    with pytest.raises(NetlistError):
        sim.run(good[:1])  # wrong lane count


# -- memoization --------------------------------------------------------


def test_structurally_equal_modules_share_one_vector_compilation():
    first, second = _alu(9), _alu(9)
    assert first is not second
    assert compile_vector_netlist(first, 4) is compile_vector_netlist(second, 4)


def test_vector_memo_is_keyed_per_lane_count():
    module = _alu(9)
    assert (compile_vector_netlist(module, 4)
            is not compile_vector_netlist(module, 8))


def test_vector_rejects_bad_lane_counts():
    with pytest.raises(NetlistError):
        compile_vector_netlist(_alu(8), 0)


# -- persistent kernels in the codegen pseudo-stage ---------------------


def test_vector_codegen_round_trips_through_the_store(tmp_path):
    store = CodegenStore(DiskCache(str(tmp_path)))
    cold = compile_vector_netlist(_alu(10), 16, store=store)
    assert not cold.from_store
    assert store.disk.stats.counter("codegen.store") == 1

    clear_vector_memo()
    warm = compile_vector_netlist(_alu(10), 16, store=store)
    assert warm.from_store
    assert warm.source == cold.source
    assert store.disk.stats.counter("codegen.disk_hit") == 1
    # The rematerialized program still computes correctly.
    assert _parity(_alu(10), lanes=16, cycles=24, seed=3)


def test_vector_store_entries_are_keyed_per_lanes(tmp_path):
    store = CodegenStore(DiskCache(str(tmp_path)))
    module = _alu(10)
    compile_vector_netlist(module, 4, store=store)
    compile_vector_netlist(module, 8, store=store)
    assert store.disk.stats.counter("codegen.store") == 2
    clear_vector_memo()
    hit = compile_vector_netlist(module, 8, store=store)
    assert hit.from_store
    assert store.disk.stats.counter("codegen.disk_hit") == 1


def test_vector_and_swar_kernels_share_the_store_without_collisions(tmp_path):
    from repro.rtl import clear_compile_memo, compile_netlist

    store = CodegenStore(DiskCache(str(tmp_path)))
    module = _alu(10)
    clear_compile_memo()
    try:
        compile_netlist(module, lanes=4, store=store)  # SWAR, same lanes
        compile_vector_netlist(module, 4, store=store)
        assert store.disk.stats.counter("codegen.store") == 2
        clear_compile_memo()
        clear_vector_memo()
        assert compile_netlist(module, lanes=4, store=store).from_store
        assert compile_vector_netlist(module, 4, store=store).from_store
    finally:
        clear_compile_memo()


# -- session integration ------------------------------------------------


def test_session_vector_backend_trace_matches_interp():
    source, component, generators, params = design_point("fft")
    interp = CompileSession(sim_backend="interp")
    vector = CompileSession(sim_backend="vector", sim_lanes=3)
    base = interp.simulate(source, component, params, generators,
                           cycles=16, lanes=3).value
    trace = vector.simulate(source, component, params, generators,
                            cycles=16, lanes=3).value
    assert trace.backend == "vector"
    assert trace.lanes == 3
    assert trace.outputs == base.outputs
