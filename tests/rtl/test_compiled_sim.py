"""The compiled simulation backend: bit-identical to the interpreter.

The contract under test is total interchangeability behind the
``SimBackend`` surface: same poke/peek namespace, same two-phase
semantics, and — the differential gate — identical outputs to the
interpreter on every cycle of seeded stimulus, across every catalog
design at both optimization levels and on a FIFO-heavy synthetic
module the datapath designs don't cover.  The scalar generator's
structural choices, expression fusion and masking only the values that
can leave their width, have their rules pinned here too, and its
generated whole-run loop must equal one ``step`` per cycle.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.designs import fifo_pipeline
from repro.designs.catalog import DESIGNS, design_point
from repro.driver import CompileSession
from repro.rtl import (
    SIM_BACKENDS,
    CompiledSimulator,
    Module,
    NetlistError,
    SimBackend,
    Simulator,
    compile_netlist,
    differential_check,
    make_simulator,
    random_stimulus,
    random_stimulus_batch,
    resolve_backend,
)
from repro.rtl.compile import FUSE_OP_CAP
from repro.rtl.simulate import eval_comb_cell

from .lane_runs import (
    STREAM_RUN_CASES,
    assert_stream_run_matches_steps,
    free_running_counter,
    stream_run_cases,
)
from .test_netlist_sim import comb_cells


def _alu(width=8) -> Module:
    module = Module("alu")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    sel = module.add_input("sel", 1)
    out = module.add_output("out", width)
    total = module.binop("add", a, b, width)
    delta = module.binop("sub", a, b, width)
    picked = module.mux(sel, total, delta)
    module.add_cell("not", {"a": picked, "out": out})
    return module


def _registered_counter(width=8) -> Module:
    module = Module("counter")
    en = module.add_input("en", 1)
    out = module.add_output("out", width)
    one = module.constant(1, width)
    q = module.fresh_net(width, "q")
    total = module.binop("add", q, one, width)
    module.add_cell("regen", {"d": total, "en": en, "q": q}, {"init": 5})
    module.add_cell("shl", {"a": q, "out": out}, {"amount": 0})
    return module


# -- unit-level parity --------------------------------------------------


def test_compiled_matches_interpreter_on_comb_logic():
    assert differential_check(_alu(), cycles=200, seed=3)


def test_compiled_matches_interpreter_on_registers():
    assert differential_check(_registered_counter(), cycles=200, seed=4)


def test_compiled_matches_interpreter_on_fifo_pipeline():
    module = fifo_pipeline(stages=5, width=16, depth=3)
    assert differential_check(module, cycles=300, seed=11)
    # Corner-biased stimulus stresses full/empty transitions harder.
    assert differential_check(module, cycles=300, seed=11, bias=0.5)


def test_compiled_peek_poke_tick_parity():
    module = _registered_counter()
    interp, compiled = Simulator(module), CompiledSimulator(module)
    for sim in (interp, compiled):
        sim.poke({"en": 1})
        sim.evaluate()
    assert compiled.peek("out") == interp.peek("out")
    for sim in (interp, compiled):
        sim.tick()
        sim.evaluate()
    assert compiled.peek("out") == interp.peek("out") == 6
    assert compiled.cycle == interp.cycle == 1
    # Internal nets are visible under the same names in both engines,
    # except the ones fused into their consumer (the add's constant).
    fused = set(compiled.program.inlined_nets)
    assert fused
    for net_name in module.nets:
        if net_name in fused:
            with pytest.raises(NetlistError, match=re.escape(net_name)):
                compiled.peek_net(net_name)
        else:
            assert compiled.peek_net(net_name) == interp.peek_net(net_name)


def test_compiled_rejects_unknown_ports_like_interpreter():
    compiled = CompiledSimulator(_alu())
    with pytest.raises(NetlistError):
        compiled.poke({"nope": 1})
    with pytest.raises(NetlistError):
        compiled.peek("nope")
    with pytest.raises(NetlistError):
        compiled.peek_net("nope")


def test_compiled_poke_masks_to_width():
    compiled = CompiledSimulator(_alu(width=8))
    compiled.poke({"a": 0x1FF, "b": 0, "sel": 0})
    compiled.evaluate()
    interp = Simulator(_alu(width=8))
    interp.poke({"a": 0x1FF, "b": 0, "sel": 0})
    interp.evaluate()
    assert compiled.peek("out") == interp.peek("out")


# -- expression fusion --------------------------------------------------


def _mixer(width=8) -> Module:
    module = Module("mixer")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    out = module.add_output("out", width)
    total = module.binop("add", a, b)
    mixed = module.binop("xor", total, b)  # total has two readers,
    masked = module.binop("and", total, a)  # mixed and masked one each
    folded = module.binop("or", mixed, masked)
    q = module.register(folded)  # folded: one comb reader + a register
    module.add_cell("add", {"a": q, "b": folded, "out": out})
    module.validate()
    return module


def _driver(module: Module, kind: str) -> str:
    """The out-net name of the only ``kind`` cell not driving a port."""
    (name,) = [
        cell.pins["out"].name
        for cell in module.cells.values()
        if cell.kind == kind and cell.pins["out"].name not in module.ports
    ]
    return name


def test_fusion_is_single_reader_only_and_skips_ports():
    module = _mixer()
    fused = set(compile_netlist(module).inlined_nets)
    assert fused == {_driver(module, "xor"), _driver(module, "and")}
    assert _driver(module, "add") not in fused  # two comb readers
    assert _driver(module, "or") not in fused  # a register reads it
    assert "out" not in fused
    assert differential_check(module, cycles=256, seed=11)


def test_nets_read_by_registers_or_fifos_are_never_fused():
    module = Module("taps")
    a = module.add_input("a", 8)
    b = module.add_input("b", 8)
    out_ready = module.add_input("out_ready", 1)
    out = module.add_output("out", 8)
    to_reg = module.binop("sub", a, b)
    to_fifo = module.binop("add", a, b)
    valid = module.constant(1, 1)
    queued = module.fresh_net(8, "queued")
    module.add_cell(
        "fifo",
        {
            "in_data": to_fifo,
            "in_valid": valid,
            "in_ready": module.fresh_net(1, "in_ready"),
            "out_data": queued,
            "out_valid": module.fresh_net(1, "out_valid"),
            "out_ready": out_ready,
        },
        {"depth": 2},
    )
    q = module.register(to_reg)
    # Each tapped net also has exactly one combinational reader.
    mixed = module.binop("xor", to_reg, to_fifo)
    latched = module.binop("and", q, queued)
    module.add_cell("or", {"a": mixed, "b": latched, "out": out})
    module.validate()
    fused = set(compile_netlist(module).inlined_nets)
    assert to_reg.name not in fused and to_fifo.name not in fused
    assert valid.name not in fused  # read by the FIFO only
    assert mixed.name in fused
    assert differential_check(module, cycles=256, seed=7)


def test_div_mod_b_feeders_are_never_fused():
    module = Module("divider")
    a = module.add_input("a", 8)
    b = module.add_input("b", 8)
    out = module.add_output("out", 8)
    divisor = module.binop("or", b, a)  # single reader, feeds div's b
    dividend = module.binop("xor", a, b)  # single reader, feeds mod's a
    quotient = module.binop("div", dividend, divisor)
    modulus = module.binop("or", b, quotient)  # feeds mod's b
    module.add_cell("mod", {"a": a, "b": modulus, "out": out})
    module.validate()
    fused = set(compile_netlist(module).inlined_nets)
    # The generated guard references b twice; inlining would duplicate
    # the whole divisor subtree textually.
    assert divisor.name not in fused and modulus.name not in fused
    assert dividend.name in fused
    assert differential_check(module, cycles=128, seed=5)
    assert differential_check(module, cycles=128, seed=5, bias=0.5)


def test_fusion_caps_expression_growth():
    module = Module("chain")
    a = module.add_input("a", 8)
    b = module.add_input("b", 8)
    out = module.add_output("out", 8)
    chain, acc = [], a
    for _ in range(FUSE_OP_CAP + 2):  # a single-reader chain past the cap
        acc = module.binop("add", acc, b)
        chain.append(acc.name)
    module.add_cell("xor", {"a": acc, "b": b, "out": out})
    module.validate()
    fused = set(compile_netlist(module).inlined_nets)
    # One fused tree holds at most FUSE_OP_CAP operators, so the chain
    # is materialized where the next operator would exceed it.
    assert set(chain[:FUSE_OP_CAP]) <= fused
    assert chain[FUSE_OP_CAP] not in fused
    assert differential_check(module, cycles=128, seed=9)


def test_fifo_pipeline_differential_on_the_fused_program():
    """Ready/valid FIFO chains exercise the sequential outputs
    (in_ready/out_valid/out_data) that fused expressions read from."""
    module = fifo_pipeline(stages=4, width=16, depth=3)
    # The stage-bump constants each have one reader: the program under
    # test runs them fused.
    assert compile_netlist(module).inlined_nets
    assert differential_check(module, cycles=256, seed=21)
    assert differential_check(module, cycles=256, seed=21, bias=0.5)


def test_fused_nets_are_inlined_out_of_the_program():
    module = _mixer()
    program = compile_netlist(module)
    for name in program.inlined_nets:
        # No assignment writes a fused net's slot.
        assert f"s[{program.slot_of[name]}] =" not in program.source
    compiled = CompiledSimulator(module)
    compiled.run(random_stimulus(module, 16, seed=41))
    # Ports stay peekable; a fused net has no value to peek.
    assert compiled.peek_net("out") == compiled.peek("out")
    with pytest.raises(
        NetlistError, match=re.escape(program.inlined_nets[0])
    ):
        compiled.peek_net(program.inlined_nets[0])


# -- clean values: a mask only where a value can leave its width --------


def _assert_clean(engine):
    """Every net the program writes holds a value below ``2^width``."""
    fused = set(engine.program.inlined_nets)
    for name, net in engine.module.nets.items():
        if name not in fused:
            assert 0 <= engine.peek_net(name) < 1 << net.width, name


def _one_cell(cell, fuse: bool) -> Module:
    """``cell`` alone in a module, each operand pin driven by an input
    port of the pin's name and width.  With ``fuse`` its output's one
    reader is an xor with port ``z`` onto port ``y``, so the generator
    inlines it there; otherwise it drives port ``out``."""
    module = Module("one_cell")
    pins = {
        pin: module.add_input(pin, net.width)
        for pin, net in cell.pins.items()
        if pin != "out"
    }
    width = cell.pins["out"].width
    if fuse:
        pins["out"] = module.fresh_net(width, "out")
        module.add_cell("xor", {
            "a": pins["out"],
            "b": module.add_input("z", width),
            "out": module.add_output("y", width),
        })
    else:
        pins["out"] = module.add_output("out", width)
    module.add_cell(cell.kind, pins, dict(cell.params))
    module.validate()
    return module


@settings(max_examples=300, deadline=None)
@given(comb_cells(), st.booleans())
def test_scalar_program_equals_the_evaluator_at_every_width(case, fuse):
    cell, values = case
    module = _one_cell(cell, fuse)
    inputs = {pin: values[net] for pin, net in cell.pins.items()
              if pin != "out"}
    if fuse:
        inputs["z"] = 0
    record = {"y" if fuse else "out": eval_comb_cell(cell, values)}
    stepped, ran = CompiledSimulator(module), CompiledSimulator(module)
    assert bool(stepped.program.inlined_nets) == fuse
    assert stepped.step(inputs) == record
    assert ran.run([inputs, inputs]) == [record, record]
    for engine in (stepped, ran):
        _assert_clean(engine)


_BINARY_KINDS = ("add", "sub", "mul", "div", "mod", "and", "or", "xor",
                 "eq", "lt", "concat")


def _boundary_cells():
    """``(kind, operand widths, params, out width)`` for every
    combinational kind over widths 1, 2, 3 and 5, shifts and slices by
    0, 1, 2 and 6 and one- and two-bit selects: every row of the
    clean-value rule is met below, at and above its boundary."""
    widths = (1, 2, 3, 5)
    for wo in widths:
        yield "const", {}, {"value": -3}, wo
        yield "const", {}, {"value": 37}, wo
        for wa in widths:
            yield "not", {"a": wa}, {}, wo
            for k in (0, 1, 2, 6):
                yield "shl", {"a": wa}, {"amount": k}, wo
                yield "shr", {"a": wa}, {"amount": k}, wo
                yield "slice", {"a": wa}, {"lsb": k}, wo
            for wb in widths:
                for kind in _BINARY_KINDS:
                    yield kind, {"a": wa, "b": wb}, {}, wo
                for ws in (1, 2):
                    yield "mux", {"sel": ws, "a": wa, "b": wb}, {}, wo


def _boundary_module() -> Module:
    """Each of :func:`_boundary_cells` on its own output port and again
    fused into an xor, over input ports shared per (pin, width)."""
    module = Module("boundaries")
    ports = {}

    def port(pin, width):
        if (pin, width) not in ports:
            ports[pin, width] = module.add_input(f"{pin}{width}", width)
        return ports[pin, width]

    for index, (kind, widths, params, wo) in enumerate(_boundary_cells()):
        operands = {pin: port(pin, width) for pin, width in widths.items()}
        module.add_cell(
            kind, {**operands, "out": module.add_output(f"c{index}", wo)},
            params,
        )
        fused = module.fresh_net(wo, "fused")
        module.add_cell(kind, {**operands, "out": fused}, params)
        module.add_cell("xor", {
            "a": fused, "b": port("z", wo),
            "out": module.add_output(f"x{index}", wo),
        })
    module.validate()
    return module


def test_every_comb_kind_equals_the_interpreter_around_its_mask_boundary():
    module = _boundary_module()
    stream = random_stimulus(module, 48, seed=17, bias=0.5)
    expected = Simulator(module).run(stream)
    assert CompiledSimulator(module).run(stream) == expected
    stepped = CompiledSimulator(module)
    for inputs, outputs in zip(stream, expected):
        assert stepped.step(inputs) == outputs
        _assert_clean(stepped)


def test_a_result_that_cannot_leave_its_width_is_not_masked():
    module = Module("widening")
    a, b = module.add_input("a", 8), module.add_input("b", 8)
    module.add_cell("add", {"a": a, "b": b,
                            "out": module.add_output("wide", 9)})
    module.add_cell("add", {"a": a, "b": b,
                            "out": module.add_output("narrow", 8)})
    module.add_cell("shr", {"a": a, "out": module.add_output("same", 8)},
                    {"amount": 0})
    program = compile_netlist(module)
    slot = {name: f"s[{index}]" for name, index in program.slot_of.items()}
    evaluate = program.source.split("\n\n\n")[0] + "\n"
    assert f"{slot['wide']} = {slot['a']} + {slot['b']}\n" in evaluate
    assert f"{slot['narrow']} = ({slot['a']} + {slot['b']}) & 255\n" in (
        evaluate)
    assert f"{slot['same']} = {slot['a']}\n" in evaluate
    assert differential_check(module, cycles=64, seed=2, bias=0.5)


def _narrowing_sequentials() -> Module:
    """Registers and a FIFO holding values wider than their outputs: a
    ``d`` or ``in_data`` wider than ``q`` or ``out_data``, and inits at
    or above ``2^width`` or below zero; with two-bit enable, valid and
    ready nets.  Every output is a port."""
    module = Module("narrowing")
    wide = module.add_input("wide", 8)
    narrow = module.add_input("narrow", 4)
    en = module.add_input("en", 2)
    for name, kind, d, init in (
        ("wide_d", "reg", wide, 0),
        ("wide_d_en", "regen", wide, 0),
        ("init_over", "reg", narrow, 16),
        ("init_negative", "reg", narrow, -3),
        ("init_over_en", "regen", narrow, 300),
    ):
        pins = {"d": d, "q": module.add_output(name, 4)}
        if kind == "regen":
            pins["en"] = en
        module.add_cell(kind, pins, {"init": init})
    module.add_cell(
        "fifo",
        {
            "in_data": wide,
            "in_valid": module.add_input("in_valid", 2),
            "in_ready": module.add_output("in_ready", 2),
            "out_data": module.add_output("out_data", 4),
            "out_valid": module.add_output("out_valid", 2),
            "out_ready": module.add_input("out_ready", 2),
        },
        {"depth": 3},
    )
    module.validate()
    return module


def test_sequential_cells_mask_what_they_hold_beyond_their_outputs():
    module = _narrowing_sequentials()
    stream = random_stimulus(module, 64, seed=23, bias=0.5)
    expected = Simulator(module).run(stream)
    assert expected[0]["init_over"] == 0
    assert expected[0]["init_negative"] == 13
    assert expected[0]["init_over_en"] == 300 & 15
    stepped = CompiledSimulator(module)
    for inputs, outputs in zip(stream, expected):
        assert stepped.step(inputs) == outputs
        _assert_clean(stepped)
    ran = CompiledSimulator(module)
    assert ran.run(stream) == expected
    _assert_clean(ran)
    assert_stream_run_matches_steps(
        lambda: CompiledSimulator(module), lambda: stream
    )


# -- the generated whole-run loop: run() == step() cycle by cycle -------


@pytest.fixture(scope="module")
def catalog_module():
    """``(design, opt_level)`` → the optimized catalog module, built once
    per test module."""
    modules = {}

    def build(name, opt_level):
        if (name, opt_level) not in modules:
            source, component, generators, params = design_point(name)
            session = CompileSession(opt_level=opt_level)
            modules[name, opt_level] = session.optimize(
                source, component, params, generators
            ).value.module
        return modules[name, opt_level]

    return build


def _assert_stream_case(module, case):
    assert_stream_run_matches_steps(
        lambda: CompiledSimulator(module),
        stream_run_cases(module, seed=5)[case],
    )


@pytest.mark.parametrize("case", STREAM_RUN_CASES)
@pytest.mark.parametrize(
    "make_module",
    [
        _alu,
        _registered_counter,  # one input port: a row is a bare value
        free_running_counter,  # no input ports: a row is an empty dict
        lambda: fifo_pipeline(stages=3, width=16, depth=2),
    ],
    ids=["alu", "one-input", "no-inputs", "fifo"],
)
def test_run_matches_step_by_step(make_module, case):
    _assert_stream_case(make_module(), case)


@pytest.mark.parametrize("case", STREAM_RUN_CASES)
@pytest.mark.parametrize("name", sorted(DESIGNS))
@pytest.mark.parametrize("opt_level", [0, 2])
def test_catalog_run_matches_step_by_step(catalog_module, name, opt_level,
                                          case):
    _assert_stream_case(catalog_module(name, opt_level), case)


def test_run_takes_the_generated_loop_only_for_exact_port_sets(monkeypatch):
    module = _alu()
    stream = random_stimulus(module, 8, seed=3)
    engine = CompiledSimulator(module)
    assert engine.program.run is not None
    monkeypatch.setattr(
        engine, "step", lambda inputs=None: pytest.fail("stepped")
    )
    engine.run(stream)
    assert engine.cycle == 8
    stepped = []
    monkeypatch.setattr(engine, "step", stepped.append)
    engine.run(stream[:3] + [{}] + stream[4:])
    assert len(stepped) == 8  # an empty dict: the per-cycle loop
    engine.run([None, None])  # step() treats None as "poke nothing"
    assert stepped[-2:] == [None, None]


def test_uniform_stream_naming_an_unknown_port_raises_like_poke():
    module = _alu()
    for vector in ({"a": 1, "b": 2, "nope": 3},  # as many keys as ports
                   {"a": 1, "b": 2, "sel": 0, "nope": 3}):
        with pytest.raises(NetlistError, match="no input port 'nope'"):
            CompiledSimulator(module).run([vector] * 4)


def _two_input_adder() -> Module:
    module = Module("adder")
    a = module.add_input("a", 8)
    b = module.add_input("b", 8)
    module.add_cell("add",
                    {"a": a, "b": b, "out": module.add_output("out", 8)})
    return module


def test_a_value_int_rejects_mid_run_stops_where_step_stops():
    counter = _registered_counter()
    counting = random_stimulus(counter, 12, seed=4)
    counting[5] = {"en": None}
    cases = [
        (counter, counting, 5),
        # step() pokes in the dict's order, so it writes b before it
        # meets the bad a; the run loop's port order puts a first.
        (_two_input_adder(), [{"a": 1, "b": 2}, {"b": 7, "a": None}], 1),
    ]
    for module, stream, cycles in cases:
        ran, stepped = CompiledSimulator(module), CompiledSimulator(module)
        interp = Simulator(module)
        assert ran._run is not None
        with pytest.raises(TypeError):
            ran.run(stream)
        for engine in (stepped, interp):
            with pytest.raises(TypeError):
                for inputs in stream:
                    engine.step(inputs)
        assert ran.cycle == stepped.cycle == interp.cycle == cycles
        for port in module.ports:
            assert ran.peek(port) == stepped.peek(port) == interp.peek(port)
        assert ran.step() == stepped.step() == interp.step()
    assert ran.peek("b") == 7


@pytest.mark.parametrize(
    "make_module",
    [_registered_counter, lambda: fifo_pipeline(stages=3, width=8, depth=2)],
    ids=["counter", "fifo"],
)
def test_consecutive_runs_equal_one_run_over_the_joined_stream(make_module):
    module = make_module()
    stream = random_stimulus(module, 20, seed=13)
    split, whole = CompiledSimulator(module), CompiledSimulator(module)
    halves = split.run(stream[:7]) + split.run(stream[7:])
    assert halves == whole.run(stream) == Simulator(module).run(stream)
    assert split.cycle == whole.cycle == 20
    assert split.step() == whole.step()


def _reordered_alu() -> Module:
    """``_alu`` with its ports declared in another order: structurally
    equal, so it shares ``_alu``'s program."""
    module = Module("alu")
    out = module.add_output("out", 8)
    sel = module.add_input("sel", 1)
    b = module.add_input("b", 8)
    a = module.add_input("a", 8)
    total = module.binop("add", a, b, 8)
    delta = module.binop("sub", a, b, 8)
    picked = module.mux(sel, total, delta)
    module.add_cell("not", {"a": picked, "out": out})
    return module


def test_modules_sharing_a_program_keep_their_own_port_order():
    first, second = _alu(), _reordered_alu()
    assert first.structural_hash() == second.structural_hash()
    assert compile_netlist(first) is compile_netlist(second)
    # The program's loop reads rows in _alu's port order, so only _alu
    # takes it; the other runs the per-cycle loop.
    assert CompiledSimulator(first)._run is not None
    assert CompiledSimulator(second)._run is None
    for module in (first, second):
        assert_stream_run_matches_steps(
            lambda: CompiledSimulator(module),
            lambda: random_stimulus(module, 16, seed=8),
        )


# -- memoization --------------------------------------------------------


def test_structurally_equal_modules_share_one_compilation():
    first, second = _alu(), _alu()
    assert first is not second
    assert compile_netlist(first) is compile_netlist(second)


def test_distinct_structures_compile_separately():
    assert (
        compile_netlist(_alu(width=8))
        is not compile_netlist(_alu(width=9))
    )


def test_sequential_lanes_share_one_program(monkeypatch):
    source, component, generators, params = design_point("blas")
    session = CompileSession(opt_level=2)
    module = session.optimize(source, component, params, generators).value.module
    streams = random_stimulus_batch(module, 32, 8, seed=7)
    expected = [Simulator(module).run(stream) for stream in streams]
    hashes = []
    structural_hash = Module.structural_hash
    monkeypatch.setattr(
        Module,
        "structural_hash",
        lambda self: hashes.append(self) or structural_hash(self),
    )
    engine = CompiledSimulator(module)
    engine.run(streams[0][:5])  # lanes start from reset regardless
    assert engine.run_batch(streams) == expected
    assert len(hashes) == 1
    assert engine.cycle == 5
    interp = Simulator(module)
    interp.run(streams[0][:5])
    assert interp.run_batch(streams) == expected
    assert interp.cycle == 5


# -- backend registry ---------------------------------------------------


def test_backend_registry_resolves_every_engine():
    from repro.rtl import BatchedCompiledSimulator, VectorCompiledSimulator

    assert resolve_backend("interp") is Simulator
    assert resolve_backend("compiled") is CompiledSimulator
    assert resolve_backend("batched") is BatchedCompiledSimulator
    assert resolve_backend("vector") is VectorCompiledSimulator
    assert set(SIM_BACKENDS) == {"interp", "compiled", "batched", "vector"}
    with pytest.raises(ValueError):
        resolve_backend("verilator")
    # "auto" is a selection policy, not an engine: it has a cache
    # fingerprint but cannot be instantiated directly.
    from repro.rtl import backend_choices, backend_fingerprint

    assert backend_choices() == sorted(SIM_BACKENDS) + ["auto"]
    assert backend_fingerprint("auto") == "auto@3"
    with pytest.raises(ValueError):
        resolve_backend("auto")


@pytest.mark.numpy
def test_make_simulator_instances_satisfy_the_protocol():
    module = _alu()
    reference = None
    for name in sorted(SIM_BACKENDS):
        sim = make_simulator(module, name, lanes=2)
        assert isinstance(sim, SimBackend)
        # The lane engines fix their width at construction; the scalar
        # engines accept any.  run_batch is the one surface with a
        # uniform shape across all four.
        traces = sim.run_batch(random_stimulus_batch(module, 16, 2, seed=1))
        if reference is None:
            reference = traces
        assert traces == reference


# -- the full catalog, both levels --------------------------------------


@pytest.mark.parametrize("name", sorted(DESIGNS))
@pytest.mark.parametrize("opt_level", [0, 2])
def test_catalog_designs_bit_identical_across_backends(name, opt_level):
    source, component, generators, params = design_point(name)
    session = CompileSession(opt_level=opt_level)
    module = session.optimize(source, component, params, generators).value.module
    assert differential_check(module, cycles=64, seed=0xA5)


# -- corner-biased stimulus ---------------------------------------------


def test_biased_stimulus_zero_bias_preserves_historical_stream():
    module = _alu(width=32)
    assert random_stimulus(module, 50, seed=9) == random_stimulus(
        module, 50, seed=9, bias=0.0
    )


def test_biased_stimulus_is_deterministic_and_hits_corners():
    module = _alu(width=32)
    first = random_stimulus(module, 400, seed=2, bias=0.25)
    second = random_stimulus(module, 400, seed=2, bias=0.25)
    assert first == second
    corners = {0, (1 << 32) - 1, 1 << 31}
    seen = [vec["a"] for vec in first] + [vec["b"] for vec in first]
    # Pure 32-bit uniform draws essentially never produce these values;
    # the bias must make them common.
    assert len([v for v in seen if v in corners]) > 50
    # ... without turning the stream all-corner.
    assert any(v not in corners for v in seen)


def test_biased_stimulus_full_bias_only_emits_corners():
    module = _alu(width=16)
    corners = {0, (1 << 16) - 1, 1 << 15}
    for vector in random_stimulus(module, 100, seed=1, bias=1.0):
        assert vector["a"] in corners and vector["b"] in corners


def test_biased_stimulus_rejects_bad_bias():
    with pytest.raises(ValueError):
        random_stimulus(_alu(), 10, seed=0, bias=1.5)
