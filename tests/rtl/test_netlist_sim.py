"""Tests for the RTL netlist and simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtl import (
    COMBINATIONAL_KINDS,
    Module,
    NetlistError,
    Simulator,
    emit_verilog,
    eval_comb_cell,
    flatten,
)
from repro.rtl.netlist import Cell, Net
from repro.rtl.simulate import COMB_EVALUATORS


def make_adder(width=8) -> Module:
    m = Module("adder")
    a = m.add_input("a", width)
    b = m.add_input("b", width)
    out = m.add_output("out", width)
    m.add_cell("add", {"a": a, "b": b, "out": out})
    return m


def test_combinational_add():
    sim = Simulator(make_adder())
    outs = sim.step({"a": 3, "b": 4})
    assert outs["out"] == 7


def test_add_wraps_at_width():
    sim = Simulator(make_adder(4))
    outs = sim.step({"a": 15, "b": 2})
    assert outs["out"] == 1


def test_register_delays_one_cycle():
    m = Module("d1")
    d = m.add_input("d", 8)
    q = m.add_output("q", 8)
    m.add_cell("reg", {"d": d, "q": q})
    sim = Simulator(m)
    assert sim.step({"d": 42})["q"] == 0
    assert sim.step({"d": 7})["q"] == 42
    assert sim.step({"d": 0})["q"] == 7


def test_enable_register_holds():
    m = Module("en")
    d = m.add_input("d", 8)
    en = m.add_input("en", 1)
    q = m.add_output("q", 8)
    m.add_cell("regen", {"d": d, "en": en, "q": q})
    sim = Simulator(m)
    sim.step({"d": 5, "en": 1})
    assert sim.step({"d": 9, "en": 0})["q"] == 5
    assert sim.step({"d": 9, "en": 0})["q"] == 5
    sim.step({"d": 9, "en": 1})
    assert sim.step({"d": 0, "en": 0})["q"] == 9


def test_delay_chain():
    m = Module("chain")
    d = m.add_input("d", 8)
    q = m.add_output("q", 8)
    delayed = m.delay_chain(d, 3)
    m.add_cell("add", {"a": delayed, "b": m.constant(0, 8), "out": q})
    sim = Simulator(m)
    stream = [{"d": v} for v in [10, 20, 30, 0, 0, 0]]
    outs = [o["q"] for o in sim.run(stream)]
    assert outs[3:6] == [10, 20, 30]


def test_mux_and_eq():
    m = Module("mx")
    sel = m.add_input("sel", 1)
    a = m.add_input("a", 8)
    b = m.add_input("b", 8)
    out = m.add_output("out", 8)
    m.add_cell("mux", {"sel": sel, "a": a, "b": b, "out": out})
    sim = Simulator(m)
    assert sim.step({"sel": 1, "a": 3, "b": 9})["out"] == 3
    assert sim.step({"sel": 0, "a": 3, "b": 9})["out"] == 9


def test_slice_concat():
    m = Module("sc")
    a = m.add_input("a", 8)
    hi = m.add_output("hi", 4)
    full = m.add_output("full", 8)
    m.add_cell("slice", {"a": a, "out": hi}, {"lsb": 4})
    lo_net = m.fresh_net(4, "lo")
    m.add_cell("slice", {"a": a, "out": lo_net}, {"lsb": 0})
    m.add_cell("concat", {"a": hi, "b": lo_net, "out": full})
    sim = Simulator(m)
    outs = sim.step({"a": 0xAB})
    assert outs["hi"] == 0xA
    assert outs["full"] == 0xAB


def test_combinational_loop_detected():
    m = Module("loop")
    a = m.add_input("a", 1)
    x = m.fresh_net(1, "x")
    y = m.fresh_net(1, "y")
    out = m.add_output("out", 1)
    m.add_cell("and", {"a": a, "b": y, "out": x})
    m.add_cell("or", {"a": x, "b": a, "out": y})
    m.add_cell("and", {"a": x, "b": y, "out": out})
    with pytest.raises(NetlistError):
        Simulator(m)


def test_undriven_net_rejected():
    m = Module("undriven")
    m.add_input("a", 4)
    m.add_output("out", 4)
    with pytest.raises(NetlistError):
        Simulator(m)


def test_double_driver_rejected():
    m = Module("dd")
    a = m.add_input("a", 4)
    out = m.add_output("out", 4)
    m.add_cell("add", {"a": a, "b": a, "out": out})
    m.add_cell("sub", {"a": a, "b": a, "out": out})
    with pytest.raises(NetlistError):
        Simulator(m)


def test_fifo_basic_flow():
    m = Module("f")
    in_data = m.add_input("in_data", 8)
    in_valid = m.add_input("in_valid", 1)
    out_ready = m.add_input("out_ready", 1)
    in_ready = m.add_output("in_ready", 1)
    out_data = m.add_output("out_data", 8)
    out_valid = m.add_output("out_valid", 1)
    m.add_cell(
        "fifo",
        {
            "in_data": in_data,
            "in_valid": in_valid,
            "in_ready": in_ready,
            "out_data": out_data,
            "out_valid": out_valid,
            "out_ready": out_ready,
        },
        {"depth": 2},
    )
    sim = Simulator(m)
    o = sim.step({"in_data": 5, "in_valid": 1, "out_ready": 0})
    assert o["in_ready"] == 1
    assert o["out_valid"] == 0
    o = sim.step({"in_data": 6, "in_valid": 1, "out_ready": 0})
    assert o["out_valid"] == 1 and o["out_data"] == 5
    # FIFO is now full: in_ready deasserts.
    o = sim.step({"in_data": 7, "in_valid": 1, "out_ready": 1})
    assert o["in_ready"] == 0
    assert o["out_data"] == 5
    o = sim.step({"in_valid": 0, "out_ready": 1})
    assert o["out_data"] == 6
    o = sim.step({"in_valid": 0, "out_ready": 1})
    assert o["out_valid"] == 0


def test_hierarchy_flatten_and_simulate():
    child = make_adder()
    top = Module("top")
    x = top.add_input("x", 8)
    y = top.add_input("y", 8)
    z = top.add_output("z", 8)
    mid = top.fresh_net(8, "mid")
    top.add_submodule(child, {"a": x, "b": y, "out": mid}, name="u0")
    one = top.constant(1, 8)
    top.add_cell("add", {"a": mid, "b": one, "out": z})
    flat = flatten(top)
    assert all(c.kind != "submodule" for c in flat.cells.values())
    sim = Simulator(top)
    assert sim.step({"x": 2, "y": 3})["z"] == 6


def test_stats():
    m = make_adder()
    assert m.stats() == {"add": 1}


def test_verilog_emission():
    m = Module("t")
    a = m.add_input("a", 8)
    q = m.add_output("q", 8)
    r = m.register(a)
    m.add_cell("add", {"a": r, "b": m.constant(1, 8), "out": q})
    text = emit_verilog(m)
    assert "module t (" in text
    assert "input wire [7:0] a" in text
    assert "always @(posedge clk)" in text
    assert "endmodule" in text


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(0, 255),
    b=st.integers(0, 255),
    op=st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
)
def test_binops_match_python(a, b, op):
    m = Module("bin")
    an = m.add_input("a", 8)
    bn = m.add_input("b", 8)
    out = m.add_output("out", 8)
    m.add_cell(op, {"a": an, "b": bn, "out": out})
    sim = Simulator(m)
    got = sim.step({"a": a, "b": b})["out"]
    expected = {
        "add": a + b,
        "sub": a - b,
        "mul": a * b,
        "and": a & b,
        "or": a | b,
        "xor": a ^ b,
    }[op] & 0xFF
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=12), st.integers(1, 5))
def test_delay_chain_is_pure_delay(values, depth):
    m = Module("dly")
    d = m.add_input("d", 8)
    q = m.add_output("q", 8)
    delayed = m.delay_chain(d, depth)
    m.add_cell("or", {"a": delayed, "b": m.constant(0, 8), "out": q})
    sim = Simulator(m)
    stream = [{"d": v} for v in values] + [{"d": 0}] * depth
    outs = [o["q"] for o in sim.run(stream)]
    assert outs[depth : depth + len(values)] == values


# ---------------------------------------------------------------------------
# Reference: combinational semantics as one ``if`` chain over the kinds.
# The evaluator table must agree with it on every kind and width.


def _mask(value, width):
    return value & ((1 << width) - 1)


def reference_eval_comb_cell(cell, values):
    kind = cell.kind
    pins = cell.pins
    out = pins["out"]
    if kind == "const":
        return _mask(int(cell.params["value"]), out.width)
    if kind in ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "eq", "lt"):
        a = values[pins["a"]]
        b = values[pins["b"]]
        if kind == "add":
            result = a + b
        elif kind == "sub":
            result = a - b
        elif kind == "mul":
            result = a * b
        elif kind == "div":
            result = a // b if b else 0
        elif kind == "mod":
            result = a % b if b else 0
        elif kind == "and":
            result = a & b
        elif kind == "or":
            result = a | b
        elif kind == "xor":
            result = a ^ b
        elif kind == "eq":
            result = 1 if a == b else 0
        else:  # lt
            result = 1 if a < b else 0
        return _mask(result, out.width)
    if kind == "not":
        return _mask(~values[pins["a"]], out.width)
    if kind == "shl":
        return _mask(values[pins["a"]] << int(cell.params["amount"]), out.width)
    if kind == "shr":
        return _mask(values[pins["a"]] >> int(cell.params["amount"]), out.width)
    if kind == "mux":
        sel = values[pins["sel"]] & 1
        return _mask(values[pins["a"]] if sel else values[pins["b"]], out.width)
    if kind == "slice":
        return _mask(values[pins["a"]] >> int(cell.params["lsb"]), out.width)
    if kind == "concat":
        b_net = pins["b"]
        return _mask(
            (values[pins["a"]] << b_net.width) | values[b_net], out.width
        )
    raise NetlistError(f"cannot evaluate cell kind {kind!r}")


_INPUT_PINS = {
    "const": (),
    "not": ("a",),
    "shl": ("a",),
    "shr": ("a",),
    "slice": ("a",),
    "mux": ("sel", "a", "b"),
}
_PARAMS = {"const": "value", "shl": "amount", "shr": "amount", "slice": "lsb"}


@st.composite
def comb_cells(draw):
    """A cell of any combinational kind over random pin widths (outputs
    narrower and wider than the operands), with operand values drawn
    within their widths and zero divisors made likely."""
    kind = draw(st.sampled_from(sorted(COMBINATIONAL_KINDS)))
    pins, values = {}, {}
    for pin in _INPUT_PINS.get(kind, ("a", "b")):
        net = Net(pin, draw(st.integers(1, 80)))
        top = (1 << net.width) - 1
        if pin == "b":
            value = draw(st.one_of(st.just(0), st.integers(0, top)))
        else:
            value = draw(st.integers(0, top))
        pins[pin] = net
        values[net] = value
    pins["out"] = Net("out", draw(st.integers(1, 96)))
    params = {}
    if kind in _PARAMS:
        bound = 1 << 90 if kind == "const" else 100
        low = -bound if kind == "const" else 0
        params[_PARAMS[kind]] = draw(st.integers(low, bound))
    return Cell("c", kind, pins, params), values


@settings(max_examples=400, deadline=None)
@given(comb_cells())
def test_evaluator_table_matches_reference_if_chain(case):
    cell, values = case
    got = eval_comb_cell(cell, values)
    assert got == reference_eval_comb_cell(cell, values)
    assert type(got) is int
    assert 0 <= got < 1 << cell.pins["out"].width


def test_evaluator_table_covers_exactly_the_combinational_kinds():
    assert set(COMB_EVALUATORS) == COMBINATIONAL_KINDS


@pytest.mark.parametrize("kind", ["bogus", "reg", "fifo", "submodule"])
def test_eval_comb_cell_rejects_non_combinational_kinds(kind):
    a, out = Net("a", 4), Net("out", 4)
    cell = Cell("c", kind, {"a": a, "out": out}, module=Module("sub"))
    with pytest.raises(NetlistError, match="cannot evaluate"):
        eval_comb_cell(cell, {a: 1, out: 0})
