"""End-to-end elaboration tests: Lilac source -> Filament -> RTL -> simulation."""

import pytest

from repro.generators import GeneratorRegistry
from repro.generators.flopoco import FloPoCoGenerator, adder_depth, multiplier_depth
from repro.lilac import LilacError
from repro.lilac.elaborate import ElabError, Elaborator
from repro.lilac.run import TransactionRunner, pack_elements, unpack_elements
from repro.lilac.stdlib import standard_library, stdlib_program
from repro.rtl import Simulator, emit_verilog

from .test_typecheck import FPU_CORRECT


def make_elaborator(*sources, frequency=400):
    program = stdlib_program(*sources)
    registry = GeneratorRegistry().register(FloPoCoGenerator(frequency))
    return Elaborator(program, registry)


def test_shift_elaborates_to_delay_line():
    elab = make_elaborator().elaborate("Shift", {"#W": 8, "#N": 3})
    assert elab.delay == 1
    assert elab.latency == 3
    stats = elab.module.stats()
    # Flattened: 3 Reg submodules.
    runner = TransactionRunner(elab)
    results = runner.run([{"input": v} for v in [5, 9, 12, 200]])
    assert [r["out"] for r in results] == [5, 9, 12, 200]


def test_shift_zero_depth():
    elab = make_elaborator().elaborate("Shift", {"#W": 8, "#N": 0})
    results = TransactionRunner(elab).run([{"input": 3}])
    assert results[0]["out"] == 3


def test_shift_where_violation():
    with pytest.raises(ElabError):
        make_elaborator().elaborate("Shift", {"#W": 8, "#N": -1})


def test_max_component_is_parameter_function():
    elab = make_elaborator().elaborate("Max", {"#A": 3, "#B": 9})
    assert elab.out_params["#Out"] == 9
    elab = make_elaborator().elaborate("Max", {"#A": 10, "#B": 9})
    assert elab.out_params["#Out"] == 10


def test_source_components_may_not_shadow_the_standard_library():
    shadow = (
        "comp Shift[#W]<G:1>(in: [G, G+1] #W) -> (out: [G, G+1] #W) "
        "{ out = in; }"
    )
    with pytest.raises(LilacError, match="'Shift' is already defined"):
        stdlib_program(shadow)
    wire = shadow.replace("Shift", "Wire")
    assert stdlib_program(wire).has("Wire")
    with pytest.raises(LilacError, match="duplicate component 'Wire'"):
        stdlib_program(wire, wire)


def test_flopoco_depth_model():
    assert adder_depth(32, 100) == 1
    assert multiplier_depth(32, 100) == 1
    assert adder_depth(32, 400) == 4
    assert multiplier_depth(32, 400) == 2


def test_flopoco_report_scraping():
    registry = GeneratorRegistry().register(FloPoCoGenerator(400))
    generated = registry.run("flopoco", "FPAdd", {"#W": 32})
    assert generated.out_params["#L"] == 4
    assert "Pipeline depth = 4" in generated.report


def test_flopoco_adder_is_correct_pipeline():
    registry = GeneratorRegistry().register(FloPoCoGenerator(400))
    generated = registry.run("flopoco", "FPAdd", {"#W": 32})
    sim = Simulator(generated.module)
    latency = generated.out_params["#L"]
    # Pipelined: issue three back-to-back additions.
    pairs = [(100, 23), (2**31, 2**31), (0xDEADBEEF, 0x11111111)]
    stream = [{"l": a, "r": b} for a, b in pairs] + [{}] * latency
    outs = [o["o"] for o in sim.run(stream)]
    for index, (a, b) in enumerate(pairs):
        assert outs[index + latency] == (a + b) & 0xFFFFFFFF


def test_flopoco_multiplier_correct():
    registry = GeneratorRegistry().register(FloPoCoGenerator(400))
    generated = registry.run("flopoco", "FPMul", {"#W": 16})
    sim = Simulator(generated.module)
    latency = generated.out_params["#L"]
    stream = [{"l": 123, "r": 45}] + [{}] * latency
    outs = [o["o"] for o in sim.run(stream)]
    assert outs[latency] == (123 * 45) & 0xFFFF


@pytest.mark.parametrize("frequency", [100, 400])
def test_fpu_elaborates_and_computes(frequency):
    """The corrected FPU (Figure 5b) works at both Table 1 design points."""
    elab = make_elaborator(FPU_CORRECT, frequency=frequency).elaborate(
        "FPU", {"#W": 32}
    )
    add_l = adder_depth(32, frequency)
    mul_l = multiplier_depth(32, frequency)
    assert elab.out_params["#L"] == max(add_l, mul_l)
    runner = TransactionRunner(elab)
    cases = [
        {"op": 1, "l": 7, "r": 9},      # op=1 -> first mux input (adder)
        {"op": 0, "l": 7, "r": 9},      # op=0 -> second mux input (multiplier)
        {"op": 1, "l": 1000, "r": 2000},
        {"op": 0, "l": 1000, "r": 2000},
    ]
    results = runner.run(cases)
    assert results[0]["o"] == 16
    assert results[1]["o"] == 63
    assert results[2]["o"] == 3000
    assert results[3]["o"] == 2000000


def test_fpu_fully_pipelined_back_to_back():
    """II = 1: a new operation can start every cycle."""
    elab = make_elaborator(FPU_CORRECT, frequency=400).elaborate("FPU", {"#W": 32})
    assert elab.delay == 1
    runner = TransactionRunner(elab)
    cases = [{"op": 1, "l": i, "r": i + 1} for i in range(10)]
    results = runner.run(cases)
    for i, result in enumerate(results):
        assert result["o"] == 2 * i + 1


def test_elaboration_memoizes_children():
    elaborator = make_elaborator(FPU_CORRECT)
    first = elaborator.elaborate("FPU", {"#W": 32})
    second = elaborator.elaborate("FPU", {"#W": 32})
    assert first is second


def test_unbound_generator_tool_fails():
    program = stdlib_program(FPU_CORRECT)
    elaborator = Elaborator(program, GeneratorRegistry())
    with pytest.raises(Exception):
        elaborator.elaborate("FPU", {"#W": 32})


def test_assume_violation_reported():
    source = """
    comp NeedsFact[#W, #N]<G:1>(a: [G, G+1] #W) -> (o: [G+#N, G+#N+1] #W) {
      assume #N >= 2;
      s := new Shift[#W, #N]<G>(a);
      o = s.out;
    }
    """
    elaborator = make_elaborator(source)
    with pytest.raises(ElabError, match="assumption"):
        elaborator.elaborate("NeedsFact", {"#W": 8, "#N": 1})
    # And works when respected.
    elab = elaborator.elaborate("NeedsFact", {"#W": 8, "#N": 3})
    assert elab.latency == 3


def test_conditional_selects_architecture():
    source = """
    comp Cond[#W]<G:1>(a: [G, G+1] #W) -> (o: [G+#L, G+#L+1] #W)
        with { some #L where #L >= 0; } {
      if #W < 16 {
        s := new Shift[#W, 1]<G>(a);
        o = s.out;
        #L := 1;
      } else {
        s := new Shift[#W, 2]<G>(a);
        o = s.out;
        #L := 2;
      }
    }
    """
    elaborator = make_elaborator(source)
    assert elaborator.elaborate("Cond", {"#W": 8}).latency == 1
    assert elaborator.elaborate("Cond", {"#W": 32}).latency == 2


def test_verilog_of_elaborated_fpu():
    elab = make_elaborator(FPU_CORRECT, frequency=400).elaborate("FPU", {"#W": 32})
    text = emit_verilog(elab.module)
    assert "module FPU_32" in text
    assert "endmodule" in text


def test_pack_unpack_roundtrip():
    values = [3, 255, 0, 17]
    packed = pack_elements(values, 8)
    assert unpack_elements(packed, 8, 4) == values


def test_reghold_holds_value():
    source = """
    comp HoldTop[#W]<G:4>(a: [G, G+1] #W) -> (o: [G+1, G+5] #W) {
      h := new RegHold[#W, 4]<G>(a);
      o = h.out;
    }
    """
    elab = make_elaborator(source).elaborate("HoldTop", {"#W": 8})
    assert elab.delay == 4
    runner = TransactionRunner(elab)
    results = runner.run([{"a": 77}, {"a": 99}])
    assert results[0]["o"] == 77
    assert results[1]["o"] == 99


def test_resource_sharing_two_invocations():
    """One instance invoked twice: lowering must time-multiplex it."""
    source = """
    comp Twice[#W]<G:4>(a: [G, G+1] #W, b: [G+2, G+3] #W)
        -> (o: [G+2, G+3] #W) {
      A := new Add[#W];
      x := A<G>(a, a);
      r := new Reg[#W]<G>(x.out);
      r2 := new Reg[#W]<G+1>(r.out);
      y := A<G+2>(b, b);
      s := new Add[#W]<G+2>(r2.out, y.out);
      o = s.out;
    }
    """
    elab = make_elaborator(source).elaborate("Twice", {"#W": 8})
    runner = TransactionRunner(elab)
    # o = (2a delayed) + 2b at cycle 2.
    results = runner.run([{"a": 5, "b": 7}, {"a": 1, "b": 2}])
    assert results[0]["o"] == (2 * 5 + 2 * 7) & 0xFF
    assert results[1]["o"] == (2 * 1 + 2 * 2) & 0xFF
