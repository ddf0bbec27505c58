"""Parser tests: the paper's figures round-trip through the frontend."""

import pytest

from repro.lilac import (
    CmdBundle,
    CmdConnect,
    CmdFor,
    CmdIf,
    CmdInst,
    CmdInvoke,
    CmdLet,
    CmdOutBind,
    COMP,
    EXTERN,
    GEN,
    LilacError,
    parse_component,
    parse_program,
)
from repro.lilac.parser import ParseError, tokenize
from repro.params import PAccess, PInstOut, PInt, PVar, evaluate


FPADD = """
gen "flopoco" comp FPAdd[#W]<G:1>(
    val_i: interface[G],
    l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };
"""

SHIFT = """
comp Shift[#W, #N]<G:1>(input: [G, G+1] #W)
    -> (out: [G+#N, G+#N+1] #W) where #N >= 0 {
  bundle<#i> w[#N+1]: [G+#i, G+#i+1] #W;
  w{0} = input;
  for #k in 0..#N {
    r := new Reg[#W]<G+#k>(w{#k});
    w{#k+1} = r.out;
  }
  out = w{#N};
}
"""


def test_lexer_params_and_symbols():
    tokens = tokenize("comp F[#W]<G:1> := :: .. -> // comment\n 42")
    kinds = [t.kind for t in tokens]
    assert "comp" in kinds
    assert "PARAM" in kinds
    assert ":=" in kinds
    assert "::" in kinds
    assert ".." in kinds
    assert "->" in kinds
    assert kinds[-2] == "NUMBER"
    assert kinds[-1] == "EOF"


def test_parse_gen_component_figure4():
    comp = parse_component(FPADD)
    sig = comp.signature
    assert sig.kind == GEN
    assert sig.gen_tool == "flopoco"
    assert sig.name == "FPAdd"
    assert sig.param_names() == ["#W"]
    assert sig.event.name == "G"
    assert evaluate(sig.event.delay, {}) == 1
    # interface port + two data inputs
    assert len(sig.inputs) == 3
    assert sig.inputs[0].interface
    assert sig.inputs[1].name == "l"
    assert sig.inputs[1].interval.start == PInt(0)
    # output availability is [G+#L, G+#L+1)
    out = sig.outputs[0]
    assert out.interval.start == PVar("#L")
    # output parameter with its where-clause
    assert sig.out_param_names() == ["#L"]
    assert len(sig.out_param("#L").where) == 1


def test_parse_shift_figure6():
    comp = parse_component(SHIFT)
    assert comp.signature.kind == COMP
    body = comp.body
    assert isinstance(body[0], CmdBundle)
    bundle = body[0]
    assert bundle.index_vars == ["#i"]
    assert evaluate(bundle.sizes[0], {"#N": 4}) == 5
    assert isinstance(body[1], CmdConnect)
    assert isinstance(body[2], CmdFor)
    loop = body[2]
    assert loop.var == "#k"
    inner = loop.body
    assert isinstance(inner[0], CmdInst)
    assert isinstance(inner[1], CmdInvoke)
    assert isinstance(body[3], CmdConnect)


def test_parse_combined_new_invoke():
    comp = parse_component(
        """
        comp T[#W]<G:1>(a: [G, G+1] #W) -> (o: [G, G+1] #W) {
          mx := new Mux[#W]<G>(a, a);
          o = mx.out;
        }
        """
    )
    body = comp.body
    assert isinstance(body[0], CmdInst)
    assert isinstance(body[1], CmdInvoke)
    assert body[1].instance == body[0].name


def test_parse_instance_output_param():
    comp = parse_component(
        """
        comp T<G:1>(a: [G, G+1] 8) -> (o: [G+Add::#L, G+Add::#L+1] 8) {
          Add := new FPAdd[8];
          add := Add<G>(a, a);
          mx := new Mux[8]<G+Add::#L>(a, add.o, add.o);
          o = mx.out;
        }
        """
    )
    invoke = comp.body[3]
    assert isinstance(invoke, CmdInvoke)
    assert invoke.offset == PInstOut("Add", "#L")


def test_parse_parameter_access():
    comp = parse_component(
        """
        comp T<G:1>(a: [G, G+1] 8) -> (o: [G, G+1] 8) {
          let #Max = Max[Add::#L, Mul::#L]::#Out;
          o = a;
        }
        """
    )
    let = comp.body[0]
    assert isinstance(let, CmdLet)
    assert isinstance(let.expr, PAccess)
    assert let.expr.comp == "Max"
    assert let.expr.out == "#Out"


def test_parse_out_bind_and_with():
    comp = parse_component(
        """
        comp T<G:1>(a: [G, G+1] 8) -> (o: [G+#L, G+#L+1] 8)
            with { some #L where #L > 0; } {
          #L := 4;
          o = a;
        }
        """
    )
    assert comp.signature.out_param_names() == ["#L"]
    bind = comp.body[0]
    assert isinstance(bind, CmdOutBind)
    assert bind.name == "#L"


def test_parse_if_else_chain():
    comp = parse_component(
        """
        comp T[#W]<G:1>(a: [G, G+1] #W) -> (o: [G, G+1] #W) {
          if #W < 12 { o = a; }
          else if #W < 16 { o = a; }
          else { o = a; }
        }
        """
    )
    top = comp.body[0]
    assert isinstance(top, CmdIf)
    assert isinstance(top.otherwise[0], CmdIf)


def test_parse_ternary_in_where():
    comp = parse_component(
        """
        comp Rad2[#W, #II, #Fr]<G:1>(n: [G, G+1] #W) -> (q: [G+#L, G+#L+1] #W)
          with { some #L; }
          where #II < 9, (#Fr > 0 & #II > 1 ? #W+5 : #W+4) > 0 { q = n; }
        """
    )
    assert len(comp.signature.where) == 2


def test_parse_extern():
    comp = parse_component(
        "extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);"
    )
    assert comp.signature.kind == EXTERN
    assert not comp.body


def test_parse_multiple_components_program():
    program = parse_program(FPADD + SHIFT)
    assert len(program) == 2
    assert program.has("FPAdd")
    assert program.has("Shift")


def test_parse_program_rejects_duplicate_component():
    with pytest.raises(LilacError, match="duplicate component 'Shift'"):
        parse_program(SHIFT + SHIFT)


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as err:
        parse_component("comp Broken[#W<G:1>() -> () {}")
    assert ":" in str(err.value)


def test_parse_array_port():
    comp = parse_component(
        """
        comp Conv[#W]<G:1>(in[#N]: [G, G+1] #W) -> (out[#N]: [G+1, G+2] #W) {
          out{0} = in{0};
        }
        """
    )
    assert comp.signature.inputs[0].size == PVar("#N")
    connect = comp.body[0]
    assert connect.dst.indices[0] == PInt(0)


def test_parse_negative_offsets():
    comp = parse_component(
        """
        comp T[#N]<G:1>(a: [G, G+#N-1] 8) -> (o: [G, G+1] 8) { o = a; }
        """
    )
    end = comp.signature.inputs[0].interval.end
    assert evaluate(end, {"#N": 4}) == 3
