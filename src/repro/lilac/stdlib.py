"""Lilac's standard library.

Written in Lilac's concrete syntax and parsed by the frontend (the same
path user designs take).  ``extern`` components are backed by RTL
primitives during lowering; the mapping lives in ``EXTERN_PRIMS`` and is
consumed by :mod:`repro.lilac.lower`.

The library mirrors what the paper's evaluation relies on: registers,
muxes, combinational arithmetic, the ``Shift`` pipeline balancer
(Figure 6), the ``Max`` parameter function (section 3.3), and a handful of
small structural helpers used by the larger designs.
"""

from __future__ import annotations

from .ast import LilacError, Program
from .parser import parse_program

STDLIB_SOURCE = """
// ---------------------------------------------------------------------
// Sequential primitives.

// A single register: output is the input delayed by one cycle.
extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);

// A register with an explicit hold: the output stays valid for #H cycles.
// The enable pulse (interface port) latches the input; the register may
// not be re-loaded for #H cycles, hence delay #H.
extern comp RegHold[#W, #H]<G:#H>(en_i: interface[G], in: [G, G+1] #W)
    -> (out: [G+1, G+1+#H] #W) where #H >= 1;

// A double-buffered delay for array signals: presents the input #T
// cycles later using two alternating register banks instead of a shift
// chain.  Correct as long as at most two transactions are in flight,
// hence the delay (initiation interval) of (#T+2)/2.
extern comp DelayBuf[#W, #Z, #T]<G:(#T+2)/2>(
    en_i: interface[G], in[#Z]: [G, G+1] #W
) -> (out[#Z]: [G+#T, G+#T+1] #W) where #T >= 1, #Z >= 1;

// ---------------------------------------------------------------------
// Combinational primitives (zero-latency, fully pipelined).

extern comp Mux[#W]<G:1>(sel: [G, G+1] 1, a: [G, G+1] #W, b: [G, G+1] #W)
    -> (out: [G, G+1] #W);

extern comp Add[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W)
    -> (out: [G, G+1] #W);

extern comp Sub[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W)
    -> (out: [G, G+1] #W);

extern comp MulComb[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W)
    -> (out: [G, G+1] #W);

extern comp AndGate[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W)
    -> (out: [G, G+1] #W);

extern comp OrGate[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W)
    -> (out: [G, G+1] #W);

extern comp XorGate[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W)
    -> (out: [G, G+1] #W);

extern comp NotGate[#W]<G:1>(a: [G, G+1] #W) -> (out: [G, G+1] #W);

extern comp ShiftRight[#W, #S]<G:1>(a: [G, G+1] #W) -> (out: [G, G+1] #W);

extern comp ShiftLeft[#W, #S]<G:1>(a: [G, G+1] #W) -> (out: [G, G+1] #W);

extern comp Eq[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W)
    -> (out: [G, G+1] 1);

extern comp Lt[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W)
    -> (out: [G, G+1] 1);

extern comp Slice[#W, #OW, #LSB]<G:1>(a: [G, G+1] #W)
    -> (out: [G, G+1] #OW) where #OW >= 1;

extern comp Concat[#WA, #WB]<G:1>(a: [G, G+1] #WA, b: [G, G+1] #WB)
    -> (out: [G, G+1] #WA+#WB);

extern comp ConstVal[#W, #V]<G:1>() -> (out: [G, G+1] #W);

// ---------------------------------------------------------------------
// Parameter functions: components with empty datapaths used as pure
// functions over parameters (section 3.3 of the paper).

comp Max[#A, #B]<G:1>() -> ()
    with { some #Out where #Out >= #A, #Out >= #B; } {
  #Out := (#A >= #B ? #A : #B);
}

comp Max3[#A, #B, #C]<G:1>() -> ()
    with { some #Out where #Out >= #A, #Out >= #B, #Out >= #C; } {
  #Out := (#A >= #B & #A >= #C ? #A : (#B >= #C ? #B : #C));
}

comp Min[#A, #B]<G:1>() -> ()
    with { some #Out where #Out <= #A, #Out <= #B; } {
  #Out := (#A <= #B ? #A : #B);
}

// ---------------------------------------------------------------------
// Shift register (Figure 6): delays a signal by #N cycles.

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

// A shift register that also widens the availability window of its final
// stage, used when a downstream module needs the value held stable.
comp ShiftHold[#W, #N, #H]<G:#H>(input: [G, G+1] #W)
    -> (out: [G+#N, G+#N+#H] #W) where #N >= 1, #H >= 1 {
  bundle<#i> w[#N]: [G+#i, G+#i+1] #W;
  w{0} = input;
  for #k in 0..#N-1 {
    r := new Reg[#W]<G+#k>(w{#k});
    w{#k+1} = r.out;
  }
  hold := new RegHold[#W, #H]<G+#N-1>(w{#N-1});
  out = hold.out;
}

// ---------------------------------------------------------------------
// Reduction tree: sums #N inputs pairwise in log2(#N) combinational
// levels (used by convolution kernels).  The tree is unrolled over a
// bundle whose rows hold the partial sums of each level.

comp AddTree2[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W)
    -> (out: [G, G+1] #W) {
  s := new Add[#W]<G>(a, b);
  out = s.out;
}

comp AddTree4[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W,
                       c: [G, G+1] #W, d: [G, G+1] #W)
    -> (out: [G, G+1] #W) {
  s0 := new Add[#W]<G>(a, b);
  s1 := new Add[#W]<G>(c, d);
  s2 := new Add[#W]<G>(s0.out, s1.out);
  out = s2.out;
}

// ---------------------------------------------------------------------
// Pipelined multiply-accumulate: one multiply, one add, one register.

comp Mac[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W, acc: [G, G+1] #W)
    -> (out: [G+1, G+2] #W) {
  m := new MulComb[#W]<G>(a, b);
  s := new Add[#W]<G>(m.out, acc);
  r := new Reg[#W]<G>(s.out);
  out = r.out;
}
"""

# Mapping from extern component names to RTL primitive builders; consumed
# by repro.lilac.lower.  Values are (prim_kind, latency) descriptors; the
# lowering resolves parameter values before building cells.
EXTERN_PRIMS = {
    "Reg": ("reg", 1),
    "RegHold": ("reg_hold", 1),
    "DelayBuf": ("delay_buf", 1),
    "Mux": ("mux", 0),
    "Add": ("add", 0),
    "Sub": ("sub", 0),
    "MulComb": ("mul", 0),
    "AndGate": ("and", 0),
    "OrGate": ("or", 0),
    "XorGate": ("xor", 0),
    "NotGate": ("not", 0),
    "ShiftRight": ("shr", 0),
    "ShiftLeft": ("shl", 0),
    "Eq": ("eq", 0),
    "Lt": ("lt", 0),
    "Slice": ("slice", 0),
    "Concat": ("concat", 0),
    "ConstVal": ("const", 0),
}

_CACHE = None


def standard_library() -> Program:
    """Parse (once) and return the standard library program."""
    global _CACHE
    if _CACHE is None:
        _CACHE = parse_program(STDLIB_SOURCE)
    return _CACHE


def stdlib_program(*extra_sources: str) -> Program:
    """The standard library merged with additional Lilac source texts.

    A source component may not reuse a name the standard library defines:
    the design would otherwise elaborate against the library's version.
    """
    library = standard_library()
    merged = Program()
    for comp in library:
        merged.define(comp)
    for source in extra_sources:
        for comp in parse_program(source):
            if library.has(comp.name):
                raise LilacError(
                    f"component {comp.name!r} is already defined by the "
                    "standard library"
                )
            merged.define(comp)
    return merged
