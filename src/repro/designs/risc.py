"""A three-stage RISC datapath (Figure 8 row "RISC 3-stage Base").

A classic fetch/decode/execute pipeline over a 16-bit instruction word:

* **stage 0 (decode)** — field extraction: opcode, two source operands
  selected between an immediate and the forwarded accumulator;
* **stage 1 (operand)** — operand registers, zero/sign handling;
* **stage 2 (execute)** — the ALU (add, sub, and, or, xor, shift) with a
  result register.

The design is deliberately a straight-line pipelined datapath (no
control hazards): the paper's row measures the type checker on a
realistic mix of slices, muxes, and per-stage registers, which is what
this reproduces.  Instruction format::

    [15:12] opcode   [11:8] rd (unused here)   [7:0] immediate
"""

from __future__ import annotations

from typing import Optional

from ..driver import CompileSession, default_session
from ..lilac.elaborate import ElabResult

RISC_SOURCE = """
// Decode stage: slice the instruction word into fields.
comp Decode<G:1>(instr: [G, G+1] 16)
    -> (op: [G+1, G+2] 4, imm: [G+1, G+2] 8) {
  opf := new Slice[16, 4, 12]<G>(instr);
  immf := new Slice[16, 8, 0]<G>(instr);
  rop := new Reg[4]<G>(opf.out);
  rimm := new Reg[8]<G>(immf.out);
  op = rop.out;
  imm = rimm.out;
}

// Operand stage: choose between immediate and forwarded accumulator.
comp Operand<G:1>(op: [G, G+1] 4, imm: [G, G+1] 8, acc: [G, G+1] 8)
    -> (a: [G+1, G+2] 8, b: [G+1, G+2] 8, opq: [G+1, G+2] 4) {
  // Ops 0-3 use imm as the second operand, ops 4-7 use the accumulator.
  four := new ConstVal[4, 4]<G>();
  useacc := new Lt[4]<G>(op, four.out);
  sel := new NotGate[1]<G>(useacc.out);
  bsel := new Mux[8]<G>(sel.out, acc, imm);
  ra := new Reg[8]<G>(acc);
  rb := new Reg[8]<G>(bsel.out);
  rop := new Reg[4]<G>(op);
  a = ra.out;
  b = rb.out;
  opq = rop.out;
}

// Execute stage: the ALU proper.
comp Alu<G:1>(op: [G, G+1] 4, a: [G, G+1] 8, b: [G, G+1] 8)
    -> (res: [G+1, G+2] 8) {
  sum := new Add[8]<G>(a, b);
  dif := new Sub[8]<G>(a, b);
  con := new AndGate[8]<G>(a, b);
  dis := new OrGate[8]<G>(a, b);
  flp := new XorGate[8]<G>(a, b);
  shl := new ShiftLeft[8, 1]<G>(b);
  shr := new ShiftRight[8, 1]<G>(b);
  pas := new OrGate[8]<G>(b, b);

  // Two-level operation select on op[2:0].
  b0 := new Slice[4, 1, 0]<G>(op);
  b1 := new Slice[4, 1, 1]<G>(op);
  b2 := new Slice[4, 1, 2]<G>(op);
  m00 := new Mux[8]<G>(b0.out, dif.out, sum.out);
  m01 := new Mux[8]<G>(b0.out, dis.out, con.out);
  m10 := new Mux[8]<G>(b0.out, shl.out, flp.out);
  m11 := new Mux[8]<G>(b0.out, pas.out, shr.out);
  m0 := new Mux[8]<G>(b1.out, m01.out, m00.out);
  m1 := new Mux[8]<G>(b1.out, m11.out, m10.out);
  m := new Mux[8]<G>(b2.out, m1.out, m0.out);
  r := new Reg[8]<G>(m.out);
  res = r.out;
}

// The three-stage pipeline: one instruction per cycle, forwarding the
// accumulator into the operand stage.
comp Risc3<G:1>(instr: [G, G+1] 16, acc: [G+1, G+2] 8)
    -> (result: [G+3, G+4] 8) {
  D := new Decode;
  O := new Operand;
  X := new Alu;
  d := D<G>(instr);
  o := O<G+1>(d.op, d.imm, acc);
  x := X<G+2>(o.opq, o.a, o.b);
  result = x.res;
}
"""


def elaborate_risc(session: Optional[CompileSession] = None) -> ElabResult:
    session = session or default_session()
    return session.elaborate(RISC_SOURCE, "Risc3", {}).value


OP_ADD, OP_SUB, OP_AND, OP_OR = 0, 1, 2, 3
OP_XOR, OP_SHL, OP_SHR, OP_PASS = 4, 5, 6, 7


def encode_instr(op: int, imm: int) -> int:
    return ((op & 0xF) << 12) | (imm & 0xFF)


def golden_alu(op: int, acc: int, imm: int) -> int:
    """Software model of one instruction's result."""
    b = imm if op < 4 else acc
    a = acc
    result = {
        0: a + b,
        1: a - b,
        2: a & b,
        3: a | b,
        4: a ^ b,
        5: b << 1,
        6: b >> 1,
        7: b,
    }[op & 7]
    return result & 0xFF
