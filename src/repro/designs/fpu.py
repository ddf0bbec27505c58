"""The FPU case study (sections 2 and 3, Table 1).

Three implementations of a two-function arithmetic unit built around
FloPoCo-generated adder and multiplier cores:

* **LS / LA** — the corrected latency-abstract Lilac design of Figure 5b.
  After elaboration it *is* the latency-sensitive implementation of
  Figure 2: pipeline-balancing shift registers, no handshakes.  The same
  source adapts to any FloPoCo frequency goal.
* **LI** — the ready--valid baseline of Figure 1b: each core wrapped in a
  latency-insensitive interface, an op FIFO for bookkeeping, and
  handshake plumbing to merge the two result streams.

``op = 1`` selects addition, ``op = 0`` multiplication (matching the mux
polarity in Figure 5).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..driver import CompileSession, default_session
from ..generators.flopoco import FloPoCoGenerator
from ..lilac.elaborate import ElabResult
from ..li import bit_and, wrap_latency_sensitive
from ..rtl import Module, Simulator

FPU_LA_SOURCE = """
gen "flopoco" comp FPAdd[#W]<G:1>(
    l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };

gen "flopoco" comp FPMul[#W]<G:1>(
    l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };

comp FPU[#W]<G:1>(
    op: [G, G+1] 1, l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L >= 1; } {
  Add := new FPAdd[#W];
  Mul := new FPMul[#W];
  add := Add<G>(l, r);
  mul := Mul<G>(l, r);
  let #Max = Max[Add::#L, Mul::#L]::#Out;
  sa := new Shift[#W, #Max - Add::#L]<G+Add::#L>(add.o);
  sm := new Shift[#W, #Max - Mul::#L]<G+Mul::#L>(mul.o);
  so := new Shift[1, #Max]<G>(op);
  mx := new Mux[#W]<G+#Max>(so.out, sa.out, sm.out);
  o = mx.out;
  #L := #Max;
}
"""


def fpu_generators(frequency_mhz: int) -> List:
    return [FloPoCoGenerator(frequency_mhz)]


def elaborate_fpu_ls(
    frequency_mhz: int, width: int = 32, session: Optional[CompileSession] = None
) -> ElabResult:
    """Elaborate the LA design into its latency-sensitive implementation."""
    session = session or default_session()
    return session.elaborate(
        FPU_LA_SOURCE, "FPU", {"#W": width}, fpu_generators(frequency_mhz)
    ).value


class LiFpu:
    """Latency-insensitive FPU (Figure 1b).

    The adder and multiplier are wrapped individually; an op FIFO records
    which unit's result each transaction needs; output-side handshake
    logic pops the right stream.  Both unit wrappers receive every
    operand pair (as in Figure 1b, where the FSM steers data); the op bit
    selects which result is forwarded.
    """

    def __init__(
        self,
        frequency_mhz: int,
        width: int = 32,
        fifo_depth: int = None,
        session: Optional[CompileSession] = None,
    ):
        self.width = width
        session = session or default_session()
        generators = fpu_generators(frequency_mhz)
        self.add_core = session.elaborate(
            FPU_LA_SOURCE, "FPAdd", {"#W": width}, generators
        ).value
        self.mul_core = session.elaborate(
            FPU_LA_SOURCE, "FPMul", {"#W": width}, generators
        ).value
        self.add_wrapped = wrap_latency_sensitive(
            self.add_core, fifo_depth, name="fpadd_li"
        )
        self.mul_wrapped = wrap_latency_sensitive(
            self.mul_core, fifo_depth, name="fpmul_li"
        )
        op_depth = fifo_depth or max(
            2, max(self.add_core.latency, self.mul_core.latency) + 1
        )
        self.module = self._build(op_depth)

    def _build(self, fifo_depth: int) -> Module:
        width = self.width
        m = Module(f"FPU_LI_W{width}")
        in_valid = m.add_input("in_valid", 1)
        op = m.add_input("op", 1)
        l_in = m.add_input("l", width)
        r_in = m.add_input("r", width)
        out_ready = m.add_input("out_ready", 1)
        in_ready = m.add_output("in_ready", 1)
        out_valid = m.add_output("out_valid", 1)
        o_out = m.add_output("o", width)

        add_in_ready = m.fresh_net(1, "add_in_ready")
        mul_in_ready = m.fresh_net(1, "mul_in_ready")
        op_in_ready = m.fresh_net(1, "op_in_ready")
        # Accept when every unit and the op FIFO can take the transaction.
        both = bit_and(m, add_in_ready, mul_in_ready)
        ready = bit_and(m, both, op_in_ready)
        m.add_cell("slice", {"a": ready, "out": in_ready}, {"lsb": 0})
        issue = bit_and(m, in_valid, ready)

        add_out_valid = m.fresh_net(1, "add_ov")
        mul_out_valid = m.fresh_net(1, "mul_ov")
        add_out = m.fresh_net(width, "add_o")
        mul_out = m.fresh_net(width, "mul_o")
        pop = m.fresh_net(1, "pop")
        m.add_submodule(
            self.add_wrapped.module,
            {
                "in_valid": issue,
                "in_ready": add_in_ready,
                "l": l_in,
                "r": r_in,
                "out_ready": pop,
                "out_valid": add_out_valid,
                "o": add_out,
            },
            name="u_add",
        )
        m.add_submodule(
            self.mul_wrapped.module,
            {
                "in_valid": issue,
                "in_ready": mul_in_ready,
                "l": l_in,
                "r": r_in,
                "out_ready": pop,
                "out_valid": mul_out_valid,
                "o": mul_out,
            },
            name="u_mul",
        )
        # Bookkeeping FIFO for the op bit (Figure 1b).
        op_out_valid = m.fresh_net(1, "op_ov")
        op_out = m.fresh_net(1, "op_o")
        m.add_cell(
            "fifo",
            {
                "in_data": op,
                "in_valid": issue,
                "in_ready": op_in_ready,
                "out_data": op_out,
                "out_valid": op_out_valid,
                "out_ready": pop,
            },
            {"depth": fifo_depth},
        )
        # A result transfers when all three streams agree.
        results_ready = bit_and(m, add_out_valid, mul_out_valid)
        all_valid = bit_and(m, results_ready, op_out_valid)
        m.add_cell("slice", {"a": all_valid, "out": out_valid}, {"lsb": 0})
        pop_now = bit_and(m, all_valid, out_ready)
        m.add_cell("slice", {"a": pop_now, "out": pop}, {"lsb": 0})
        result = m.mux(op_out, add_out, mul_out)
        m.add_cell("slice", {"a": result, "out": o_out}, {"lsb": 0})
        return m

    def run(self, transactions: List[Dict[str, int]], max_cycles: int = 10000):
        """Drive the LI FPU through its handshake; returns result values."""
        sim = Simulator(self.module)
        pending = list(transactions)
        results: List[int] = []
        cycle = 0
        while len(results) < len(transactions):
            if cycle >= max_cycles:
                raise RuntimeError("LI FPU timed out")
            inputs = {"in_valid": 0, "out_ready": 1, "op": 0, "l": 0, "r": 0}
            if pending:
                inputs.update(pending[0])
                inputs["in_valid"] = 1
            sim.poke(inputs)
            sim.evaluate()
            took = pending and sim.peek("in_ready") == 1
            gave = sim.peek("out_valid") == 1
            if gave:
                results.append(sim.peek("o"))
            sim.tick()
            if took:
                pending.pop(0)
            cycle += 1
        return results
