"""Serializer backing (Figure 11 of the paper).

The paper's serializer "simply instantiates a register for each element
and forwards its output"; chunks become visible to the consumer at
parameter-dependent times.  We realize it as a generator-backed component
so the register bank plus the chunk-select mux tree appear as concrete
RTL:

* ``#NC * #B`` hold registers (one per element, enabled by the event);
* a phase counter advancing every cycle after the event;
* a ``#NC``-to-1 mux tree per output lane selecting the current chunk —
  the high-fanout select that the paper identifies as the LA critical
  path.

The mux tree shrinks as the convolution's parallelism grows (fewer
chunks), which is exactly the "less serialization logic" trend behind
Figure 13.

Interface (declared in ``repro.designs.gbp_la``)::

    gen "serializer" comp Ser[#W, #NC, #B, #C, #H]<G:#C*#NC>(
        en_i: interface[G], in[#NC*#B]: [G, G+1] #W
    ) -> (o[#B]: [G+1, G+#C*(#NC-1)+#H+1] #W)
      where #NC >= 1, #B >= 1, #C >= #H, #H >= 1;
"""

from __future__ import annotations

from typing import Dict

from .base import GeneratedModule, Generator, GeneratorError
from ..rtl import Module


class SerializerGenerator(Generator):
    name = "serializer"

    def generate(self, comp_name: str, params: Dict[str, int]) -> GeneratedModule:
        if comp_name != "Ser":
            raise GeneratorError(f"serializer: unknown component {comp_name!r}")
        width = params["#W"]
        chunks = params["#NC"]
        lane_count = params["#B"]
        gap = params["#C"]
        hold = params["#H"]
        if min(width, chunks, lane_count, gap, hold) < 1:
            raise GeneratorError("serializer: all parameters must be >= 1")
        module = self._build(width, chunks, lane_count, gap)
        report = (
            "Lilac serializer elaboration (Figure 11)\n"
            f"  elements={chunks * lane_count} chunk={lane_count} "
            f"gap={gap} hold={hold}"
        )
        return GeneratedModule(module, report=report)

    def _build(self, width: int, chunks: int, lanes: int, gap: int) -> Module:
        m = Module(f"Ser_W{width}_NC{chunks}_B{lanes}_C{gap}")
        en = m.add_input("en_i", 1)
        total = chunks * lanes
        packed_in = m.add_input("in", total * width)
        packed_out = m.add_output("o", lanes * width)
        # One hold register per element (the Figure 11 structure).
        held = []
        for index in range(total):
            element = m.unop(
                "slice", packed_in, width=width, lsb=index * width
            )
            q = m.fresh_net(width, f"hold{index}")
            m.add_cell("regen", {"d": element, "en": en, "q": q})
            held.append(q)
        if chunks == 1:
            lanes_out = held
        else:
            # A gap counter pulses every `gap` cycles; a chunk counter
            # advances on the pulse (no divider in real hardware).
            from ..rtl.netlist import onehot_mux

            chunk_index = self._chunk_counter(m, en, chunks, gap)
            selects = []
            for chunk in range(chunks):
                target = m.constant(chunk, chunk_index.width)
                selects.append(m.binop("eq", chunk_index, target, 1))
            lanes_out = []
            for lane in range(lanes):
                cases = [
                    (selects[chunk], held[chunk * lanes + lane])
                    for chunk in range(chunks)
                ]
                lanes_out.append(onehot_mux(m, cases, width))
        packed = lanes_out[-1]
        for lane_net in reversed(lanes_out[:-1]):
            widened = m.fresh_net(packed.width + width, "opack")
            m.add_cell("concat", {"a": packed, "b": lane_net, "out": widened})
            packed = widened
        m.add_cell("slice", {"a": packed, "out": packed_out}, {"lsb": 0})
        return m

    @staticmethod
    def _chunk_counter(m: Module, restart, chunks: int, gap: int):
        """chunk_index advances every ``gap`` cycles after ``restart``."""
        from math import ceil, log2

        gap_width = max(1, ceil(log2(gap + 1)))
        chunk_width = max(1, ceil(log2(chunks + 1)))
        gap_state = m.fresh_net(gap_width, "gapcnt")
        chunk_state = m.fresh_net(chunk_width, "chunkcnt")
        one_g = m.constant(1, gap_width)
        gap_last = m.binop("eq", gap_state, m.constant(gap - 1, gap_width), 1)
        bumped = m.binop("add", gap_state, one_g, gap_width)
        wrapped = m.mux(gap_last, m.constant(0, gap_width), bumped)
        next_gap = m.mux(restart, m.constant(0, gap_width), wrapped)
        m.add_cell("reg", {"d": next_gap, "q": gap_state}, {"init": 0})
        one_c = m.constant(1, chunk_width)
        at_top = m.binop(
            "eq", chunk_state, m.constant(chunks - 1, chunk_width), 1
        )
        hold = m.mux(at_top, chunk_state, m.binop("add", chunk_state, one_c, chunk_width))
        stepped = m.mux(gap_last, hold, chunk_state)
        next_chunk = m.mux(restart, m.constant(0, chunk_width), stepped)
        m.add_cell("reg", {"d": next_chunk, "q": chunk_state}, {"init": 0})
        return chunk_state
