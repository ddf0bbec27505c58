"""Delay-buffer coalescing: canonicalize zero-cost buffers and delays.

Lowering is littered with width-preserving ``slice``-at-0 cells — the
``_buffer`` idiom drives every module output and every delay buffer's
read port through one — and with parallel register chains that differ
only in the buffers between their stages.  Array ports add packed
nets: a chain of ``concat`` cells builds one, and a ``slice`` per
element reads it back.  This pass:

* **reads slices through concats** — a slice whose bits lie inside one
  operand of the concat that drives it is re-pointed at that operand
  (its ``lsb`` lowered by the low operand's width when it reads the
  high one), down the chain; one that straddles both operands, or
  reaches past a truncating concat's out width, stays.  A slice that
  lands exactly on its element is an alias, and the packing that
  nobody reads any more is left to dead-cell elimination;
* **forwards aliases** — a width-preserving ``slice`` at lsb 0 is a
  wire; consumers are rewired to read the source directly;
* **sinks output buffers** — when such an alias drives an output port,
  the alias's *driver* is retargeted onto the port net instead, deleting
  the buffer cell (the port keeps a driver throughout);
* **coalesces delay chains** — registers with identical input, enable
  and init are merged level by level (shared with
  :func:`~repro.rtl.passes.share.share_cells`), so parallel delay
  chains from one source collapse into a single tapped chain.

The four steps iterate to a fixpoint: alias forwarding is what makes
neighbouring chain stages structurally identical in the first place,
and reading through the packing is what lets registers that the
packing kept apart merge.
"""

from __future__ import annotations

from typing import Dict

from ..netlist import Cell, Module, Net
from .base import Pass
from .share import share_cells


def _is_alias(cell: Cell) -> bool:
    if cell.kind != "slice" or int(cell.params.get("lsb", 0)) != 0:
        return False
    return cell.pins["out"].width == cell.pins["a"].width


class DelayCoalesce(Pass):
    name = "delay-coalesce"
    version = 2

    def run(self, module: Module) -> None:
        while True:
            changed = self._narrow_slices(module)
            changed += self._forward_aliases(module)
            changed += self._sink_output_buffers(module)
            changed += share_cells(module, {"reg", "regen"})
            if not changed:
                break
        module.prune_nets()

    @staticmethod
    def _narrow_slices(module: Module) -> int:
        """Re-point every slice whose bits lie inside one operand of the
        concat that drives it at that operand, down the concat chain.

        Reading the high operand lowers ``lsb`` by the low operand's
        width.  A slice that straddles both operands stays where it is,
        and so does one reaching past a truncating concat's out width:
        the concat reads 0 up there, but its operand may not.
        """
        concats = {
            cell.pins["out"]: cell
            for cell in module.cells.values()
            if cell.kind == "concat"
        }
        narrowed = 0
        for cell in module.cells.values():
            if cell.kind != "slice":
                continue
            src = cell.pins["a"]
            lsb = int(cell.params.get("lsb", 0))
            top = lsb + cell.pins["out"].width
            read = src
            while read in concats and top <= read.width:
                high, low = concats[read].pins["a"], concats[read].pins["b"]
                if top <= low.width:
                    read = low
                elif lsb >= low.width:
                    read = high
                    lsb -= low.width
                    top -= low.width
                else:
                    break
            if read is not src:
                cell.pins["a"] = read
                cell.params["lsb"] = lsb
                narrowed += 1
        return narrowed

    @staticmethod
    def _forward_aliases(module: Module) -> int:
        """Drop the forwardable alias cells, then rewire their readers in
        one sweep.

        Each alias reads its source through the aliases dropped before
        it, exactly as if every earlier one had been rewired already; a
        ring of aliases therefore keeps its last buffer instead of
        mapping a net onto itself.
        """
        port_nets = set(module.ports.values())
        aliases: Dict[Net, Net] = {}
        for cell in list(module.cells.values()):
            if not _is_alias(cell):
                continue
            src, out = cell.pins["a"], cell.pins["out"]
            while src in aliases:
                src = aliases[src]
            if out in port_nets or src is out:
                continue
            module.remove_cell(cell.name)
            aliases[out] = src
        module.replace_net_uses(aliases)
        return len(aliases)

    @staticmethod
    def _sink_output_buffers(module: Module) -> int:
        output_nets = {net for _, net in module.outputs()}
        port_nets = set(module.ports.values())
        drivers = module.drivers()
        sunk = 0
        for cell in list(module.cells.values()):
            if not _is_alias(cell):
                continue
            src, out = cell.pins["a"], cell.pins["out"]
            if out not in output_nets or src in port_nets:
                continue
            entry = drivers.get(src)
            if entry is None:
                continue
            driver, pin = entry
            driver.pins[pin] = out
            drivers[out] = entry
            del drivers[src]
            module.remove_cell(cell.name)
            module.replace_net_uses({src: out})
            sunk += 1
        return sunk
