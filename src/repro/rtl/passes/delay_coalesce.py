"""Delay-buffer coalescing: canonicalize zero-cost buffers and delays.

Lowering is littered with width-preserving ``slice``-at-0 cells — the
``_buffer`` idiom drives every module output and every delay buffer's
read port through one — and with parallel register chains that differ
only in the buffers between their stages.  This pass:

* **forwards aliases** — a width-preserving ``slice`` at lsb 0 is a
  wire; consumers are rewired to read the source directly;
* **sinks output buffers** — when such an alias drives an output port,
  the alias's *driver* is retargeted onto the port net instead, deleting
  the buffer cell (the port keeps a driver throughout);
* **coalesces delay chains** — registers with identical input, enable
  and init are merged level by level (shared with
  :func:`~repro.rtl.passes.share.share_cells`), so parallel delay
  chains from one source collapse into a single tapped chain.

The three steps iterate to a fixpoint: alias forwarding is what makes
neighbouring chain stages structurally identical in the first place.
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
    version = 1

    def run(self, module: Module) -> None:
        while True:
            changed = self._forward_aliases(module)
            changed += self._sink_output_buffers(module)
            changed += share_cells(module, {"reg", "regen"})
            if not changed:
                break
        module.prune_nets()

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
