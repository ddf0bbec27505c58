"""Common-cell sharing: dedupe structurally identical cells.

The lowerer freely duplicates structure — every ``onehot_mux`` call
mints its own zero constant, every child's go pin rebuilds the same OR
tree over shared pulses, every delay buffer grows its own phase chain.
Two cells computing the same function of the same nets are
interchangeable, so all consumers are rewired onto one representative
and the duplicates are dropped.

Sharing runs to a fixpoint because each round exposes the next: merging
the first registers of two parallel delay chains gives their second
registers identical inputs, which merges them, and so on down the chain
— this is what coalesces the repeated pulse logic from ``_Lowerer``.

Sequential sharing is sound for ``reg``/``regen`` (identical input,
enable and init value imply identical state trajectories); ``fifo`` and
``submodule`` cells are never shared.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..netlist import COMBINATIONAL_KINDS, Cell, Module, Net
from .base import Pass

#: Cell kinds that are safe to dedupe structurally.
SHAREABLE_KINDS = frozenset(COMBINATIONAL_KINDS | {"reg", "regen"})


def share_cells(module: Module, kinds: Set[str]) -> int:
    """Merge duplicate cells of the given kinds; returns merge count.

    A port-driving duplicate is kept as the representative (its net must
    retain a driver); when two duplicates both drive output ports they
    are left alone — each port needs its own driver.

    Each round visits the cells once.  Signatures read every input net
    through the round's merges so far, so a cell whose operands were
    merged earlier in the same round already matches its twins; the
    consumers are rewired in one sweep when the round ends.
    """
    port_nets = set(module.ports.values())
    merged_total = 0
    while True:
        merges: Dict[Net, Net] = {}

        def resolve(net: Net) -> Net:
            while net in merges:
                net = merges[net]
            return net

        seen: Dict[Tuple, Cell] = {}
        for cell in list(module.cells.values()):
            if cell.kind not in kinds:
                continue
            outs = cell.output_pins()
            if len(outs) != 1:
                continue
            out_pin = outs[0]
            signature = (
                cell.kind,
                tuple(sorted((k, repr(v)) for k, v in cell.params.items())),
                tuple(
                    sorted(
                        (pin, id(resolve(cell.pins[pin])))
                        for pin in cell.input_pins()
                    )
                ),
                cell.pins[out_pin].width,
            )
            rep = seen.get(signature)
            if rep is None:
                seen[signature] = cell
                continue
            rep_out = rep.pins[out_pin]
            cell_out = cell.pins[out_pin]
            if cell_out in port_nets:
                if rep_out in port_nets:
                    continue
                seen[signature] = cell
                rep, cell = cell, rep
                rep_out, cell_out = cell_out, rep_out
            merges[cell_out] = rep_out
            module.remove_cell(cell.name)
        if not merges:
            break
        module.replace_net_uses(merges)
        merged_total += len(merges)
    module.prune_nets()
    return merged_total


class CommonCellSharing(Pass):
    name = "common-cell-sharing"
    version = 1

    def run(self, module: Module) -> None:
        share_cells(module, SHAREABLE_KINDS)
