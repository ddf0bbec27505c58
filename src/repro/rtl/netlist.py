"""RTL netlist representation.

The elaborator lowers Lilac programs into netlists of primitive cells;
generator stand-ins emit netlists directly; the LI substrate wraps them.
Netlists are hierarchical (a cell may be a submodule instance) and can be
flattened for simulation and synthesis modelling.

Primitive cells
---------------

====== =========================== ==========================
kind   pins                        params
====== =========================== ==========================
const  out                         value
add    a, b, out
sub    a, b, out
mul    a, b, out
div    a, b, out
mod    a, b, out
and    a, b, out
or     a, b, out
xor    a, b, out
not    a, out
shl    a, out                      amount
shr    a, out                      amount
eq     a, b, out (1 bit)
lt     a, b, out (1 bit)
mux    sel, a, b, out              out = sel ? a : b
slice  a, out                      lsb
concat a, b, out                   out = {a, b}
reg    d, q                        init
regen  d, en, q                    init
fifo   in_data, in_valid,          depth
       in_ready, out_data,
       out_valid, out_ready
====== =========================== ==========================

``reg``/``regen``/``fifo`` are sequential; everything else is
combinational.  All cells are implicitly clocked by the single global
clock.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

SEQUENTIAL_KINDS = frozenset({"reg", "regen", "fifo"})

COMBINATIONAL_KINDS = frozenset(
    {
        "const",
        "add",
        "sub",
        "mul",
        "div",
        "mod",
        "and",
        "or",
        "xor",
        "not",
        "shl",
        "shr",
        "eq",
        "lt",
        "mux",
        "slice",
        "concat",
    }
)

# Output pins per cell kind (everything else is an input pin).
OUTPUT_PINS = {
    "fifo": ("in_ready", "out_data", "out_valid"),
    "reg": ("q",),
    "regen": ("q",),
}
DEFAULT_OUTPUT_PINS = ("out",)


class NetlistError(Exception):
    pass


class Net:
    """A wire with a width.  Nets belong to exactly one module."""

    __slots__ = ("name", "width")

    def __init__(self, name: str, width: int):
        if width < 1:
            raise NetlistError(f"net {name!r} must have positive width")
        self.name = name
        self.width = int(width)

    def __repr__(self):
        return f"Net({self.name}[{self.width}])"


class Cell:
    """A primitive cell or a submodule instance."""

    __slots__ = ("name", "kind", "pins", "params", "module")

    def __init__(
        self,
        name: str,
        kind: str,
        pins: Dict[str, Net],
        params: Optional[Dict] = None,
        module: Optional["Module"] = None,
    ):
        self.name = name
        self.kind = kind
        self.pins = dict(pins)
        self.params = dict(params or {})
        self.module = module
        if kind == "submodule" and module is None:
            raise NetlistError(f"submodule cell {name!r} needs a module")

    def output_pins(self) -> Tuple[str, ...]:
        if self.kind == "submodule":
            return tuple(
                pin for pin, direction in self.module.port_dirs.items()
                if direction == "out"
            )
        return OUTPUT_PINS.get(self.kind, DEFAULT_OUTPUT_PINS)

    def input_pins(self) -> Tuple[str, ...]:
        outs = set(self.output_pins())
        return tuple(pin for pin in self.pins if pin not in outs)

    def is_sequential(self) -> bool:
        return self.kind in SEQUENTIAL_KINDS

    def structural_key(self) -> Tuple:
        """Value-based identity: name, kind, params, pin wiring by net name.

        The cell's own name is part of the key: this is positional
        identity for whole-netlist comparison (idempotence checks,
        ``Module.__eq__``), not function equivalence — two same-function
        cells with different names compare unequal.  Passes hunting for
        merge candidates build their own name-free signatures (see
        ``share_cells``).
        """
        params = tuple(sorted((k, repr(v)) for k, v in self.params.items()))
        pins = tuple(
            sorted((pin, net.name, net.width) for pin, net in self.pins.items())
        )
        sub = self.module.structural_key() if self.module is not None else None
        return (self.name, self.kind, params, pins, sub)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return self.structural_key() == other.structural_key()

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    # Identity hashing is kept deliberately: cells are never looked up
    # *by equality* in hash containers, and value hashing would break the
    # moment a pass rewires a pin while the cell sits in a set.
    __hash__ = object.__hash__

    def __repr__(self):
        return f"Cell({self.name}: {self.kind})"


class Module:
    """A netlist module: ports, nets, cells."""

    def __init__(self, name: str):
        self.name = name
        self.nets: Dict[str, Net] = {}
        self.cells: Dict[str, Cell] = {}
        self.ports: Dict[str, Net] = {}
        self.port_dirs: Dict[str, str] = {}
        self._counter = itertools.count()

    # Net management -------------------------------------------------------

    def net(self, name: str, width: int) -> Net:
        if name in self.nets:
            raise NetlistError(f"{self.name}: duplicate net {name!r}")
        net = Net(name, width)
        self.nets[name] = net
        return net

    def fresh_net(self, width: int, hint: str = "n") -> Net:
        name = f"{hint}${next(self._counter)}"
        while name in self.nets:
            name = f"{hint}${next(self._counter)}"
        return self.net(name, width)

    def add_input(self, name: str, width: int) -> Net:
        net = self.net(name, width)
        self.ports[name] = net
        self.port_dirs[name] = "in"
        return net

    def add_output(self, name: str, width: int) -> Net:
        net = self.net(name, width)
        self.ports[name] = net
        self.port_dirs[name] = "out"
        return net

    def inputs(self) -> List[Tuple[str, Net]]:
        return [
            (name, net)
            for name, net in self.ports.items()
            if self.port_dirs[name] == "in"
        ]

    def outputs(self) -> List[Tuple[str, Net]]:
        return [
            (name, net)
            for name, net in self.ports.items()
            if self.port_dirs[name] == "out"
        ]

    # Cell management -------------------------------------------------------

    def add_cell(
        self,
        kind: str,
        pins: Dict[str, Net],
        params: Optional[Dict] = None,
        name: Optional[str] = None,
        module: Optional["Module"] = None,
    ) -> Cell:
        if name is None:
            name = f"{kind}${next(self._counter)}"
        if name in self.cells:
            raise NetlistError(f"{self.name}: duplicate cell {name!r}")
        cell = Cell(name, kind, pins, params, module)
        self.cells[name] = cell
        return cell

    def add_submodule(
        self, module: "Module", pins: Dict[str, Net], name: Optional[str] = None
    ) -> Cell:
        missing = set(module.ports) - set(pins)
        if missing:
            raise NetlistError(
                f"{self.name}: submodule {module.name} missing pins {missing}"
            )
        return self.add_cell("submodule", pins, name=name, module=module)

    # Convenience builders ---------------------------------------------------

    def constant(self, value: int, width: int) -> Net:
        out = self.fresh_net(width, "const")
        self.add_cell("const", {"out": out}, {"value": value})
        return out

    def binop(self, kind: str, a: Net, b: Net, width: Optional[int] = None) -> Net:
        out = self.fresh_net(width or max(a.width, b.width), kind)
        self.add_cell(kind, {"a": a, "b": b, "out": out})
        return out

    def unop(self, kind: str, a: Net, width: Optional[int] = None, **params) -> Net:
        out = self.fresh_net(width or a.width, kind)
        self.add_cell(kind, {"a": a, "out": out}, params)
        return out

    def mux(self, sel: Net, a: Net, b: Net) -> Net:
        out = self.fresh_net(max(a.width, b.width), "mux")
        self.add_cell("mux", {"sel": sel, "a": a, "b": b, "out": out})
        return out

    def register(self, d: Net, init: int = 0, en: Optional[Net] = None) -> Net:
        q = self.fresh_net(d.width, "q")
        if en is None:
            self.add_cell("reg", {"d": d, "q": q}, {"init": init})
        else:
            self.add_cell("regen", {"d": d, "en": en, "q": q}, {"init": init})
        return q

    def delay_chain(self, d: Net, cycles: int, en: Optional[Net] = None) -> Net:
        current = d
        for _ in range(cycles):
            current = self.register(current, en=en)
        return current

    # Structural identity ----------------------------------------------------

    def structural_key(self) -> Tuple:
        """Canonical value-based form of the whole netlist.

        Independent of insertion order and object identity; two modules
        with the same ports, nets and cell wiring (by name) are equal.
        """
        ports = tuple(
            (name, self.ports[name].width, self.port_dirs[name])
            for name in sorted(self.ports)
        )
        nets = tuple(
            (name, self.nets[name].width) for name in sorted(self.nets)
        )
        cells = tuple(
            self.cells[name].structural_key() for name in sorted(self.cells)
        )
        return (self.name, ports, nets, cells)

    def structural_hash(self) -> str:
        """Stable digest of :meth:`structural_key` (for cache keys/logs)."""
        text = repr(self.structural_key()).encode("utf-8")
        return hashlib.sha256(text).hexdigest()[:16]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Module):
            return NotImplemented
        return self.structural_key() == other.structural_key()

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    # Same rationale as Cell: modules live in caches keyed by identity
    # and mutate under optimization passes, so value hashing is unsafe.
    __hash__ = object.__hash__

    # Surgery (used by optimization passes) ----------------------------------

    def replace_net_uses(self, replacements: Dict[Net, Net]) -> int:
        """Rewire every cell *input* pin reading a key of ``replacements``
        to read its value, in one sweep over the cells.

        Chains resolve to their end: with ``{a: b, b: c}`` readers of
        both ``a`` and ``b`` end up reading ``c``.  Drivers (output pins)
        are left alone, so this is the primitive for forwarding values
        past redundant cells.  Every pair's widths are checked before any
        pin moves.  Returns the number of pins rewired.
        """
        resolved: Dict[Net, Net] = {}
        for old, new in replacements.items():
            if old.width != new.width:
                raise NetlistError(
                    f"{self.name}: cannot rewire {old.name}[{old.width}] "
                    f"to {new.name}[{new.width}]"
                )
            hops = 0
            while new in replacements:
                new = replacements[new]
                hops += 1
                if hops > len(replacements):
                    raise NetlistError(
                        f"{self.name}: rewiring {old.name} runs in a cycle"
                    )
            resolved[old] = new
        rewired = 0
        if not resolved:
            return rewired
        for cell in self.cells.values():
            pins = cell.pins
            hits = [pin for pin, net in pins.items() if net in resolved]
            if not hits:
                continue
            outs = cell.output_pins()
            for pin in hits:
                if pin not in outs:
                    pins[pin] = resolved[pins[pin]]
                    rewired += 1
        return rewired

    def remove_cell(self, name: str) -> Cell:
        cell = self.cells.pop(name, None)
        if cell is None:
            raise NetlistError(f"{self.name}: no cell {name!r} to remove")
        return cell

    def prune_nets(self) -> int:
        """Drop nets that no cell pins and no port exposes.  Returns the
        number of nets removed."""
        used = set(self.ports.values())
        for cell in self.cells.values():
            used.update(cell.pins.values())
        dead = [name for name, net in self.nets.items() if net not in used]
        for name in dead:
            del self.nets[name]
        return len(dead)

    # Analysis ---------------------------------------------------------------

    def drivers(self) -> Dict[Net, Tuple[Cell, str]]:
        """Map each net to its driving (cell, pin)."""
        driven: Dict[Net, Tuple[Cell, str]] = {}
        for cell in self.cells.values():
            for pin in cell.output_pins():
                net = cell.pins.get(pin)
                if net is None:
                    continue
                if net in driven:
                    raise NetlistError(
                        f"{self.name}: net {net.name!r} driven by both "
                        f"{driven[net][0].name} and {cell.name}"
                    )
                driven[net] = (cell, pin)
        return driven

    def validate(self) -> None:
        """Every non-input net must have exactly one driver."""
        driven = self.drivers()
        input_nets = {net for name, net in self.inputs()}
        for net in self.nets.values():
            if net in input_nets:
                if net in driven:
                    raise NetlistError(
                        f"{self.name}: input net {net.name!r} also driven internally"
                    )
                continue
            if net not in driven:
                raise NetlistError(f"{self.name}: net {net.name!r} has no driver")

    def stats(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for cell in self.cells.values():
            counts[cell.kind] = counts.get(cell.kind, 0) + 1
        return counts


def onehot_mux(module: Module, cases, width: int) -> Net:
    """Balanced one-hot selector: OR-tree over masked inputs.

    ``cases`` is a list of (select, value) with mutually exclusive,
    one-hot select bits (time-multiplexed schedules guarantee this).
    Depth is logarithmic — how synthesis tools actually map wide,
    exclusive selects.
    """
    if not cases:
        raise NetlistError("onehot_mux needs at least one case")
    masked: List[Net] = []
    zero = module.constant(0, width)
    for select, value in cases:
        masked.append(module.mux(select, value, zero))
    while len(masked) > 1:
        merged: List[Net] = []
        for index in range(0, len(masked) - 1, 2):
            merged.append(
                module.binop("or", masked[index], masked[index + 1], width)
            )
        if len(masked) % 2:
            merged.append(masked[-1])
        masked = merged
    return masked[0]


def comb_topo_order(module: Module) -> List[Cell]:
    """Combinational cells in dependency order (producers first).

    Sequential and submodule cells break the dependency chain — their
    outputs are treated like free inputs — which is both what per-cycle
    evaluation needs (state was driven before combinational settling)
    and the conservative boundary constant folding needs.  Raises on
    combinational loops.
    """
    comb_cells = [
        c for c in module.cells.values() if c.kind in COMBINATIONAL_KINDS
    ]
    producers: Dict[Net, Cell] = {}
    for cell in comb_cells:
        for pin in cell.output_pins():
            net = cell.pins.get(pin)
            if net is not None:
                producers[net] = cell
    # Edges: producer -> consumer when consumer reads producer's net.
    indegree: Dict[str, int] = {c.name: 0 for c in comb_cells}
    consumers: Dict[str, List[Cell]] = {c.name: [] for c in comb_cells}
    for cell in comb_cells:
        for pin in cell.input_pins():
            producer = producers.get(cell.pins.get(pin))
            if producer is not None and producer.name != cell.name:
                consumers[producer.name].append(cell)
                indegree[cell.name] += 1
    ready = deque(c for c in comb_cells if indegree[c.name] == 0)
    order: List[Cell] = []
    while ready:
        cell = ready.popleft()
        order.append(cell)
        for consumer in consumers[cell.name]:
            indegree[consumer.name] -= 1
            if indegree[consumer.name] == 0:
                ready.append(consumer)
    if len(order) != len(comb_cells):
        cyclic = [c.name for c in comb_cells if indegree[c.name] > 0]
        raise NetlistError(
            f"{module.name}: combinational loop through {cyclic[:5]}"
        )
    return order


def flatten(module: Module, name: Optional[str] = None) -> Module:
    """Inline all submodule instances recursively into a flat module."""
    flat = Module(name or module.name)
    for port_name, net in module.ports.items():
        if module.port_dirs[port_name] == "in":
            flat.add_input(port_name, net.width)
        else:
            flat.add_output(port_name, net.width)
    _inline(module, flat, prefix="", net_map={
        net: flat.nets[pname] for pname, net in module.ports.items()
    })
    return flat


def _inline(source: Module, target: Module, prefix: str, net_map: Dict[Net, Net]):
    # Create target nets for every source net not already mapped (ports).
    for net in source.nets.values():
        if net not in net_map:
            net_map[net] = target.net(f"{prefix}{net.name}", net.width)
    for cell in source.cells.values():
        if cell.kind == "submodule":
            sub = cell.module
            sub_map: Dict[Net, Net] = {}
            for pname, pnet in sub.ports.items():
                outer = cell.pins.get(pname)
                if outer is None:
                    raise NetlistError(
                        f"{source.name}: submodule {cell.name} pin {pname} unconnected"
                    )
                sub_map[pnet] = net_map[outer]
            _inline(sub, target, f"{prefix}{cell.name}.", sub_map)
        else:
            pins = {pin: net_map[net] for pin, net in cell.pins.items()}
            target.add_cell(
                cell.kind, pins, cell.params, name=f"{prefix}{cell.name}"
            )
