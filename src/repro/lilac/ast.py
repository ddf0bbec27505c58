"""Abstract syntax for the Lilac HDL (Figure 7 of the paper).

A Lilac *component* couples a signature — events, parameters, ports, output
parameters — with a body of commands.  Three component kinds exist:

* ``comp``   — implemented in Lilac (has a body);
* ``extern`` — implemented in Verilog, signature only;
* ``gen``    — produced by an external tool during elaboration; output
  parameters are bound from the tool's report (section 5).

Simplification relative to the paper (documented in DESIGN.md): each
component has exactly one event (all of the paper's examples use a single
event ``G``); availability intervals are ``[G+start, G+end)`` with ``start``
and ``end`` parameter expressions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..params import Constraint, PExpr, pretty, wrap


class LilacError(Exception):
    """Base class for all Lilac front-end errors."""


class Interval:
    """Availability interval ``[event+start, event+end)``."""

    __slots__ = ("start", "end")

    def __init__(self, start: Union[int, PExpr], end: Union[int, PExpr]):
        self.start = wrap(start)
        self.end = wrap(end)

    def __repr__(self):
        return f"[G+{pretty(self.start)}, G+{pretty(self.end)})"

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.start == other.start
            and self.end == other.end
        )


class PortDef:
    """A port in a signature.

    ``size`` is None for scalar ports; an expression for array ports like
    the Aetherling convolution's ``in[#N]`` (Figure 10a).  ``interface`` is
    True for the event-provider port (``val_i: interface[G]``).
    """

    __slots__ = ("name", "interval", "width", "size", "interface")

    def __init__(
        self,
        name: str,
        interval: Interval,
        width: Union[int, PExpr],
        size: Optional[Union[int, PExpr]] = None,
        interface: bool = False,
    ):
        self.name = name
        self.interval = interval
        self.width = wrap(width)
        self.size = wrap(size) if size is not None else None
        self.interface = interface

    def __repr__(self):
        suffix = f"[{pretty(self.size)}]" if self.size is not None else ""
        return f"{self.name}{suffix}: {self.interval!r} {pretty(self.width)}"


class EventDef:
    """The component's scheduling event and its delay (initiation interval)."""

    __slots__ = ("name", "delay")

    def __init__(self, name: str, delay: Union[int, PExpr]):
        self.name = name
        self.delay = wrap(delay)

    def __repr__(self):
        return f"<{self.name}:{pretty(self.delay)}>"


class ParamDef:
    """An input parameter (``[#W]``)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


class OutParamDef:
    """An output parameter (``some #L where ...``) — the paper's novel
    construct for returning values from child modules to parents."""

    __slots__ = ("name", "where")

    def __init__(self, name: str, where: Sequence[Constraint] = ()):
        self.name = name
        self.where = list(where)

    def __repr__(self):
        return f"some {self.name}"


COMP = "comp"
EXTERN = "extern"
GEN = "gen"


class Signature:
    __slots__ = (
        "name",
        "kind",
        "gen_tool",
        "params",
        "event",
        "inputs",
        "outputs",
        "out_params",
        "where",
    )

    def __init__(
        self,
        name: str,
        params: Sequence[ParamDef] = (),
        event: Optional[EventDef] = None,
        inputs: Sequence[PortDef] = (),
        outputs: Sequence[PortDef] = (),
        out_params: Sequence[OutParamDef] = (),
        where: Sequence[Constraint] = (),
        kind: str = COMP,
        gen_tool: Optional[str] = None,
    ):
        self.name = name
        self.kind = kind
        self.gen_tool = gen_tool
        self.params = list(params)
        self.event = event if event is not None else EventDef("G", 1)
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.out_params = list(out_params)
        self.where = list(where)

    def param_names(self) -> List[str]:
        return [p.name for p in self.params]

    def out_param_names(self) -> List[str]:
        return [p.name for p in self.out_params]

    def input(self, name: str) -> PortDef:
        for port in self.inputs:
            if port.name == name:
                return port
        raise LilacError(f"{self.name}: no input port {name!r}")

    def output(self, name: str) -> PortDef:
        for port in self.outputs:
            if port.name == name:
                return port
        raise LilacError(f"{self.name}: no output port {name!r}")

    def out_param(self, name: str) -> OutParamDef:
        for param in self.out_params:
            if param.name == name:
                return param
        raise LilacError(f"{self.name}: no output parameter {name!r}")

    def __repr__(self):
        return f"Signature({self.kind} {self.name})"


# --------------------------------------------------------------------------
# Signal accesses.


class Access:
    """Reference to a signal: own port, invocation port, or bundle element.

    ``base`` names the owner (input port, invocation, bundle, or literal via
    :class:`ConstSig`); ``field`` selects an invocation's port; ``indices``
    index into array ports or bundles.
    """

    __slots__ = ("base", "field", "indices")

    def __init__(
        self,
        base: str,
        field: Optional[str] = None,
        indices: Sequence[Union[int, PExpr]] = (),
    ):
        self.base = base
        self.field = field
        self.indices = tuple(wrap(i) for i in indices)

    def __repr__(self):
        out = self.base
        if self.field:
            out += f".{self.field}"
        for index in self.indices:
            out += f"{{{pretty(index)}}}"
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Access)
            and self.base == other.base
            and self.field == other.field
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash((self.base, self.field, self.indices))


class ConstSig:
    """A constant driven onto a wire (``0`` as an invocation argument).

    ``width`` may be None, meaning the constant adapts to the width of the
    port it drives.
    """

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: Optional[Union[int, PExpr]] = None):
        self.value = value
        self.width = wrap(width) if width is not None else None

    def __repr__(self):
        return f"const({self.value})"


Arg = Union[Access, ConstSig]


# --------------------------------------------------------------------------
# Commands.


class Cmd:
    """Base class of body commands."""


class CmdInst(Cmd):
    """``x := new Comp[P*]``"""

    __slots__ = ("name", "comp", "args")

    def __init__(self, name: str, comp: str, args: Sequence[PExpr] = ()):
        self.name = name
        self.comp = comp
        self.args = [wrap(a) for a in args]

    def __repr__(self):
        args = ", ".join(pretty(a) for a in self.args)
        return f"{self.name} := new {self.comp}[{args}]"


class CmdInvoke(Cmd):
    """``x := Inst<G+P>(args)`` — schedule a use of an instance."""

    __slots__ = ("name", "instance", "offset", "args")

    def __init__(
        self,
        name: str,
        instance: str,
        offset: Union[int, PExpr],
        args: Sequence[Arg] = (),
    ):
        self.name = name
        self.instance = instance
        self.offset = wrap(offset)
        self.args = list(args)

    def __repr__(self):
        return f"{self.name} := {self.instance}<G+{pretty(self.offset)}>(...)"


class CmdConnect(Cmd):
    """``dst = src``"""

    __slots__ = ("dst", "src")

    def __init__(self, dst: Access, src: Arg):
        self.dst = dst
        self.src = src

    def __repr__(self):
        return f"{self.dst!r} = {self.src!r}"


class CmdLet(Cmd):
    """``let #x = P``"""

    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: PExpr):
        self.name = name
        self.expr = wrap(expr)

    def __repr__(self):
        return f"let {self.name} = {pretty(self.expr)}"


class CmdOutBind(Cmd):
    """``#L := P`` — bind an output parameter in the body."""

    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: PExpr):
        self.name = name
        self.expr = wrap(expr)

    def __repr__(self):
        return f"{self.name} := {pretty(self.expr)}"


class CmdBundle(Cmd):
    """``bundle<#i,...> w[N,...]: [G+f(i), G+g(i)) width``

    A compile-time array of wires whose availability depends on the index
    (Figure 6).  ``sizes`` gives the extent in each dimension; ``start`` and
    ``end`` may mention the index variables.
    """

    __slots__ = ("name", "index_vars", "sizes", "interval", "width")

    def __init__(
        self,
        name: str,
        index_vars: Sequence[str],
        sizes: Sequence[Union[int, PExpr]],
        interval: Interval,
        width: Union[int, PExpr],
    ):
        if len(index_vars) != len(sizes):
            raise LilacError("bundle index/size arity mismatch")
        self.name = name
        self.index_vars = list(index_vars)
        self.sizes = [wrap(s) for s in sizes]
        self.interval = interval
        self.width = wrap(width)

    def __repr__(self):
        dims = ", ".join(pretty(s) for s in self.sizes)
        return f"bundle {self.name}[{dims}]"


class CmdFor(Cmd):
    """``for #k in P1..P2 { ... }`` (half-open upper bound)."""

    __slots__ = ("var", "lo", "hi", "body")

    def __init__(
        self,
        var: str,
        lo: Union[int, PExpr],
        hi: Union[int, PExpr],
        body: Sequence[Cmd],
    ):
        self.var = var
        self.lo = wrap(lo)
        self.hi = wrap(hi)
        self.body = list(body)

    def __repr__(self):
        return f"for {self.var} in {pretty(self.lo)}..{pretty(self.hi)}"


class CmdIf(Cmd):
    """Compile-time conditional."""

    __slots__ = ("cond", "then", "otherwise")

    def __init__(
        self,
        cond: Constraint,
        then: Sequence[Cmd],
        otherwise: Sequence[Cmd] = (),
    ):
        self.cond = cond
        self.then = list(then)
        self.otherwise = list(otherwise)

    def __repr__(self):
        return "if {...} else {...}"


class CmdAssume(Cmd):
    __slots__ = ("constraint",)

    def __init__(self, constraint: Constraint):
        self.constraint = constraint

    def __repr__(self):
        return f"assume {self.constraint!r}"


class CmdAssert(Cmd):
    __slots__ = ("constraint",)

    def __init__(self, constraint: Constraint):
        self.constraint = constraint

    def __repr__(self):
        return f"assert {self.constraint!r}"


class Component:
    """A complete Lilac component: signature plus (for ``comp``) a body."""

    __slots__ = ("signature", "body")

    def __init__(self, signature: Signature, body: Sequence[Cmd] = ()):
        self.signature = signature
        self.body = list(body)
        if signature.kind != COMP and self.body:
            raise LilacError(f"{signature.kind} component cannot have a body")

    @property
    def name(self) -> str:
        return self.signature.name

    def __repr__(self):
        return f"Component({self.signature.kind} {self.name})"


class Program:
    """A set of components; the unit of type checking and elaboration."""

    def __init__(self):
        self.components: Dict[str, Component] = {}

    def define(self, comp: Component) -> None:
        if comp.name in self.components:
            raise LilacError(f"duplicate component {comp.name!r}")
        self.components[comp.name] = comp

    def get(self, name: str) -> Component:
        if name not in self.components:
            raise LilacError(f"unknown component {name!r}")
        return self.components[name]

    def has(self, name: str) -> bool:
        return name in self.components

    def __iter__(self):
        return iter(self.components.values())

    def __len__(self):
        return len(self.components)
