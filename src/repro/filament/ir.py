"""Concrete Filament-style IR.

Elaboration (section 5 of the paper) turns a parameterized Lilac program
into a *fully structural* Filament program: all parameters are concrete
integers, loops are unrolled, conditionals are resolved, and bundles are
inlined away.  This IR is the hand-off point to RTL lowering, and it is
cheap to re-verify (see :mod:`repro.filament.wellformed`) — a useful
end-to-end sanity check that elaboration preserved what the type system
proved symbolically.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class FilamentError(Exception):
    pass


class FPort:
    """A concrete port: width, availability window, optional array size."""

    __slots__ = ("name", "width", "start", "end", "size", "interface")

    def __init__(
        self,
        name: str,
        width: int,
        start: int,
        end: int,
        size: Optional[int] = None,
        interface: bool = False,
    ):
        self.name = name
        self.width = width
        self.start = start
        self.end = end
        self.size = size
        self.interface = interface

    def __repr__(self):
        dims = f"[{self.size}]" if self.size is not None else ""
        return f"{self.name}{dims}: [{self.start}, {self.end}) w{self.width}"


class Ref:
    """Reference to a concrete signal."""


class InputRef(Ref):
    """The component's own input port (optionally one element)."""

    __slots__ = ("port", "index")

    def __init__(self, port: str, index: Optional[int] = None):
        self.port = port
        self.index = index

    def __repr__(self):
        idx = f"{{{self.index}}}" if self.index is not None else ""
        return f"in:{self.port}{idx}"


class InvokeOutRef(Ref):
    """An output port of an invocation (optionally one element)."""

    __slots__ = ("invoke", "port", "index")

    def __init__(self, invoke: str, port: str, index: Optional[int] = None):
        self.invoke = invoke
        self.port = port
        self.index = index

    def __repr__(self):
        idx = f"{{{self.index}}}" if self.index is not None else ""
        return f"{self.invoke}.{self.port}{idx}"


class ConstRef(Ref):
    __slots__ = ("value", "width")

    def __init__(self, value: int, width: Optional[int] = None):
        self.value = value
        self.width = width

    def __repr__(self):
        return f"const:{self.value}"


class PackRef(Ref):
    """An array-valued signal assembled from scalar element refs
    (a whole bundle passed to an array port; element 0 at the LSB)."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = list(elements)

    def __repr__(self):
        return f"pack[{len(self.elements)}]"


class FInvoke:
    """A scheduled use of a child module at a concrete time.

    ``_instance_key`` identifies the hardware instance this invocation
    uses: invokes sharing a key share (time-multiplexed) hardware.
    """

    __slots__ = ("name", "child", "time", "args", "_instance_key")

    def __init__(self, name: str, child, time: int, args: List[Ref]):
        self.name = name
        self.child = child  # ElabResult of the child component
        self.time = time
        self.args = list(args)
        self._instance_key = name

    def __repr__(self):
        return f"{self.name} := {self.child.name}<G+{self.time}>"


class FConnect:
    """Drive an output port (element) from a signal."""

    __slots__ = ("port", "index", "src")

    def __init__(self, port: str, index: Optional[int], src: Ref):
        self.port = port
        self.index = index
        self.src = src

    def __repr__(self):
        idx = f"{{{self.index}}}" if self.index is not None else ""
        return f"out:{self.port}{idx} = {self.src!r}"


class FModule:
    """A fully concrete, structural component."""

    def __init__(
        self,
        name: str,
        delay: int,
        inputs: List[FPort],
        outputs: List[FPort],
        out_params: Dict[str, int],
    ):
        self.name = name
        self.delay = delay
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.out_params = dict(out_params)
        self.invokes: List[FInvoke] = []
        self.connects: List[FConnect] = []

    def input(self, name: str) -> FPort:
        for port in self.inputs:
            if port.name == name:
                return port
        raise FilamentError(f"{self.name}: no input {name!r}")

    def output(self, name: str) -> FPort:
        for port in self.outputs:
            if port.name == name:
                return port
        raise FilamentError(f"{self.name}: no output {name!r}")

    def invoke_named(self, name: str) -> FInvoke:
        for invoke in self.invokes:
            if invoke.name == name:
                return invoke
        raise FilamentError(f"{self.name}: no invoke {name!r}")

    def __repr__(self):
        return (
            f"FModule({self.name}, delay={self.delay}, "
            f"{len(self.invokes)} invokes, {len(self.connects)} connects)"
        )
