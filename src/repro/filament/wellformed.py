"""Concrete well-formedness checks over elaborated Filament programs.

After elaboration everything is an integer, so the three safety properties
of section 4.2 reduce to simple arithmetic checks.  The type system already
proved them for *all* parameterizations; re-checking each *concrete*
elaboration is a cheap cross-validation of the whole pipeline (and guards
generator stand-ins that report inconsistent timing).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .ir import (
    ConstRef,
    FilamentError,
    FInvoke,
    FModule,
    InputRef,
    InvokeOutRef,
    PackRef,
    Ref,
)


def _ref_window(module: FModule, ref: Ref) -> Optional[Tuple[int, int, int]]:
    """Return (start, end, width) for a reference; None when unconstrained."""
    if isinstance(ref, ConstRef):
        return None
    if isinstance(ref, PackRef):
        windows = [_ref_window(module, e) for e in ref.elements]
        concrete = [w for w in windows if w is not None]
        if not concrete:
            return None
        widths = {w[2] for w in concrete}
        if len(widths) != 1:
            raise FilamentError(
                f"{module.name}: packed elements have mixed widths {widths}"
            )
        return (
            max(w[0] for w in concrete),
            min(w[1] for w in concrete),
            widths.pop(),
        )
    if isinstance(ref, InputRef):
        port = module.input(ref.port)
        width = port.width
        if ref.index is not None:
            if port.size is None:
                raise FilamentError(
                    f"{module.name}: scalar input {port.name!r} indexed"
                )
            if not (0 <= ref.index < port.size):
                raise FilamentError(
                    f"{module.name}: index {ref.index} out of bounds for "
                    f"{port.name}[{port.size}]"
                )
        return (port.start, port.end, width)
    if isinstance(ref, InvokeOutRef):
        invoke = module.invoke_named(ref.invoke)
        port = invoke.child.output(ref.port)
        width = port.width
        if ref.index is not None:
            if port.size is None:
                raise FilamentError(
                    f"{module.name}: scalar output {ref.port!r} indexed"
                )
            if not (0 <= ref.index < port.size):
                raise FilamentError(
                    f"{module.name}: index {ref.index} out of bounds for "
                    f"{ref.invoke}.{ref.port}[{port.size}]"
                )
        return (invoke.time + port.start, invoke.time + port.end, width)
    raise FilamentError(f"unknown ref {ref!r}")


def check_module(module: FModule) -> None:
    """Raise FilamentError on any concrete structural hazard."""
    _check_invokes(module)
    _check_connects(module)
    _check_resource_safety(module)


def _check_invokes(module: FModule) -> None:
    for invoke in module.invokes:
        child = invoke.child
        data_ports = [p for p in child.inputs if not p.interface]
        if len(invoke.args) != len(data_ports):
            raise FilamentError(
                f"{module.name}: {invoke.name} expects {len(data_ports)} "
                f"args, got {len(invoke.args)}"
            )
        for port, arg in zip(data_ports, invoke.args):
            window = _ref_window(module, arg)
            req_start = invoke.time + port.start
            req_end = invoke.time + port.end
            if window is None:
                continue
            start, end, width = window
            if not (start <= req_start and req_end <= end):
                raise FilamentError(
                    f"{module.name}: {invoke.name}.{port.name} requires "
                    f"[{req_start}, {req_end}) but {arg!r} is available in "
                    f"[{start}, {end})"
                )
            arg_size = _ref_size(module, arg)
            if (arg_size or None) != (port.size or None):
                raise FilamentError(
                    f"{module.name}: array size mismatch at "
                    f"{invoke.name}.{port.name}"
                )
            if width != port.width:
                raise FilamentError(
                    f"{module.name}: width mismatch at {invoke.name}."
                    f"{port.name}: {width} vs {port.width}"
                )


def _ref_size(module: FModule, ref: Ref) -> Optional[int]:
    if isinstance(ref, InputRef) and ref.index is None:
        return module.input(ref.port).size
    if isinstance(ref, InvokeOutRef) and ref.index is None:
        return module.invoke_named(ref.invoke).child.output(ref.port).size
    if isinstance(ref, PackRef):
        return len(ref.elements)
    return None


def _check_connects(module: FModule) -> None:
    driven: Set[Tuple[str, Optional[int]]] = set()
    for connect in module.connects:
        port = module.output(connect.port)
        key = (connect.port, connect.index)
        if key in driven:
            raise FilamentError(
                f"{module.name}: output {connect.port}"
                f"{'' if connect.index is None else '[%d]' % connect.index} "
                "driven twice"
            )
        driven.add(key)
        if connect.index is not None:
            if port.size is None:
                raise FilamentError(
                    f"{module.name}: scalar output {port.name!r} indexed"
                )
            if not (0 <= connect.index < port.size):
                raise FilamentError(
                    f"{module.name}: output index {connect.index} out of "
                    f"bounds for {port.name}[{port.size}]"
                )
        window = _ref_window(module, connect.src)
        if window is not None:
            start, end, _width = window
            if not (start <= port.start and port.end <= end):
                raise FilamentError(
                    f"{module.name}: output {port.name} requires "
                    f"[{port.start}, {port.end}) but source is available in "
                    f"[{start}, {end})"
                )
    # Coverage: every output element must be driven.
    for port in module.outputs:
        if port.interface:
            continue
        if port.size is None:
            if (port.name, None) not in driven:
                raise FilamentError(
                    f"{module.name}: output {port.name!r} never driven"
                )
        else:
            for index in range(port.size):
                if (port.name, index) not in driven:
                    raise FilamentError(
                        f"{module.name}: output element {port.name}[{index}] "
                        "never driven"
                    )


def _check_resource_safety(module: FModule) -> None:
    """Delay spacing: invocations of one instance must be >= delay apart
    and all fit within the parent's initiation interval."""
    # Invokes carry their instance identity via the attribute set by the
    # elaborator; invokes sharing an instance share hardware.
    groups: Dict[str, List[FInvoke]] = {}
    for invoke in module.invokes:
        key = getattr(invoke, "_instance_key", invoke.name)
        groups.setdefault(key, []).append(invoke)
    for key, invokes in groups.items():
        delay = invokes[0].child.delay
        if delay > module.delay:
            raise FilamentError(
                f"{module.name}: child delay {delay} exceeds module delay "
                f"{module.delay} for instance {key}"
            )
        times = sorted(inv.time for inv in invokes)
        for first, second in zip(times, times[1:]):
            if second - first < delay:
                raise FilamentError(
                    f"{module.name}: instance {key} re-invoked after "
                    f"{second - first} < delay {delay}"
                )
        if times and (times[-1] - times[0]) > module.delay - delay:
            raise FilamentError(
                f"{module.name}: invocations of {key} span "
                f"{times[-1] - times[0]} cycles, exceeding II "
                f"{module.delay} - delay {delay}"
            )
