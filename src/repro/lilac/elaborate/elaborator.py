"""Elaboration (section 5 of the paper).

The elaborator turns a well-typed Lilac program plus concrete top-level
parameters into RTL:

* ``comp`` bodies are interpreted — loops unrolled, conditionals resolved,
  bundles inlined, parameter expressions evaluated to integers;
* ``gen`` components are produced by invoking the registered generator
  stand-in; output parameters are bound from the tool's report;
* ``extern`` components are materialized from the primitive library.

Bottom-up elaboration falls out of the recursive structure: a parent's
instantiation cannot complete until its child (and hence the child's
output parameters) are available.  Results are memoized per
``(component, parameter values)``; recursive instantiation is supported
and genuine cycles (a component transitively instantiating itself with the
same parameters) are detected and reported.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ...filament import (
    ConstRef,
    FConnect,
    FInvoke,
    FModule,
    FPort,
    InputRef,
    InvokeOutRef,
    PackRef,
    Ref,
    check_module,
)
from ...generators.base import GeneratorRegistry
from ...params import (
    PAccess,
    PInstOut,
    evaluate,
    evaluate_constraint,
)
from ...rtl import Module
from ..ast import (
    Access,
    Cmd,
    CmdAssert,
    CmdAssume,
    CmdBundle,
    CmdConnect,
    CmdFor,
    CmdIf,
    CmdInst,
    CmdInvoke,
    CmdLet,
    CmdOutBind,
    Component,
    ConstSig,
    EXTERN,
    GEN,
    LilacError,
    PortDef,
    Program,
    Signature,
)
from ..stdlib import EXTERN_PRIMS
from .lower import lower_module, build_extern_module


class ElabError(LilacError):
    """Raised when elaboration fails (unbindable parameters, violated
    assumptions, generator failures, cycles)."""


class ElabResult:
    """A fully elaborated component: concrete interface + RTL."""

    def __init__(
        self,
        name: str,
        comp_name: str,
        params: Dict[str, int],
        delay: int,
        inputs: List[FPort],
        outputs: List[FPort],
        out_params: Dict[str, int],
        module: Module,
        fmodule: Optional[FModule] = None,
    ):
        self.name = name
        self.comp_name = comp_name
        self.params = dict(params)
        self.delay = delay
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.out_params = dict(out_params)
        self.module = module
        self.fmodule = fmodule

    def input(self, name: str) -> FPort:
        for port in self.inputs:
            if port.name == name:
                return port
        raise ElabError(f"{self.name}: no input {name!r}")

    def output(self, name: str) -> FPort:
        for port in self.outputs:
            if port.name == name:
                return port
        raise ElabError(f"{self.name}: no output {name!r}")

    @property
    def go_port(self) -> Optional[str]:
        for port in self.inputs:
            if port.interface:
                return port.name
        return None

    @property
    def latency(self) -> int:
        """Latency to the first output (start of its window)."""
        data_outs = [p for p in self.outputs if not p.interface]
        if not data_outs:
            return 0
        return min(p.start for p in data_outs)

    def __repr__(self):
        return (
            f"ElabResult({self.name}, delay={self.delay}, "
            f"latency={self.latency}, out_params={self.out_params})"
        )


class _Instance:
    __slots__ = ("name", "result", "uid")

    def __init__(self, name: str, result: ElabResult, uid: str):
        self.name = name
        self.result = result
        self.uid = uid


class Elaborator:
    def __init__(
        self,
        program: Program,
        registry: Optional[GeneratorRegistry] = None,
        observer=None,
    ):
        self.program = program
        self.registry = registry
        #: duck-typed hook with ``component_elaborated(name, env)`` and
        #: ``stage_time(stage, seconds)`` — used by the driver layer to
        #: count genuine elaborations and split out wellformed/lower time.
        self.observer = observer
        self._cache: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], ElabResult] = {}
        self._in_progress: set = set()
        self._uid = itertools.count()

    # ------------------------------------------------------------------

    def elaborate(
        self, comp_name: str, params: Union[Dict[str, int], Sequence[int], None] = None
    ) -> ElabResult:
        component = self.program.get(comp_name)
        sig = component.signature
        env = self._normalize_params(sig, params)
        key = (comp_name, tuple(sorted(env.items())))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            raise ElabError(
                f"cyclic instantiation: {comp_name} with parameters {env} "
                "transitively instantiates itself"
            )
        self._in_progress.add(key)
        try:
            for clause in sig.where:
                if not evaluate_constraint(clause, env, self._access_fn(env)):
                    raise ElabError(
                        f"{comp_name}: parameters {env} violate where-clause"
                    )
            if sig.kind == EXTERN:
                result = self._elaborate_extern(component, env)
            elif sig.kind == GEN:
                result = self._elaborate_gen(component, env)
            else:
                result = _BodyElaborator(self, component, env).run()
        finally:
            self._in_progress.discard(key)
        self._cache[key] = result
        if self.observer is not None:
            self.observer.component_elaborated(comp_name, env)
        return result

    def _normalize_params(self, sig: Signature, params) -> Dict[str, int]:
        names = sig.param_names()
        if params is None:
            params = {}
        if isinstance(params, dict):
            env = dict(params)
        else:
            values = list(params)
            if len(values) != len(names):
                raise ElabError(
                    f"{sig.name}: expected {len(names)} parameters, "
                    f"got {len(values)}"
                )
            env = dict(zip(names, values))
        missing = [n for n in names if n not in env]
        if missing:
            raise ElabError(f"{sig.name}: missing parameters {missing}")
        extra = [n for n in env if n not in names]
        if extra:
            raise ElabError(f"{sig.name}: unknown parameters {extra}")
        return {name: int(value) for name, value in env.items()}

    def _access_fn(self, outer_env: Dict[str, int]):
        def access_fn(node: PAccess, env: Dict[str, int]) -> int:
            args = [evaluate(a, env, access_fn) for a in node.args]
            child = self.elaborate(node.comp, args)
            if node.out not in child.out_params:
                raise ElabError(
                    f"{node.comp} does not define output parameter {node.out}"
                )
            return child.out_params[node.out]

        return access_fn

    # ------------------------------------------------------------------

    def _concrete_ports(
        self, ports: Sequence[PortDef], env: Dict[str, int], access_fn
    ) -> List[FPort]:
        out = []
        for port in ports:
            if port.interface:
                out.append(FPort(port.name, 1, 0, 1, interface=True))
                continue
            start = evaluate(port.interval.start, env, access_fn)
            end = evaluate(port.interval.end, env, access_fn)
            width = evaluate(port.width, env, access_fn)
            size = (
                evaluate(port.size, env, access_fn)
                if port.size is not None
                else None
            )
            out.append(FPort(port.name, width, start, end, size=size))
        return out

    def _elaborate_extern(self, component: Component, env: Dict[str, int]) -> ElabResult:
        sig = component.signature
        spec = EXTERN_PRIMS.get(sig.name)
        access_fn = self._access_fn(env)
        full_env = dict(env)
        inputs = self._concrete_ports(sig.inputs, full_env, access_fn)
        outputs = self._concrete_ports(sig.outputs, full_env, access_fn)
        delay = evaluate(sig.event.delay, full_env, access_fn)
        if spec is None:
            raise ElabError(
                f"extern component {sig.name!r} has no primitive backing "
                "(register it in EXTERN_PRIMS or provide a generator)"
            )
        name = _mangle(sig.name, env)
        module = build_extern_module(name, spec[0], env, inputs, outputs)
        return ElabResult(
            name, sig.name, env, delay, inputs, outputs, {}, module
        )

    def _elaborate_gen(self, component: Component, env: Dict[str, int]) -> ElabResult:
        sig = component.signature
        if self.registry is None:
            raise ElabError(
                f"{sig.name}: gen component requires a generator registry"
            )
        generated = self.registry.run(sig.gen_tool, sig.name, env)
        out_params = generated.out_params
        declared = set(sig.out_param_names())
        missing = declared - set(out_params)
        if missing:
            raise ElabError(
                f"{sig.gen_tool} did not bind output parameters {missing} "
                f"for {sig.name}"
            )
        full_env = dict(env)
        full_env.update(out_params)
        access_fn = self._access_fn(full_env)
        # Validate the generator's bindings against the declared clauses.
        for out_param in sig.out_params:
            for clause in out_param.where:
                if not evaluate_constraint(clause, full_env, access_fn):
                    raise ElabError(
                        f"{sig.gen_tool} reported {out_params} for {sig.name}, "
                        f"violating where-clause on {out_param.name}"
                    )
        inputs = self._concrete_ports(sig.inputs, full_env, access_fn)
        outputs = self._concrete_ports(sig.outputs, full_env, access_fn)
        delay = evaluate(sig.event.delay, full_env, access_fn)
        self._validate_gen_ports(sig, generated.module, inputs, outputs)
        name = generated.module.name
        return ElabResult(
            name, sig.name, env, delay, inputs, outputs, out_params,
            generated.module,
        )

    def _validate_gen_ports(self, sig, module, inputs, outputs) -> None:
        for port in inputs:
            net = module.ports.get(port.name)
            expected = port.width * (port.size or 1)
            if net is None or module.port_dirs[port.name] != "in":
                raise ElabError(
                    f"{sig.name}: generated module lacks input {port.name!r}"
                )
            if net.width != expected:
                raise ElabError(
                    f"{sig.name}: generated input {port.name!r} is "
                    f"{net.width} bits, interface says {expected}"
                )
        for port in outputs:
            net = module.ports.get(port.name)
            expected = port.width * (port.size or 1)
            if net is None or module.port_dirs[port.name] != "out":
                raise ElabError(
                    f"{sig.name}: generated module lacks output {port.name!r}"
                )
            if net.width != expected:
                raise ElabError(
                    f"{sig.name}: generated output {port.name!r} is "
                    f"{net.width} bits, interface says {expected}"
                )


def _mangle(name: str, env: Dict[str, int]) -> str:
    if not env:
        return name
    suffix = "_".join(str(v) for _, v in sorted(env.items()))
    return f"{name}_{suffix}"


class _BodyElaborator:
    """Interprets one ``comp`` body under a concrete parameter valuation."""

    def __init__(self, parent: Elaborator, component: Component, env: Dict[str, int]):
        self.elab = parent
        self.component = component
        self.sig = component.signature
        self.env: Dict[str, int] = dict(env)
        self.input_params = dict(env)
        self.out_params: Dict[str, int] = {}
        self.scopes: List[Dict[str, object]] = [{}]
        self.bundles: Dict[str, Dict] = {}
        self.invokes: List[FInvoke] = []
        self.connects: List[FConnect] = []
        self._uid = itertools.count()

    # Scope helpers ------------------------------------------------------

    def _lookup(self, name: str):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def _define(self, name: str, value) -> None:
        if name in self.scopes[-1]:
            raise ElabError(f"{self.sig.name}: duplicate definition {name!r}")
        self.scopes[-1][name] = value

    # Parameter evaluation -----------------------------------------------

    def _inst_out_fn(self, node: PInstOut) -> int:
        entry = self._lookup(node.instance)
        if not isinstance(entry, _Instance):
            raise ElabError(
                f"{self.sig.name}: unknown instance {node.instance!r}"
            )
        if node.out not in entry.result.out_params:
            raise ElabError(
                f"{self.sig.name}: {node.instance} has no output parameter "
                f"{node.out}"
            )
        return entry.result.out_params[node.out]

    def _access_fn(self):
        """Parameter access that can see the body's instances (so that
        ``Max[Add::#L, Mul::#L]::#Out`` evaluates)."""

        def access_fn(node: PAccess, env: Dict[str, int]) -> int:
            args = [
                evaluate(a, env, access_fn, self._inst_out_fn)
                for a in node.args
            ]
            child = self.elab.elaborate(node.comp, args)
            if node.out not in child.out_params:
                raise ElabError(
                    f"{node.comp} does not define output parameter {node.out}"
                )
            return child.out_params[node.out]

        return access_fn

    def _eval(self, expr) -> int:
        return evaluate(
            expr,
            self.env,
            access_fn=self._access_fn(),
            inst_out_fn=self._inst_out_fn,
        )

    def _eval_c(self, constraint) -> bool:
        return evaluate_constraint(
            constraint,
            self.env,
            access_fn=self._access_fn(),
            inst_out_fn=self._inst_out_fn,
        )

    # Main ----------------------------------------------------------------

    def run(self) -> ElabResult:
        self._walk(self.component.body)
        declared = set(self.sig.out_param_names())
        missing = declared - set(self.out_params)
        if missing:
            raise ElabError(
                f"{self.sig.name}: output parameters never bound: {missing}"
            )
        full_env = dict(self.env)
        full_env.update(self.out_params)
        access_fn = self.elab._access_fn(full_env)
        saved_env = self.env
        self.env = full_env
        try:
            inputs = self.elab._concrete_ports(self.sig.inputs, full_env, access_fn)
            outputs = self.elab._concrete_ports(self.sig.outputs, full_env, access_fn)
            delay = evaluate(self.sig.event.delay, full_env, access_fn)
        finally:
            self.env = saved_env
        name = _mangle(self.sig.name, self.input_params)
        fmodule = FModule(name, delay, inputs, outputs, self.out_params)
        fmodule.invokes = self.invokes
        fmodule.connects = self.connects
        observer = self.elab.observer
        start = time.perf_counter()
        check_module(fmodule)
        if observer is not None:
            observer.stage_time("wellformed", time.perf_counter() - start)
        start = time.perf_counter()
        module = lower_module(fmodule)
        if observer is not None:
            observer.stage_time("lower", time.perf_counter() - start)
        return ElabResult(
            name, self.sig.name, self.input_params, delay, inputs, outputs,
            self.out_params, module, fmodule,
        )

    def _walk(self, cmds: Sequence[Cmd]) -> None:
        for cmd in cmds:
            self._walk_cmd(cmd)

    def _walk_cmd(self, cmd: Cmd) -> None:
        if isinstance(cmd, CmdInst):
            args = [self._eval(a) for a in cmd.args]
            child_comp = self.elab.program.get(cmd.comp)
            child_env = dict(zip(child_comp.signature.param_names(), args))
            result = self.elab.elaborate(cmd.comp, child_env)
            uid = f"{cmd.name}#{next(self._uid)}"
            self._define(cmd.name, _Instance(cmd.name, result, uid))
        elif isinstance(cmd, CmdInvoke):
            self._cmd_invoke(cmd)
        elif isinstance(cmd, CmdConnect):
            self._cmd_connect(cmd)
        elif isinstance(cmd, CmdLet):
            if cmd.name in self.env:
                raise ElabError(f"{self.sig.name}: duplicate let {cmd.name!r}")
            self.env[cmd.name] = self._eval(cmd.expr)
        elif isinstance(cmd, CmdOutBind):
            self._cmd_out_bind(cmd)
        elif isinstance(cmd, CmdBundle):
            self._cmd_bundle(cmd)
        elif isinstance(cmd, CmdFor):
            self._cmd_for(cmd)
        elif isinstance(cmd, CmdIf):
            if self._eval_c(cmd.cond):
                self._walk(cmd.then)
            else:
                self._walk(cmd.otherwise)
        elif isinstance(cmd, CmdAssume):
            if not self._eval_c(cmd.constraint):
                raise ElabError(
                    f"{self.sig.name}: assumption violated at elaboration: "
                    f"{cmd.constraint!r} with {self.env}"
                )
        elif isinstance(cmd, CmdAssert):
            if not self._eval_c(cmd.constraint):
                raise ElabError(
                    f"{self.sig.name}: assertion failed at elaboration: "
                    f"{cmd.constraint!r} with {self.env}"
                )
        else:
            raise ElabError(f"unknown command {cmd!r}")

    def _cmd_invoke(self, cmd: CmdInvoke) -> None:
        entry = self._lookup(cmd.instance)
        if not isinstance(entry, _Instance):
            raise ElabError(
                f"{self.sig.name}: invocation of unknown instance "
                f"{cmd.instance!r}"
            )
        time = self._eval(cmd.offset)
        args = [self._resolve_arg(a) for a in cmd.args]
        qname = f"{cmd.name}@{next(self._uid)}"
        invoke = FInvoke(qname, entry.result, time, args)
        invoke._instance_key = entry.uid
        self.invokes.append(invoke)
        self._define(cmd.name, invoke)

    def _resolve_arg(self, arg) -> Ref:
        if isinstance(arg, ConstSig):
            width = self._eval(arg.width) if arg.width is not None else None
            return ConstRef(arg.value, width)
        return self._resolve_access(arg)

    def _resolve_access(self, access: Access) -> Ref:
        base, field = access.base, access.field
        indices = [self._eval(i) for i in access.indices]
        if field is None:
            for port in self.sig.inputs:
                if port.name == base:
                    return InputRef(base, indices[0] if indices else None)
            if base in self.bundles:
                bundle = self.bundles[base]
                if not indices and len(bundle["sizes"]) == 1:
                    # Whole-bundle read: pack every element.
                    elements = []
                    for position in range(bundle["sizes"][0]):
                        key = (position,)
                        if key not in bundle["values"]:
                            raise ElabError(
                                f"{self.sig.name}: bundle element "
                                f"{base}{key} read before it was written"
                            )
                        elements.append(bundle["values"][key])
                    return PackRef(elements)
                key = tuple(indices)
                if key not in bundle["values"]:
                    raise ElabError(
                        f"{self.sig.name}: bundle element {base}{key} read "
                        "before it was written"
                    )
                return bundle["values"][key]
            raise ElabError(f"{self.sig.name}: unknown signal {base!r}")
        entry = self._lookup(base)
        if not isinstance(entry, FInvoke):
            raise ElabError(
                f"{self.sig.name}: unknown invocation {base!r}"
            )
        return InvokeOutRef(entry.name, field, indices[0] if indices else None)

    def _cmd_connect(self, cmd: CmdConnect) -> None:
        src = self._resolve_arg(cmd.src)
        dst = cmd.dst
        indices = [self._eval(i) for i in dst.indices]
        if dst.field is None:
            for port in self.sig.outputs:
                if port.name == dst.base:
                    self.connects.append(
                        FConnect(dst.base, indices[0] if indices else None, src)
                    )
                    return
            if dst.base in self.bundles:
                bundle = self.bundles[dst.base]
                key = tuple(indices)
                if len(key) != len(bundle["sizes"]):
                    raise ElabError(
                        f"{self.sig.name}: bundle {dst.base!r} expects "
                        f"{len(bundle['sizes'])} indices"
                    )
                for index, size in zip(key, bundle["sizes"]):
                    if not (0 <= index < size):
                        raise ElabError(
                            f"{self.sig.name}: bundle index {key} out of "
                            f"bounds for {dst.base}[{bundle['sizes']}]"
                        )
                if key in bundle["values"]:
                    raise ElabError(
                        f"{self.sig.name}: bundle element {dst.base}{key} "
                        "written twice"
                    )
                bundle["values"][key] = src
                return
        raise ElabError(f"{self.sig.name}: invalid connect target {dst!r}")

    def _cmd_out_bind(self, cmd: CmdOutBind) -> None:
        self.sig.out_param(cmd.name)
        if cmd.name in self.out_params:
            raise ElabError(
                f"{self.sig.name}: output parameter {cmd.name} bound twice"
            )
        value = self._eval(cmd.expr)
        self.out_params[cmd.name] = value
        self.env[cmd.name] = value

    def _cmd_bundle(self, cmd: CmdBundle) -> None:
        if cmd.name in self.bundles:
            raise ElabError(f"{self.sig.name}: duplicate bundle {cmd.name!r}")
        sizes = [self._eval(s) for s in cmd.sizes]
        self.bundles[cmd.name] = {"cmd": cmd, "sizes": sizes, "values": {}}

    def _cmd_for(self, cmd: CmdFor) -> None:
        lo = self._eval(cmd.lo)
        hi = self._eval(cmd.hi)
        saved = self.env.get(cmd.var)
        had = cmd.var in self.env
        for value in range(lo, hi):
            self.env[cmd.var] = value
            self.scopes.append({})
            try:
                self._walk(cmd.body)
            finally:
                self.scopes.pop()
        if had:
            self.env[cmd.var] = saved
        else:
            self.env.pop(cmd.var, None)
