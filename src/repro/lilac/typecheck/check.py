"""Lilac's type system (section 4 of the paper).

For every ``comp`` component the checker walks the body symbolically and
generates proof obligations that guarantee, for *every* parameterization:

1. **Valid reads** — ports are only read during their availability
   intervals (latency safety);
2. **Non-conflicting writes** — one logical driver per port/bundle element
   per clock cycle;
3. **Appropriate delays** — instances are re-invoked no faster than their
   initiation interval allows, and all uses fit within the parent's own
   initiation interval (resource safety / pipeline safety).

Output parameters are encoded as uninterpreted functions over the owning
component's input parameters (``Add::#L`` of an instance
``Add := new FPAdd[#W]`` becomes ``(FPAdd.#L #W)``), exactly the encoding
sketched in section 4.2.  Obligations are discharged by asserting their
negation together with all facts in scope; a SAT answer is turned into a
counterexample parameterization shown to the user.

Conservative sufficient condition for pipeline safety (documented in
DESIGN.md): for an instance with delay ``d`` used at offsets ``o_i`` inside
a component with delay ``D``, we require ``d <= D``, ``|o_i - o_j| >= d``
and ``|o_i - o_j| <= D - d`` pairwise.  This implies non-overlap of
occupancy windows across all pipelined re-executions.
"""

from __future__ import annotations

import itertools
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from ... import smt
from ...params import (
    Constraint,
    ParamError,
    PExpr,
    encode as encode_pexpr_raw,
    encode_constraint as encode_constraint_raw,
    pretty,
)
from ..ast import (
    Access,
    Arg,
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
    COMP,
    Component,
    ConstSig,
    LilacError,
    PortDef,
    Program,
    Signature,
)
from .diagnostics import CheckReport, TypeCheckError, format_counterexample


#: Cache-key tag in every obligation digest.  Changing it re-keys every
#: persisted verdict, so it stays the incremental engine's name.
_ENGINE_TAG = "inc"


#: Process-wide obligation-verdict memo: canonical digest -> (status,
#: model in canonical names).  Sits above the persistent verdict store
#: (the disk cache's ``"smt"`` pseudo-stage); hit on every
#: alpha-equivalent re-discharge.
_OBLIGATION_MEMO: Dict[str, Tuple[str, Optional[Dict[str, int]]]] = {}


def clear_obligation_memo() -> None:
    _OBLIGATION_MEMO.clear()


def valid_verdict_payload(payload, digest: str) -> bool:
    """Is ``payload`` a well-formed persisted verdict for ``digest``?

    The verdict store applies it on load, so a shape-invalid entry is a
    miss, never a verdict.
    """
    return (
        isinstance(payload, dict)
        and payload.get("digest") == digest
        and payload.get("status") in ("sat", "unsat")
        and (
            payload.get("model") is None
            or isinstance(payload.get("model"), dict)
        )
    )


class Obligation:
    """A single proof obligation with enough context to report failures.

    ``facts_upto`` limits which global facts the obligation may use: -1
    means "all facts collected for the component".  Obligations whose goal
    is *itself assumed* as a fact afterwards (instantiation where-clauses)
    snapshot the fact count at creation so the proof cannot be vacuous.
    """

    __slots__ = ("goal", "facts", "path", "message", "kind", "facts_upto")

    def __init__(
        self,
        goal: smt.Term,
        facts: Tuple[smt.Term, ...],
        path: smt.Term,
        message: str,
        kind: str,
        facts_upto: int = -1,
    ):
        self.goal = goal
        self.facts = facts
        self.path = path
        self.message = message
        self.kind = kind
        self.facts_upto = facts_upto


class ResolvedSignal:
    """Availability window + width of a signal reference.

    ``guard`` universally quantifies auxiliary variables (e.g. the fresh
    element index of a whole-bundle read): containment obligations are
    checked under it.
    """

    __slots__ = ("start", "end", "width", "size", "desc", "always", "guard")

    def __init__(
        self, start, end, width, size=None, desc="?", always=False, guard=None
    ):
        self.start = start
        self.end = end
        self.width = width
        self.size = size
        self.desc = desc
        self.always = always
        self.guard = guard if guard is not None else smt.TRUE


class _Instance:
    __slots__ = ("name", "comp", "sig", "arg_terms", "loops")

    def __init__(self, name, comp, sig, arg_terms, loops):
        self.name = name
        self.comp = comp
        self.sig = sig
        self.arg_terms = tuple(arg_terms)
        self.loops = tuple(loops)


class _Invocation:
    __slots__ = ("name", "inst", "offset", "loops", "path", "delay")

    def __init__(self, name, inst, offset, loops, path, delay):
        self.name = name
        self.inst = inst
        self.offset = offset
        self.loops = tuple(loops)
        self.path = path
        self.delay = delay


class _LoopFrame:
    __slots__ = ("var", "term", "lo", "hi")

    def __init__(self, var, term, lo, hi):
        self.var = var
        self.term = term
        self.lo = lo
        self.hi = hi

    def bounds(self) -> smt.Term:
        return smt.And(
            smt.Le(self.lo, self.term),
            smt.Lt(self.term, self.hi),
        )


class _Bundle:
    __slots__ = ("cmd", "loops", "uid")

    def __init__(self, cmd: CmdBundle, loops, uid: int = 0):
        self.cmd = cmd
        self.loops = tuple(loops)
        self.uid = uid


class _Write:
    """A write to a bundle element or (array) output port."""

    __slots__ = ("target", "indices", "path", "loops", "desc")

    def __init__(self, target, indices, path, loops, desc):
        self.target = target
        self.indices = tuple(indices)
        self.path = path
        self.loops = tuple(loops)
        self.desc = desc


class ComponentChecker:
    """Checks a single ``comp`` component against its signature.

    ``obligation_store`` (optional) is a persistent verdict store with
    ``load(digest)`` (a payload that passes
    :func:`valid_verdict_payload`, or None) and ``save(payload,
    digest)`` — normally the session's ``"smt"``
    :class:`repro.driver.cache.PseudoStore`; ``stats`` (optional) is a
    counter sink with ``bump(name, amount)`` — normally the session's
    :class:`repro.driver.cache.CacheStats`.  Both are duck-typed so this
    module never imports the driver at import time.
    """

    def __init__(
        self,
        program: Program,
        component: Component,
        obligation_store=None,
        stats=None,
    ):
        if component.signature.kind != COMP:
            raise LilacError("only comp components have bodies to check")
        self.program = program
        self.component = component
        self.obligation_store = obligation_store
        self.stats = stats
        self.counters: Dict[str, int] = {}
        self.timings: Dict[str, float] = {}
        self.sig = component.signature
        self.errors: List[TypeCheckError] = []
        self.obligations: List[Obligation] = []
        self.facts: List[smt.Term] = []
        self.param_env: Dict[str, smt.Term] = {}
        # Scoped namespace for instances/invocations/bundles: loop and
        # conditional bodies get their own scope, so sibling branches may
        # reuse names (exactly like the elaborator's dynamic scoping).
        self.scopes: List[Dict[str, object]] = [{}]
        self.instance_records: List[_Instance] = []
        self.invoke_records: List[_Invocation] = []
        self.writes: List[_Write] = []
        self.out_binds: Dict[str, List[Tuple[smt.Term, smt.Term]]] = {}
        self.loop_stack: List[_LoopFrame] = []
        self.path: smt.Term = smt.TRUE
        self.display: Dict[str, str] = {}
        self._fresh = itertools.count()
        self.delay_term: Optional[smt.Term] = None

    # ------------------------------------------------------------------
    # Encoding helpers.

    def _own_var(self, name: str) -> smt.Term:
        term = self.param_env.get(name)
        if term is None:
            raise LilacError(
                f"{self.sig.name}: unbound parameter {name!r}"
            )
        return term

    def _uf_app(self, comp_name: str, arg_terms, out: str, label: str) -> smt.Term:
        app = smt.App(f"{comp_name}.{out}", *arg_terms)
        self.display[app.sexpr()] = label
        return app

    def _scope_lookup(self, name: str):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def _scope_define(self, name: str, value) -> None:
        if name in self.scopes[-1]:
            raise LilacError(f"{self.sig.name}: duplicate definition {name!r}")
        self.scopes[-1][name] = value

    def _encode_inst_out(self, node) -> smt.Term:
        inst = self._scope_lookup(node.instance)
        if not isinstance(inst, _Instance):
            raise LilacError(
                f"{self.sig.name}: unknown instance {node.instance!r} in "
                f"parameter expression {node.instance}::{node.out}"
            )
        inst.sig.out_param(node.out)  # raises if absent
        return self._uf_app(
            inst.comp, inst.arg_terms, node.out, f"{inst.name}::{node.out}"
        )

    def _encode_paccess(self, node) -> smt.Term:
        comp = self.program.get(node.comp)
        sig = comp.signature
        if len(node.args) != len(sig.params):
            raise LilacError(
                f"{self.sig.name}: {node.comp} expects "
                f"{len(sig.params)} parameters, got {len(node.args)}"
            )
        arg_terms = [self.encode_pexpr(a) for a in node.args]
        self._obligate_input_where(sig, node.comp, arg_terms)
        self._assume_out_param_clauses(sig, node.comp, arg_terms)
        return self._uf_app(
            node.comp, arg_terms, node.out,
            f"{node.comp}[..]::{node.out}",
        )

    def encode_pexpr(self, expr: PExpr) -> smt.Term:
        return encode_pexpr_raw(
            expr,
            var_fn=self._own_var,
            access_fn=self._encode_paccess,
            inst_out_fn=self._encode_inst_out,
        )

    def encode_constraint(self, constraint: Constraint) -> smt.Term:
        return encode_constraint_raw(
            constraint,
            var_fn=self._own_var,
            access_fn=self._encode_paccess,
            inst_out_fn=self._encode_inst_out,
        )

    def _child_var_fn(self, inst: _Instance):
        sig = inst.sig
        params = {p.name: term for p, term in zip(sig.params, inst.arg_terms)}
        outs = {p.name for p in sig.out_params}

        def var_fn(name: str) -> smt.Term:
            if name in params:
                return params[name]
            if name in outs:
                return self._uf_app(
                    inst.comp, inst.arg_terms, name, f"{inst.name}::{name}"
                )
            raise LilacError(
                f"{inst.comp}: signature references unknown parameter {name!r}"
            )

        return var_fn

    def encode_child_expr(self, expr: PExpr, inst: _Instance) -> smt.Term:
        return encode_pexpr_raw(
            expr, var_fn=self._child_var_fn(inst), access_fn=self._encode_paccess
        )

    def _encode_sig_constraint_for(
        self, constraint: Constraint, sig: Signature, comp_name: str, arg_terms
    ) -> smt.Term:
        params = {p.name: term for p, term in zip(sig.params, arg_terms)}
        outs = {p.name for p in sig.out_params}

        def var_fn(name: str) -> smt.Term:
            if name in params:
                return params[name]
            if name in outs:
                return self._uf_app(comp_name, arg_terms, name, f"{comp_name}::{name}")
            raise LilacError(
                f"{comp_name}: where-clause references unknown parameter {name!r}"
            )

        return encode_constraint_raw(constraint, var_fn=var_fn)

    # ------------------------------------------------------------------
    # Facts and obligations.

    def _guard(self) -> smt.Term:
        bounds = [frame.bounds() for frame in self.loop_stack]
        return smt.And(self.path, *bounds)

    def add_fact(self, fact: smt.Term) -> None:
        guard = self._guard()
        self.facts.append(smt.Implies(guard, fact))

    def obligate(
        self, goal: smt.Term, message: str, kind: str, snapshot: bool = False
    ) -> None:
        facts_upto = len(self.facts) if snapshot else -1
        self.obligations.append(
            Obligation(goal, (), self._guard(), message, kind, facts_upto)
        )

    def obligate_raw(
        self,
        goal: smt.Term,
        path: smt.Term,
        extra_facts: Sequence[smt.Term],
        message: str,
        kind: str,
    ) -> None:
        self.obligations.append(
            Obligation(goal, tuple(extra_facts), path, message, kind)
        )

    def _assume_out_param_clauses(self, sig, comp_name: str, arg_terms) -> None:
        """Assume the where-clauses attached to a component's ``some``
        parameters (the Inst rule of Figure 7b)."""
        for out_param in sig.out_params:
            for clause in out_param.where:
                self.add_fact(
                    self._encode_sig_constraint_for(clause, sig, comp_name, arg_terms)
                )
        for clause in sig.where:
            # Signature-level where clauses constrain input parameters; once
            # instantiation arguments are checked they hold as facts too.
            self.add_fact(
                self._encode_sig_constraint_for(clause, sig, comp_name, arg_terms)
            )

    def _obligate_input_where(self, sig, comp_name: str, arg_terms) -> None:
        """Instantiation arguments must satisfy the component's where
        clauses (the ``pargs`` premise of the Inst rule)."""
        for clause in sig.where:
            try:
                encoded = self._encode_sig_constraint_for(
                    clause, sig, comp_name, arg_terms
                )
            except LilacError:
                continue  # clause mentions output params: assumed, not checked
            self.obligate(
                encoded,
                f"instantiation of {comp_name} violates where-clause",
                "where",
                snapshot=True,
            )

    # ------------------------------------------------------------------
    # Signal resolution.

    def resolve_arg(self, arg: Arg) -> ResolvedSignal:
        if isinstance(arg, ConstSig):
            width = self.encode_pexpr(arg.width) if arg.width is not None else None
            return ResolvedSignal(
                smt.IntVal(0), smt.IntVal(0), width,
                desc=f"constant {arg.value}", always=True,
            )
        return self.resolve_access(arg)

    def resolve_access(self, access: Access) -> ResolvedSignal:
        base, field = access.base, access.field
        if field is None:
            port = self._find_port(self.sig.inputs, base)
            if port is not None:
                return self._resolve_own_port(port, access, is_input=True)
            entry = self._scope_lookup(base)
            if isinstance(entry, _Bundle):
                return self._resolve_bundle_read(entry, access)
            out_port = self._find_port(self.sig.outputs, base)
            if out_port is not None:
                raise LilacError(
                    f"{self.sig.name}: cannot read output port {base!r}"
                )
            raise LilacError(f"{self.sig.name}: unknown signal {base!r}")
        invocation = self._scope_lookup(base)
        if not isinstance(invocation, _Invocation):
            raise LilacError(
                f"{self.sig.name}: unknown invocation {base!r} in {access!r}"
            )
        return self._resolve_invocation_port(invocation, field, access)

    def _find_port(self, ports, name) -> Optional[PortDef]:
        for port in ports:
            if port.name == name:
                return port
        return None

    def _resolve_own_port(
        self, port: PortDef, access: Access, is_input: bool
    ) -> ResolvedSignal:
        start = self.encode_pexpr(port.interval.start)
        end = self.encode_pexpr(port.interval.end)
        width = self.encode_pexpr(port.width)
        size = self.encode_pexpr(port.size) if port.size is not None else None
        if access.indices:
            if size is None:
                raise LilacError(
                    f"{self.sig.name}: scalar port {port.name!r} indexed"
                )
            self._obligate_index_bounds(access.indices, [size], str(access))
            size = None  # an indexed element is scalar
        return ResolvedSignal(
            start, end, width, size=size,
            desc=f"{port.name}: [G+{pretty(port.interval.start)}, "
            f"G+{pretty(port.interval.end)}]",
        )

    def _resolve_bundle_read(self, bundle: _Bundle, access: Access) -> ResolvedSignal:
        cmd = bundle.cmd
        size_terms = [self.encode_pexpr(s) for s in cmd.sizes]
        width = self.encode_pexpr(cmd.width)
        if not access.indices and len(cmd.index_vars) == 1:
            # Whole-bundle read: availability must hold for *every*
            # element; quantify with a fresh, bounds-guarded index.
            index = smt.Int(f"{cmd.index_vars[0]}@all{next(self._fresh)}")
            self.display[index.sexpr()] = cmd.index_vars[0]
            guard = smt.And(smt.Ge(index, 0), smt.Lt(index, size_terms[0]))
            start = self._encode_with_indices(
                cmd.interval.start, cmd.index_vars, [index]
            )
            end = self._encode_with_indices(
                cmd.interval.end, cmd.index_vars, [index]
            )
            return ResolvedSignal(
                start, end, width, size=size_terms[0], guard=guard,
                desc=f"{cmd.name}(all elements)",
            )
        if len(access.indices) != len(cmd.index_vars):
            raise LilacError(
                f"{self.sig.name}: bundle {cmd.name!r} expects "
                f"{len(cmd.index_vars)} indices, got {len(access.indices)}"
            )
        index_terms = [self.encode_pexpr(i) for i in access.indices]
        self._obligate_index_bounds(access.indices, size_terms, str(access))
        start = self._encode_with_indices(cmd.interval.start, cmd.index_vars, index_terms)
        end = self._encode_with_indices(cmd.interval.end, cmd.index_vars, index_terms)
        return ResolvedSignal(
            start, end, width,
            desc=f"{access!r}: [G+{pretty(cmd.interval.start)}, "
            f"G+{pretty(cmd.interval.end)}]",
        )

    def _encode_with_indices(self, expr: PExpr, index_vars, index_terms) -> smt.Term:
        mapping = dict(zip(index_vars, index_terms))

        def var_fn(name: str) -> smt.Term:
            if name in mapping:
                return mapping[name]
            return self._own_var(name)

        return encode_pexpr_raw(
            expr,
            var_fn=var_fn,
            access_fn=self._encode_paccess,
            inst_out_fn=self._encode_inst_out,
        )

    def _resolve_invocation_port(
        self, invocation: _Invocation, field: str, access: Access
    ) -> ResolvedSignal:
        inst = invocation.inst
        port = inst.sig.output(field)
        start = smt.Plus(
            invocation.offset, self.encode_child_expr(port.interval.start, inst)
        )
        end = smt.Plus(
            invocation.offset, self.encode_child_expr(port.interval.end, inst)
        )
        width = self.encode_child_expr(port.width, inst)
        size = (
            self.encode_child_expr(port.size, inst)
            if port.size is not None
            else None
        )
        if access.indices:
            if size is None:
                raise LilacError(
                    f"{self.sig.name}: scalar port {access!r} indexed"
                )
            self._obligate_index_bounds(access.indices, [size], str(access))
            size = None
        return ResolvedSignal(
            start, end, width, size=size,
            desc=f"{invocation.name}.{field}: available in "
            f"[G+{self._show(start)}, G+{self._show(end)}]",
        )

    def _obligate_index_bounds(self, indices, size_terms, desc: str) -> None:
        for index, size in zip(indices, size_terms):
            idx = (
                index
                if isinstance(index, smt.Term)
                else self._encode_with_loop_vars(index)
            )
            self.obligate(
                smt.And(smt.Ge(idx, 0), smt.Lt(idx, size)),
                f"index {desc} may fall outside [0, {self._show(size)})",
                "bounds",
            )

    def _encode_with_loop_vars(self, expr: PExpr) -> smt.Term:
        return self.encode_pexpr(expr)

    def _show(self, term: smt.Term) -> str:
        text = term.sexpr()
        for raw, nice in self.display.items():
            text = text.replace(raw, nice)
        return text

    # ------------------------------------------------------------------
    # Main walk.

    def check(self) -> CheckReport:
        try:
            self._setup_signature()
            self._walk(self.component.body)
            self._finalize()
        except LilacError as err:
            self.errors.append(TypeCheckError(self.sig.name, str(err), {}))
            return CheckReport(self.sig.name, self.errors, 0)
        start = time.perf_counter()
        self._discharge()
        self.timings["smt.discharge"] = time.perf_counter() - start
        return CheckReport(
            self.sig.name,
            self.errors,
            len(self.obligations),
            counters=dict(self.counters),
            timings=dict(self.timings),
        )

    def _setup_signature(self) -> None:
        for param in self.sig.params:
            self.param_env[param.name] = smt.Int(param.name)
        for out_param in self.sig.out_params:
            self.param_env[out_param.name] = smt.Int(out_param.name)
        for clause in self.sig.where:
            self.facts.append(self.encode_constraint(clause))
        self.delay_term = self.encode_pexpr(self.sig.event.delay)
        self.obligate(
            smt.Ge(self.delay_term, 1),
            f"event delay {pretty(self.sig.event.delay)} must be at least 1",
            "delay",
        )
        for port in self.sig.inputs + self.sig.outputs:
            if port.interface:
                continue
            start = self.encode_pexpr(port.interval.start)
            end = self.encode_pexpr(port.interval.end)
            self.obligate(
                smt.Lt(start, end),
                f"port {port.name!r} has an empty availability interval",
                "interval",
            )

    def _walk(self, cmds: Sequence[Cmd]) -> None:
        for cmd in cmds:
            self._walk_cmd(cmd)

    def _walk_cmd(self, cmd: Cmd) -> None:
        if isinstance(cmd, CmdInst):
            self._cmd_inst(cmd)
        elif isinstance(cmd, CmdInvoke):
            self._cmd_invoke(cmd)
        elif isinstance(cmd, CmdConnect):
            self._cmd_connect(cmd)
        elif isinstance(cmd, CmdLet):
            if cmd.name in self.param_env:
                raise LilacError(f"{self.sig.name}: duplicate let {cmd.name!r}")
            self.param_env[cmd.name] = self.encode_pexpr(cmd.expr)
        elif isinstance(cmd, CmdOutBind):
            self._cmd_out_bind(cmd)
        elif isinstance(cmd, CmdBundle):
            self._cmd_bundle(cmd)
        elif isinstance(cmd, CmdFor):
            self._cmd_for(cmd)
        elif isinstance(cmd, CmdIf):
            self._cmd_if(cmd)
        elif isinstance(cmd, CmdAssume):
            self.add_fact(self.encode_constraint(cmd.constraint))
        elif isinstance(cmd, CmdAssert):
            self.obligate(
                self.encode_constraint(cmd.constraint),
                f"assertion may not hold: {cmd.constraint!r}",
                "assert",
            )
        else:
            raise LilacError(f"unknown command {cmd!r}")

    def _cmd_inst(self, cmd: CmdInst) -> None:
        comp = self.program.get(cmd.comp)
        sig = comp.signature
        if len(cmd.args) != len(sig.params):
            raise LilacError(
                f"{self.sig.name}: {cmd.comp} expects {len(sig.params)} "
                f"parameters, got {len(cmd.args)}"
            )
        arg_terms = [self.encode_pexpr(a) for a in cmd.args]
        self._obligate_input_where(sig, cmd.comp, arg_terms)
        inst = _Instance(
            cmd.name, cmd.comp, sig, arg_terms,
            [frame.var for frame in self.loop_stack],
        )
        self._scope_define(cmd.name, inst)
        self.instance_records.append(inst)
        self._assume_out_param_clauses(sig, cmd.comp, arg_terms)

    def _cmd_invoke(self, cmd: CmdInvoke) -> None:
        inst = self._scope_lookup(cmd.instance)
        if not isinstance(inst, _Instance):
            raise LilacError(
                f"{self.sig.name}: invocation of unknown instance {cmd.instance!r}"
            )
        offset = self.encode_pexpr(cmd.offset)
        delay = self.encode_child_expr(inst.sig.event.delay, inst)
        invocation = _Invocation(
            cmd.name, inst, offset,
            list(self.loop_stack), self._guard(), delay,
        )
        self._scope_define(cmd.name, invocation)
        self.invoke_records.append(invocation)
        data_ports = [p for p in inst.sig.inputs if not p.interface]
        if len(cmd.args) != len(data_ports):
            raise LilacError(
                f"{self.sig.name}: {cmd.instance} expects {len(data_ports)} "
                f"arguments, got {len(cmd.args)}"
            )
        for port, arg in zip(data_ports, cmd.args):
            resolved = self.resolve_arg(arg)
            req_start = smt.Plus(offset, self.encode_child_expr(port.interval.start, inst))
            req_end = smt.Plus(offset, self.encode_child_expr(port.interval.end, inst))
            if not resolved.always:
                self.obligate(
                    smt.Implies(
                        resolved.guard,
                        smt.And(
                            smt.Le(resolved.start, req_start),
                            smt.Le(req_end, resolved.end),
                        ),
                    ),
                    f"Signal available in [G+{self._show(resolved.start)}, "
                    f"G+{self._show(resolved.end)}] but required in "
                    f"[G+{self._show(req_start)}, G+{self._show(req_end)}]"
                    f" ({resolved.desc} -> {cmd.instance}.{port.name})",
                    "latency",
                )
            self._obligate_width(
                resolved, self.encode_child_expr(port.width, inst),
                f"{cmd.instance}.{port.name}",
            )
            child_size = (
                self.encode_child_expr(port.size, inst)
                if port.size is not None
                else None
            )
            self._obligate_size(resolved, child_size, f"{cmd.instance}.{port.name}")
        self.obligate(
            smt.Le(delay, self.delay_term),
            f"instance {cmd.instance} (delay {self._show(delay)}) cannot be "
            f"pipelined inside {self.sig.name} "
            f"(delay {self._show(self.delay_term)})",
            "pipeline",
        )

    def _obligate_width(self, resolved: ResolvedSignal, expected, target: str) -> None:
        if resolved.width is None:
            return
        self.obligate(
            smt.Implies(resolved.guard, smt.Eq(resolved.width, expected)),
            f"width mismatch: {resolved.desc} has width "
            f"{self._show(resolved.width)} but {target} requires "
            f"{self._show(expected)}",
            "width",
        )

    def _obligate_size(self, resolved, expected, target: str) -> None:
        if expected is None and resolved.size is None:
            return
        if expected is None or resolved.size is None:
            raise LilacError(
                f"{self.sig.name}: array/scalar mismatch connecting to {target}"
            )
        self.obligate(
            smt.Eq(resolved.size, expected),
            f"array size mismatch at {target}",
            "width",
        )

    def _cmd_connect(self, cmd: CmdConnect) -> None:
        dst = cmd.dst
        resolved_src = self.resolve_arg(cmd.src)
        out_port = self._find_port(self.sig.outputs, dst.base)
        if dst.field is None and out_port is not None:
            start = self.encode_pexpr(out_port.interval.start)
            end = self.encode_pexpr(out_port.interval.end)
            size = (
                self.encode_pexpr(out_port.size)
                if out_port.size is not None
                else None
            )
            indices = ()
            if dst.indices:
                if size is None:
                    raise LilacError(
                        f"{self.sig.name}: scalar output {dst.base!r} indexed"
                    )
                index_terms = [self.encode_pexpr(i) for i in dst.indices]
                self._obligate_index_bounds(dst.indices, [size], str(dst))
                indices = tuple(index_terms)
            if not resolved_src.always:
                self.obligate(
                    smt.And(
                        smt.Le(resolved_src.start, start),
                        smt.Le(end, resolved_src.end),
                    ),
                    f"Signal available in [G+{self._show(resolved_src.start)}, "
                    f"G+{self._show(resolved_src.end)}] but output "
                    f"{dst.base!r} requires [G+{self._show(start)}, "
                    f"G+{self._show(end)}]",
                    "latency",
                )
            self._obligate_width(
                resolved_src, self.encode_pexpr(out_port.width), dst.base
            )
            self.writes.append(
                _Write(
                    ("out", dst.base), indices, self._guard(),
                    list(self.loop_stack), str(dst),
                )
            )
            return
        bundle = self._scope_lookup(dst.base)
        if dst.field is None and isinstance(bundle, _Bundle):
            cmdb = bundle.cmd
            if len(dst.indices) != len(cmdb.index_vars):
                raise LilacError(
                    f"{self.sig.name}: bundle {dst.base!r} expects "
                    f"{len(cmdb.index_vars)} indices"
                )
            index_terms = [self.encode_pexpr(i) for i in dst.indices]
            size_terms = [self.encode_pexpr(s) for s in cmdb.sizes]
            self._obligate_index_bounds(dst.indices, size_terms, str(dst))
            start = self._encode_with_indices(
                cmdb.interval.start, cmdb.index_vars, index_terms
            )
            end = self._encode_with_indices(
                cmdb.interval.end, cmdb.index_vars, index_terms
            )
            if not resolved_src.always:
                self.obligate(
                    smt.And(
                        smt.Le(resolved_src.start, start),
                        smt.Le(end, resolved_src.end),
                    ),
                    f"Signal available in [G+{self._show(resolved_src.start)}, "
                    f"G+{self._show(resolved_src.end)}] but bundle element "
                    f"{dst!r} requires [G+{self._show(start)}, "
                    f"G+{self._show(end)}]",
                    "latency",
                )
            self._obligate_width(
                resolved_src, self.encode_pexpr(cmdb.width), str(dst)
            )
            self.writes.append(
                _Write(
                    ("bundle", f"{dst.base}#{bundle.uid}"),
                    tuple(index_terms), self._guard(),
                    list(self.loop_stack), str(dst),
                )
            )
            return
        raise LilacError(
            f"{self.sig.name}: invalid connection target {dst!r} "
            "(must be an output port or bundle element)"
        )

    def _cmd_out_bind(self, cmd: CmdOutBind) -> None:
        out_param = self.sig.out_param(cmd.name)  # raises if undeclared
        term = self.encode_pexpr(cmd.expr)
        var = self.param_env[cmd.name]
        self.add_fact(smt.Eq(var, term))
        for clause in out_param.where:
            self.obligate(
                self.encode_constraint(clause),
                f"binding {cmd.name} := {pretty(cmd.expr)} violates its "
                "where-clause",
                "where",
            )
        self.out_binds.setdefault(cmd.name, []).append((term, self._guard()))

    def _cmd_bundle(self, cmd: CmdBundle) -> None:
        self._scope_define(
            cmd.name,
            _Bundle(
                cmd, [frame.var for frame in self.loop_stack],
                uid=next(self._fresh),
            ),
        )

    def _cmd_for(self, cmd: CmdFor) -> None:
        lo = self.encode_pexpr(cmd.lo)
        hi = self.encode_pexpr(cmd.hi)
        index = smt.Int(f"{cmd.var}!{next(self._fresh)}")
        self.display[index.sexpr()] = cmd.var
        frame = _LoopFrame(cmd.var, index, lo, hi)
        saved = self.param_env.get(cmd.var)
        self.param_env[cmd.var] = index
        self.loop_stack.append(frame)
        self.scopes.append({})
        try:
            self._walk(cmd.body)
        finally:
            self.scopes.pop()
            self.loop_stack.pop()
            if saved is None:
                self.param_env.pop(cmd.var, None)
            else:
                self.param_env[cmd.var] = saved

    def _cmd_if(self, cmd: CmdIf) -> None:
        cond = self.encode_constraint(cmd.cond)
        saved_path = self.path
        self.path = smt.And(saved_path, cond)
        self.scopes.append({})
        try:
            self._walk(cmd.then)
        finally:
            self.scopes.pop()
        self.path = smt.And(saved_path, smt.Not(cond))
        self.scopes.append({})
        try:
            self._walk(cmd.otherwise)
        finally:
            self.scopes.pop()
        self.path = saved_path

    # ------------------------------------------------------------------
    # Whole-component obligations generated after the walk.

    def _finalize(self) -> None:
        self._finalize_out_binds()
        self._finalize_resource_safety()
        self._finalize_write_conflicts()

    def _finalize_out_binds(self) -> None:
        for out_param in self.sig.out_params:
            if out_param.name not in self.out_binds:
                raise LilacError(
                    f"{self.sig.name}: output parameter {out_param.name} "
                    "is never bound"
                )
        driven = {
            write.target[1] for write in self.writes if write.target[0] == "out"
        }
        for port in self.sig.outputs:
            if port.interface:
                continue
            if port.name not in driven:
                raise LilacError(
                    f"{self.sig.name}: output port {port.name!r} is never driven"
                )

    def _rename_frames(self, frames) -> Tuple[Dict[smt.Term, smt.Term], List[smt.Term]]:
        """Fresh copies of loop index variables, with renamed bounds facts."""
        mapping: Dict[smt.Term, smt.Term] = {}
        bounds: List[smt.Term] = []
        for frame in frames:
            fresh = smt.Int(f"{frame.var}'{next(self._fresh)}")
            self.display[fresh.sexpr()] = f"{frame.var}'"
            mapping[frame.term] = fresh
            lo = smt.substitute(frame.lo, mapping)
            hi = smt.substitute(frame.hi, mapping)
            bounds.append(
                smt.And(smt.Le(lo, fresh), smt.Lt(fresh, hi))
            )
        return mapping, bounds

    def _finalize_resource_safety(self) -> None:
        by_instance: Dict[int, List[_Invocation]] = {}
        for invocation in self.invoke_records:
            by_instance.setdefault(id(invocation.inst), []).append(invocation)
        for records in by_instance.values():
            inst = records[0].inst
            decl_depth = len(inst.loops)
            for i, first in enumerate(records):
                for second in records[i:]:
                    self._pair_obligation(inst, first, second, decl_depth)

    def _pair_obligation(
        self, inst: _Instance, first: _Invocation, second: _Invocation, decl_depth: int
    ) -> None:
        """Resource-safety obligation for a pair of invocation records.

        The second record's loop indices (beyond the instance's declaration
        depth) are renamed so the pair ranges over *all* combinations of
        iterations; for a record paired with itself the renamed indices must
        differ (otherwise it is the same dynamic invocation).
        """
        same = first is second
        frames_to_rename = second.loops[decl_depth:]
        if same and not frames_to_rename:
            # A single static invocation; cross-window safety is covered by
            # the per-invocation d <= D obligation.
            return
        mapping, bounds2 = self._rename_frames(frames_to_rename)
        offset2 = smt.substitute(second.offset, mapping)
        path2 = smt.substitute(second.path, mapping)
        delay = first.delay
        extra = list(bounds2)
        if same:
            differ = smt.Or(
                *[smt.Ne(old, new) for old, new in mapping.items()]
            )
            extra.append(differ)
        if mapping:
            # Renamed copies of global facts so constraints involving the
            # renamed loop indices remain available.
            extra.extend(smt.substitute(fact, mapping) for fact in self.facts)
        gap_ok = smt.Or(
            smt.Ge(smt.Minus(first.offset, offset2), delay),
            smt.Ge(smt.Minus(offset2, first.offset), delay),
        )
        window = smt.Minus(self.delay_term, delay)
        fits = smt.And(
            smt.Le(smt.Minus(first.offset, offset2), window),
            smt.Le(smt.Minus(offset2, first.offset), window),
        )
        path = smt.And(first.path, path2)
        self.obligate_raw(
            gap_ok, path, extra,
            f"instance {inst.name} may be invoked at G+"
            f"{self._show(first.offset)} and G+{self._show(offset2)} with "
            f"spacing below its delay {self._show(delay)}",
            "resource",
        )
        self.obligate_raw(
            fits, path, extra,
            f"invocations of {inst.name} at G+{self._show(first.offset)} and "
            f"G+{self._show(offset2)} do not fit within the initiation "
            f"interval of {self.sig.name}",
            "pipeline",
        )

    def _finalize_write_conflicts(self) -> None:
        by_target: Dict[Tuple[str, str], List[_Write]] = {}
        for write in self.writes:
            by_target.setdefault(write.target, []).append(write)
        for target, records in by_target.items():
            for i, first in enumerate(records):
                for second in records[i:]:
                    self._write_pair_obligation(target, first, second)

    def _write_pair_obligation(self, target, first: _Write, second: _Write) -> None:
        same = first is second
        if same and not second.loops:
            return  # one static write
        mapping, bounds2 = self._rename_frames(second.loops)
        indices2 = tuple(smt.substitute(i, mapping) for i in second.indices)
        path2 = smt.substitute(second.path, mapping)
        extra = list(bounds2)
        if same:
            if not mapping:
                return
            extra.append(
                smt.Or(*[smt.Ne(old, new) for old, new in mapping.items()])
            )
        if mapping:
            extra.extend(smt.substitute(fact, mapping) for fact in self.facts)
        if first.indices:
            clash = smt.And(
                *[smt.Eq(a, b) for a, b in zip(first.indices, indices2)]
            )
            goal = smt.Not(clash)
        else:
            goal = smt.FALSE  # two scalar writes on overlapping paths
        path = smt.And(first.path, path2)
        self.obligate_raw(
            goal, path, extra,
            f"{first.desc} may be driven more than once "
            f"(conflicting write with {second.desc})",
            "conflict",
        )

    # ------------------------------------------------------------------
    # Discharge.

    def _bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        if self.stats is not None:
            self.stats.bump(name, amount)

    def _time(self, name: str, start: float) -> None:
        self.timings[name] = (
            self.timings.get(name, 0.0) + time.perf_counter() - start
        )

    def _obligation_assertions(
        self, obligation: Obligation
    ) -> Tuple[List[smt.Term], int]:
        """The full assertion set the obligation's verdict is a function
        of (visible facts + local facts + path + negated goal)."""
        upto = (
            len(self.facts)
            if obligation.facts_upto < 0
            else obligation.facts_upto
        )
        assertions = (
            list(self.facts[:upto])
            + list(obligation.facts)
            + [obligation.path, smt.Not(obligation.goal)]
        )
        return assertions, upto

    def _cached_discharge(self, assertions, solve) -> "smt.Result":
        """Dispatch one obligation through the verdict caches.

        Layering: canonical digest → in-process memo → persistent store
        → ``solve()`` (the actual engine).  Verdicts are stored with
        models in canonical names; a hit translates the model back into
        this query's own names.  The ``proc.kill.solver`` crash site is
        consulted just before a fresh verdict is saved.
        """
        start = time.perf_counter()
        canon = smt.canonical_query(assertions, tag=_ENGINE_TAG)
        self._time("smt.canonicalize", start)
        entry = _OBLIGATION_MEMO.get(canon.digest)
        if entry is not None:
            self._bump("smt.memo_hit")
        elif self.obligation_store is not None:
            payload = self.obligation_store.load(canon.digest)
            if payload is not None:
                entry = (payload["status"], payload["model"])
                _OBLIGATION_MEMO[canon.digest] = entry
        if entry is None:
            self._bump("smt.queries")
            start = time.perf_counter()
            result = solve()
            self._time("smt.solve", start)
            canonical_model = smt.translate_model(
                result.model, canon.to_canonical
            )
            _OBLIGATION_MEMO[canon.digest] = (result.status, canonical_model)
            if self.obligation_store is not None:
                # Lazy import: the driver package imports this module.
                from ...driver import faults

                # Die with a discharged-but-unsaved verdict in hand, the
                # worst possible moment for the store.
                faults.kill_here("proc.kill.solver", self.stats)
                self.obligation_store.save(
                    {
                        "digest": canon.digest,
                        "status": result.status,
                        "model": canonical_model,
                    },
                    canon.digest,
                )
            return result
        status, canonical_model = entry
        return smt.Result(
            status, smt.translate_model(canonical_model, canon.to_original)
        )

    def _recovering_discharge(
        self, obligation, assertions, solve, on_degrade
    ) -> "smt.Result":
        """:meth:`_cached_discharge` plus the solver degradation rung.

        A :class:`~repro.smt.SolverError` (DPLL(T) conflict budget
        exhausted — genuinely, or injected through the
        ``solver.budget`` fault site) does not fail the obligation:
        the discharge degrades from the shared incremental solver to a
        fresh one-shot solve of the same obligation (``degrade.solver``
        counter).  Verdicts are identical either way (a differential
        test holds the two solvers to the same statuses on the
        catalog), so degradation costs speed, never correctness.
        Only when the fallback *also* exhausts does the error escape —
        with the component name and canonical obligation digest
        attached, naming the one reproducible query that broke.
        """
        # Lazy import: the driver package imports this module at
        # import time, so a module-level import would be circular.
        from ...driver import faults

        def checked():
            if faults.should_fire("solver.budget", self.stats):
                raise smt.SolverError(
                    "DPLL(T) conflict budget exhausted (injected)"
                )
            return solve()

        try:
            return self._cached_discharge(assertions, checked)
        except smt.SolverError:
            self._bump("degrade.solver")
            warnings.warn(
                f"solver budget exhausted checking {self.sig.name}; "
                "degrading to a fresh one-shot solve",
                RuntimeWarning,
                stacklevel=2,
            )
            on_degrade()
            try:
                return self._cached_discharge(
                    assertions,
                    lambda: self._solve_obligation(obligation),
                )
            except smt.SolverError as error:
                digest = smt.canonical_query(
                    assertions, tag=_ENGINE_TAG
                ).digest
                raise error.with_context(
                    component=self.sig.name, digest=digest
                ) from error

    def _solve_obligation(self, obligation: Obligation) -> "smt.Result":
        """One-shot discharge of a single obligation: the
        ``degrade.solver`` rung, and the reference for differential
        tests."""
        visible = (
            self.facts
            if obligation.facts_upto < 0
            else self.facts[: obligation.facts_upto]
        )
        relevant = _prune_facts(
            list(visible) + list(obligation.facts),
            [obligation.goal, obligation.path],
        )
        solver = smt.Solver()
        solver.add(*relevant)
        solver.add(obligation.path)
        solver.add(smt.Not(obligation.goal))
        return solver.check()

    def _record_result(self, obligation: Obligation, result) -> None:
        if result.is_sat:
            counterexample = format_counterexample(
                result.model or {}, self.display
            )
            self.errors.append(
                TypeCheckError(
                    self.sig.name, obligation.message, counterexample,
                    kind=obligation.kind,
                )
            )

    def _discharge(self) -> None:
        """Discharge every obligation, reporting SAT results as errors.

        All obligations go through one shared
        :class:`repro.smt.IncrementalSolver` (preprocessing state,
        Tseitin encoding of the facts, learned theory lemmas).
        Obligations are processed in fact-visibility order — the shared
        solver asserts facts permanently, so an obligation must not run
        after facts beyond its snapshot are asserted (the snapshot
        exists precisely to keep where-clause proofs non-vacuous).  The
        solver itself is created lazily: a fully cache-served component
        never builds one.  Errors are still reported in obligation
        order.
        """
        total = len(self.facts)
        order = sorted(
            range(len(self.obligations)),
            key=lambda i: (
                total
                if self.obligations[i].facts_upto < 0
                else self.obligations[i].facts_upto,
                i,
            ),
        )
        engine: Dict[str, object] = {"solver": None, "asserted": 0}

        def solve_incremental(obligation: Obligation, upto: int):
            solver = engine["solver"]
            if solver is None:
                solver = engine["solver"] = smt.IncrementalSolver()
            if upto > engine["asserted"]:
                solver.add(*self.facts[engine["asserted"] : upto])
                engine["asserted"] = upto
            # Obligation-local facts (renamed copies for pair
            # obligations) are filtered by the same goal-anchored
            # relevance closure ``_solve_obligation`` applies; the
            # solver restricts the permanently asserted facts internally.
            kept = set(
                _prune_facts(
                    list(self.facts[:upto]) + list(obligation.facts),
                    [obligation.goal, obligation.path],
                )
            )
            extras = [fact for fact in obligation.facts if fact in kept]
            return solver.check(
                *extras, obligation.path, smt.Not(obligation.goal)
            )

        def reset_engine():
            # A budget exhaustion can leave the shared solver's
            # assumption stack mid-query; later obligations rebuild a
            # fresh incremental solver rather than trust it.
            engine["solver"] = None
            engine["asserted"] = 0

        results: Dict[int, object] = {}
        for index in order:
            obligation = self.obligations[index]
            assertions, upto = self._obligation_assertions(obligation)
            results[index] = self._recovering_discharge(
                obligation,
                assertions,
                lambda obligation=obligation, upto=upto: solve_incremental(
                    obligation, upto
                ),
                on_degrade=reset_engine,
            )
        for index, obligation in enumerate(self.obligations):
            self._record_result(obligation, results[index])


def _symbols(term: smt.Term):
    """Variable names and UF symbols occurring in a term.

    Built from the per-term cached ``free_vars``/``apps`` sets, so the
    repeated closures the discharge loop runs cost hash lookups, not
    term walks.
    """
    names = {v.name for v in smt.free_vars(term)}
    for app in smt.apps(term):
        names.add(f"@{app.name}")
    return names


def _prune_facts(facts, anchors):
    """Keep only facts (transitively) sharing symbols with the goal.

    Soundness: dropping facts can only make an obligation *harder* to
    prove (more SAT results), never mask an error.  In practice the
    closure keeps everything connected to the obligation and discards the
    bulk of unrelated where-clauses, which dominates solver time on
    larger components.
    """
    relevant = set()
    for anchor in anchors:
        relevant |= _symbols(anchor)
    remaining = [(fact, _symbols(fact)) for fact in facts]
    kept = []
    changed = True
    while changed:
        changed = False
        rest = []
        for fact, symbols in remaining:
            if symbols & relevant:
                kept.append(fact)
                relevant |= symbols
                changed = True
            else:
                rest.append((fact, symbols))
        remaining = rest
    return kept


def check_component(
    program: Program,
    name: str,
    obligation_store=None,
    stats=None,
) -> CheckReport:
    """Type check one component of a program."""
    component = program.get(name)
    if component.signature.kind != COMP:
        return CheckReport(name, [], 0)
    return ComponentChecker(
        program, component, obligation_store=obligation_store, stats=stats
    ).check()


def check_program(
    program: Program,
    raise_on_error: bool = True,
    obligation_store=None,
    stats=None,
) -> List[CheckReport]:
    """Type check every ``comp`` component in the program."""
    reports = []
    for component in program:
        reports.append(
            check_component(
                program,
                component.name,
                obligation_store=obligation_store,
                stats=stats,
            )
        )
    if raise_on_error:
        failures = [r for r in reports if r.errors]
        if failures:
            raise failures[0].errors[0]
    return reports
