"""Compiled simulation backend: netlist → specialized Python step code.

The interpreter (:class:`~repro.rtl.simulate.Simulator`) pays a call
through its per-kind evaluator table and two dict lookups per pin
*every cell, every cycle* — the hottest loop in the repository.  This module pays
those costs **once per netlist** instead: the flattened module is
levelized (the same ``comb_topo_order`` the interpreter uses), every net
is assigned a dense slot in a flat list, and one straight-line Python
function is code-generated with a single slot-array assignment per
combinational cell, plus a sequential-latch epilogue for registers and
FIFOs.  Every net holds a *clean* value (below ``2^width``), so a
result is masked only where it can leave its width: an ``add`` of two
8-bit nets into 9 bits, a shift by 0 or a ``mux`` no narrower than its
inputs gets no ``&``, a ``sub`` always does.  A net with exactly one
combinational reader gets no assignment of its own: its expression is
*fused* (inlined, parenthesized) into that reader, saving a slot store
and load per cycle, so ``peek_net`` on a fused net raises — the
interpreter shows every net.  The program ends in a generated whole-run loop, ``_run``,
written by the same emitter over Python locals instead of slots: it
loads the nets, register state and FIFO deques once, and per row of
input values converts the whole row (``int(v) & mask``, exactly like
``poke``), evaluates, appends one dict display of the outputs and
latches; a ``finally`` writes nets and state back.  So
:meth:`CompiledSimulator.run` pays no per-cycle ``poke`` call, dict
comprehension or slot access.  The generated source is ``exec``'d once,
one top-level definition at a time, and memoized by
:meth:`~repro.rtl.netlist.Module.structural_hash`, so structurally equal
netlists — across sessions, grid workers and optimization ablations —
share one compilation.

Semantics are defined by the interpreter: every generated expression
mirrors :func:`~repro.rtl.simulate.eval_comb_cell` (unsigned modulo
2^width, div/mod-by-zero yields 0) and the latch epilogue mirrors
``Simulator.tick``.  :func:`differential_check` is the equivalence gate
— both backends driven by identical seeded stimulus must agree
bit-for-bit on every output, every cycle.

Both backends present the same :class:`SimBackend` surface
(poke/evaluate/peek/peek_net/tick/step/run, plus run_batch for one
trace per stimulus stream), selected by name through
:data:`SIM_BACKENDS` / :func:`make_simulator` — which is how
``CompileSession(sim_backend=...)`` and the CLI's ``--sim-backend``
choose an engine without caring which one they got.

**Batched multi-lane mode.**  ``compile_netlist(module, lanes=K)``
generates a *lane-parallel* step function: every net slot holds one
Python integer packing K lane values at a fixed bit stride, and each
combinational cell becomes one or two big-integer operations that
advance all K lanes at once (SWAR — SIMD within a register, except the
register is a CPython bignum and its arithmetic runs in C).  Adds carry
into a per-lane guard bit, subtracts borrow against an injected guard,
compares reduce through the lane's top bit, and muxes blend through a
spread select mask, and a ``mul`` by a constant is one bignum multiply
when no lane's product can reach the next field.  Only the other
``mul`` cells, ``div``/``mod`` (true cross-products) and out-of-stride
shifts fall back to a per-lane loop.  It reads lane values of up to 64
bits through one 64-bit word view of the packed integer (one
``to_bytes``, then a strided ``memoryview`` cast) and writes them with
one extended-slice store into a zeroed word array; only wider values
take one byte slice per lane.  Register state latches as a single
reference copy per cell — K lanes for the cost of one — which is why
register-heavy netlists batch best.  :class:`BatchedCompiledSimulator`
owns the packed state; it is the ``batched`` backend (the scalar
backends' ``run_batch`` runs lanes one after another).

**Three codegen targets, one compile path.**  This module owns two of
them — the scalar generator (``_generate_source``: one straight-line
assignment per cell, masked only where the value can leave its width,
with single-reader expressions fused into their consumer, and the
whole-run loop over locals) and the SWAR batched generator
(``_generate_batched_source`` below) — and :mod:`repro.rtl.vectorize`
adds the third: word-packed lane *columns* (numpy ``uint64`` arrays)
where one vectorized operation advances thousands of lanes at fixed
per-op overhead.  SWAR cost grows with the packed bignum's limb count
and saturates between 16 and 64 lanes; the vector target keeps scaling
past that, which is why mega-lane sweeps belong there.  The generators
differ in their value encodings, so each keeps its own per-kind
expression templates (a shared emitter would branch on the encoding at
every kind).  What a result needs is shared: all three read where it
can leave its width from :data:`_COMB_RULES`, and the two lane
generators share the sequential layout and the per-lane fallback
(:data:`_LANE_RULES`).  Everything around the generators is shared
too: one compile path (``_compile_program``: memo, codegen store,
generation, ``exec``) keyed ``(structural_hash, lanes, backend)``, one
:class:`CompiledNetlist` record, one payload shape, and one port
surface for the two lane engines (``_LaneSimulator``).  All three emit
bit-identical traces — the same :func:`differential_check` gates each
one against the interpreter.

Each backend name is one engine: ``interp`` the interpreter,
``compiled`` the scalar program (K lanes run one after another),
``batched`` SWAR and ``vector`` numpy columns.  :func:`auto_backend` is
the one place that picks, by a static rule checked against
measurements on the catalog: ``compiled`` at one lane, ``vector`` from
:data:`AUTO_VECTOR_LANES` lanes up when numpy is installed, and below
that ``batched`` where the calibrated :func:`swar_profitable` predicate
predicts a win over sequential scalar lanes, ``compiled`` where it
does not.

**Persistent codegen.**  Generating the step source levelizes the
netlist and builds a netlist-sized string — for large modules that is
the dominant cost of a cold simulator.  The compile path therefore
accepts a ``store`` (the session's ``"codegen"``
``repro.driver.cache.PseudoStore``): the generated source and slot
layout are persisted keyed by ``(structural_hash, backend, lanes,
CODEGEN_VERSION)`` — the backend tag (``"scalar"``, ``"swar"``,
``"vector"``) keeps the three generators' entries from shadowing each
other — so a warm process skips levelization and code generation
entirely and only pays ``compile()`` + ``exec()``.
"""

from __future__ import annotations

import copy
import sys
import threading
import time
from array import array
from collections import deque
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from typing import Protocol, runtime_checkable

from .netlist import Cell, Module, NetlistError, comb_topo_order, flatten
from .simulate import Simulator, lane_major, random_stimulus_batch, run_lanes

#: Version of the *generated code's* shape.  Part of every persisted
#: codegen entry's key: bump it whenever a generator changes what it
#: emits (or the payload dict changes shape), so stale persisted
#: sources become cache misses instead of resurrecting old step
#: semantics.  v2: payloads carry a ``backend`` tag
#: (scalar/swar/vector-*) now that three generators share the store.
#: v3: profile-guided scalar programs (``pgo-<plan digest>`` tags) with
#: ``extra_slots``/``inlined_nets`` payload fields.  v4: the scalar
#: generator fuses single-reader expressions at every level (its
#: payloads list them in ``inlined_nets``); ``pgo-*`` programs and
#: ``extra_slots`` are gone.  v5: every scalar program ends in a
#: generated whole-run loop, ``_run``, with the port order it expects in
#: ``_RUN_PORTS``.  v6: SWAR lane loops convert values of up to 64 bits
#: through a 64-bit word view, and a ``mul`` by a constant is one packed
#: multiply.  v7: scalar programs mask only values that can leave their
#: width, ``_run`` keeps nets and state in locals, and the live nets take
#: the low slots.  v8: vector programs bind masks, shift amounts and
#: flip patterns as read-only 0-d ``uint64`` arrays instead of
#: ``np.uint64`` scalars; scalar and SWAR programs are unchanged.
CODEGEN_VERSION = 8


@runtime_checkable
class SimBackend(Protocol):
    """What every simulation engine exposes.

    ``Simulator`` (the per-cycle interpreter) and ``CompiledSimulator``
    (this module) are interchangeable behind it: identical poke/peek
    name spaces and identical two-phase evaluate/tick semantics.  The
    lane engines take per-lane forms of the same calls (see
    ``_LaneSimulator``); ``run_batch``, one trace per stimulus stream,
    has one shape on all of them.
    """

    module: Module
    cycle: int

    def poke(self, inputs: Dict[str, int]) -> None: ...

    def evaluate(self) -> None: ...

    def peek(self, name: str) -> int: ...

    def peek_net(self, net_name: str) -> int: ...

    def tick(self) -> None: ...

    def step(self, inputs: Optional[Dict[str, int]] = None) -> Dict[str, int]: ...

    def run(self, input_stream: List[Dict[str, int]]) -> List[Dict[str, int]]: ...

    def run_batch(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]: ...


def _mask_literal(width: int) -> int:
    return (1 << width) - 1


def _flattened(module: Module) -> Module:
    """The validated flat module a simulator runs (shared preamble)."""
    if any(c.kind == "submodule" for c in module.cells.values()):
        module = flatten(module)
    module.validate()
    return module


def _lane_unit(lanes: int, stride: int) -> int:
    """1 at every lane field's base bit; multiplying a (< 2^stride)
    scalar by it replicates the scalar into every lane."""
    return ((1 << (lanes * stride)) - 1) // ((1 << stride) - 1)


class CompiledNetlist:
    """One netlist's compiled step code plus its slot layout.

    The record of all three generators (scalar, SWAR and vector), shared
    via the memo table by every engine over a structurally equal module;
    holds no per-run state.
    """

    __slots__ = (
        "structural_hash",
        "slot_of",
        "n_slots",
        "reg_cells",
        "reg_inits",
        "fifo_cells",
        "fifo_depths",
        "evaluate",
        "latch",
        "source",
        "compile_seconds",
        "lanes",
        "stride",
        "from_store",
        "inlined_nets",
        "run",
        "run_ports",
    )

    def __init__(
        self,
        structural_hash: str,
        slot_of: Dict[str, int],
        reg_cells: List[str],
        reg_inits: List[int],
        fifo_cells: List[str],
        fifo_depths: List[int],
        evaluate,
        latch,
        source: str,
        compile_seconds: float,
        lanes: Optional[int] = None,
        stride: int = 0,
        from_store: bool = False,
        inlined_nets: Tuple[str, ...] = (),
        run=None,
        run_ports: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None,
    ):
        self.structural_hash = structural_hash
        self.slot_of = slot_of
        self.n_slots = len(slot_of)
        self.reg_cells = reg_cells
        self.reg_inits = reg_inits
        self.fifo_cells = fifo_cells
        self.fifo_depths = fifo_depths
        self.evaluate = evaluate
        self.latch = latch
        self.source = source
        self.compile_seconds = compile_seconds
        #: lane count the step code was generated for (None = scalar).
        self.lanes = lanes
        #: bit stride between lane fields in packed mode (0 = scalar or
        #: vector).
        self.stride = stride
        #: True when the source came from a persistent codegen store
        #: rather than being generated in this process.
        self.from_store = from_store
        #: Net names the scalar generator fused into their sole consumer
        #: — their slots are never written (``peek_net`` on one is an
        #: error); empty for the lane-parallel programs.
        self.inlined_nets = tuple(inlined_nets)
        #: The scalar program's whole-run loop (None for the
        #: lane-parallel programs) and the (input, output) port names it
        #: reads rows in and builds records from, in that order.
        self.run = run
        self.run_ports = run_ports

    def __repr__(self):
        return (
            f"CompiledNetlist({self.structural_hash}, {self.n_slots} slots, "
            f"{len(self.reg_cells)} regs, {len(self.fifo_cells)} fifos, "
            f"lanes={self.lanes})"
        )


#: Per combinational kind (``const`` is folded instead): the scalar
#: program's unmasked result over its operand atoms, and how many bits
#: that result can need when every operand is clean (below ``2^width``),
#: given the operand widths ``a`` and ``b`` and the shift amount or slice
#: lsb ``k``; None where it can go negative.  Every net holds a clean
#: value, so a result is masked only where it can need more bits than its
#: output has (:func:`_needs_mask`); the lane generators read the same
#: widths for their own forms.
_COMB_RULES = {
    "add": ("{a} + {b}", lambda a, b, k: max(a, b) + 1),
    "sub": ("{a} - {b}", None),
    "mul": ("{a} * {b}", lambda a, b, k: a + b),
    "and": ("{a} & {b}", lambda a, b, k: min(a, b)),
    "or": ("{a} | {b}", lambda a, b, k: max(a, b)),
    "xor": ("{a} ^ {b}", lambda a, b, k: max(a, b)),
    "div": ("{a} // {b} if {b} else 0", lambda a, b, k: a),
    "mod": ("{a} % {b} if {b} else 0", lambda a, b, k: min(a, b)),
    "eq": ("1 if {a} == {b} else 0", lambda a, b, k: 1),
    "lt": ("1 if {a} < {b} else 0", lambda a, b, k: 1),
    "not": ("~{a}", None),
    "shl": ("{a} << {k}", lambda a, b, k: a + k),
    "shr": ("{a} >> {k}", lambda a, b, k: a - k),
    "slice": ("{a} >> {k}", lambda a, b, k: a - k),
    "mux": ("{a} if {sel} else {b}", lambda a, b, k: max(a, b)),
    "concat": ("({a} << {b_width}) | {b}", lambda a, b, k: a + b),
}


def _comb_expression_atoms(cell: Cell, atom) -> str:
    """One combinational cell's RHS over caller-supplied input atoms.

    ``atom(net_name)`` renders one input read — a slot access or a
    local, or a parenthesized fused sub-expression (see
    :func:`_fused_nets`).  Atoms that are not bare reads MUST
    self-parenthesize: they are substituted into every operator position
    below.  Mirrors :func:`~repro.rtl.simulate.eval_comb_cell` exactly,
    masking only where :data:`_COMB_RULES` says the result can reach
    ``2^width`` — any divergence here is caught by
    :func:`differential_check`.
    """
    pins, kind = cell.pins, cell.kind
    out_mask = _mask_literal(pins["out"].width)
    if kind == "const":
        return repr(int(cell.params["value"]) & out_mask)
    if kind not in _COMB_RULES:
        raise NetlistError(f"cannot compile cell kind {kind!r}")
    operands = {
        pin: atom(net.name) for pin, net in pins.items() if pin != "out"
    }
    if kind == "mux" and pins["sel"].width > 1:
        operands["sel"] += " & 1"
    k = _shift(cell)
    expr = (operands["a"] if kind in ("shl", "shr", "slice") and not k
            else _COMB_RULES[kind][0].format(
                k=k, b_width=_b_width(cell), **operands))
    if _needs_mask(cell):
        return f"({expr}) & {out_mask}"
    return expr


def _shift(cell: Cell) -> int:
    """A shift's amount or a slice's lsb (0 for the other kinds)."""
    return int(cell.params.get("lsb" if cell.kind == "slice" else "amount", 0))


def _b_width(cell: Cell) -> int:
    """The width of the cell's ``b`` operand (0 for a unary cell)."""
    return cell.pins["b"].width if "b" in cell.pins else 0


def _needs_mask(cell: Cell) -> bool:
    """Can ``cell``'s unmasked result reach ``2^width`` of its output
    when its operands are clean?  (:data:`_COMB_RULES`)"""
    bits = _COMB_RULES[cell.kind][1]
    out = cell.pins["out"].width
    return bits is None or bits(
        cell.pins["a"].width, _b_width(cell), _shift(cell)
    ) > out


def _lane_needs_mask(cell: Cell) -> bool:
    """:func:`_needs_mask` for the lane encodings, whose ``not`` XORs
    with a mask of ``max(wa, wo)`` bits instead of complementing: its
    result needs a mask only when ``a`` is wider than the output."""
    if cell.kind == "not":
        return cell.pins["a"].width > cell.pins["out"].width
    return _needs_mask(cell)


def _seq_meta(module: Module) -> Tuple[
    List[str], List[int], List[str], List[int]
]:
    """Sorted register/FIFO cell lists with their inits and depths."""
    reg_cells = sorted(
        name for name, c in module.cells.items() if c.kind in ("reg", "regen")
    )
    fifo_cells = sorted(
        name for name, c in module.cells.items() if c.kind == "fifo"
    )
    reg_inits = [
        int(module.cells[name].params.get("init", 0)) for name in reg_cells
    ]
    fifo_depths = [
        int(module.cells[name].params.get("depth", 2)) for name in fifo_cells
    ]
    return reg_cells, reg_inits, fifo_cells, fifo_depths


#: Cap on the operator count of one fused expression tree: unbounded
#: substitution would grow pathological source lines.
FUSE_OP_CAP = 8


def _fused_nets(module: Module, order: List[Cell]) -> frozenset:
    """The comb nets the scalar generator inlines into their consumer.

    A net fuses iff it has exactly one combinational reader pin, no
    register/FIFO/submodule reader, is not a port, never feeds a
    ``div``/``mod`` ``b`` pin (the generated guard reads ``b`` twice, so
    inlining would duplicate the whole subtree textually), and the
    fused expression tree stays within :data:`FUSE_OP_CAP` operators.
    ``order`` is the module's ``comb_topo_order``.
    """
    readers: Dict[str, int] = {}
    blocked = {net.name for net in module.ports.values()}
    for cell in order:
        for pin, net in cell.pins.items():
            if pin == "out":
                continue
            readers[net.name] = readers.get(net.name, 0) + 1
            if pin == "b" and cell.kind in ("div", "mod"):
                blocked.add(net.name)
    for cell in module.cells.values():
        if cell.kind in ("reg", "regen", "fifo", "submodule"):
            blocked.update(net.name for net in cell.pins.values())
    fused = set()
    ops: Dict[str, int] = {}
    for cell in order:  # producers before consumers
        out = cell.pins["out"].name
        ops[out] = 1 + sum(
            ops[net.name]
            for pin, net in cell.pins.items()
            if pin != "out" and net.name in fused
        )
        if (
            readers.get(out, 0) == 1
            and out not in blocked
            and ops[out] <= FUSE_OP_CAP
        ):
            fused.add(out)
    return frozenset(fused)


def _scalar_cycle(module: Module, order: List[Cell], fused: frozenset,
                  seq, net, reg, fifo) -> Tuple[List[str], List[str]]:
    """One cycle of the scalar program over caller-named state: the
    evaluate and latch bodies, as unindented source lines.

    ``net(name)``, ``reg(index)`` and ``fifo(index)`` name a net, a
    register's state and a FIFO's deque: slot reads (``s[3]``, ``r[0]``,
    ``f[0]``) for ``_evaluate``/``_latch``, locals for ``_run``.
    Evaluate drives the sequential outputs from state, then assigns the
    combinational cells producers first (interpreter order); nets in
    ``fused`` get no assignment, their expression is inlined into the
    sole consumer.  The latch reads only nets, so it updates state in
    place like ``Simulator.tick``.  ``seq`` is the module's
    :func:`_seq_meta`.

    Every net holds a clean value (below ``2^width``), so only a value
    that can leave its width is masked: a cell's result as
    :data:`_COMB_RULES` says, a register's ``q`` when its ``d`` is
    wider or its init lies outside ``[0, 2^width)``, and a FIFO's
    ``out_data`` when its ``in_data`` is wider.  A one-bit select,
    enable, valid or ready is tested bare, a wider one through ``& 1``.
    """
    reg_cells, reg_inits, fifo_cells, fifo_depths = seq
    cells = module.cells
    producer = {cell.pins["out"].name: cell for cell in order}

    def atom(name: str) -> str:
        if name in fused:
            return f"({_comb_expression_atoms(producer[name], atom)})"
        return net(name)

    def flag(pin_net) -> str:
        return net(pin_net.name) + (" & 1" if pin_net.width > 1 else "")

    ev: List[str] = []
    lt: List[str] = []
    for index, name in enumerate(reg_cells):
        pins = cells[name].pins
        q, d = pins["q"], pins["d"]
        state = reg(index)
        if d.width > q.width or not 0 <= reg_inits[index] < 1 << q.width:
            state += f" & {_mask_literal(q.width)}"
        ev.append(f"{net(q.name)} = {state}")
        if cells[name].kind == "reg":
            lt.append(f"{reg(index)} = {net(d.name)}")
        else:  # regen
            lt += [f"if {flag(pins['en'])}:",
                   f"    {reg(index)} = {net(d.name)}"]
    for index, name in enumerate(fifo_cells):
        pins = cells[name].pins
        queue = fifo(index)
        out_valid = net(pins["out_valid"].name)
        out_data = net(pins["out_data"].name)
        head = f"{queue}[0]"
        if pins["in_data"].width > pins["out_data"].width:
            head += f" & {_mask_literal(pins['out_data'].width)}"
        ev += [
            f"{net(pins['in_ready'].name)} = 1 if len({queue}) < "
            f"{fifo_depths[index]} else 0",
            f"if {queue}:",
            f"    {out_valid} = 1",
            f"    {out_data} = {head}",
            "else:",
            f"    {out_valid} = 0",
            f"    {out_data} = 0",
        ]
        lt += [
            f"if {queue} and {flag(pins['out_ready'])} and "
            f"{flag(pins['out_valid'])}:",
            f"    {queue}.popleft()",
            f"if {flag(pins['in_valid'])} and {flag(pins['in_ready'])}:",
            f"    {queue}.append({net(pins['in_data'].name)})",
        ]
    for cell in order:
        out = cell.pins["out"].name
        if out not in fused:
            ev.append(f"{net(out)} = {_comb_expression_atoms(cell, atom)}")
    return ev, lt


def _indented(lines: List[str], depth: int) -> List[str]:
    """``lines`` as a block body at ``depth``: ``pass`` when empty."""
    return [" " * depth + line for line in lines or ["pass"]]


def _locals_run_lines(module: Module, slot: Dict[str, int], live: int,
                      seq, ev: List[str], lt: List[str]) -> List[str]:
    """The whole-run loop over locals, around one cycle's evaluate and
    latch bodies (:func:`_scalar_cycle` over ``n<slot>``, ``r<i>`` and
    ``f<i>``).

    Entry loads the ``live`` low slots (the nets the program writes),
    the register states and the FIFO deques (``seq`` is the module's
    :func:`_seq_meta`) into locals, and a ``finally`` writes nets and
    state back, so ``s`` and ``r`` end as the ``step`` loop leaves them
    after any return or exception (the deques change in place).  A row
    holds every input port's value in ``_RUN_PORTS[0]`` order (a bare
    value when there is one input port, the stream's own empty dict
    when there are none); one tuple assignment converts the whole row as
    ``int(v) & mask``, like ``poke``, so a value ``int`` rejects writes
    no input.  Each cycle's record is one dict display in
    ``_RUN_PORTS[1]`` order, so it equals ``step``'s dict, key order
    included, and goes into the caller's ``trace`` list, which then
    holds exactly the cycles that ran.
    """
    inputs, outputs = module.inputs(), module.outputs()
    values = [f"v{index}" for index in range(len(inputs))]
    nets = ", ".join(f"n{index}" for index in range(live))
    states = ", ".join(f"r{index}" for index in range(len(seq[0])))
    deques = ", ".join(f"f{index}" for index in range(len(seq[2])))
    # (locals, where they load from, where they are written back)
    held = [(nets, f"s[:{live}]", f"s[:{live}]"), (states, "r", "r[:]"),
            (deques, "f", None)]
    lines = [
        f"_RUN_PORTS = ({tuple(name for name, _ in inputs)!r}, "
        f"{tuple(name for name, _ in outputs)!r})",
        "",
        "",
        "def _run(s, r, f, rows, trace):",
        "    append = trace.append",
    ]
    lines += [f"    {names}, = {load}" for names, load, _ in held if names]
    lines += ["    try:", f"        for {', '.join(values) or '_'} in rows:"]
    if inputs:
        targets = ", ".join(f"n{slot[port.name]}" for _, port in inputs)
        converted = ", ".join(
            f"int({value}) & {_mask_literal(port.width)}"
            for value, (_, port) in zip(values, inputs)
        )
        lines.append(f"            {targets} = {converted}")
    record = ", ".join(
        f"{name!r}: n{slot[port.name]}" for name, port in outputs
    )
    lines += _indented([*ev, f"append({{{record}}})", *lt], 12)
    lines.append("    finally:")
    lines += _indented([
        f"{store} = {names}," for names, _, store in held if names and store
    ], 8)
    return lines


def _generate_source(module: Module) -> Tuple[
    str, Dict[str, int], List[str], List[int], List[str], List[int],
    List[str]
]:
    """Generate the scalar program and its slot layout for a flat,
    validated module.

    The program is ``_evaluate``/``_latch`` over the slot lists (what
    ``step``, ``evaluate`` and ``tick`` call) and the whole-run loop
    ``_run`` (:func:`_locals_run_lines`), all written by one emitter,
    :func:`_scalar_cycle`.  The live nets take the low slots, sorted,
    and the nets in :func:`_fused_nets`, which no statement writes, the
    rest; so ``_run`` loads and stores one contiguous slice.  The last
    element of the result lists the fused nets, sorted.
    """
    seq = _seq_meta(module)
    order = comb_topo_order(module)
    fused = _fused_nets(module, order)
    live = sorted(name for name in module.nets if name not in fused)
    slot = {name: index for index, name in enumerate(live + sorted(fused))}

    def cycle(net, reg, fifo):
        return _scalar_cycle(module, order, fused, seq, net, reg, fifo)

    ev, lt = cycle(lambda name: f"s[{slot[name]}]", "r[{}]".format,
                   "f[{}]".format)
    run = _locals_run_lines(module, slot, len(live), seq, *cycle(
        lambda name: f"n{slot[name]}", "r{}".format, "f{}".format))
    source = "\n\n\n".join("\n".join(lines) for lines in (
        ["def _evaluate(s, r, f):", *_indented(ev, 4)],
        ["def _latch(s, r, f):", *_indented(lt, 4)],
        run,
    )) + "\n"
    return (source, slot, *seq, sorted(fused))


# -- batched (multi-lane) code generation -------------------------------


def _lane_seq_meta(module: Module) -> Tuple[
    List[str], List[int], List[str], List[int]
]:
    """:func:`_seq_meta` for the lane generators, with every register
    init masked to its ``q`` width: the scalar program masks at the
    ``q`` drive instead, but out-of-width init bits are unobservable
    either way, and clean lane values are the lane encodings'
    invariant."""
    reg_cells, reg_inits, fifo_cells, fifo_depths = _seq_meta(module)
    reg_inits = [
        init & _mask_literal(module.cells[name].pins["q"].width)
        for name, init in zip(reg_cells, reg_inits)
    ]
    return reg_cells, reg_inits, fifo_cells, fifo_depths


#: Per combinational kind, one lane's result in the lane generators'
#: per-lane loops (the SWAR ``comb_lane``, the vector ``comb_lanes``),
#: over that lane's ``sel``, ``a`` and ``b`` values ``_c``, ``_p`` and
#: ``_q``.  Mirrors :func:`~repro.rtl.simulate.eval_comb_cell`.
_LANE_RULES = {
    "add": "(_p + _q) & {mask}",
    "sub": "(_p - _q) & {mask}",
    "mul": "(_p * _q) & {mask}",
    "div": "(_p // _q if _q else 0) & {mask}",
    "mod": "(_p % _q if _q else 0) & {mask}",
    "and": "(_p & _q) & {mask}",
    "or": "(_p | _q) & {mask}",
    "xor": "(_p ^ _q) & {mask}",
    "eq": "1 if _p == _q else 0",
    "lt": "1 if _p < _q else 0",
    "concat": "((_p << {b_width}) | _q) & {mask}",
    "not": "(~_p) & {mask}",
    "shl": "(_p << {k}) & {mask}",
    "shr": "(_p >> {k}) & {mask}",
    "slice": "(_p >> {k}) & {mask}",
    "mux": "(_p if _c & 1 else _q) & {mask}",
}

#: The loop variable of each operand pin in a :data:`_LANE_RULES` loop.
_LANE_OPERANDS = (("sel", "_c"), ("a", "_p"), ("b", "_q"))


def _lane_loop(cell: Cell, lanes_of) -> str:
    """A list comprehension of ``cell``'s lane values
    (:data:`_LANE_RULES`); ``lanes_of(net)`` renders an iterable of a
    net's lane values."""
    pins = cell.pins
    if cell.kind not in _LANE_RULES:
        raise NetlistError(f"cannot compile cell kind {cell.kind!r}")
    expr = _LANE_RULES[cell.kind].format(
        mask=_mask_literal(pins["out"].width), k=_shift(cell),
        b_width=_b_width(cell),
    )
    operands = [(pin, name) for pin, name in _LANE_OPERANDS if pin in pins]
    if len(operands) == 1:
        return f"[{expr} for _p in {lanes_of(pins['a'])}]"
    names = ", ".join(name for _, name in operands)
    values = ", ".join(lanes_of(pins[pin]) for pin, _ in operands)
    return f"[{expr} for {names} in zip({values})]"


#: Comb-cell kinds the packed (SWAR) encoding can express; the rest —
#: true per-lane arithmetic (cross products, quotients) — always take
#: the per-lane loop.
_SWAR_KINDS = frozenset((
    "const", "add", "sub", "and", "or", "xor", "not",
    "eq", "lt", "mux", "shl", "shr", "slice", "concat",
))


def _swar_eligible(cell: Cell, stride: int) -> bool:
    """Can this cell be emitted as packed whole-batch operations?

    Every pin must fit a lane field (width <= stride - 2: one guard bit
    for carries, one top bit for the compare/borrow tricks) and the
    cell's shifts must stay inside one field.
    """
    if cell.kind not in _SWAR_KINDS:
        return False
    pins = cell.pins
    if max(pin.width for pin in pins.values()) > stride - 2:
        return False
    if cell.kind == "shl":
        return pins["a"].width + int(cell.params["amount"]) <= stride
    if cell.kind == "shr":
        return int(cell.params["amount"]) + pins["out"].width <= stride
    if cell.kind == "slice":
        lsb = int(cell.params["lsb"])
        if lsb == 0 and pins["a"].width <= pins["out"].width:
            return True
        return lsb + pins["out"].width <= stride
    if cell.kind == "concat":
        return pins["a"].width + pins["b"].width <= stride
    return True


def batched_stride(module: Module, lanes: int = 16) -> int:
    """Pick the lane-field bit stride for one batched compilation.

    Wider strides let more cells take the packed path (fields must hold
    the widest pin plus guard/top bits) but make *every* packed integer
    proportionally longer, taxing every operation — a handful of wide
    bus nets must not force a giant stride onto thousands of narrow
    cells.  Candidate strides (multiples of 64 up to the widest net)
    are scored with a small cost model: a packed cell costs ~1 plus a
    term linear in the packed integer's limb count, a lane-loop cell
    costs ~2 per lane.  Nets wider than the chosen stride's fields live
    as per-lane lists and their cells take the lane loop.
    """
    cells = [
        c for c in module.cells.values()
        if c.kind not in ("reg", "regen", "fifo", "submodule")
    ]
    maxw = max((net.width for net in module.nets.values()), default=1)
    limit = max(64, ((maxw + 2 + 63) // 64) * 64)
    lane_unit = 2.0 * lanes
    best, best_cost = 64, None
    for stride in range(64, limit + 1, 64):
        swar_unit = 0.75 + 0.024 * (lanes * stride / 64.0)
        cost = sum(
            swar_unit if _swar_eligible(cell, stride) else lane_unit
            for cell in cells
        )
        if best_cost is None or cost < best_cost:
            best, best_cost = stride, cost
    return best


def swar_profitable(module: Module, lanes: int) -> bool:
    """Does the SWAR batched encoding beat sequential scalar lanes?

    What :func:`auto_backend` asks below the vector engine's lane
    count, to pick ``batched`` or ``compiled``: a calibrated per-cell
    cost comparison
    between one lane-packed step and ``lanes`` scalar steps.  A packed
    cell costs a small constant plus a term linear in the packed
    integer's word count; an ineligible cell pays the per-lane loop
    *and* the unpack/pack conversions, which is what sank designs like
    ``blas`` where the ineligible (``mul``) cells sit on wide nets —
    measured at 0.51x vs scalar at 16 lanes even though a naive
    eligible-fraction argument predicts a win.  Coefficients were fit
    against ``BENCH_sim.json`` while every lane-loop operand went
    through byte slices, and then reproduced the measured faster/slower
    sign on every catalog design at 16 and 64 lanes.  The word view and
    packed constant multiplies made the loops cheaper, and the
    lane-loop term now overprices them: on ``blas`` at ``-O2`` and 64
    lanes SWAR measured 118k lane-cycles/s against 86k for sequential
    scalar lanes (64 cycles, median of 7, 2-vCPU Intel Xeon VM, Python
    3.11), yet this predicate still says no.  That scalar figure
    predates the clean-value masks and the locals run loop, which
    raised the scalar rate 1.1–2.2x per catalog design on ``sim-sweep``,
    so both sides of the comparison need measuring again.  The
    coefficients stay until the engine choice is refit as a whole.
    """
    lanes = int(lanes)
    if lanes <= 1:
        return False
    module = _flattened(module)
    cells = [
        c for c in module.cells.values()
        if c.kind not in ("reg", "regen", "fifo", "submodule")
    ]
    if not cells:
        return True  # register/FIFO-only: latch sharing always wins
    stride = batched_stride(module, lanes)
    words = lanes * stride / 64.0
    swar_cost = 0.0
    for cell in cells:
        if _swar_eligible(cell, stride):
            swar_cost += 0.75 + 0.024 * words
        else:
            swar_cost += lanes * (4.0 + 0.8 * stride / 64.0)
    return swar_cost < lanes * len(cells)


def _lane_words(lanes: int, stride: int, byteorder: str) -> slice:
    """Where each lane field's low word sits in the ``"Q"`` view of a
    packed value's ``to_bytes(..., byteorder)``, lane 0 first.

    The view reads words in the host's native order, so the bytes are
    taken in that order too: little-endian, lane ``k``'s word is word
    ``k * stride // 64``; big-endian, the words run most significant
    first, and the slice walks them from the end.
    """
    step = stride // 64
    if byteorder == "little":
        return slice(0, None, step)
    return slice(lanes * step - 1, None, -step)


def _lane_helper_lines(lanes: int, stride: int, kinds) -> List[str]:
    """The generated lane loops' pack/unpack helpers, as source lines.

    ``kinds`` names the pairs to emit.  ``"words"``: ``_unpack`` and
    ``_pack`` for lane values of up to 64 bits — one ``to_bytes`` in the
    host's byte order, a native ``"Q"`` view that reads every lane's
    word at once (:func:`_lane_words`), and for packing one
    extended-slice store into a zeroed word array.  ``"bytes"``:
    ``_unpack_bytes`` and ``_pack_bytes`` for values that span more than
    one word, one ``stride // 8``-byte slice per lane.  Lane values are
    clean, so neither unpack masks.
    """
    nb, sb = lanes * stride // 8, stride // 8
    head = [f"_NB = {nb}"]
    defs: List[str] = []
    if "words" in kinds:
        little = _lane_words(lanes, stride, "little")
        big = _lane_words(lanes, stride, "big")
        head = [
            "from array import array",
            "from sys import byteorder as _ORDER",
            "",
            *head,
            f'_LW = {little!r} if _ORDER == "little" else {big!r}',
            '_ZW = array("Q", bytes(_NB))',
        ]
        defs += [
            "",
            "",
            "def _unpack(v, _NB=_NB, _ORDER=_ORDER, _LW=_LW):",
            '    return memoryview(v.to_bytes(_NB, _ORDER)).cast("Q")[_LW]'
            ".tolist()",
            "",
            "",
            "def _pack(vals, _ZW=_ZW, _LW=_LW, _ORDER=_ORDER):",
            "    _w = _ZW[:]",
            '    _w[_LW] = array("Q", vals)',
            "    return int.from_bytes(_w, _ORDER)",
        ]
    if "bytes" in kinds:
        head += [f"_SB = {sb}", f"_OFFS = tuple(range(0, {nb}, {sb}))"]
        defs += [
            "",
            "",
            "def _unpack_bytes(v, _NB=_NB, _SB=_SB, _OFFS=_OFFS):",
            '    _b = v.to_bytes(_NB, "little")',
            '    return [int.from_bytes(_b[_i:_i + _SB], "little")'
            " for _i in _OFFS]",
            "",
            "",
            "def _pack_bytes(vals, _SB=_SB):",
            '    return int.from_bytes(b"".join(_v.to_bytes(_SB, "little")'
            ' for _v in vals), "little")',
        ]
    return head + defs


class _LaneConsts:
    """Packed-constant pool for one batched compilation.

    Every lane-replicated constant (masks, guards, the all-lanes ``1``)
    is emitted once as a module-level hex literal in the generated
    source and handed to the step functions as a keyword default, so
    inside the hot loop it is a ``LOAD_FAST`` instead of a dict lookup.
    """

    def __init__(self, lanes: int, stride: int):
        self.lanes = lanes
        self.stride = stride
        self.unit = _lane_unit(lanes, stride)
        self._names: Dict[int, str] = {}
        self.defs: List[Tuple[str, int]] = []

    def rep(self, scalar: int, hint: str, uses: set) -> str:
        """The name bound to ``scalar`` replicated into every lane."""
        packed = scalar * self.unit
        name = self._names.get(packed)
        if name is None:
            name = f"_{hint}"
            if any(name == existing for existing, _ in self.defs):
                name = f"_{hint}x{len(self.defs)}"
            self._names[packed] = name
            self.defs.append((name, packed))
        uses.add(name)
        return name

    def mask(self, width: int, uses: set) -> str:
        return self.rep((1 << width) - 1, f"M{width}", uses)


def _generate_batched_source(
    module: Module, slot: Dict[str, int], lanes: int
) -> Tuple[str, List[str], List[int], List[str], List[int], int]:
    """Generate the lane-parallel evaluate/latch pair.

    Two representations coexist, chosen per net by width:

    * **packed** (width <= stride - 2): lane ``k`` occupies bits
      ``[k*stride, k*stride + width)`` of one integer, and cells whose
      pins are all packed advance every lane in a couple of bignum ops;
    * **per-lane list** (wider): the slot holds K separate ints, and
      any cell touching one runs a per-lane loop.

    The per-lane loop (``mul``/``div``/``mod``, out-of-field shifts,
    anything touching a per-lane list) converts packed operands through
    :func:`_lane_helper_lines`: values of up to 64 bits through one
    64-bit word view of the packed integer, wider ones through byte
    slices.  A ``mul`` by a ``const`` cell's value ``c`` skips the loop
    when its other operand and output are packed and ``width + c's bit
    length <= stride``: no lane's product then reaches the next field,
    so one bignum multiply advances every lane.

    The invariant every emitted statement preserves is that lane values
    are *clean* — strictly below ``2^width`` — which is what lets
    packed neighbours share one integer without masking on read.
    """
    stride = batched_stride(module, lanes)
    consts = _LaneConsts(lanes, stride)
    top_bit = stride - 1
    uses_ev: set = set()
    uses_lt: set = set()
    helpers: set = set()  # the _lane_helper_lines kinds the loops call
    order = comb_topo_order(module)
    producer = {cell.pins["out"].name: cell for cell in order}

    def wide(net) -> bool:
        return net.width > stride - 2

    def codec(net) -> str:
        """Suffix of the helper pair that converts packed ``net``."""
        if net.width <= 64:
            helpers.add("words")
            return ""
        helpers.add("bytes")
        return "_bytes"

    def one(uses):
        return consts.rep(1, "ONE", uses)

    def top(uses):
        return consts.rep(1 << top_bit, "TOP", uses)

    def full(uses):
        return consts.rep((1 << top_bit) - 1, "FULL", uses)

    def rd_lanes(net) -> str:
        """Expression yielding the net's per-lane value list."""
        if wide(net):
            return f"s[{slot[net.name]}]"
        return f"_unpack{codec(net)}(s[{slot[net.name]}])"

    def comb_swar(cell: Cell) -> List[str]:
        pins = cell.pins
        kind = cell.kind
        out = pins["out"]
        so = slot[out.name]
        wo = out.width

        def sl(pin: str) -> str:
            return f"s[{slot[pins[pin].name]}]"

        def w(pin: str) -> int:
            return pins[pin].width

        if kind == "const":
            value = int(cell.params["value"]) & ((1 << wo) - 1)
            return [f"    s[{so}] = {consts.rep(value, f'V{so}', uses_ev)}"]
        if kind == "sub":
            guard = max(w("a"), w("b"), wo)
            hname = consts.rep(1 << guard, f"H{guard}", uses_ev)
            return [
                f"    s[{so}] = (({sl('a')} | {hname}) - {sl('b')})"
                f" & {consts.mask(wo, uses_ev)}"
            ]
        if kind == "eq":
            # Zero-detect per field: (t | TOP) - 1 clears the top bit
            # exactly when the field was zero (the borrow never crosses
            # fields — each holds at least TOP before the subtract).
            o, t = one(uses_ev), top(uses_ev)
            return [
                f"    _t = {sl('a')} ^ {sl('b')}",
                f"    s[{so}] = ((((_t | {t}) - {o}) >> {top_bit})"
                f" & {o}) ^ {o}",
            ]
        if kind == "lt":
            # a + TOP - b keeps the top bit iff a >= b (values occupy
            # at most stride-2 bits, so neither the sum nor the borrow
            # crosses a field boundary).
            o, t = one(uses_ev), top(uses_ev)
            return [
                f"    _t = ({sl('a')} | {t}) - {sl('b')}",
                f"    s[{so}] = ((_t >> {top_bit}) & {o}) ^ {o}",
            ]
        if kind == "mux":
            # Spread each lane's select bit into a full out-width mask:
            # (e << wo) - e is 2^wo - 1 where e is 1, 0 where it is 0.
            o = one(uses_ev)
            m = consts.mask(wo, uses_ev)
            return [
                f"    _e = {sl('sel')} & {o}",
                f"    _m = (_e << {wo}) - _e",
                f"    s[{so}] = ({sl('a')} & _m) | ({sl('b')} & (_m ^ {m}))",
            ]
        k = _shift(cell)
        if kind == "slice" and not k and w("a") <= wo:
            return [f"    s[{so}] = {sl('a')}"]
        # One packed operation, masked where _COMB_RULES says the result
        # can leave its width; shr and slice always mask, because the
        # next lane's low bits shift into the field.
        masked = kind in ("shr", "slice") or _lane_needs_mask(cell)
        if kind in ("and", "or", "xor", "not"):
            b = (consts.mask(max(w("a"), wo), uses_ev) if kind == "not"
                 else sl("b"))
            op = {"and": "&", "or": "|"}.get(kind, "^")
            expr = f"{sl('a')} {op} {b}"
            if masked:
                expr = f"({expr}) & {consts.mask(wo, uses_ev)}"
            return [f"    s[{so}] = {expr}"]
        if kind == "add":
            expr = f"({sl('a')} + {sl('b')})"
        elif kind == "concat":
            expr = f"(({sl('a')} << {w('b')}) | {sl('b')})"
        else:  # shl, shr, slice
            expr = f"({sl('a')} {'<<' if kind == 'shl' else '>>'} {k})"
        if masked:
            expr += f" & {consts.mask(wo, uses_ev)}"
        return [f"    s[{so}] = {expr}"]

    def packed_mul(cell: Cell) -> Optional[List[str]]:
        """``x * c`` as one packed multiply, or None for the lane loop.

        ``c`` is the value of the ``const`` cell driving one operand;
        ``x``, the other operand, and the output must be packed, and
        ``width(x) + c.bit_length() <= stride`` keeps every lane's
        product inside its own field.
        """
        pins = cell.pins
        out = pins["out"]
        if wide(out):
            return None
        for const_pin, x_pin in (("b", "a"), ("a", "b")):
            driver = producer.get(pins[const_pin].name)
            x = pins[x_pin]
            if driver is None or driver.kind != "const" or wide(x):
                continue
            c = int(driver.params["value"]) & _mask_literal(
                pins[const_pin].width
            )
            if x.width + c.bit_length() > stride:
                continue
            expr = f"s[{slot[x.name]}] * {c}"
            if (_mask_literal(x.width) * c).bit_length() > out.width:
                expr = f"({expr}) & {consts.mask(out.width, uses_ev)}"
            return [f"    s[{slot[out.name]}] = {expr}"]
        return None

    def comb_lane(cell: Cell) -> List[str]:
        """Per-lane loop mirroring :func:`eval_comb_cell` exactly."""
        pins = cell.pins
        out = pins["out"]
        so = slot[out.name]
        if cell.kind == "const":
            value = int(cell.params["value"]) & _mask_literal(out.width)
            if wide(out):
                return [f"    s[{so}] = [{value}] * _LANES"]
            return [
                f"    s[{so}] = {consts.rep(value, f'V{so}', uses_ev)}"
            ]
        a = pins["a"]
        if cell.kind == "slice" and not _shift(cell) \
                and a.width <= out.width and wide(a) == wide(out):
            return [f"    s[{so}] = s[{slot[a.name]}]"]
        listcomp = _lane_loop(cell, rd_lanes)
        if wide(out):
            return [f"    s[{so}] = {listcomp}"]
        return [f"    s[{so}] = _pack{codec(out)}({listcomp})"]

    reg_cells, reg_inits, fifo_cells, fifo_depths = _lane_seq_meta(module)

    ev: List[str] = []
    for i, name in enumerate(reg_cells):
        cell = module.cells[name]
        q, d = cell.pins["q"], cell.pins["d"]
        qmask = (1 << q.width) - 1
        if wide(d) or wide(q):  # storage is a per-lane list
            if not wide(q):
                ev.append(
                    f"    s[{slot[q.name]}] = "
                    f"_pack{codec(q)}([_v & {qmask} for _v in r[{i}]])"
                )
            elif d.width > q.width:
                ev.append(
                    f"    s[{slot[q.name]}] = "
                    f"[_v & {qmask} for _v in r[{i}]]"
                )
            else:
                ev.append(f"    s[{slot[q.name]}] = r[{i}]")
        elif d.width <= q.width:
            # Latched values are clean at d's width already: the whole
            # K-lane drive is one reference copy.
            ev.append(f"    s[{slot[q.name]}] = r[{i}]")
        else:
            ev.append(
                f"    s[{slot[q.name]}] = r[{i}]"
                f" & {consts.mask(q.width, uses_ev)}"
            )
    for index, name in enumerate(fifo_cells):
        pins = module.cells[name].pins
        od = pins["out_data"]
        od_mask = (1 << od.width) - 1
        ev.append("    _ir = 0")
        ev.append("    _ov = 0")
        ev.append("    _od = []" if wide(od) else "    _od = 0")
        ev.append(f"    for _sh, _fq in zip(_SHIFTS, f[{index}]):")
        ev.append(f"        if len(_fq) < {fifo_depths[index]}:")
        ev.append("            _ir |= 1 << _sh")
        if wide(od):
            ev.append("        if _fq:")
            ev.append("            _ov |= 1 << _sh")
            ev.append(f"            _od.append(_fq[0] & {od_mask})")
            ev.append("        else:")
            ev.append("            _od.append(0)")
        else:
            ev.append("        if _fq:")
            ev.append("            _ov |= 1 << _sh")
            ev.append(f"            _od |= (_fq[0] & {od_mask}) << _sh")
        ev.append(f"    s[{slot[pins['in_ready'].name]}] = _ir")
        ev.append(f"    s[{slot[pins['out_valid'].name]}] = _ov")
        ev.append(f"    s[{slot[od.name]}] = _od")
    for cell in order:
        if _swar_eligible(cell, stride):
            ev.extend(comb_swar(cell))
            continue
        packed = packed_mul(cell) if cell.kind == "mul" else None
        ev.extend(packed if packed is not None else comb_lane(cell))
    if not ev:
        ev.append("    pass")

    lt: List[str] = []
    for i, name in enumerate(reg_cells):
        cell = module.cells[name]
        d = cell.pins["d"]
        q = cell.pins["q"]
        if wide(d) or wide(q):
            source_expr = rd_lanes(d)
            if cell.kind == "reg":
                lt.append(f"    r[{i}] = {source_expr}")
            else:  # regen, per-lane blend off the enable's lane values
                lt.append(
                    f"    r[{i}] = [(_dv if _ev & 1 else _rv)"
                    f" for _ev, _dv, _rv in"
                    f" zip({rd_lanes(cell.pins['en'])}, {source_expr},"
                    f" r[{i}])]"
                )
        elif cell.kind == "reg":
            lt.append(f"    r[{i}] = s[{slot[d.name]}]")
        else:  # regen: blend every lane through its spread enable bit
            en = slot[cell.pins["en"].name]
            o = one(uses_lt)
            fl = full(uses_lt)
            lt.append(f"    _e = s[{en}] & {o}")
            lt.append(f"    _m = (_e << {top_bit}) - _e")
            lt.append(
                f"    r[{i}] = (s[{slot[d.name]}] & _m)"
                f" | (r[{i}] & (_m ^ {fl}))"
            )
    for index, name in enumerate(fifo_cells):
        pins = module.cells[name].pins
        in_data = pins["in_data"]
        id_mask = (1 << in_data.width) - 1
        lt.append(f"    _ot = s[{slot[pins['out_ready'].name]}]")
        lt.append(f"    _ov = s[{slot[pins['out_valid'].name]}]")
        lt.append(f"    _iv = s[{slot[pins['in_valid'].name]}]")
        lt.append(f"    _ir = s[{slot[pins['in_ready'].name]}]")
        if wide(in_data):
            lt.append(
                f"    for _sh, _fq, _dv in"
                f" zip(_SHIFTS, f[{index}],"
                f" s[{slot[in_data.name]}]):"
            )
            lt.append("        if _fq and (_ot >> _sh) & (_ov >> _sh) & 1:")
            lt.append("            _fq.popleft()")
            lt.append("        if (_iv >> _sh) & (_ir >> _sh) & 1:")
            lt.append("            _fq.append(_dv)")
        else:
            lt.append(f"    _id = s[{slot[in_data.name]}]")
            lt.append(
                f"    for _sh, _fq in zip(_SHIFTS, f[{index}]):"
            )
            lt.append("        if _fq and (_ot >> _sh) & (_ov >> _sh) & 1:")
            lt.append("            _fq.popleft()")
            lt.append("        if (_iv >> _sh) & (_ir >> _sh) & 1:")
            lt.append(f"            _fq.append((_id >> _sh) & {id_mask})")
    if not lt:
        lt.append("    pass")

    # -- assemble: helpers, constants, then the two defs ---------------
    prelude = _lane_helper_lines(lanes, stride, helpers) if helpers else []
    if prelude:
        prelude += ["", ""]
    prelude += [
        f"_LANES = {lanes}",
        f"_STRIDE = {stride}",
        f"_SHIFTS = tuple(range(0, {lanes * stride}, {stride}))",
    ]
    for name, value in consts.defs:
        prelude.append(f"{name} = {hex(value)}")
    helper_names: List[str] = []
    if "words" in helpers:
        helper_names += ["_unpack", "_pack"]
    if "bytes" in helpers:
        helper_names += ["_unpack_bytes", "_pack_bytes"]

    def signature(uses: set) -> str:
        extras = sorted(uses) + helper_names
        defaults = "".join(f", {n}={n}" for n in extras)
        return f"(s, r, f{defaults}):"

    source = "\n".join(
        prelude
        + ["", "", f"def _evaluate{signature(uses_ev)}"]
        + ev
        + ["", "", f"def _latch{signature(uses_lt)}"]
        + lt
    ) + "\n"
    return source, reg_cells, reg_inits, fifo_cells, fifo_depths, stride


#: (structural hash, lanes, backend tag) → CompiledNetlist, shared
#: process-wide by the three generators.  Keyed on the full structural
#: identity plus the lane count and the encoding, so a pass pipeline that
#: rewrites a module (new hash), a different batch width or another
#: engine can never be served stale step code.
_MEMO: Dict[Tuple[str, Optional[int], str], CompiledNetlist] = {}
_MEMO_LOCK = threading.Lock()

#: Required keys of a persisted codegen payload.
_PAYLOAD_FIELDS = frozenset(
    (
        "structural_hash",
        "backend",
        "lanes",
        "stride",
        "source",
        "slot_of",
        "reg_cells",
        "reg_inits",
        "fifo_cells",
        "fifo_depths",
    )
)


def valid_codegen_payload(
    payload, structural_hash: str, backend: str, lanes
) -> bool:
    """Is ``payload`` a well-formed codegen entry for this exact key?

    The single validation authority for persisted codegen (all three
    generators route through it): the store applies it on load, so its
    hit/miss counters reflect *usable* entries.
    """
    return (
        isinstance(payload, dict)
        and _PAYLOAD_FIELDS <= set(payload)
        and payload["structural_hash"] == structural_hash
        and payload["lanes"] == lanes
        and payload["backend"] == backend
    )


def _codegen_payload(key: str, backend: str, lanes: Optional[int],
                     source: str, slot: Dict[str, int], seq,
                     stride: int = 0, **extra) -> Dict:
    """One generated program as a codegen payload: every field in
    :data:`_PAYLOAD_FIELDS` (``seq`` is the program's
    :func:`_seq_meta`), plus the generator's ``extra`` fields."""
    reg_cells, reg_inits, fifo_cells, fifo_depths = seq
    return {
        "structural_hash": key,
        "backend": backend,
        "lanes": lanes,
        "stride": stride,
        "source": source,
        "slot_of": slot,
        "reg_cells": reg_cells,
        "reg_inits": reg_inits,
        "fifo_cells": fifo_cells,
        "fifo_depths": fifo_depths,
        **extra,
    }


def _sorted_slots(module: Module) -> Dict[str, int]:
    """The lane generators' slot layout: every net, sorted by name."""
    return {name: index for index, name in enumerate(sorted(module.nets))}


def _codegen_backend_tag(lanes: Optional[int]) -> str:
    """This module's generators, as codegen-store backend tags."""
    return "scalar" if lanes is None else "swar"


def _generate_payload(module: Module, key: str, lanes: Optional[int]) -> Dict:
    """The scalar program (``lanes`` None) or the SWAR one, as a payload."""
    backend = _codegen_backend_tag(lanes)
    if lanes is None:
        source, slot, *seq, inlined = _generate_source(module)
        return _codegen_payload(key, backend, lanes, source, slot, seq,
                                inlined_nets=inlined)
    slot = _sorted_slots(module)
    source, *seq, stride = _generate_batched_source(module, slot, lanes)
    return _codegen_payload(key, backend, lanes, source, slot, seq, stride,
                            inlined_nets=[])


def _materialize(
    payload: Dict, module_name: str, start: float, from_store: bool
) -> CompiledNetlist:
    namespace: Dict[str, object] = {}
    filename = (f"<{payload['backend']}:{module_name}"
                f":{payload['structural_hash']}:x{payload['lanes']}>")
    # The generators separate top-level definitions by two blank lines.
    # Compiling them one at a time into one namespace bounds compile()'s
    # transient memory by the largest definition, not the whole module.
    for definition in payload["source"].split("\n\n\n"):
        exec(compile(definition, filename, "exec"), namespace)
    return CompiledNetlist(
        payload["structural_hash"],
        payload["slot_of"],
        payload["reg_cells"],
        payload["reg_inits"],
        payload["fifo_cells"],
        payload["fifo_depths"],
        namespace["_evaluate"],
        namespace["_latch"],
        payload["source"],
        time.perf_counter() - start,
        lanes=payload["lanes"],
        stride=payload["stride"],
        from_store=from_store,
        inlined_nets=tuple(payload.get("inlined_nets", ())),
        run=namespace.get("_run"),
        run_ports=namespace.get("_RUN_PORTS"),
    )


def _compile_program(module: Module, lanes: Optional[int], backend: str,
                     generate, store) -> CompiledNetlist:
    """The compile path of all three generators.

    Serves the memo; else loads the payload from ``store``, or
    generates it with ``generate(module, structural_hash, lanes)`` and
    writes it back; then ``exec``'s it and memoizes the program.
    """
    structural = module.structural_hash()
    key = (structural, lanes, backend)
    with _MEMO_LOCK:
        cached = _MEMO.get(key)
    if cached is not None:
        return cached
    start = time.perf_counter()
    payload = None
    if store is not None:
        payload = store.load(structural, backend, lanes)
    loaded = payload is not None
    if payload is None:
        payload = generate(module, structural, lanes)
    compiled = _materialize(payload, module.name, start, loaded)
    if store is not None and not loaded:
        store.save(payload, structural, backend, lanes)
    with _MEMO_LOCK:
        # A racing thread may have published first; either object is
        # valid (pure function of the structural key), keep the winner.
        return _MEMO.setdefault(key, compiled)


def compile_netlist(
    module: Module, lanes: Optional[int] = None, store=None
) -> CompiledNetlist:
    """Compile a flat module to specialized step code (memoized).

    The module must already be flat and valid — the simulator classes
    take care of flattening; direct callers flatten themselves.
    ``lanes=None`` (the default) selects the scalar generator; any
    integer ``lanes >= 1`` selects the packed multi-lane generator for
    exactly that many lanes (a one-lane packed program is distinct from
    the scalar one — it still uses the packed encoding).  ``store``
    lets a warm process reuse previously generated source instead of
    levelizing and generating again.  Its contract (the session's
    ``"codegen"`` ``repro.driver.cache.PseudoStore`` keeps it):
    ``load(structural_hash, backend, lanes)`` returns a payload that
    passes :func:`valid_codegen_payload` for exactly that key, or None;
    ``save(payload, structural_hash, backend, lanes)`` writes one back.
    """
    if lanes is not None:
        lanes = int(lanes)
        if lanes < 1:
            raise NetlistError(f"lanes must be >= 1, got {lanes}")
    return _compile_program(
        module, lanes, _codegen_backend_tag(lanes), _generate_payload, store
    )


def clear_compile_memo() -> None:
    """Drop every memoized compilation, of all three generators (mainly
    for tests)."""
    with _MEMO_LOCK:
        _MEMO.clear()


class CompiledSimulator:
    """Drop-in :class:`SimBackend` running code-generated step functions.

    Bit-identical to :class:`~repro.rtl.simulate.Simulator` by
    construction (see :func:`differential_check`); several times faster
    because the per-cycle work is straight-line code instead of per-cell
    dispatch over ``Net``-keyed dicts: list indexing in ``step``, and
    in :meth:`run` the program's whole-run loop over Python locals.
    """

    def __init__(self, module: Module, codegen_store=None):
        self.module = _flattened(module)
        self.program = compile_netlist(self.module, store=codegen_store)
        self._inlined = frozenset(self.program.inlined_nets)
        self._evaluate = self.program.evaluate
        self._latch = self.program.latch
        slot_of = self.program.slot_of
        self._input_slots = {
            name: (slot_of[net.name], _mask_literal(net.width))
            for name, net in self.module.inputs()
        }
        self._output_slots = [
            (name, slot_of[net.name]) for name, net in self.module.outputs()
        ]
        # A structurally equal module may declare its ports in another
        # order and still share this program; its run() keeps stepping.
        ports = (
            tuple(name for name, _ in self.module.inputs()),
            tuple(name for name, _ in self.module.outputs()),
        )
        self._run = (
            self.program.run if self.program.run_ports == ports else None
        )
        self._row = itemgetter(*ports[0]) if ports[0] else None
        self._reset()

    def _reset(self) -> None:
        self._slots: List[int] = [0] * self.program.n_slots
        self._regs: List[int] = list(self.program.reg_inits)
        self._fifos: List[deque] = [deque() for _ in self.program.fifo_depths]
        self.cycle = 0

    def _lane(self) -> "CompiledSimulator":
        """A simulator from reset sharing this one's program."""
        lane = copy.copy(self)
        lane._reset()
        return lane

    # ------------------------------------------------------------------

    def poke(self, inputs: Dict[str, int]) -> None:
        slots = self._slots
        input_slots = self._input_slots
        for name, value in inputs.items():
            entry = input_slots.get(name)
            if entry is None:
                raise NetlistError(
                    f"{self.module.name}: no input port {name!r}"
                )
            index, mask = entry
            slots[index] = int(value) & mask

    def evaluate(self) -> None:
        self._evaluate(self._slots, self._regs, self._fifos)

    def peek(self, name: str) -> int:
        net = self.module.ports.get(name)
        if net is None:
            raise NetlistError(f"{self.module.name}: no port {name!r}")
        return self._slots[self.program.slot_of[net.name]]

    def peek_net(self, net_name: str) -> int:
        index = self.program.slot_of.get(net_name)
        if index is None:
            raise NetlistError(f"{self.module.name}: no net {net_name!r}")
        if net_name in self._inlined:
            raise NetlistError(
                f"{self.module.name}: net {net_name!r} was fused into its "
                f"consumer by code generation and holds no value; use the "
                f"interpreter to watch internal nets"
            )
        return self._slots[index]

    def tick(self) -> None:
        self._latch(self._slots, self._regs, self._fifos)
        self.cycle += 1

    def step(self, inputs: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        if inputs:
            self.poke(inputs)
        slots = self._slots
        self._evaluate(slots, self._regs, self._fifos)
        outputs = {name: slots[index] for name, index in self._output_slots}
        self._latch(slots, self._regs, self._fifos)
        self.cycle += 1
        return outputs

    def run(self, input_stream: List[Dict[str, int]]) -> List[Dict[str, int]]:
        """One :meth:`step` per input dict, in the program's generated
        whole-run loop when every dict drives exactly the input ports.

        Any other stream (an omitted or unknown port, an empty dict on a
        module with inputs) runs the per-cycle ``step`` loop, which
        defines the semantics.
        """
        stream = list(input_stream)
        rows = self._rows(stream)
        if rows is None:
            step = self.step
            return [step(inputs) for inputs in stream]
        trace: List[Dict[str, int]] = []
        try:
            self._run(self._slots, self._regs, self._fifos, rows, trace)
        except Exception:  # whatever int() raised on one of the values
            # The loop converts a whole row before it writes an input,
            # so the row that raised wrote none: poke it as step() does,
            # which writes the ports ahead of the bad value and raises.
            self.poke(stream[len(trace)])
            raise
        finally:
            self.cycle += len(trace)
        return trace

    def _rows(self, stream: List[Dict[str, int]]) -> Optional[list]:
        """``_run``'s rows for ``stream``, or None if it must step."""
        if self._run is None:
            return None
        try:
            if set(map(len, stream)) - {len(self._input_slots)}:
                return None
            # Every dict has as many keys as there are input ports, so
            # finding them all means it holds exactly those.
            return list(map(self._row, stream)) if self._row else stream
        except (KeyError, TypeError):  # a missing port, or not a dict
            return None

    def run_batch(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """One trace per stream: the streams run one after another,
        each on fresh state over this simulator's program, as
        ``Simulator.run_batch`` does.  The SWAR engine is the
        ``batched`` backend."""
        return [self._lane().run(stream) for stream in input_streams]


class _LaneSimulator:
    """The port surface both lane engines share: K independent stimulus
    lanes behind one generated program.

    ``poke`` takes ``{port: [v0..vK-1]}``, ``peek``/``peek_net`` return
    per-lane lists, and ``step``/``run`` exchange one input/output dict
    per lane.  Lanes never interact — outputs are bit-identical to
    ``lanes`` separate single-lane runs, and the lane differential gates
    assert it.  An engine supplies its value encoding: the initial
    ``_slots`` and ``_regs``, ``_slot_value(index, values, mask)`` (what
    slot ``index`` holds for these lane values), ``_unpack_slot(index)``
    (the lane values it holds), and ``_feed``/``_readers`` for
    :func:`run_lanes`.  Each engine also defines ``run`` in its own class
    body, because the benchmark's tracer (``perfbench/spans.py``) wraps
    ``cls.__dict__["run"]``.
    """

    def __init__(self, module: Module, lanes: int, compile_program,
                 codegen_store):
        self.module = _flattened(module)
        self.lanes = int(lanes)
        if self.lanes < 1:
            raise NetlistError(f"lanes must be >= 1, got {lanes!r}")
        self.program = compile_program(
            self.module, self.lanes, store=codegen_store
        )
        slot_of = self.program.slot_of
        self._fifos: List[List[deque]] = [
            [deque() for _ in range(self.lanes)]
            for _ in self.program.fifo_depths
        ]
        self._evaluate = self.program.evaluate
        self._latch = self.program.latch
        self._input_slots = {
            name: (slot_of[net.name], _mask_literal(net.width))
            for name, net in self.module.inputs()
        }
        self._output_slots = [
            (name, slot_of[net.name]) for name, net in self.module.outputs()
        ]
        self.cycle = 0

    def poke(self, inputs: Dict[str, Sequence[int]]) -> None:
        """Drive ports with per-lane value lists (one value per lane)."""
        slots = self._slots
        for name, values in inputs.items():
            entry = self._input_slots.get(name)
            if entry is None:
                raise NetlistError(
                    f"{self.module.name}: no input port {name!r}"
                )
            if len(values) != self.lanes:
                raise NetlistError(
                    f"{self.module.name}: port {name!r} got {len(values)} "
                    f"values for {self.lanes} lanes"
                )
            index, mask = entry
            slots[index] = self._slot_value(index, values, mask)

    def _poke_vectors(self, vectors: Sequence[Dict[str, int]]) -> None:
        """Per-lane input dicts (lane k's ports in ``vectors[k]``).

        Lanes may drive different port subsets (exactly like K separate
        scalar ``step`` calls): a port a lane omits keeps that lane's
        previous value.  Stimulus streams drive every port every cycle,
        so the uniform case stays on the overwrite-the-slot fast path.
        """
        if len(vectors) != self.lanes:
            raise NetlistError(
                f"{self.module.name}: got {len(vectors)} input vectors "
                f"for {self.lanes} lanes"
            )
        slots = self._slots
        first = vectors[0]
        uniform = all(vector.keys() == first.keys() for vector in vectors)
        if uniform:
            for name in first:
                entry = self._input_slots.get(name)
                if entry is None:
                    raise NetlistError(
                        f"{self.module.name}: no input port {name!r}"
                    )
                index, mask = entry
                slots[index] = self._slot_value(
                    index, [vector[name] for vector in vectors], mask
                )
            return
        names = set(first)
        for vector in vectors[1:]:
            names.update(vector)
        for name in names:
            entry = self._input_slots.get(name)
            if entry is None:
                raise NetlistError(
                    f"{self.module.name}: no input port {name!r}"
                )
            index, mask = entry
            old = self._unpack_slot(index)
            slots[index] = self._slot_value(
                index,
                [
                    vector[name] if name in vector else value
                    for vector, value in zip(vectors, old)
                ],
                mask,
            )

    def evaluate(self) -> None:
        self._evaluate(self._slots, self._regs, self._fifos)

    def peek(self, name: str) -> List[int]:
        net = self.module.ports.get(name)
        if net is None:
            raise NetlistError(f"{self.module.name}: no port {name!r}")
        return self._unpack_slot(self.program.slot_of[net.name])

    def peek_net(self, net_name: str) -> List[int]:
        index = self.program.slot_of.get(net_name)
        if index is None:
            raise NetlistError(f"{self.module.name}: no net {net_name!r}")
        return self._unpack_slot(index)

    def tick(self) -> None:
        self._latch(self._slots, self._regs, self._fifos)
        self.cycle += 1

    def step(
        self, vectors: Optional[Sequence[Dict[str, int]]] = None
    ) -> List[Dict[str, int]]:
        """One cycle for every lane; returns one output dict per lane."""
        if vectors:
            self._poke_vectors(vectors)
        slots = self._slots
        self._evaluate(slots, self._regs, self._fifos)
        columns = [
            (name, self._unpack_slot(index))
            for name, index in self._output_slots
        ]
        outputs = [
            {name: column[lane] for name, column in columns}
            for lane in range(self.lanes)
        ]
        self._latch(slots, self._regs, self._fifos)
        self.cycle += 1
        return outputs

    def run_batch(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """Alias for ``run``, matching the scalar backends' batch surface
        so callers can hold either kind of engine uniformly."""
        return self.run(input_streams)


class BatchedCompiledSimulator(_LaneSimulator):
    """K independent stimulus lanes behind one packed step function.

    Lane ``k`` of every net lives at bit offset ``k * stride`` of the
    net's slot integer; the code-generated evaluate/latch advance all
    lanes per call (see the module docstring for the SWAR encoding).
    The port surface is :class:`_LaneSimulator`'s.
    """

    def __init__(self, module: Module, lanes: int, codegen_store=None):
        super().__init__(module, lanes, compile_netlist, codegen_store)
        stride = self.program.stride
        self._field_bytes = stride // 8  # strides are multiples of 64
        self._n_bytes = self.lanes * self._field_bytes
        # Lane values of up to 64 bits move through one native "Q" view
        # of a packed integer's bytes, as in the generated lane loops.
        self._lane_words = _lane_words(self.lanes, stride, sys.byteorder)
        self._zero_words = array("Q", bytes(self._n_bytes))
        slot_of = self.program.slot_of
        # Nets wider than a lane field live as per-lane lists; packed
        # nets as one integer (see _generate_batched_source), whose lane
        # values unpack through byte slices above 64 bits.
        self._wide_slots = frozenset(
            slot_of[net.name]
            for net in self.module.nets.values()
            if net.width > stride - 2
        )
        self._multiword_slots = frozenset(
            slot_of[net.name]
            for net in self.module.nets.values()
            if net.width > 64
        ) - self._wide_slots
        self._slots: List[object] = [
            [0] * self.lanes if index in self._wide_slots else 0
            for index in range(self.program.n_slots)
        ]
        # Replicate each (pre-masked) register init into every lane.
        self._unit = _lane_unit(self.lanes, stride)
        self._regs: List[object] = []
        for name, init in zip(self.program.reg_cells, self.program.reg_inits):
            pins = self.module.cells[name].pins
            if max(pins["d"].width, pins["q"].width) > stride - 2:
                self._regs.append([init] * self.lanes)
            else:
                self._regs.append(init * self._unit)

    def _pack(self, values: Sequence[int], mask: int) -> int:
        """Masked lane values → one packed integer (lane ``k`` in the
        ``k``-th ``stride``-bit field): one word-view store for ports of
        up to 64 bits, one byte slice per lane above that."""
        clean = [int(value) & mask for value in values]
        if mask >> 64:
            size = self._field_bytes
            return int.from_bytes(
                b"".join([value.to_bytes(size, "little") for value in clean]),
                "little",
            )
        return self._pack_words(array("Q", clean))

    def _pack_words(self, lane_values: array) -> int:
        """Lane values below 2^64 → one packed integer: one extended
        slice store into a zeroed word array."""
        words = self._zero_words[:]
        words[self._lane_words] = lane_values
        return int.from_bytes(words, sys.byteorder)

    def _unpack(self, packed: int, multiword: bool) -> List[int]:
        """A packed integer's lane values, the inverse of :meth:`_pack`
        (fields are clean, so nothing is masked): through the word view,
        or one byte slice per lane for ``multiword`` values."""
        if multiword:
            size = self._field_bytes
            data = packed.to_bytes(self._n_bytes, "little")
            return [
                int.from_bytes(data[offset:offset + size], "little")
                for offset in range(0, self._n_bytes, size)
            ]
        view = memoryview(packed.to_bytes(self._n_bytes, sys.byteorder))
        return view.cast("Q")[self._lane_words].tolist()

    def _slot_value(self, index: int, values: Sequence[int], mask: int):
        """What slot ``index`` holds for these lane values: a per-lane
        list on a wide slot, else one packed integer."""
        if index in self._wide_slots:
            return [int(value) & mask for value in values]
        return self._pack(values, mask)

    def _unpack_slot(self, index: int) -> List[int]:
        value = self._slots[index]
        if index in self._wide_slots:
            return list(value)
        return self._unpack(value, index in self._multiword_slots)

    def _feed(self, index: int, mask: int, values: List[int]):
        """Per-cycle slot values of one input port from its lane-major
        values (see ``run_lanes``).

        A port of up to 64 bits becomes one ``array("Q")`` table for the
        whole run — values ``array`` rejects (negative, wider than a
        word, not an ``int``) take a per-value ``int(v) & mask`` path —
        and each cycle's lanes are stored from it through the word view
        and masked with one bignum ``&``.  Packing every cycle's integer
        up front measured no faster.  Wider ports pack one cycle at a
        time.
        """
        cycles = len(values) // self.lanes
        if index in self._wide_slots or mask >> 64:
            return (
                self._slot_value(index, values[cycle::cycles], mask)
                for cycle in range(cycles)
            )
        try:
            table = array("Q", values)
        except (OverflowError, TypeError):  # negative, too wide, not int
            table = array("Q", [int(value) & mask for value in values])
        lane_mask = mask * self._unit
        return (
            self._pack_words(table[cycle::cycles]) & lane_mask
            for cycle in range(cycles)
        )

    def _readers(self):
        """Per output port: (name, slot, take, finish) for ``run_lanes``.

        Packed integers are immutable and per-lane lists are rebound,
        never mutated, so every slot value is kept by reference.
        """
        def unpack(multiword: bool):
            return lambda kept: lane_major(
                [self._unpack(packed, multiword) for packed in kept]
            )

        return [
            (
                name,
                index,
                None,
                lane_major if index in self._wide_slots
                else unpack(index in self._multiword_slots),
            )
            for name, index in self._output_slots
        ]

    def run(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """Feed K equal-length streams; returns K per-lane traces
        (marshalled once per run, see :func:`run_lanes`)."""
        return run_lanes(self, input_streams)


#: backend name → engine class; the vocabulary ``CompileSession`` and
#: the CLI's ``--sim-backend`` validate against.  ``"vector"`` is
#: registered by :mod:`repro.rtl.vectorize` on import (the package
#: ``__init__`` guarantees that import), keeping this module free of a
#: circular dependency.
SIM_BACKENDS = {
    "interp": Simulator,
    "compiled": CompiledSimulator,
    "batched": BatchedCompiledSimulator,
}

#: backend name → semantic version, mirroring ``Pass.version``: bump a
#: backend's entry whenever its simulation semantics change, so that
#: persistent simulate artifacts produced by the old code are cache
#: misses instead of silently masking the fix (the differential gates
#: compare *computed* traces, not stale ones).  ``"auto"`` versions the
#: *selection* rule (:func:`auto_backend`), not an engine of its own;
#: v2: the static rule replaced the measured tuner; v3: an ``auto``
#: trace names the engine that ran (``batched`` where SWAR ran, which
#: v2 recorded as ``compiled``).
SIM_BACKEND_VERSIONS = {
    "interp": 1,
    "compiled": 1,
    "batched": 1,
    "auto": 3,
}


def backend_fingerprint(name: str) -> str:
    """``name@version`` — the backend's contribution to cache keys.

    Accepts every name with versioned semantics, including ``"auto"``
    (a selection policy rather than an engine), unlike
    :func:`resolve_backend` which only accepts concrete engines.
    """
    try:
        version = SIM_BACKEND_VERSIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown sim backend {name!r}; "
            f"available: {backend_choices()}"
        ) from None
    return f"{name}@{version}"


def backend_choices() -> List[str]:
    """Every ``--sim-backend`` spelling: concrete engines + ``auto``."""
    return sorted(SIM_BACKENDS) + ["auto"]


def resolve_backend(name: str):
    """Backend name → engine class, with a helpful rejection.

    Concrete engines only — ``"auto"`` must be resolved to one first
    (see :func:`auto_backend`).
    """
    try:
        return SIM_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown sim backend {name!r}; available: {sorted(SIM_BACKENDS)}"
        ) from None


#: Lane count from which ``"auto"`` picks the numpy vector engine: from
#: 64 lanes up it measured fastest on every catalog design (up to
#: noise), while below it SWAR or sequential scalar lanes win.
AUTO_VECTOR_LANES = 64


def auto_backend(module: Module, lanes: int) -> str:
    """The engine ``"auto"`` runs ``module`` on with ``lanes`` stimulus
    lanes — the one place that picks an engine.

    ``"compiled"`` at one lane; ``"vector"`` from
    :data:`AUTO_VECTOR_LANES` lanes up when numpy is importable; below
    that (or without numpy) ``"batched"`` where :func:`swar_profitable`
    predicts that SWAR beats sequential scalar lanes, else
    ``"compiled"``.  The same inputs always give the same engine.
    """
    from .vectorize import _numpy

    if int(lanes) >= AUTO_VECTOR_LANES and _numpy() is not None:
        return "vector"
    return "batched" if swar_profitable(module, lanes) else "compiled"


def make_simulator(
    module: Module,
    backend: str = "interp",
    *,
    lanes: int = 1,
    codegen_store=None,
):
    """Instantiate the named engine over ``module``.

    Each name is one engine at every lane count: ``interp`` and
    ``compiled`` return their single-lane engine, whose ``run_batch``
    runs the lanes one after another; the lane engines (``batched``,
    and ``vector`` registered by :mod:`repro.rtl.vectorize`) take
    ``(module, lanes, codegen_store=...)``.  ``"auto"`` is not an
    engine: resolve it with :func:`auto_backend` first.
    ``codegen_store`` (a persistent source store with the contract
    :func:`compile_netlist` states) only matters to the codegen
    backends; the interpreter ignores it.
    """
    cls = resolve_backend(backend)
    if cls is Simulator:
        return cls(module)
    if cls is CompiledSimulator:
        return cls(module, codegen_store=codegen_store)
    return cls(module, max(1, int(lanes)), codegen_store=codegen_store)


def differential_check(
    module: Module,
    cycles: int = 128,
    seed: int = 0,
    bias: float = 0.0,
    lanes: int = 1,
    backend: str = "compiled",
) -> bool:
    """True iff both backends agree bit-for-bit under shared stimulus.

    The correctness gate for every codegen backend: ``lanes`` seeded
    stimulus streams (:func:`random_stimulus_batch`; lane 0 is the
    single-lane stream of ``seed``) drive the interpreter, one stream
    after another from reset, and a fresh engine of the named backend
    through ``run_batch``; every output of every lane must match on
    every cycle.  On a lane engine that also proves its outputs
    bit-identical to K independent single-lane runs.  ``backend`` names
    one engine (see :func:`make_simulator`): ``"compiled"`` gates the
    scalar program, ``"batched"`` SWAR and ``"vector"`` numpy columns.
    """
    if backend == "interp":
        raise NetlistError(
            "differential_check compares a codegen backend against the "
            "interpreter; backend='interp' would compare it to itself"
        )
    interp = Simulator(module)
    engine = make_simulator(interp.module, backend, lanes=lanes)
    streams = random_stimulus_batch(interp.module, cycles, lanes, seed, bias)
    return interp.run_batch(streams) == engine.run_batch(streams)
