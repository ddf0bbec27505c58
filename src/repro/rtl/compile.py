"""Compiled simulation backend: netlist → specialized Python step code.

The interpreter (:class:`~repro.rtl.simulate.Simulator`) pays a call
through its per-kind evaluator table and two dict lookups per pin
*every cell, every cycle* — the hottest loop in the repository.  This module pays
those costs **once per netlist** instead: the flattened module is
levelized (the same ``comb_topo_order`` the interpreter uses), every net
is assigned a dense slot in a flat list, and one straight-line Python
function is code-generated with a single masked slot-array assignment
per combinational cell, plus a sequential-latch epilogue for registers
and FIFOs.  A net with exactly one combinational reader gets no
assignment of its own: its expression is *fused* (inlined,
parenthesized) into that reader, saving a slot store and load per
cycle, so ``peek_net`` on a fused net raises — the interpreter shows
every net.  The program ends in a generated whole-run loop, ``_run``:
for each row of input values it pokes every input port (``int(v) &
mask``, exactly like ``poke``), calls the evaluate function, appends
one dict display of the outputs and latches, so
:meth:`CompiledSimulator.run` pays no per-cycle ``poke`` call or dict
comprehension.  The generated source is ``exec``'d once and memoized by
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
(poke/evaluate/peek/peek_net/tick/step/run/run_random, plus the batched
run_batch/run_random_batch), selected by name through
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
owns the packed state; scalar backends reach it through
``run_batch``.

**Three codegen targets.**  This module owns two of them — the scalar
generator (``_generate_source``: one straight-line masked assignment
per cell, with single-reader expressions fused into their consumer,
and the whole-run loop) and the SWAR batched generator
(``_generate_batched_source`` below) —
and :mod:`repro.rtl.vectorize` adds the third: word-packed
lane *columns* (numpy ``uint64`` arrays) where one vectorized operation
advances thousands of lanes at fixed per-op overhead.  SWAR cost grows
with the packed bignum's limb count and saturates between 16 and 64
lanes; the vector target keeps scaling past that, which is why
mega-lane sweeps belong there.  All three emit bit-identical traces —
the same :func:`differential_check` gates each one against the
interpreter.

Backend selection is a static rule, checked against measurements on
the catalog: :func:`auto_backend` sends ``"auto"`` to the vector engine
from :data:`AUTO_VECTOR_LANES` lanes up when numpy is installed and to
``compiled`` otherwise, and the compiled lane path applies the
calibrated :func:`swar_profitable` predicate, which keeps SWAR away
from designs whose ineligible cells predict a slowdown (the scalar
``run_batch`` runs lanes sequentially there).

**Persistent codegen.**  Generating the step source levelizes the
netlist and builds a netlist-sized string — for large modules that is
the dominant cost of a cold simulator.  ``compile_netlist`` therefore
accepts a ``store`` (see ``repro.driver.cache.CodegenStore``): the
generated source and slot layout are persisted keyed by
``(structural_hash, backend, lanes, CODEGEN_VERSION)`` — the backend
tag (``"scalar"``, ``"swar"``, ``"vector"``) keeps the three
generators' entries from shadowing each other — so a warm process
skips levelization and code generation entirely and only pays
``compile()`` + ``exec()``.
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
from .simulate import (
    Simulator,
    derive_lane_seed,
    lane_major,
    random_stimulus,
    random_stimulus_batch,
    run_lanes,
)

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
#: multiply.
CODEGEN_VERSION = 6


@runtime_checkable
class SimBackend(Protocol):
    """What every simulation engine exposes.

    ``Simulator`` (the per-cycle interpreter) and ``CompiledSimulator``
    (this module) are interchangeable behind it: identical poke/peek
    name spaces, identical two-phase evaluate/tick semantics, identical
    seeded-stimulus ``run_random``.
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

    def run_random(
        self, cycles: int, seed: int = 0, bias: float = 0.0
    ) -> List[Dict[str, int]]: ...

    def run_batch(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]: ...

    def run_random_batch(
        self, cycles: int, lanes: int, seed: int = 0, bias: float = 0.0
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

    Shared (via the memo table) by every ``CompiledSimulator`` over a
    structurally equal module; holds no per-run state.
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
        #: bit stride between lane fields in packed mode (0 = scalar).
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


def _comb_expression_atoms(cell: Cell, atom) -> str:
    """One combinational cell's RHS over caller-supplied input atoms.

    ``atom(net_name)`` renders one input read — a slot access, or a
    parenthesized fused sub-expression (see :func:`_fused_nets`).
    Atoms that are not bare slot reads MUST self-parenthesize: they are
    substituted into every operator position below.  Mirrors
    :func:`~repro.rtl.simulate.eval_comb_cell` exactly — any divergence
    here is caught by :func:`differential_check`.
    """
    pins = cell.pins
    kind = cell.kind
    out_mask = _mask_literal(pins["out"].width)
    if kind == "const":
        return repr(int(cell.params["value"]) & out_mask)
    if kind in ("add", "sub", "mul", "and", "or", "xor"):
        op = {"add": "+", "sub": "-", "mul": "*",
              "and": "&", "or": "|", "xor": "^"}[kind]
        a, b = atom(pins["a"].name), atom(pins["b"].name)
        return f"({a} {op} {b}) & {out_mask}"
    if kind == "div":
        a, b = atom(pins["a"].name), atom(pins["b"].name)
        return f"({a} // {b} if {b} else 0) & {out_mask}"
    if kind == "mod":
        a, b = atom(pins["a"].name), atom(pins["b"].name)
        return f"({a} % {b} if {b} else 0) & {out_mask}"
    if kind == "eq":
        a, b = atom(pins["a"].name), atom(pins["b"].name)
        return f"1 if {a} == {b} else 0"
    if kind == "lt":
        a, b = atom(pins["a"].name), atom(pins["b"].name)
        return f"1 if {a} < {b} else 0"
    if kind == "not":
        return f"~{atom(pins['a'].name)} & {out_mask}"
    if kind == "shl":
        amount = int(cell.params["amount"])
        return f"({atom(pins['a'].name)} << {amount}) & {out_mask}"
    if kind == "shr":
        amount = int(cell.params["amount"])
        return f"({atom(pins['a'].name)} >> {amount}) & {out_mask}"
    if kind == "mux":
        sel = atom(pins["sel"].name)
        a, b = atom(pins["a"].name), atom(pins["b"].name)
        return f"({a} if {sel} & 1 else {b}) & {out_mask}"
    if kind == "slice":
        lsb = int(cell.params["lsb"])
        return f"({atom(pins['a'].name)} >> {lsb}) & {out_mask}"
    if kind == "concat":
        a, b = atom(pins["a"].name), atom(pins["b"].name)
        return f"(({a} << {pins['b'].width}) | {b}) & {out_mask}"
    raise NetlistError(f"cannot compile cell kind {kind!r}")


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


def _drive_seq_lines(
    module: Module,
    slot: Dict[str, int],
    reg_cells: List[str],
    fifo_cells: List[str],
    fifo_depths: List[int],
) -> List[str]:
    """Phase 1 of evaluate: drive sequential outputs from state
    (interpreter order: state first, then combinational settling)."""
    lines: List[str] = []
    for index, name in enumerate(reg_cells):
        cell = module.cells[name]
        q = cell.pins["q"]
        lines.append(f"    s[{slot[q.name]}] = r[{index}] "
                     f"& {_mask_literal(q.width)}")
    for index, name in enumerate(fifo_cells):
        cell = module.cells[name]
        pins = cell.pins
        in_ready = slot[pins["in_ready"].name]
        out_valid = slot[pins["out_valid"].name]
        out_data = slot[pins["out_data"].name]
        data_mask = _mask_literal(pins["out_data"].width)
        lines.append(f"    q = f[{index}]")
        lines.append(f"    s[{in_ready}] = 1 if len(q) < {fifo_depths[index]} "
                     f"else 0")
        lines.append("    if q:")
        lines.append(f"        s[{out_valid}] = 1")
        lines.append(f"        s[{out_data}] = q[0] & {data_mask}")
        lines.append("    else:")
        lines.append(f"        s[{out_valid}] = 0")
        lines.append(f"        s[{out_data}] = 0")
    return lines


def _latch_lines(
    module: Module,
    slot: Dict[str, int],
    reg_cells: List[str],
    fifo_cells: List[str],
) -> List[str]:
    """The latch body: registers read nets (written only by evaluate)
    and write reg state, so in-place assignment matches the
    interpreter's two-phase update."""
    lines: List[str] = ["def _latch(s, r, f):"]
    for index, name in enumerate(reg_cells):
        cell = module.cells[name]
        d = slot[cell.pins["d"].name]
        if cell.kind == "reg":
            lines.append(f"    r[{index}] = s[{d}]")
        else:  # regen
            en = slot[cell.pins["en"].name]
            lines.append(f"    if s[{en}] & 1:")
            lines.append(f"        r[{index}] = s[{d}]")
    for index, name in enumerate(fifo_cells):
        cell = module.cells[name]
        pins = cell.pins
        out_ready = slot[pins["out_ready"].name]
        out_valid = slot[pins["out_valid"].name]
        in_valid = slot[pins["in_valid"].name]
        in_ready = slot[pins["in_ready"].name]
        in_data = slot[pins["in_data"].name]
        lines.append(f"    q = f[{index}]")
        lines.append(f"    if q and s[{out_ready}] & 1 and s[{out_valid}] & 1:")
        lines.append("        q.popleft()")
        lines.append(f"    if s[{in_valid}] & 1 and s[{in_ready}] & 1:")
        lines.append(f"        q.append(s[{in_data}])")
    if len(lines) == 1:
        lines.append("    pass")
    return lines


def _run_lines(module: Module, slot: Dict[str, int]) -> List[str]:
    """The whole-run loop: one ``step`` per row, without its per-cycle
    poke call and dict comprehension.

    A row holds every input port's value in ``_RUN_PORTS[0]`` order (a
    bare value when there is one input port, the stream's own empty
    dict when there are none), poked as ``int(v) & mask`` like ``poke``;
    each cycle's record is one dict display in ``_RUN_PORTS[1]`` order,
    so it equals ``step``'s dict, key order included.  Records go into
    the caller's ``trace`` list, so a value ``int`` rejects mid-run
    leaves it holding exactly the cycles that ran.
    """
    inputs, outputs = module.inputs(), module.outputs()
    names = [f"v{index}" for index in range(len(inputs))]
    lines = [
        f"_RUN_PORTS = ({tuple(name for name, _ in inputs)!r}, "
        f"{tuple(name for name, _ in outputs)!r})",
        "",
        "",
        "def _run(s, r, f, rows, trace, _evaluate=_evaluate, "
        "_latch=_latch):",
        "    append = trace.append",
        f"    for {', '.join(names) or '_'} in rows:",
    ]
    for var, (_, net) in zip(names, inputs):
        lines.append(f"        s[{slot[net.name]}] = int({var}) "
                     f"& {_mask_literal(net.width)}")
    record = ", ".join(
        f"{name!r}: s[{slot[net.name]}]" for name, net in outputs
    )
    lines += [
        "        _evaluate(s, r, f)",
        f"        append({{{record}}})",
        "        _latch(s, r, f)",
    ]
    return lines


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


def _generate_source(module: Module, slot: Dict[str, int]) -> Tuple[
    str, List[str], List[int], List[str], List[int], List[str]
]:
    """Generate the evaluate/latch pair and the whole-run loop
    (:func:`_run_lines`) for a flat, validated module.

    Nets in :func:`_fused_nets` emit no assignment: their expression is
    inlined, parenthesized, into the sole consumer.  The last element of
    the result lists those nets, sorted.
    """
    reg_cells, reg_inits, fifo_cells, fifo_depths = _seq_meta(module)
    order = comb_topo_order(module)
    fused = _fused_nets(module, order)
    producer = {cell.pins["out"].name: cell for cell in order}

    def atom(name: str) -> str:
        if name in fused:
            return f"({_comb_expression_atoms(producer[name], atom)})"
        return f"s[{slot[name]}]"

    ev: List[str] = ["def _evaluate(s, r, f):"]
    ev.extend(_drive_seq_lines(module, slot, reg_cells, fifo_cells,
                               fifo_depths))
    # Phase 2: straight-line combinational assignments, producers first.
    for cell in order:
        out = cell.pins["out"].name
        if out not in fused:
            ev.append(f"    s[{slot[out]}] = "
                      f"{_comb_expression_atoms(cell, atom)}")
    if len(ev) == 1:
        ev.append("    pass")

    lt = _latch_lines(module, slot, reg_cells, fifo_cells)
    source = "\n\n\n".join(
        "\n".join(lines) for lines in (ev, lt, _run_lines(module, slot))
    ) + "\n"
    return (source, reg_cells, reg_inits, fifo_cells, fifo_depths,
            sorted(fused))


# -- batched (multi-lane) code generation -------------------------------


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

    The compiled backend's half of backend selection (see
    :func:`auto_backend`): a calibrated per-cell cost comparison
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
    3.11), yet this predicate still says no.  The coefficients stay
    until the engine choice is refit as a whole.
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
        if kind == "add":
            expr = f"({sl('a')} + {sl('b')})"
            if wo < max(w("a"), w("b")) + 1:
                expr += f" & {consts.mask(wo, uses_ev)}"
            return [f"    s[{so}] = {expr}"]
        if kind == "sub":
            guard = max(w("a"), w("b"), wo)
            hname = consts.rep(1 << guard, f"H{guard}", uses_ev)
            return [
                f"    s[{so}] = (({sl('a')} | {hname}) - {sl('b')})"
                f" & {consts.mask(wo, uses_ev)}"
            ]
        if kind == "and":
            expr = f"{sl('a')} & {sl('b')}"
            if min(w("a"), w("b")) > wo:
                expr = f"({expr}) & {consts.mask(wo, uses_ev)}"
            return [f"    s[{so}] = {expr}"]
        if kind in ("or", "xor"):
            op = "|" if kind == "or" else "^"
            expr = f"{sl('a')} {op} {sl('b')}"
            if max(w("a"), w("b")) > wo:
                expr = f"({expr}) & {consts.mask(wo, uses_ev)}"
            return [f"    s[{so}] = {expr}"]
        if kind == "not":
            flip = consts.mask(max(w("a"), wo), uses_ev)
            expr = f"{sl('a')} ^ {flip}"
            if w("a") > wo:
                expr = f"({expr}) & {consts.mask(wo, uses_ev)}"
            return [f"    s[{so}] = {expr}"]
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
        if kind == "shl":
            amount = int(cell.params["amount"])
            expr = f"({sl('a')} << {amount})"
            if w("a") + amount > wo:
                expr += f" & {consts.mask(wo, uses_ev)}"
            return [f"    s[{so}] = {expr}"]
        if kind == "shr":
            amount = int(cell.params["amount"])
            return [
                f"    s[{so}] = ({sl('a')} >> {amount})"
                f" & {consts.mask(wo, uses_ev)}"
            ]
        if kind == "slice":
            lsb = int(cell.params["lsb"])
            if lsb == 0 and w("a") <= wo:
                return [f"    s[{so}] = {sl('a')}"]
            return [
                f"    s[{so}] = ({sl('a')} >> {lsb})"
                f" & {consts.mask(wo, uses_ev)}"
            ]
        # concat (the only _SWAR_KINDS member left)
        expr = f"(({sl('a')} << {w('b')}) | {sl('b')})"
        if w("a") + w("b") > wo:
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
        kind = cell.kind
        out = pins["out"]
        so = slot[out.name]
        wo = out.width
        omask = (1 << wo) - 1
        wide_out = wide(out)

        def wr(listcomp: str) -> str:
            if wide_out:
                return f"    s[{so}] = {listcomp}"
            return f"    s[{so}] = _pack{codec(out)}({listcomp})"

        if kind == "const":
            value = int(cell.params["value"]) & omask
            if wide_out:
                return [f"    s[{so}] = [{value}] * _LANES"]
            return [
                f"    s[{so}] = {consts.rep(value, f'V{so}', uses_ev)}"
            ]
        if kind == "mux":
            return [wr(
                f"[(_p if _c & 1 else _q) & {omask} for _c, _p, _q in "
                f"zip({rd_lanes(pins['sel'])}, {rd_lanes(pins['a'])},"
                f" {rd_lanes(pins['b'])})]"
            )]
        binary = {
            "add": f"(_p + _q) & {omask}",
            "sub": f"(_p - _q) & {omask}",
            "mul": f"(_p * _q) & {omask}",
            "div": f"(_p // _q if _q else 0) & {omask}",
            "mod": f"(_p % _q if _q else 0) & {omask}",
            "and": f"(_p & _q) & {omask}",
            "or": f"(_p | _q) & {omask}",
            "xor": f"(_p ^ _q) & {omask}",
            "eq": "1 if _p == _q else 0",
            "lt": "1 if _p < _q else 0",
        }
        if kind == "concat":
            binary["concat"] = (
                f"((_p << {pins['b'].width}) | _q) & {omask}"
            )
        if kind in binary:
            return [wr(
                f"[{binary[kind]} for _p, _q in "
                f"zip({rd_lanes(pins['a'])}, {rd_lanes(pins['b'])})]"
            )]
        if kind == "slice" and int(cell.params["lsb"]) == 0 \
                and pins["a"].width <= wo and wide(pins["a"]) == wide_out:
            return [f"    s[{so}] = s[{slot[pins['a'].name]}]"]
        unary = {
            "not": f"(~_p) & {omask}",
            "shl": lambda: f"(_p << {int(cell.params['amount'])}) & {omask}",
            "shr": lambda: f"(_p >> {int(cell.params['amount'])}) & {omask}",
            "slice": lambda: f"(_p >> {int(cell.params['lsb'])}) & {omask}",
        }
        if kind in unary:
            expr = unary[kind]
            expr = expr if isinstance(expr, str) else expr()
            return [wr(f"[{expr} for _p in {rd_lanes(pins['a'])}]")]
        raise NetlistError(f"cannot compile cell kind {kind!r}")

    reg_cells = sorted(
        name for name, c in module.cells.items() if c.kind in ("reg", "regen")
    )
    fifo_cells = sorted(
        name for name, c in module.cells.items() if c.kind == "fifo"
    )
    reg_index = {name: i for i, name in enumerate(reg_cells)}
    fifo_index = {name: i for i, name in enumerate(fifo_cells)}
    # Inits are pre-masked to the q width: the scalar engine masks at
    # the q drive instead, but out-of-width init bits are unobservable
    # either way, and clean fields are the packed invariant.
    reg_inits = [
        int(module.cells[name].params.get("init", 0))
        & ((1 << module.cells[name].pins["q"].width) - 1)
        for name in reg_cells
    ]
    fifo_depths = [
        int(module.cells[name].params.get("depth", 2)) for name in fifo_cells
    ]

    ev: List[str] = []
    for name in reg_cells:
        cell = module.cells[name]
        q, d = cell.pins["q"], cell.pins["d"]
        i = reg_index[name]
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
    for name in fifo_cells:
        cell = module.cells[name]
        pins = cell.pins
        index = fifo_index[name]
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
    for name in reg_cells:
        cell = module.cells[name]
        d = cell.pins["d"]
        q = cell.pins["q"]
        i = reg_index[name]
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
    for name in fifo_cells:
        cell = module.cells[name]
        pins = cell.pins
        in_data = pins["in_data"]
        id_mask = (1 << in_data.width) - 1
        lt.append(f"    _ot = s[{slot[pins['out_ready'].name]}]")
        lt.append(f"    _ov = s[{slot[pins['out_valid'].name]}]")
        lt.append(f"    _iv = s[{slot[pins['in_valid'].name]}]")
        lt.append(f"    _ir = s[{slot[pins['in_ready'].name]}]")
        if wide(in_data):
            lt.append(
                f"    for _sh, _fq, _dv in"
                f" zip(_SHIFTS, f[{fifo_index[name]}],"
                f" s[{slot[in_data.name]}]):"
            )
            lt.append("        if _fq and (_ot >> _sh) & (_ov >> _sh) & 1:")
            lt.append("            _fq.popleft()")
            lt.append("        if (_iv >> _sh) & (_ir >> _sh) & 1:")
            lt.append("            _fq.append(_dv)")
        else:
            lt.append(f"    _id = s[{slot[in_data.name]}]")
            lt.append(
                f"    for _sh, _fq in zip(_SHIFTS, f[{fifo_index[name]}]):"
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


#: (structural hash, lanes) → CompiledNetlist, shared process-wide.
#: Keyed on the full structural identity plus the lane count, so a pass
#: pipeline that rewrites a module (new hash) or a different batch width
#: can never be served stale step code.
_MEMO: Dict[Tuple[str, Optional[int]], CompiledNetlist] = {}
_MEMO_LOCK = threading.Lock()

#: Required keys of a persisted codegen payload (see ``CodegenStore``).
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
    payload, structural_hash: str, lanes, backend: str
) -> bool:
    """Is ``payload`` a well-formed codegen entry for this exact key?

    The single validation authority for persisted codegen (all three
    generators route through it): the store applies it on load (so its
    hit/miss counters reflect *usable* entries) and the compile
    functions re-apply it as a cheap guard against arbitrary duck-typed
    stores.
    """
    return (
        isinstance(payload, dict)
        and _PAYLOAD_FIELDS <= set(payload)
        and payload["structural_hash"] == structural_hash
        and payload["lanes"] == lanes
        and payload["backend"] == backend
    )


def _codegen_backend_tag(lanes: Optional[int]) -> str:
    """This module's generators, as codegen-store backend tags."""
    return "scalar" if lanes is None else "swar"


def _generate_payload(module: Module, key: str, lanes: Optional[int]) -> Dict:
    slot = {name: index for index, name in enumerate(sorted(module.nets))}
    inlined: List[str] = []
    if lanes is None:
        (source, reg_cells, reg_inits, fifo_cells, fifo_depths,
         inlined) = _generate_source(module, slot)
        stride = 0
    else:
        (source, reg_cells, reg_inits, fifo_cells, fifo_depths,
         stride) = _generate_batched_source(module, slot, lanes)
    return {
        "structural_hash": key,
        "backend": _codegen_backend_tag(lanes),
        "lanes": lanes,
        "stride": stride,
        "source": source,
        "slot_of": slot,
        "reg_cells": reg_cells,
        "reg_inits": reg_inits,
        "fifo_cells": fifo_cells,
        "fifo_depths": fifo_depths,
        "inlined_nets": inlined,
    }


def _materialize(
    payload: Dict, module_name: str, start: float, from_store: bool
) -> CompiledNetlist:
    namespace: Dict[str, object] = {}
    code = compile(
        payload["source"],
        f"<compiled:{module_name}:{payload['structural_hash']}"
        f":x{payload['lanes']}>",
        "exec",
    )
    exec(code, namespace)
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
    (duck-typed: ``load(structural_hash, lanes, backend) -> payload |
    None`` and ``save(payload)``, see
    ``repro.driver.cache.CodegenStore``) lets a warm process reuse
    previously generated source instead of levelizing and generating
    again.
    """
    if lanes is not None:
        lanes = int(lanes)
        if lanes < 1:
            raise NetlistError(f"lanes must be >= 1, got {lanes}")
    structural = module.structural_hash()
    backend = _codegen_backend_tag(lanes)
    key = (structural, lanes)
    with _MEMO_LOCK:
        cached = _MEMO.get(key)
    if cached is not None:
        return cached
    start = time.perf_counter()
    payload = None
    if store is not None:
        payload = store.load(structural, lanes, backend)
        if payload is not None and not valid_codegen_payload(
            payload, structural, lanes, backend
        ):
            payload = None
    loaded = payload is not None
    if payload is None:
        payload = _generate_payload(module, structural, lanes)
    compiled = _materialize(payload, module.name, start, loaded)
    if store is not None and not loaded:
        store.save(payload)
    with _MEMO_LOCK:
        # A racing thread may have published first; either object is
        # valid (pure function of the structural key), keep the winner.
        return _MEMO.setdefault(key, compiled)


def clear_compile_memo() -> None:
    """Drop every memoized compilation (mainly for tests)."""
    with _MEMO_LOCK:
        _MEMO.clear()


def compile_memo_size() -> int:
    with _MEMO_LOCK:
        return len(_MEMO)


class CompiledSimulator:
    """Drop-in :class:`SimBackend` running code-generated step functions.

    Bit-identical to :class:`~repro.rtl.simulate.Simulator` by
    construction (see :func:`differential_check`); several times faster
    because the per-cycle work is straight-line list indexing instead of
    per-cell dispatch over ``Net``-keyed dicts.
    """

    def __init__(self, module: Module, codegen_store=None):
        self.module = _flattened(module)
        self._codegen_store = codegen_store
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

    def run_random(
        self, cycles: int, seed: int = 0, bias: float = 0.0
    ) -> List[Dict[str, int]]:
        return self.run(random_stimulus(self.module, cycles, seed, bias))

    def run_batch(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """One trace per stream, each lane from reset.

        Lane-packs the streams through one SWAR step function when
        :func:`swar_profitable` predicts a win; otherwise runs the
        streams sequentially, each on fresh state over this simulator's
        program — same traces (both paths are differential-gated),
        strictly faster on designs like ``blas`` where packing measured
        slower than scalar.
        """
        if not input_streams:
            return []  # mirror the interpreter's empty-batch behavior
        if swar_profitable(self.module, len(input_streams)):
            batched = BatchedCompiledSimulator(
                self.module,
                len(input_streams),
                codegen_store=self._codegen_store,
            )
            return batched.run(input_streams)
        return [self._lane().run(stream) for stream in input_streams]

    def run_random_batch(
        self, cycles: int, lanes: int, seed: int = 0, bias: float = 0.0
    ) -> List[List[Dict[str, int]]]:
        return self.run_batch(
            random_stimulus_batch(self.module, cycles, lanes, seed, bias)
        )


class BatchedCompiledSimulator:
    """K independent stimulus lanes behind one packed step function.

    Lane ``k`` of every net lives at bit offset ``k * stride`` of the
    net's slot integer; the code-generated evaluate/latch advance all
    lanes per call (see the module docstring for the SWAR encoding).
    Lanes never interact — outputs are bit-identical to ``lanes``
    separate single-lane runs by construction, and the batched
    differential gates assert it.

    The scalar-facing surface is vectorized: ``poke`` takes ``{port:
    [v0..vK-1]}``, ``peek``/``peek_net`` return per-lane lists, and
    ``step``/``run`` exchange one input/output dict per lane.
    """

    def __init__(self, module: Module, lanes: int, codegen_store=None):
        self.module = _flattened(module)
        self.lanes = int(lanes)
        if self.lanes < 1:
            raise NetlistError(f"lanes must be >= 1, got {lanes!r}")
        self.program = compile_netlist(
            self.module, lanes=self.lanes, store=codegen_store
        )
        stride = self.program.stride
        self._field_bytes = stride // 8  # strides are multiples of 64
        self._n_bytes = self.lanes * self._field_bytes
        # Lane values of up to 64 bits move through one native "Q" view
        # of a packed integer's bytes, as in the generated lane loops.
        self._lane_words = _lane_words(self.lanes, stride, sys.byteorder)
        self._zero_words = array("Q", bytes(self._n_bytes))
        slot_of = self.program.slot_of
        # Nets wider than a lane field live as per-lane lists; packed
        # nets as one integer (see _generate_batched_source).
        self._wide_slots = frozenset(
            slot_of[net.name]
            for net in self.module.nets.values()
            if net.width > stride - 2
        )
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
            (name, slot_of[net.name], net.width)
            for name, net in self.module.outputs()
        ]
        self.cycle = 0

    # ------------------------------------------------------------------

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

    def _unpack(self, packed: int, width: int) -> List[int]:
        """A packed integer's lane values, the inverse of :meth:`_pack`
        (fields are clean, so nothing is masked)."""
        if width > 64:
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
            old = self._unpack_slot(index, mask.bit_length())
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
        return self._unpack_slot(self.program.slot_of[net.name], net.width)

    def peek_net(self, net_name: str) -> List[int]:
        index = self.program.slot_of.get(net_name)
        if index is None:
            raise NetlistError(f"{self.module.name}: no net {net_name!r}")
        return self._unpack_slot(
            index, self.module.nets[net_name].width
        )

    def _unpack_slot(self, index: int, width: int) -> List[int]:
        value = self._slots[index]
        if index in self._wide_slots:
            return list(value)
        return self._unpack(value, width)

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
            (name, self._unpack_slot(index, width))
            for name, index, width in self._output_slots
        ]
        outputs = [
            {name: column[lane] for name, column in columns}
            for lane in range(self.lanes)
        ]
        self._latch(slots, self._regs, self._fifos)
        self.cycle += 1
        return outputs

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
        def unpack(width: int):
            return lambda kept: lane_major(
                [self._unpack(packed, width) for packed in kept]
            )

        return [
            (
                name,
                index,
                None,
                lane_major if index in self._wide_slots else unpack(width),
            )
            for name, index, width in self._output_slots
        ]

    def run(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """Feed K equal-length streams; returns K per-lane traces
        (marshalled once per run, see :func:`run_lanes`)."""
        return run_lanes(self, input_streams)

    def run_random(
        self, cycles: int, seed: int = 0, bias: float = 0.0
    ) -> List[List[Dict[str, int]]]:
        """Seeded per-lane stimulus (lane seeds via derive_lane_seed)."""
        return self.run(
            random_stimulus_batch(self.module, cycles, self.lanes, seed, bias)
        )

    def run_batch(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """Alias for :meth:`run`, matching the scalar backends' batch
        surface so callers can hold either kind of engine uniformly."""
        return self.run(input_streams)

    def run_random_batch(
        self, cycles: int, lanes: int, seed: int = 0, bias: float = 0.0
    ) -> List[List[Dict[str, int]]]:
        if int(lanes) != self.lanes:
            raise NetlistError(
                f"{self.module.name}: simulator compiled for {self.lanes} "
                f"lanes, asked to run {lanes}"
            )
        return self.run_random(cycles, seed, bias)


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
#: v2: the static rule replaced the measured tuner.
SIM_BACKEND_VERSIONS = {
    "interp": 1,
    "compiled": 1,
    "batched": 1,
    "auto": 2,
}


#: The simulation-backend degradation ladder: when an engine cannot be
#: instantiated (its runtime support is missing, or a fault-injection
#: run knocked it out), the session falls back one rung at a time until
#: it reaches the dependency-free interpreter.  Every rung is
#: bit-identical by the differential contract, so degrading costs
#: throughput, never correctness.
BACKEND_FALLBACKS = {
    "vector": "compiled",
    "batched": "compiled",
    "compiled": "interp",
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
#: noise), while below it the compiled lane path wins on the
#: SWAR-friendly ones.
AUTO_VECTOR_LANES = 64


def auto_backend(lanes: int) -> str:
    """The engine ``"auto"`` resolves to for ``lanes`` stimulus lanes.

    ``"vector"`` when numpy is importable and ``lanes >=
    AUTO_VECTOR_LANES``, else ``"compiled"`` — one lane included — whose
    lane path picks SWAR or sequential scalar lanes by
    :func:`swar_profitable`.  The same inputs always give the same
    engine.
    """
    from .vectorize import _numpy

    if int(lanes) >= AUTO_VECTOR_LANES and _numpy() is not None:
        return "vector"
    return "compiled"


def make_simulator(
    module: Module,
    backend: str = "interp",
    *,
    lanes: int = 1,
    codegen_store=None,
):
    """Instantiate the named engine over ``module``.

    ``codegen_store`` (a persistent source store, see
    ``repro.driver.cache.CodegenStore``) only matters to the codegen
    backends; the interpreter ignores it.  ``lanes > 1`` on the
    ``compiled`` backend returns a :class:`BatchedCompiledSimulator`
    *when* :func:`swar_profitable` predicts a win, else the scalar
    engine whose ``run_batch`` runs lanes sequentially (same traces,
    faster on SWAR-hostile designs).  ``batched`` forces the SWAR
    engine regardless; lane engines registered by other modules
    (``vector``) take ``(module, lanes, codegen_store=...)``.  The
    interpreter has no lane parallelism, so there it returns the plain
    engine whose ``run_batch`` loops.
    """
    cls = resolve_backend(backend)
    lanes = max(1, int(lanes))
    if cls is CompiledSimulator:
        if lanes > 1 and swar_profitable(module, lanes):
            return BatchedCompiledSimulator(
                module, lanes, codegen_store=codegen_store
            )
        return cls(module, codegen_store=codegen_store)
    if cls is Simulator:
        return cls(module)
    return cls(module, lanes, codegen_store=codegen_store)


def differential_check(
    module: Module,
    cycles: int = 128,
    seed: int = 0,
    bias: float = 0.0,
    lanes: int = 1,
    backend: str = "compiled",
) -> bool:
    """True iff both backends agree bit-for-bit under shared stimulus.

    The correctness gate for every codegen backend: identical seeded
    input vectors drive a fresh interpreter and a fresh engine of the
    named backend; every output must match on every cycle.  With
    ``lanes > 1`` (or a lane engine) the interpreter runs the K
    derived-seed streams sequentially while the engine under test
    advances them together, and all K traces must agree — which
    simultaneously proves the engine's outputs bit-identical to K
    independent single-lane runs.  ``backend`` may be ``"compiled"``
    (scalar at ``lanes == 1``, SWAR above), ``"batched"`` (SWAR even at
    one lane) or ``"vector"``.
    """
    if backend == "interp":
        raise NetlistError(
            "differential_check compares a codegen backend against the "
            "interpreter; backend='interp' would compare it to itself"
        )
    interp = Simulator(module)
    if lanes == 1 and backend == "compiled":
        compiled = CompiledSimulator(interp.module)
        stimulus = random_stimulus(interp.module, cycles, seed, bias)
        return interp.run(stimulus) == compiled.run(stimulus)
    # Build the lane engine directly: only the lane-parallel program is
    # compiled, never a scalar one this check wouldn't run.
    if backend in ("compiled", "batched"):
        engine = BatchedCompiledSimulator(interp.module, lanes)
    else:
        engine = resolve_backend(backend)(interp.module, lanes)
    streams = random_stimulus_batch(interp.module, cycles, lanes, seed, bias)
    return interp.run_batch(streams) == engine.run(streams)
