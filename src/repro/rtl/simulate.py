"""Cycle-accurate two-phase simulator for RTL netlists.

Each cycle:

1. input ports are poked;
2. combinational logic is evaluated in topological order;
3. outputs can be sampled;
4. on ``tick`` the sequential cells (registers, FIFOs) latch.

Combinational loops are rejected at construction.  Values are Python ints
masked to net widths (two's-complement-free: all arithmetic is unsigned
modulo 2^width, like Verilog's unsigned semantics).
"""

from __future__ import annotations

import copy
import hashlib
import operator
import random
from collections import deque
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .netlist import Cell, Module, Net, NetlistError, comb_topo_order, flatten


def _mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


CombEvaluator = Callable[[Cell, Dict[Net, int]], int]


def _binary(op: Callable[[int, int], int]) -> CombEvaluator:
    def evaluate(cell: Cell, values: Dict[Net, int]) -> int:
        pins = cell.pins
        result = op(values[pins["a"]], values[pins["b"]])
        return result & ((1 << pins["out"].width) - 1)

    return evaluate


def _shift(op: Callable[[int, int], int], param: str) -> CombEvaluator:
    def evaluate(cell: Cell, values: Dict[Net, int]) -> int:
        pins = cell.pins
        result = op(values[pins["a"]], int(cell.params[param]))
        return result & ((1 << pins["out"].width) - 1)

    return evaluate


def _const(cell: Cell, values: Dict[Net, int]) -> int:
    return int(cell.params["value"]) & ((1 << cell.pins["out"].width) - 1)


def _not(cell: Cell, values: Dict[Net, int]) -> int:
    pins = cell.pins
    return ~values[pins["a"]] & ((1 << pins["out"].width) - 1)


def _mux(cell: Cell, values: Dict[Net, int]) -> int:
    pins = cell.pins
    chosen = pins["a"] if values[pins["sel"]] & 1 else pins["b"]
    return values[chosen] & ((1 << pins["out"].width) - 1)


def _concat(cell: Cell, values: Dict[Net, int]) -> int:
    pins = cell.pins
    b_net = pins["b"]
    result = (values[pins["a"]] << b_net.width) | values[b_net]
    return result & ((1 << pins["out"].width) - 1)


#: Cell kind → evaluator of its ``out`` pin (see :func:`eval_comb_cell`).
#: Its keys are exactly :data:`~repro.rtl.netlist.COMBINATIONAL_KINDS`.
COMB_EVALUATORS: Dict[str, CombEvaluator] = {
    "const": _const,
    "add": _binary(operator.add),
    "sub": _binary(operator.sub),
    "mul": _binary(operator.mul),
    "div": _binary(lambda a, b: a // b if b else 0),
    "mod": _binary(lambda a, b: a % b if b else 0),
    "and": _binary(operator.and_),
    "or": _binary(operator.or_),
    "xor": _binary(operator.xor),
    "eq": _binary(operator.eq),
    "lt": _binary(operator.lt),
    "not": _not,
    "shl": _shift(operator.lshift, "amount"),
    "shr": _shift(operator.rshift, "amount"),
    "mux": _mux,
    "slice": _shift(operator.rshift, "lsb"),
    "concat": _concat,
}


def eval_comb_cell(cell: Cell, values: Dict[Net, int]) -> int:
    """Evaluate one combinational cell over ``values`` (a Net → int map).

    Returns the value of the cell's ``out`` pin, masked to its width.
    :data:`COMB_EVALUATORS` is the single definition of combinational
    semantics: the simulator applies it per cycle and the
    constant-folding pass applies it at compile time, so folding can
    never diverge from simulation.
    """
    evaluate = COMB_EVALUATORS.get(cell.kind)
    if evaluate is None:
        raise NetlistError(f"cannot evaluate cell kind {cell.kind!r}")
    return evaluate(cell, values)


def random_stimulus(
    module: Module, cycles: int, seed: int = 0, bias: float = 0.0
) -> List[Dict[str, int]]:
    """Reproducible per-cycle input vectors for every input port.

    The same ``(module ports, cycles, seed, bias)`` always yields the
    same stream — ``random.Random`` is a platform-independent Mersenne
    twister — so differential-simulation tests are stable across runs
    and machines.  Ports are visited in declaration order.

    ``bias`` mixes corner vectors into the stream: with that probability
    (drawn from the same seeded generator, so still fully deterministic)
    a port gets all-zeros, all-ones, or the top-bit-set max-magnitude
    value instead of a uniform draw.  Pure-random vectors almost never
    exercise overflow/zero corners in wide datapaths; ``bias=0`` (the
    default) preserves the historical stream exactly.
    """
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must be within [0, 1], got {bias!r}")
    rng = random.Random(seed)
    inputs = module.inputs()
    if not bias:
        # Exactly the historical draw order: one getrandbits per port.
        return [
            {name: rng.getrandbits(net.width) for name, net in inputs}
            for _ in range(cycles)
        ]
    vectors: List[Dict[str, int]] = []
    for _ in range(cycles):
        vector: Dict[str, int] = {}
        for name, net in inputs:
            if rng.random() < bias:
                width = net.width
                vector[name] = rng.choice(
                    (0, (1 << width) - 1, 1 << (width - 1))
                )
            else:
                vector[name] = rng.getrandbits(net.width)
        vectors.append(vector)
    return vectors


def derive_lane_seed(seed: int, lane: int) -> int:
    """The stimulus seed lane ``lane`` of a batch uses.

    Lane 0 keeps the batch seed itself, so the first lane of any batched
    run reproduces the corresponding single-lane run exactly.  Every
    other lane's seed goes through SHA-256, which decorrelates the
    Mersenne-twister streams (nearby integer seeds produce visibly
    related first draws) and is identical on every platform.
    """
    if lane == 0:
        return int(seed)
    digest = hashlib.sha256(f"{int(seed)}:{int(lane)}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def random_stimulus_batch(
    module: Module, cycles: int, lanes: int, seed: int = 0, bias: float = 0.0
) -> List[List[Dict[str, int]]]:
    """``lanes`` independent stimulus streams from one batch seed.

    Stream ``k`` is exactly ``random_stimulus(module, cycles,
    derive_lane_seed(seed, k), bias)``: lanes are pairwise uncorrelated
    (distinct derived seeds feed distinct generators), the corner
    ``bias`` applies within each lane independently, and the whole batch
    is a pure function of ``(ports, cycles, lanes, seed, bias)``.
    """
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes!r}")
    return [
        random_stimulus(module, cycles, derive_lane_seed(seed, lane), bias)
        for lane in range(lanes)
    ]


def _lane_streams(engine, input_streams) -> List[List[Dict[str, int]]]:
    """One list per lane, all the same length, or a :class:`NetlistError`."""
    streams = [list(stream) for stream in input_streams]
    if len(streams) != engine.lanes:
        raise NetlistError(
            f"{engine.module.name}: got {len(streams)} streams for "
            f"{engine.lanes} lanes"
        )
    lengths = {len(stream) for stream in streams}
    if len(lengths) > 1:
        raise NetlistError(
            f"{engine.module.name}: lane streams differ in length: "
            f"{sorted(lengths)}"
        )
    return streams


def step_lanes(
    engine, input_streams: Sequence[List[Dict[str, int]]]
) -> List[List[Dict[str, int]]]:
    """Drive a lane engine one ``step`` per cycle; one trace per lane.

    ``input_streams`` holds one stream per lane (the format
    :func:`random_stimulus_batch` produces).  ``step`` defines what lanes
    driving different port subsets mean (a port a lane omits keeps that
    lane's previous value), which is why :func:`run_lanes` falls back to
    this path for such streams.
    """
    streams = _lane_streams(engine, input_streams)
    traces: List[List[Dict[str, int]]] = [[] for _ in streams]
    step = engine.step
    for vectors in zip(*streams):
        for trace, outputs in zip(traces, step(vectors)):
            trace.append(outputs)
    return traces


def lane_major(kept: List[Sequence[int]]) -> Iterator[int]:
    """Per-cycle lists of lane values → every lane's values, lane-major
    (a ``finish`` for :func:`run_lanes`)."""
    return chain.from_iterable(zip(*kept))


def run_lanes(
    engine, input_streams: Sequence[List[Dict[str, int]]]
) -> List[List[Dict[str, int]]]:
    """Drive a lane engine over whole streams, like :func:`step_lanes`.

    Same traces and end state, but marshalling happens once per run
    instead of once per cycle: each driven port's values are pulled out
    of every lane dict in one pass, the engine packs them, the cycle
    loop only rebinds input slots and calls the generated
    evaluate/latch, and each lane's output dicts are built at the end.
    Stimulus is read and traces are built lane by lane, the order
    :func:`random_stimulus_batch` allocates its dicts in.  Output slot
    values are kept per cycle by reference, which is sound only because
    generated code rebinds slots and never writes into a column or
    packed value.  Runs in which the lane dicts do not all drive the
    same ports go through ``step``.

    The engine supplies, besides the ``step`` surface and its generated
    ``_evaluate``/``_latch`` over ``_slots``/``_regs``/``_fifos``:

    * ``_input_slots``: input port → ``(slot, mask)``;
    * ``_feed(slot, mask, values)``: the per-cycle slot values for one
      port, given its values lane-major (all of lane 0's cycles, then
      lane 1's, ...), masked exactly like ``poke``;
    * ``_readers()``: ``(port, slot, take, finish)`` per output port —
      ``take`` converts the slot value each cycle (None keeps it by
      reference) and ``finish`` turns the kept values into every lane's
      values, lane-major like ``_feed``'s.

    ``finish`` returns one flat sequence rather than a list per lane: the
    per-lane lists would outlive several collections of the cyclic
    garbage collector and make its full collections come sooner (in a
    traced ``sim-sweep`` pass, two of them then landed in the ``fft``
    vector run).
    """
    streams = _lane_streams(engine, input_streams)
    cycles = len(streams[0])
    if not cycles:
        return [[] for _ in streams]
    # flat[lane * cycles + cycle] is lane ``lane``'s input dict at ``cycle``.
    flat = list(chain.from_iterable(streams))
    ports = list(flat[0])
    # Equal sizes plus every dict holding every port (itemgetter raises
    # otherwise) means every dict drives exactly the same ports.
    if set(map(len, flat)) != {len(ports)}:
        return step_lanes(engine, streams)
    try:
        columns = [list(map(itemgetter(port), flat)) for port in ports]
    except KeyError:
        return step_lanes(engine, streams)
    feeds = []
    for port, values in zip(ports, columns):
        entry = engine._input_slots.get(port)
        if entry is None:
            raise NetlistError(
                f"{engine.module.name}: no input port {port!r}"
            )
        index, mask = entry
        feeds.append((index, iter(engine._feed(index, mask, values))))
    readers = engine._readers()
    kept: List[list] = [[] for _ in readers]
    slots, regs, fifos = engine._slots, engine._regs, engine._fifos
    evaluate, latch = engine._evaluate, engine._latch
    for _ in range(cycles):
        for index, feed in feeds:
            slots[index] = next(feed)
        evaluate(slots, regs, fifos)
        for keep, (_, index, take, _) in zip(kept, readers):
            value = slots[index]
            keep.append(value if take is None else take(value))
        latch(slots, regs, fifos)
        engine.cycle += 1
    finished = [
        (port, iter(finish(keep)))
        for (port, _, _, finish), keep in zip(readers, kept)
    ]
    traces: List[List[Dict[str, int]]] = []
    for _ in streams:
        trace: List[Dict[str, int]] = [{} for _ in range(cycles)]
        for port, values in finished:
            # zip stops at the trace's end before taking a value, so
            # each lane consumes exactly its own ``cycles`` values.
            for record, value in zip(trace, values):
                record[port] = value
        traces.append(trace)
    return traces


class _FifoState:
    __slots__ = ("queue", "depth")

    def __init__(self, depth: int):
        self.queue: deque = deque()
        self.depth = depth


class Simulator:
    """Simulates a (hierarchical) module; hierarchy is flattened first.

    Already-flat modules (e.g. the ``optimize`` stage's output) are
    used as-is — simulation never mutates the netlist, so no defensive
    copy is needed.  Registers, FIFOs, ports and the evaluation order
    are listed once here, so a cycle never scans the cell table.
    """

    def __init__(self, module: Module):
        if any(c.kind == "submodule" for c in module.cells.values()):
            self.module = flatten(module)
        else:
            self.module = module
        self.module.validate()
        cells = self.module.cells.values()
        regs = [cell for cell in cells if cell.kind in ("reg", "regen")]
        self._reg_inits = {
            cell.name: int(cell.params.get("init", 0)) for cell in regs
        }
        self._reg_outputs = [
            (cell.name, cell.pins["q"], (1 << cell.pins["q"].width) - 1)
            for cell in regs
        ]
        self._reg_inputs = [
            (
                cell.name,
                cell.pins["d"],
                cell.pins["en"] if cell.kind == "regen" else None,
            )
            for cell in regs
        ]
        self._fifos = [cell for cell in cells if cell.kind == "fifo"]
        self._inputs = {
            name: (net, (1 << net.width) - 1)
            for name, net in self.module.inputs()
        }
        self._outputs = self.module.outputs()
        self._comb = [
            (COMB_EVALUATORS[cell.kind], cell, cell.pins["out"])
            for cell in comb_topo_order(self.module)
        ]
        self._reset()

    def _reset(self) -> None:
        self.values: Dict[Net, int] = {
            net: 0 for net in self.module.nets.values()
        }
        self.reg_state: Dict[str, int] = dict(self._reg_inits)
        self.fifo_state: Dict[str, _FifoState] = {
            cell.name: _FifoState(int(cell.params.get("depth", 2)))
            for cell in self._fifos
        }
        self.cycle = 0

    def _lane(self) -> "Simulator":
        """A simulator from reset sharing this one's netlist and order."""
        lane = copy.copy(self)
        lane._reset()
        return lane

    # ------------------------------------------------------------------

    def poke(self, inputs: Dict[str, int]) -> None:
        values = self.values
        for name, value in inputs.items():
            entry = self._inputs.get(name)
            if entry is None:
                raise NetlistError(f"{self.module.name}: no input port {name!r}")
            net, mask = entry
            values[net] = int(value) & mask

    def evaluate(self) -> None:
        """Drive sequential outputs from state, then evaluate comb logic."""
        values = self.values
        state = self.reg_state
        for name, q, mask in self._reg_outputs:
            values[q] = state[name] & mask
        for cell in self._fifos:
            self._drive_fifo_outputs(cell)
        for evaluate, cell, out in self._comb:
            values[out] = evaluate(cell, values)

    def peek(self, name: str) -> int:
        net = self.module.ports.get(name)
        if net is None:
            raise NetlistError(f"{self.module.name}: no port {name!r}")
        return self.values[net]

    def peek_net(self, net_name: str) -> int:
        net = self.module.nets.get(net_name)
        if net is None:
            raise NetlistError(f"{self.module.name}: no net {net_name!r}")
        return self.values[net]

    def tick(self) -> None:
        """Clock edge: latch registers and FIFOs from current net values.

        Latching reads only net values, never register state, so every
        register can take its new value in place.
        """
        values = self.values
        state = self.reg_state
        for name, d, en in self._reg_inputs:
            if en is None or values[en] & 1:
                state[name] = values[d]
        for cell in self._fifos:
            self._tick_fifo(cell)
        self.cycle += 1

    def step(self, inputs: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Poke, evaluate, sample all outputs, then tick.  Returns outputs."""
        if inputs:
            self.poke(inputs)
        self.evaluate()
        values = self.values
        outputs = {name: values[net] for name, net in self._outputs}
        self.tick()
        return outputs

    def run(self, input_stream: List[Dict[str, int]]) -> List[Dict[str, int]]:
        """Feed a sequence of input maps; collect outputs for each cycle."""
        return [self.step(inputs) for inputs in input_stream]

    def run_random(
        self, cycles: int, seed: int = 0, bias: float = 0.0
    ) -> List[Dict[str, int]]:
        """Drive ``cycles`` of seeded random stimulus (reproducible)."""
        return self.run(random_stimulus(self.module, cycles, seed, bias))

    def run_batch(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """Simulate each stream independently from reset; one trace per
        stream.  The interpreter has no lane parallelism — this is the
        sequential reference the batched compiled backend is verified
        against, each lane on fresh state over this simulator's
        evaluation order."""
        return [self._lane().run(stream) for stream in input_streams]

    def run_random_batch(
        self, cycles: int, lanes: int, seed: int = 0, bias: float = 0.0
    ) -> List[List[Dict[str, int]]]:
        """``lanes`` independent seeded runs (see ``derive_lane_seed``)."""
        return self.run_batch(
            random_stimulus_batch(self.module, cycles, lanes, seed, bias)
        )

    # ------------------------------------------------------------------

    def _drive_fifo_outputs(self, cell: Cell) -> None:
        state = self.fifo_state[cell.name]
        values = self.values
        in_ready = cell.pins["in_ready"]
        out_valid = cell.pins["out_valid"]
        out_data = cell.pins["out_data"]
        values[in_ready] = 1 if len(state.queue) < state.depth else 0
        if state.queue:
            values[out_valid] = 1
            values[out_data] = _mask(state.queue[0], out_data.width)
        else:
            values[out_valid] = 0
            values[out_data] = 0

    def _tick_fifo(self, cell: Cell) -> None:
        state = self.fifo_state[cell.name]
        values = self.values
        popped = (
            state.queue
            and values[cell.pins["out_ready"]] & 1
            and values[cell.pins["out_valid"]] & 1
        )
        pushed = (
            values[cell.pins["in_valid"]] & 1
            and values[cell.pins["in_ready"]] & 1
        )
        if popped:
            state.queue.popleft()
        if pushed:
            state.queue.append(values[cell.pins["in_data"]])
