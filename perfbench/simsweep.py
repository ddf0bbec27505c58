"""sim-sweep: steady-state throughput of the three codegen simulation engines.

One process, no disk cache.  Set-up takes every catalog design through
the public stage entry points (parse -> elaborate -> flatten -> ``-O2``
pipeline), code-generates each engine, computes the interpreter
reference traces and runs one warm-up pass.  A timed pass runs every
(design, engine) pair's step loop (``run``) once; only the step loops
are timed.

The process is driven over a pipe, so the caller decides when work
runs and can time its host between requests::

    PYTHONPATH=src python perfbench/simsweep.py --seed 1

reads one command per line: ``setup`` (reply: its seconds at reference
host speed and the host factor used) or ``pass``
(reply: the pass's seconds, each pair's lane-cycles/s at reference host
speed, ``null`` for a failed pair, and the host factors used; see
:func:`host_factor`), each answered by one JSON line.  At end of input it
prints the operation counts.  With ``--trace`` it instead runs one
set-up and one pass under :mod:`spans` and prints the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List, Optional

#: engine -> (lanes per run, cycles per run).  Lane counts are each
#: engine's operating point; cycles are sized so one run of the slowest
#: design takes tens of milliseconds, long enough to time steadily.
ENGINE_SHAPES = {
    "compiled": (1, 512),
    "batched": (64, 64),
    "vector": (1024, 32),
}

#: Lanes besides lane 0 that each lane engine is checked on, against an
#: interpreter run at the lane's ``derive_lane_seed`` seed.
SAMPLED_LANES = 2

#: Seconds :func:`kernel` takes at the reference host speed that engine
#: rates are scaled to (see :func:`host_factor`).
REFERENCE_SECONDS = 0.002


def kernel() -> int:
    """A fixed interpreter-bound loop: dict, integer and index work."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(10000):
        table[i & 1023] = i * 3 ^ acc
        acc = (acc + table.get((i * 7) & 1023, 1)) & 0xFFFF
    return acc


def host_factor() -> float:
    """How much slower than the reference speed the host runs now.

    A shared host's speed drifts by tens of percent over minutes and
    slows all code together, so an engine run's rate times the factor
    measured right after it is the rate at reference speed.  The kernel
    is the benchmark's own code: no change to the program moves it.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_SECONDS


def numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def build_netlist(name: str, observer=None):
    """Catalog design -> flattened, ``-O2``-optimized netlist."""
    from repro.designs.catalog import design_point
    from repro.generators.base import GeneratorRegistry
    from repro.lilac.elaborate import Elaborator
    from repro.lilac.stdlib import stdlib_program
    from repro.rtl import flatten
    from repro.rtl.passes import pipeline_for_level

    source, component, generators, params = design_point(name)
    registry = generators
    if not isinstance(registry, GeneratorRegistry):
        registry = GeneratorRegistry()
        for generator in generators or ():
            registry.register(generator)
    program = stdlib_program(source)
    elab = Elaborator(program, registry, observer=observer).elaborate(
        component, params
    )
    module = flatten(elab.module)
    pipeline_for_level(2).run(module)
    return module


def make_engine(engine: str, module):
    from repro.rtl import (
        BatchedCompiledSimulator,
        CompiledSimulator,
        VectorCompiledSimulator,
    )

    lanes, _ = ENGINE_SHAPES[engine]
    if engine == "compiled":
        return CompiledSimulator(module)
    if engine == "batched":
        return BatchedCompiledSimulator(module, lanes)
    return VectorCompiledSimulator(module, lanes, flavor="numpy")


def landed_on(engine: str, simulator) -> bool:
    """True iff ``simulator`` is the requested engine, not a fallback."""
    expected = {
        "compiled": "CompiledSimulator",
        "batched": "BatchedCompiledSimulator",
        "vector": "VectorCompiledSimulator",
    }[engine]
    if type(simulator).__name__ != expected:
        return False
    return engine != "vector" or getattr(simulator, "flavor", None) == "numpy"


class Pair:
    """One (design, engine) cell: its stimulus and what checks its output."""

    def __init__(self, design: str, engine: str, module, seed: int):
        from repro.rtl import random_stimulus, random_stimulus_batch

        self.design = design
        self.engine = engine
        self.module = module
        self.lanes, self.cycles = ENGINE_SHAPES[engine]
        if engine == "compiled":
            self.stimulus = random_stimulus(module, self.cycles, seed)
            self.checked = [0]
        else:
            self.stimulus = random_stimulus_batch(
                module, self.cycles, self.lanes, seed
            )
            rng = random.Random(f"{seed}:{design}:{engine}")
            self.checked = [0] + sorted(
                rng.sample(range(1, self.lanes), SAMPLED_LANES)
            )
        self.key = f"{design}/{engine}"
        #: lane -> interpreter trace; filled by ``references``.
        self.expected: Dict[int, list] = {}

    def agrees(self, outputs) -> bool:
        if self.engine == "compiled":
            outputs = [outputs]
        return all(outputs[lane] == self.expected[lane] for lane in self.checked)


def references(pairs: List["Pair"], seed: int) -> None:
    """Interpreter traces for every checked lane (``rtl.Simulator``).

    Lane 0 of every engine runs the batch seed itself, so one
    interpreter run as long as the longest engine run serves every
    engine's lane 0 as a prefix.
    """
    from repro.rtl import Simulator, derive_lane_seed, random_stimulus

    by_design: Dict[str, List[Pair]] = {}
    for pair in pairs:
        by_design.setdefault(pair.design, []).append(pair)
    for group in by_design.values():
        module = group[0].module
        longest = max(pair.cycles for pair in group)
        lane0 = Simulator(module).run(random_stimulus(module, longest, seed))
        for pair in group:
            for lane in pair.checked:
                if lane == 0:
                    pair.expected[0] = lane0[: pair.cycles]
                else:
                    pair.expected[lane] = Simulator(module).run(
                        random_stimulus(
                            module, pair.cycles, derive_lane_seed(seed, lane)
                        )
                    )


class Sweep:
    """Set-up plus timed passes over every (design, engine) pair."""

    def __init__(self, designs: List[str], engines: List[str], seed: int):
        self.designs = designs
        self.engines = engines
        self.seed = seed
        self.pairs: List[Pair] = []
        self.attempted = 0
        self.failed = 0
        self.components = 0

    # Elaborator observer hooks (counts genuine elaborations).
    def component_elaborated(self, name, env) -> None:
        self.components += 1

    def stage_time(self, stage, seconds) -> None:
        pass

    def setup(self) -> None:
        """Build every pair from scratch (code-generation memos cleared),
        so repeated set-ups each pay the full cost."""
        from repro.rtl import clear_compile_memo, clear_vector_memo

        clear_compile_memo()
        clear_vector_memo()
        self.pairs = []
        self.components = 0
        for design in self.designs:
            module = build_netlist(design, observer=self)
            for engine in self.engines:
                self.pairs.append(Pair(design, engine, module, self.seed))
        references(self.pairs, self.seed)
        # Warm-up: code generation, first-touch allocation and the
        # first output check happen here, not in a timed pass.
        self.one_pass()

    def one_pass(self) -> dict:
        """Run every pair once.

        Returns the summed step-loop seconds (as measured), each pair's
        lane-cycles/s at reference host speed and the host factor used;
        a pair whose output disagrees with the interpreter, or that
        landed on another engine, reads ``None``.
        """
        total = 0.0
        rates: Dict[str, Optional[float]] = {}
        factors: Dict[str, float] = {}
        for pair in self.pairs:
            simulator = make_engine(pair.engine, pair.module)
            start = time.perf_counter()
            outputs = simulator.run(pair.stimulus)
            seconds = time.perf_counter() - start
            total += seconds
            factor = factors[pair.key] = host_factor()
            self.attempted += 1
            ok = landed_on(pair.engine, simulator) and pair.agrees(outputs)
            self.failed += 0 if ok else 1
            rate = pair.lanes * pair.cycles / seconds * factor
            rates[pair.key] = rate if ok else None
        return {"seconds": total, "rates": rates, "factors": factors}


def _engines_available() -> List[str]:
    engines = ["compiled", "batched"]
    if numpy_version() is not None:
        engines.append("vector")
    return engines


def _reply(payload) -> None:
    print(json.dumps(payload), flush=True)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="span dump path")
    args = parser.parse_args(argv)

    from repro.designs.catalog import DESIGNS

    sweep = Sweep(sorted(DESIGNS), _engines_available(), args.seed)
    if not args.trace:
        for line in sys.stdin:
            if line.strip() == "setup":
                before = host_factor()
                start = time.perf_counter()
                sweep.setup()
                seconds = time.perf_counter() - start
                factor = (before + host_factor()) / 2
                _reply({"seconds": seconds / factor, "factor": factor})
            else:
                _reply(sweep.one_pass())
        _reply({"attempted": sweep.attempted, "failed": sweep.failed})
        return 0

    import spans

    tracer = spans.Tracer()
    spans.install_layers(tracer)
    sweep.setup()
    engine_spans = [f"sim.{engine}" for engine in sweep.engines]
    before = sum(tracer.total_s.get(name, 0.0) for name in engine_spans)
    traced = sweep.one_pass()["seconds"]
    covered = sum(
        tracer.total_s.get(name, 0.0) for name in engine_spans
    ) - before
    tracer.uninstall()
    untraced = sweep.one_pass()["seconds"]
    metrics = spans.layer_metrics(tracer)
    metrics["elaborate.components"] = sweep.components
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.uncovered_s"] = untraced - covered
    if args.spans:
        tracer.dump(args.spans)
    _reply({"attempted": sweep.attempted, "failed": sweep.failed,
            "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
