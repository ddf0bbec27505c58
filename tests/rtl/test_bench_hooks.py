"""The repository benchmark's tracer still wraps every engine and
generator.

``perfbench/spans.py`` times each layer from outside the package:
``Tracer.wrap`` reads ``cls.__dict__["run"]`` on each engine class, and
replaces ``compile_netlist`` and ``compile_vector_netlist`` wherever they
were imported by name.  A refactor that moves ``run`` into a base class
makes every ``--trace 1`` run fail with ``KeyError``, and one that
routes a generator through the other's entry point charges its codegen
to the wrong span; no other test would notice either.
"""

import importlib.util
from pathlib import Path

from repro.designs.catalog import design_point
from repro.driver import CompileSession
from repro.rtl import (
    BatchedCompiledSimulator,
    CompiledSimulator,
    Simulator,
    VectorCompiledSimulator,
    random_stimulus,
    random_stimulus_batch,
)
from repro.rtl import vectorize

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_engines_record_their_codegen_and_sim_spans():
    source, component, generators, params = design_point("fpu")
    module = CompileSession(opt_level=2).optimize(
        source, component, params, generators
    ).value.module
    single = random_stimulus(module, 4, seed=1)
    lanes = random_stimulus_batch(module, 4, 3, seed=1)
    # engine → (how to build it, its stimulus, its codegen span or None)
    engines = {
        "interp": (lambda: Simulator(module), single, None),
        "compiled": (lambda: CompiledSimulator(module), single, "compiled"),
        "batched": (
            lambda: BatchedCompiledSimulator(module, 3), lanes, "batched"
        ),
    }
    if vectorize._numpy() is not None:
        engines["vector"] = (
            lambda: VectorCompiledSimulator(module, 3), lanes, "vector"
        )
    spans = _spans()
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        for engine, (make, stimulus, codegen) in engines.items():
            start = len(tracer.spans)
            make().run(stimulus)
            names = {span[3] for span in tracer.spans[start:]}
            expected = {(f"sim.{engine}", f"sim.{engine}.fpu")}
            if codegen is not None:
                expected.add((f"codegen.{codegen}",))
            assert names == expected, engine
    finally:
        tracer.uninstall()
