"""In-memory spans around calls into each layer's public entry points.

The benchmark never instruments ``src/``: :class:`Tracer` swaps each
public entry point listed in :func:`install_layers` for a wrapper that
opens a span, calls the original and closes the span.  Spans nest per
thread, so a layer's *self* time is its spans' durations minus the
part covered by child spans on the same thread.  Spans stay in memory
and are written out once, by the caller, when the run ends.

Run as a script, this module is the traced ``repro all`` child of the
paper workloads::

    PYTHONPATH=src python perfbench/spans.py --cache-dir DIR --spans OUT

It times ``import repro.driver.cli``, installs the tracer, runs the CLI
exactly as ``python -m repro all -O2 --cache-dir DIR`` does, and prints
the rendered artifacts followed by one JSON line of per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Every per-layer metric the traced run reports, with its unit.  A
#: metric the workload never touches reads 0 (e.g. ``parse.s`` on
#: ``paper-warm``, whose artifacts all come from the disk cache).
ARTIFACTS = ("ablation", "figure13", "figure8", "table1", "table2", "table3")
TYPECHECK_DESIGNS = ("risc", "gbp", "fft_lilac", "fft_flopoco", "stdlib", "blas")
O2_PASSES = (
    "constant-fold", "common-cell-sharing", "delay-coalesce", "dead-cell-elim",
)
SIM_DESIGNS = ("blas", "fft", "flofft", "fpu", "gbp", "risc")
ENGINES = ("interp", "compiled", "batched", "vector")

PER_LAYER: List[Tuple[str, str]] = (
    [("import.s", "s")]
    + [(f"artifact.{name}.s", "s") for name in ARTIFACTS]
    + [("parse.s", "s"), ("typecheck.s", "s")]
    + [(f"typecheck.{name}.s", "s") for name in TYPECHECK_DESIGNS]
    + [
        ("typecheck.obligations", "count"),
        ("smt.queries", "count"),
        ("smt.memo_hits", "count"),
        ("smt.disk_hits", "count"),
        ("elaborate.s", "s"),
        ("elaborate.components", "count"),
        ("optimize.s", "s"),
    ]
    + [(f"pass.{name}.s", "s") for name in O2_PASSES]
    + [("optimize.cells_removed", "count")]
    + [(f"codegen.{engine}.s", "s") for engine in ENGINES[1:]]
    + [(f"sim.{engine}.s", "s") for engine in ENGINES]
    + [
        (f"sim.{engine}.{design}.s", "s")
        for engine in ENGINES
        for design in SIM_DESIGNS
    ]
    + [
        ("synthesize.s", "s"),
        ("disk.store.s", "s"),
        ("disk.load.s", "s"),
        ("disk.writes", "count"),
        ("disk.hits", "count"),
        ("disk.misses", "count"),
        ("disk.bytes", "bytes"),
        ("grid.map.s", "s"),
        ("grid.queue_wait.s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.uncovered_s", "s"),
    ]
)

#: Figure 8 row label -> design slug in ``typecheck.<design>.s``.
_FIGURE8_SLUGS = {
    "RISC 3-stage Base": "risc",
    "Gaussian Blur Pyramid": "gbp",
    "FFT (Lilac only)": "fft_lilac",
    "FFT (using FloPoCo)": "fft_flopoco",
    "Lilac's standard library": "stdlib",
    "BLAS Level 1 Kernels": "blas",
}


class Tracer:
    """Nested per-thread spans with self-time accounting.

    ``self_s[name]`` sums each span's duration minus its same-thread
    children; ``total_s[name]`` sums whole durations.  ``counts`` holds
    numbers read off the results the wrapped calls return.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (id, parent id, thread, names, start, end), kept in memory.
        self.spans: List[tuple] = []
        #: per-thread tag read by span namers (``design`` for typecheck).
        self.context = threading.local()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, names: Sequence[str], fn: Callable, *args, **kwargs):
        """Run ``fn`` inside one span credited to every name in ``names``."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), time.perf_counter(), 0.0, names]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            if stack:
                stack[-1][2] += duration
            own = duration - frame[2]
            with self._lock:
                for name in names:
                    self.self_s[name] += own
                    self.total_s[name] += duration
                self.spans.append((
                    frame[0], parent, threading.get_ident(), tuple(names),
                    frame[1], end,
                ))

    def enclosing(self) -> Tuple[str, ...]:
        """Names of the innermost open span on this thread, or ()."""
        stack = self._stack()
        return tuple(stack[-1][3]) if stack else ()

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        owner,
        attr: str,
        namer: Callable[[tuple, dict], Sequence[str]],
        after: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> None:
        """Route calls to ``owner.attr`` through a span.

        ``owner`` is a class (the method is replaced on it) or a module
        (the function is replaced in every loaded ``repro`` module that
        imported it by name, so ``from x import f`` call sites see it).
        ``namer`` returns the span's metric names, or None to run the
        call without a span (its time stays with the caller).
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            sites = [owner]
        else:
            original = getattr(owner, attr)
            sites = [
                module
                for name, module in list(sys.modules.items())
                if (name == "repro" or name.startswith("repro."))
                and getattr(module, attr, None) is original
            ]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            names = namer(args, kwargs)
            if names is None:
                return original(*args, **kwargs)
            result = self.call(names, original, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        for site in sites:
            self.replace(site, attr, wrapper)

    def replace(self, site, attr: str, value) -> None:
        """Set ``site.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((site, attr, getattr(site, attr)))
        setattr(site, attr, value)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write every recorded span (the once-at-the-end export)."""
        fields = ("id", "parent", "thread", "names", "start", "end")
        with open(path, "w") as handle:
            json.dump([dict(zip(fields, span)) for span in self.spans], handle)


def _design_of_module(components: Dict[str, str]):
    def design(module_name: str) -> Optional[str]:
        return components.get(module_name.split("_")[0])
    return design


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read.

    Import everything first: wrappers replace module attributes, so a
    module imported later would keep the unwrapped function.
    """
    from repro import evalx
    from repro.designs.catalog import DESIGNS, design_point
    from repro.driver.cache import DiskCache
    from repro.driver.grid import EvalGrid
    from repro.driver.session import CompileSession
    from repro.evalx import figure8
    from repro.lilac import stdlib
    from repro.lilac.elaborate import Elaborator
    from repro.lilac.parser import parser
    from repro.lilac.typecheck import check
    from repro.rtl import compile as rtl_compile
    from repro.rtl import netlist, vectorize
    from repro.rtl.compile import BatchedCompiledSimulator, CompiledSimulator
    from repro.rtl.passes.base import PassManager
    from repro.rtl.simulate import Simulator
    from repro.rtl.vectorize import VectorCompiledSimulator
    from repro.synth import report

    design_of = _design_of_module(
        {design_point(name)[1]: name for name in DESIGNS}
    )
    slug_of_source = {
        source: _FIGURE8_SLUGS.get(label, "other")
        for label, source, _ in figure8.DESIGNS
    }
    context = tracer.context

    def fixed(*names):
        return lambda args, kwargs: names

    def typecheck_names(args, kwargs):
        design = getattr(context, "design", None)
        if design is None:
            return ("typecheck",)
        return ("typecheck", f"typecheck.{design}")

    def session_typecheck(session, source, *args, **kwargs):
        previous = getattr(context, "design", None)
        context.design = slug_of_source.get(source, "other")
        try:
            return original_typecheck(session, source, *args, **kwargs)
        finally:
            context.design = previous

    original_typecheck = CompileSession.typecheck
    tracer.replace(
        CompileSession, "typecheck",
        functools.wraps(original_typecheck)(session_typecheck),
    )

    def engine_names(engine):
        def names(args, kwargs):
            design = design_of(args[0].module.name)
            if design is None:
                return (f"sim.{engine}",)
            return (f"sim.{engine}", f"sim.{engine}.{design}")
        return names

    def codegen_names(args, kwargs):
        lanes = kwargs.get("lanes", args[1] if len(args) > 1 else None)
        return ("codegen.compiled",) if lanes is None else ("codegen.batched",)

    def flatten_names(args, kwargs):
        # Lowering for the optimize stage; synthesis and the engines
        # flatten too, and that time belongs to them.
        outer = tracer.enclosing()
        if outer and not outer[0].startswith(("artifact.", "grid.")):
            return None
        return ("optimize",)

    def pass_stats(args, kwargs, stats):
        for stat in stats:
            tracer.count(f"pass.{stat.name}.s", stat.seconds)
            tracer.count("optimize.cells_removed", stat.cells_removed)

    tracer.wrap(stdlib, "stdlib_program", fixed("parse"))
    tracer.wrap(parser, "parse_program", fixed("parse"))
    tracer.wrap(check, "check_program", typecheck_names)
    tracer.wrap(check, "check_component", typecheck_names)
    tracer.wrap(Elaborator, "elaborate", fixed("elaborate"))
    tracer.wrap(netlist, "flatten", flatten_names)
    tracer.wrap(PassManager, "run", fixed("optimize"), after=pass_stats)
    tracer.wrap(rtl_compile, "compile_netlist", codegen_names)
    tracer.wrap(vectorize, "compile_vector_netlist", fixed("codegen.vector"))
    for engine, cls in (
        ("interp", Simulator),
        ("compiled", CompiledSimulator),
        ("batched", BatchedCompiledSimulator),
        ("vector", VectorCompiledSimulator),
    ):
        tracer.wrap(cls, "run", engine_names(engine))
    tracer.wrap(report, "synthesize", fixed("synthesize"))
    tracer.wrap(DiskCache, "store", fixed("disk.store"))
    tracer.wrap(DiskCache, "load", fixed("disk.load"))
    tracer.wrap(EvalGrid, "map", fixed("grid.map"))
    tracer.wrap(
        evalx, "run_artifact", lambda args, kwargs: (f"artifact.{args[0]}",)
    )


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per layer plus result-derived counts.

    ``artifact.<name>.s`` is the artifact span's whole duration: its
    self time would only be rendering, the rest sits in child layers.
    """
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for name, value in tracer.self_s.items():
        if f"{name}.s" in metrics:
            metrics[f"{name}.s"] = value
    for name in ARTIFACTS:
        metrics[f"artifact.{name}.s"] = tracer.total_s.get(f"artifact.{name}", 0.0)
    for name, value in tracer.counts.items():
        if name in metrics:
            metrics[name] = value
    return metrics


def session_counts(stats: dict) -> Dict[str, float]:
    """The ``--stats json`` counters the per-layer table names."""
    typecheck = stats.get("typecheck", {})
    disk = stats.get("disk", {})
    cache = stats.get("cache", {})
    return {
        "typecheck.obligations": typecheck.get("obligations", 0),
        "smt.queries": typecheck.get("solver_queries", 0),
        "smt.memo_hits": typecheck.get("memo_hits", 0),
        "smt.disk_hits": typecheck.get("disk_hits", 0),
        "elaborate.components": cache.get("counters", {}).get(
            "elaborate.components", 0
        ),
        "disk.writes": disk.get("writes", 0),
        "disk.hits": disk.get("hits", 0),
        "disk.misses": disk.get("misses", 0),
        "grid.queue_wait.s": cache.get("timers", {}).get("wait.pool_queue", 0.0),
    }


def _traced_paper(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", required=True, help="span dump path")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from repro.driver import cli
    import_seconds = time.perf_counter() - start

    tracer = Tracer()
    install_layers(tracer)
    sessions = []
    original_init = cli.CompileSession.__init__

    def capture(session, *a, **k):
        original_init(session, *a, **k)
        sessions.append(session)

    tracer.replace(cli.CompileSession, "__init__", capture)
    try:
        code = cli.main(["all", "-O2", "--cache-dir", args.cache_dir])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    metrics = layer_metrics(tracer)
    metrics["import.s"] = import_seconds
    if sessions:
        metrics.update(session_counts(sessions[0].stats_dict()))
    tracer.dump(args.spans)
    print(json.dumps({"exit": code, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(_traced_paper(sys.argv[1:]))
