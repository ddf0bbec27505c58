"""Benchmark: compiled vs interpreted simulation, batched lanes, the
mega-lane vector backend, cold vs warm sessions, and thread- vs
process-grid scaling.

Writes ``BENCH_sim.json`` under the test's ``tmp_path``, so a test run
never rewrites the committed copy at the repo root; refresh that copy
by hand with a fixed base directory and a copy::

    PYTHONPATH=src python -m pytest benchmarks/test_sim_backend.py -q \
        --basetemp /tmp/bench
    cp /tmp/bench/test_sim_backend_benchmark0/BENCH_sim.json .

It records per-design simulation throughput for both scalar
backends, the batched multi-lane throughput sweep (lanes in
{1, 4, 16, 64}, measured in *lane-cycles* per second — cycles times
lanes — the honest unit for batch mode), the vector backend's lane
sweep (lanes in {64, 256, 1024, 4096} on the numpy flavor; a small
sweep with no acceptance bar on the stdlib fallback), the auto-tuner's
measured per-design decision, the one-time code-generation overhead,
the wall-clock of a cold-then-warm session pair over the persistent
disk cache, and an :class:`EvalGrid` thread-vs-process comparison
whose results must be bit-identical.

The assertions encode the acceptance bars — the compiled backend ≥3x
the interpreter on the largest catalog design, the 16-lane batched mode
≥3x single-lane compiled throughput on that same design (tunable down
via ``$REPRO_BENCH_MIN_LANE_SPEEDUP`` for reduced-cycle CI smoke runs),
the vector backend's best lane count ≥3x the 64-lane SWAR batched
throughput on that same design (``$REPRO_BENCH_MIN_VECTOR_SPEEDUP``;
numpy flavor only), and the warm session served almost entirely from
disk.  Cycle counts scale down via ``$REPRO_BENCH_CYCLES``.

Every measured figure in the committed JSON is rounded to a fixed
number of significant digits (:func:`_sig`) and the payload is dumped
with sorted keys, so regeneration churns digits, never structure.
"""

import json
import math
import os
import time

from repro.designs.catalog import DESIGNS, design_point
from repro.driver import CompileSession, EvalGrid
from repro.rtl import (
    BatchedCompiledSimulator,
    CompiledSimulator,
    Simulator,
    VectorCompiledSimulator,
    compile_netlist,
    random_stimulus,
    random_stimulus_batch,
    tune,
    vector_flavor,
)

CYCLES = int(os.environ.get("REPRO_BENCH_CYCLES", "256"))
SEED = 0xBE
LANE_SWEEP = (1, 4, 16, 64)
#: The vector backend only pulls ahead at lane counts SWAR cannot
#: reach; on the pure-stdlib fallback flavor the per-lane loops make
#: mega-lane timing pointless, so the sweep shrinks and carries no bar.
VECTOR_LANE_SWEEP = (64, 256, 1024, 4096)
VECTOR_LANE_SWEEP_STDLIB = (8, 32)
#: Vector lane counts are ~100x the SWAR sweep's; fewer timed cycles
#: still move two orders of magnitude more lane-cycles per design.
VECTOR_CYCLES = max(16, CYCLES // 4)
#: 16-lane batched vs single-lane compiled on the largest design; CI
#: smoke jobs at reduced cycle counts relax it to "batched wins at all".
MIN_LANE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_LANE_SPEEDUP", "3.0"))
#: Best vector lane count vs 64-lane SWAR on the largest design.
MIN_VECTOR_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_VECTOR_SPEEDUP", "3.0")
)

#: The cold/warm pair sweeps a slice of the catalog through the full
#: pipeline (synthesize + simulate at -O2) — enough stages to be
#: representative without doubling the benchmark's runtime.
WARM_DESIGNS = ("fpu", "fft", "blas")

#: The grid comparison simulates every design at -O2 on the compiled
#: backend — CPU-bound work, which is what process mode exists for.
GRID_CYCLES = max(16, CYCLES // 4)


def _sig(value: float, digits: int = 3) -> float:
    """Round to ``digits`` significant figures — committed benchmark
    figures carry measurement jitter, not precision, and fewer digits
    keep regeneration diffs small."""
    if not value or not math.isfinite(value):
        return value
    return round(value, digits - 1 - math.floor(math.log10(abs(value))))


def _throughput(sim_cls, module, stimulus) -> float:
    simulator = sim_cls(module)
    start = time.perf_counter()
    simulator.run(stimulus)
    seconds = time.perf_counter() - start
    return len(stimulus) / seconds if seconds else float("inf")


def _lane_throughput(module, lanes, cycles) -> float:
    """Steady-state lane-cycles/sec (codegen warmed before timing)."""
    streams = random_stimulus_batch(module, cycles, lanes, SEED)
    BatchedCompiledSimulator(module, lanes)  # pay codegen outside timing
    simulator = BatchedCompiledSimulator(module, lanes)
    start = time.perf_counter()
    simulator.run(streams)
    seconds = time.perf_counter() - start
    return cycles * lanes / seconds if seconds else float("inf")


def _vector_throughput(module, lanes, cycles, flavor) -> float:
    """Steady-state lane-cycles/sec of the vector backend (stimulus and
    codegen both paid outside the timed window)."""
    streams = random_stimulus_batch(module, cycles, lanes, SEED)
    VectorCompiledSimulator(module, lanes, flavor=flavor)  # warm codegen
    simulator = VectorCompiledSimulator(module, lanes, flavor=flavor)
    start = time.perf_counter()
    simulator.run(streams)
    seconds = time.perf_counter() - start
    return cycles * lanes / seconds if seconds else float("inf")


def _design_rows(session):
    flavor = vector_flavor()
    vector_sweep = (
        VECTOR_LANE_SWEEP if flavor == "numpy" else VECTOR_LANE_SWEEP_STDLIB
    )
    rows = []
    for name in sorted(DESIGNS):
        source, component, generators, params = design_point(name)
        module = session.optimize(
            source, component, params, generators, opt_level=0
        ).value.module
        stimulus = random_stimulus(module, CYCLES, SEED)
        interp_cps = _throughput(Simulator, module, stimulus)
        compiled_cps = _throughput(CompiledSimulator, module, stimulus)
        lanes = {
            str(k): _sig(_lane_throughput(module, k, CYCLES))
            for k in LANE_SWEEP
        }
        vector = {
            str(k): _sig(_vector_throughput(module, k, VECTOR_CYCLES, flavor))
            for k in vector_sweep
        }
        tuned = tune(module, max(vector_sweep))
        rows.append(
            {
                "name": name,
                "cells": len(module.cells),
                "cycles": CYCLES,
                "interp_cycles_per_sec": _sig(interp_cps),
                "compiled_cycles_per_sec": _sig(compiled_cps),
                "speedup": _sig(compiled_cps / interp_cps),
                "batched_lane_cycles_per_sec": lanes,
                "lane16_speedup_vs_scalar": _sig(lanes["16"] / compiled_cps),
                "vector_lane_cycles_per_sec": vector,
                "vector_flavor": flavor,
                "vector_cycles": VECTOR_CYCLES,
                "tuned_backend": tuned.backend,
                "compile_seconds": _sig(
                    compile_netlist(module).compile_seconds
                ),
            }
        )
    return rows


def _timed_session(cache_dir):
    session = CompileSession(
        opt_level=2, sim_backend="compiled", cache_dir=cache_dir
    )
    start = time.perf_counter()
    for name in WARM_DESIGNS:
        source, component, generators, params = design_point(name)
        session.synthesize(source, component, params, generators)
        session.simulate(
            source, component, params, generators, cycles=64, seed=SEED
        )
    return time.perf_counter() - start, session


def _grid_trace(session, name):
    """Module-level so the process pool can pickle it."""
    source, component, generators, params = design_point(name)
    return session.simulate(
        source, component, params, generators,
        cycles=GRID_CYCLES, seed=SEED, opt_level=2, backend="compiled",
    ).value.outputs


def _timed_grid(executor, cache_dir):
    session = CompileSession(opt_level=2, cache_dir=cache_dir)
    grid = EvalGrid(session, max_workers=4, executor=executor)
    start = time.perf_counter()
    results = grid.map(_grid_trace, sorted(DESIGNS))
    return time.perf_counter() - start, results


def test_sim_backend_benchmark(tmp_path):
    rows = _design_rows(CompileSession())

    cold_seconds, _ = _timed_session(str(tmp_path / "bench-cache"))
    warm_seconds, warm_session = _timed_session(str(tmp_path / "bench-cache"))
    disk = warm_session.disk_stats()

    # Thread vs process grid over separate cold caches: identical
    # results, wall-clocks recorded for the scaling trajectory.
    thread_seconds, thread_results = _timed_grid(
        "thread", str(tmp_path / "grid-thread")
    )
    process_seconds, process_results = _timed_grid(
        "process", str(tmp_path / "grid-process")
    )
    assert process_results == thread_results

    largest = max(rows, key=lambda row: row["cells"])
    vector_best = max(largest["vector_lane_cycles_per_sec"].values())
    vector_vs_swar64 = _sig(
        vector_best / largest["batched_lane_cycles_per_sec"]["64"]
    )
    payload = {
        "generated_by": "benchmarks/test_sim_backend.py",
        "designs": rows,
        "largest_design": largest["name"],
        "largest_design_speedup": largest["speedup"],
        "largest_design_lane16_speedup": largest["lane16_speedup_vs_scalar"],
        "largest_design_vector_vs_swar64": vector_vs_swar64,
        "vector_flavor": largest["vector_flavor"],
        "warm_vs_cold": {
            "designs": list(WARM_DESIGNS),
            "stages": ["synthesize", "simulate"],
            "opt_level": 2,
            "sim_backend": "compiled",
            "cold_seconds": _sig(cold_seconds),
            "warm_seconds": _sig(warm_seconds),
            "speedup": _sig(cold_seconds / warm_seconds, 2),
            "warm_disk_hit_rate": _sig(disk["hit_rate"], 2),
        },
        "grid": {
            "points": sorted(DESIGNS),
            "cycles": GRID_CYCLES,
            "workers": 4,
            "thread_seconds": _sig(thread_seconds),
            "process_seconds": _sig(process_seconds),
            "results_identical": True,
        },
    }
    bench_path = tmp_path / "BENCH_sim.json"
    bench_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    print(f"\nSimulation backends over {CYCLES} cycles (cycles/sec):\n")
    for row in rows:
        lanes = row["batched_lane_cycles_per_sec"]
        print(
            f"  {row['name']:8s} {row['cells']:5d} cells  "
            f"interp {row['interp_cycles_per_sec']:10.0f}  "
            f"compiled {row['compiled_cycles_per_sec']:10.0f}  "
            f"({row['speedup']:.2f}x, compile {row['compile_seconds']*1e3:.1f}ms)"
        )
        print(
            "           lanes  "
            + "  ".join(f"{k}: {lanes[str(k)]:.0f}" for k in LANE_SWEEP)
            + f"  (x16 = {row['lane16_speedup_vs_scalar']:.2f}x scalar)"
        )
        vector = row["vector_lane_cycles_per_sec"]
        print(
            f"           vector ({row['vector_flavor']})  "
            + "  ".join(f"{k}: {cps:.0f}" for k, cps in vector.items())
            + f"  -> auto picks {row['tuned_backend']}"
        )
    print(
        f"\n  cold session {cold_seconds:.2f}s -> warm session "
        f"{warm_seconds:.2f}s ({cold_seconds / warm_seconds:.1f}x, "
        f"disk hit rate {disk['hit_rate']:.0%})"
    )
    print(
        f"  grid over {len(DESIGNS)} designs: thread {thread_seconds:.2f}s, "
        f"process {process_seconds:.2f}s (results identical)"
    )
    print(f"  wrote {bench_path}")

    # Acceptance: the compiled backend is ≥3x interpreter on the largest
    # design, 16 batched lanes multiply its throughput again, the vector
    # backend's best lane count leaves 64-lane SWAR behind (numpy flavor
    # only — the stdlib fallback exists for correctness, not speed), and
    # the disk cache makes the second session nearly free.
    assert largest["speedup"] >= 3.0, largest
    assert largest["lane16_speedup_vs_scalar"] >= MIN_LANE_SPEEDUP, largest
    if largest["vector_flavor"] == "numpy":
        assert vector_vs_swar64 >= MIN_VECTOR_SPEEDUP, largest
    assert disk["hit_rate"] >= 0.9, disk
    assert warm_seconds < cold_seconds, (warm_seconds, cold_seconds)
