"""Measured auto-tuning of the simulation backend choice.

``--sim-backend auto`` used to mean "apply the static heuristic", and
the static heuristic was wrong often enough to matter —
``BENCH_sim.json`` caught it picking SWAR batching on ``blas`` where it
runs at 0.51x scalar.  This module replaces guessing with measuring: a
short calibration run drives every candidate engine over the actual
design — scalar compiled, SWAR batched at a few lane counts, the vector
backend at a few lane counts — records lane-cycles/s for each, persists
the measurements in the disk cache keyed by the design's
``structural_hash`` (plus vector flavor and :data:`TUNER_VERSION`), and
resolves ``auto`` from the recorded profile from then on.

Two guarantees shape :func:`choose`:

* **never slower than scalar** — a non-scalar configuration is selected
  only when its *measured* throughput beats the measured scalar
  compiled throughput; ties and losses fall back to ``compiled``;
* **estimates stay conservative** — the estimate for a requested lane
  count is the measurement at the *nearest calibrated lane point*, not
  an extrapolation.

When no measurement exists and calibration is disabled, the decision
falls back to ``"compiled"``, whose batch path applies the static
:func:`~repro.rtl.compile.swar_profitable` predicate — so even the cold
path never repeats the blas regression.

Knobs: ``$REPRO_TUNER_CYCLES`` (calibration cycles per candidate),
``$REPRO_TUNER_SWAR_LANES`` / ``$REPRO_TUNER_VECTOR_LANES``
(comma-separated candidate lane counts).
"""

from __future__ import annotations

import os
import time
from typing import Dict, NamedTuple, Optional, Tuple

from .netlist import Module
from .compile import (
    BatchedCompiledSimulator,
    CompiledSimulator,
    _flattened,
)
from .vectorize import VectorCompiledSimulator, vector_flavor

#: Version of the calibration/choice policy.  Part of every persisted
#: tuner entry's key: bump it whenever the measured quantities or the
#: decision rule change, so stale profiles become cache misses instead
#: of steering backend selection with incomparable numbers.  v2: lane
#: engines marshal whole runs, which changes the measured lane rates.
#: v3: the scalar program it times fuses single-reader expressions.
TUNER_VERSION = 3

#: Default calibration cycles per candidate configuration.
DEFAULT_TUNER_CYCLES = 32

#: Default candidate lane counts per lane-parallel backend.  SWAR
#: saturates by 64 lanes; the vector backend is calibrated further out
#: (but far enough in to keep calibration under a second per design).
DEFAULT_SWAR_LANES = (16, 64)
DEFAULT_VECTOR_LANES = (64, 256, 1024)
#: The stdlib vector flavor is pure-Python per-lane loops — calibrating
#: it at mega-lane counts would cost more than it could ever repay.
DEFAULT_VECTOR_LANES_STDLIB = (8, 32)

_SEED = 0x7E


class TunerDecision(NamedTuple):
    """One resolved ``auto`` choice: which engine, from which evidence."""

    backend: str  #: concrete backend name ("compiled"/"batched"/"vector")
    lanes: int  #: the lane count the decision was made for
    source: str  #: "measured" | "static" | "static-fallback"
    estimates: Optional[Dict[str, float]] = None  #: lane-cycles/s per backend
    flavor: Optional[str] = None  #: vector flavor the profile was taken with


def _lane_candidates(env_name: str, default: Tuple[int, ...]) -> Tuple[int, ...]:
    raw = os.environ.get(env_name)
    if not raw:
        return default
    lanes = tuple(
        int(part) for part in raw.split(",") if part.strip()
    )
    return tuple(l for l in lanes if l >= 2) or default


def _tuner_cycles(cycles: Optional[int]) -> int:
    if cycles is not None:
        return max(4, int(cycles))
    return max(4, int(os.environ.get("REPRO_TUNER_CYCLES", DEFAULT_TUNER_CYCLES)))


def _timed_lane_cps(sim, lanes: int, cycles: int) -> float:
    """Measured lane-cycles/s of one warmed engine instance."""
    sim.run_random(2, seed=_SEED)  # warm: codegen/exec paid outside timing
    start = time.perf_counter()
    sim.run_random(cycles, seed=_SEED)
    elapsed = max(time.perf_counter() - start, 1e-9)
    return lanes * cycles / elapsed


def measure_design(
    module: Module,
    cycles: Optional[int] = None,
    codegen_store=None,
    flavor: Optional[str] = None,
) -> Dict:
    """Calibrate every candidate engine on ``module``; returns the
    persistable measurement payload (see :func:`valid_tuner_payload`)."""
    flavor = vector_flavor(flavor)
    cycles = _tuner_cycles(cycles)
    module = _flattened(module)
    scalar = CompiledSimulator(module, codegen_store=codegen_store)
    scalar_cps = _timed_lane_cps(scalar, 1, cycles)
    swar: Dict[int, float] = {}
    for lanes in _lane_candidates("REPRO_TUNER_SWAR_LANES", DEFAULT_SWAR_LANES):
        sim = BatchedCompiledSimulator(
            module, lanes, codegen_store=codegen_store
        )
        swar[lanes] = _timed_lane_cps(sim, lanes, cycles)
    vector_defaults = (
        DEFAULT_VECTOR_LANES if flavor == "numpy"
        else DEFAULT_VECTOR_LANES_STDLIB
    )
    vector: Dict[int, float] = {}
    for lanes in _lane_candidates("REPRO_TUNER_VECTOR_LANES", vector_defaults):
        sim = VectorCompiledSimulator(
            module, lanes, codegen_store=codegen_store, flavor=flavor
        )
        vector[lanes] = _timed_lane_cps(sim, lanes, cycles)
    return {
        "tuner_version": TUNER_VERSION,
        "structural_hash": module.structural_hash(),
        "flavor": flavor,
        "cycles": cycles,
        "scalar_cps": scalar_cps,
        "swar": swar,
        "vector": vector,
    }


_TUNER_FIELDS = frozenset(
    (
        "tuner_version",
        "structural_hash",
        "flavor",
        "cycles",
        "scalar_cps",
        "swar",
        "vector",
    )
)


def valid_tuner_payload(payload, structural_hash: str, flavor: str) -> bool:
    """Is ``payload`` a well-formed tuner profile for this exact key?

    The single validation authority for persisted tuner entries: the
    store applies it on load (hit counters reflect *usable* profiles)
    and :func:`tune` re-applies it against duck-typed stores.
    """
    return (
        isinstance(payload, dict)
        and _TUNER_FIELDS <= set(payload)
        and payload["tuner_version"] == TUNER_VERSION
        and payload["structural_hash"] == structural_hash
        and payload["flavor"] == flavor
        and isinstance(payload["scalar_cps"], (int, float))
        and isinstance(payload["swar"], dict)
        and isinstance(payload["vector"], dict)
    )


def _estimate(points: Dict[int, float], lanes: int) -> float:
    """Throughput estimate at ``lanes``: the nearest calibrated point
    (larger point on ties — lane-cycles/s is non-decreasing in lanes
    for these engines, so this is the less optimistic of the two)."""
    if not points:
        return 0.0
    nearest = min(points, key=lambda point: (abs(point - lanes), -point))
    return points[nearest]


def choose(payload: Dict, lanes: int) -> TunerDecision:
    """Resolve one measured profile into a backend decision.

    Picks the backend with the best estimated lane-cycles/s at the
    requested lane count; a non-scalar backend wins only by *strictly*
    beating measured scalar throughput, so ``auto`` can never select a
    configuration its own profile recorded as slower than scalar.
    """
    scalar_cps = float(payload["scalar_cps"])
    estimates = {
        "compiled": scalar_cps,
        "batched": _estimate(payload["swar"], lanes),
        "vector": _estimate(payload["vector"], lanes),
    }
    backend = max(estimates, key=estimates.get)
    if estimates[backend] <= scalar_cps:
        backend = "compiled"
    return TunerDecision(
        backend=backend,
        lanes=lanes,
        source="measured",
        estimates=estimates,
        flavor=payload.get("flavor"),
    )


def tune(
    module: Module,
    lanes: int,
    store=None,
    codegen_store=None,
    cycles: Optional[int] = None,
    calibrate: bool = True,
    flavor: Optional[str] = None,
) -> TunerDecision:
    """Resolve ``auto`` for one (design, lane count).

    ``store`` is duck-typed like the codegen store (see
    ``repro.driver.cache.TunerStore``): ``load(structural_hash, flavor)
    -> payload | None`` plus ``save(payload)``.  A warm store answers
    without simulating anything; a cold store triggers one calibration
    run (unless ``calibrate=False``, e.g. under tight CLI latency) and
    persists the profile for every later session over the same design.

    Single-lane requests short-circuit to scalar compiled — there is no
    lane parallelism to tune.
    """
    lanes = int(lanes)
    if lanes <= 1:
        return TunerDecision(backend="compiled", lanes=lanes, source="static")
    flavor = vector_flavor(flavor)
    module = _flattened(module)
    structural = module.structural_hash()
    payload = None
    if store is not None:
        payload = store.load(structural, flavor)
        if payload is not None and not valid_tuner_payload(
            payload, structural, flavor
        ):
            payload = None
    if payload is None:
        if not calibrate:
            # Static fallback: "compiled" batch paths consult
            # swar_profitable, so SWAR-hostile designs stay sequential.
            return TunerDecision(
                backend="compiled", lanes=lanes, source="static-fallback",
                flavor=flavor,
            )
        payload = measure_design(
            module, cycles=cycles, codegen_store=codegen_store, flavor=flavor
        )
        if store is not None:
            store.save(payload)
    return choose(payload, lanes)
