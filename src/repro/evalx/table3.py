"""Table 3: generators integrated with Lilac and the interface features
needed to capture them.

    Generator     Features
    PipelineC     in-dep
    FloPoCo       in-dep, out-dep
    XLS           in-dep, ii-gt-1
    Spiral FFT    in-dep, out-dep, ii-gt-1
    Aetherling    in-dep, out-dep, ii-gt-1, multi

Features are *computed* from the Lilac interface declarations in
``repro.generators.interfaces`` rather than restated:

* ``in-dep``  — the generator consumes input parameters (they influence
  the produced module, and hence its timing);
* ``out-dep`` — output parameters appear in timing positions (intervals
  or the event delay);
* ``ii-gt-1`` — the event delay is not the constant 1;
* ``multi``   — some input port's availability interval can span more
  than one cycle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..driver import CompileSession, default_session
from ..lilac.ast import GEN, Signature
from ..params import PInt, free_params, pretty
from ..generators.interfaces import ALL_INTERFACES, TABLE3_FEATURES
from ..synth import format_table

# Display name of each generator tool.
TOOL_NAMES = {
    "pipelinec": "PipelineC",
    "flopoco": "FloPoCo",
    "xls": "XLS",
    "spiral": "Spiral FFT",
    "aetherling": "Aetherling",
    "vivado-mult": "Vivado Multiplier",
    "vivado-div": "Vivado Divider",
    "vivado-fft": "Vivado FFT",
    "serializer": "Serializer",
}

PAPER_ROWS = ("PipelineC", "FloPoCo", "XLS", "Spiral FFT", "Aetherling")


def _timing_exprs(sig: Signature):
    yield sig.event.delay
    for port in sig.inputs + sig.outputs:
        if port.interface:
            continue
        yield port.interval.start
        yield port.interval.end


def features_of_signature(sig: Signature) -> FrozenSet[str]:
    features = set()
    if sig.params:
        features.add("in-dep")
    out_names = set(sig.out_param_names())
    for expr in _timing_exprs(sig):
        if free_params(expr) & out_names:
            features.add("out-dep")
    if sig.event.delay != PInt(1):
        features.add("ii-gt-1")
    for port in sig.inputs:
        if port.interface:
            continue
        length = _constant_window(port)
        if length is None or length > 1:
            features.add("multi")
    return frozenset(features)


def _constant_window(port):
    """Window length if constant, else None (parameter-dependent)."""
    start, end = port.interval.start, port.interval.end
    if isinstance(start, PInt) and isinstance(end, PInt):
        return end.value - start.value
    if free_params(end) == free_params(start) and pretty(end) == pretty(start):
        return 0
    # [G+e, G+e+1) style windows: end - start == 1 syntactically.
    from ..params import PBin

    if isinstance(end, PBin) and end.op == "+" and end.lhs == start:
        if isinstance(end.rhs, PInt):
            return end.rhs.value
    return None


def compute_features(
    session: Optional[CompileSession] = None,
) -> Dict[str, FrozenSet[str]]:
    """Feature set per generator, aggregated over its declarations."""
    session = session or default_session()
    program = session.parse(ALL_INTERFACES, stdlib=False).value
    by_tool: Dict[str, set] = {}
    for component in program:
        sig = component.signature
        if sig.kind != GEN:
            continue
        name = TOOL_NAMES.get(sig.gen_tool, sig.gen_tool)
        by_tool.setdefault(name, set()).update(features_of_signature(sig))
    return {tool: frozenset(features) for tool, features in by_tool.items()}


FEATURE_ORDER = ("in-dep", "out-dep", "ii-gt-1", "multi")


def build_rows(
    session: Optional[CompileSession] = None,
) -> List[Tuple[str, str]]:
    computed = compute_features(session)
    rows = []
    for tool in PAPER_ROWS:
        features = computed.get(tool, frozenset())
        ordered = [f for f in FEATURE_ORDER if f in features]
        rows.append((tool, ", ".join(ordered)))
    return rows


def render(rows: List[Tuple[str, str]]) -> str:
    return format_table(["Generator", "Features"], rows)


def run(
    session: Optional[CompileSession] = None,
    workers: Optional[int] = None,
) -> str:
    # No grid here: workers accepted for the uniform artifact surface
    # and ignored.
    rows = build_rows(session=session)
    check_shape(rows)
    return render(rows)


def check_shape(rows: List[Tuple[str, str]]) -> None:
    computed = {tool: frozenset(f.split(", ")) - {""} for tool, f in rows}
    for tool, expected in TABLE3_FEATURES.items():
        assert computed[tool] == expected, (
            f"{tool}: computed {sorted(computed[tool])}, "
            f"paper says {sorted(expected)}"
        )
