"""Diagnostics for the type checker: errors with counterexamples.

A failed obligation yields the paper's style of message, e.g.::

    Signal available in [G+Add::#L, G+Add::#L+1] but required in [G, G+1]
    counterexample: #W = 32, Add::#L = 2, Mul::#L = 1

The counterexample is a concrete parameterization (built from the SMT
model) under which the structural hazard manifests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ast import LilacError


class TypeCheckError(LilacError):
    """A single type error with an optional counterexample model."""

    def __init__(
        self,
        component: str,
        message: str,
        counterexample: Optional[Dict[str, int]] = None,
        kind: str = "error",
    ):
        self.component = component
        self.reason = message
        self.counterexample = counterexample or {}
        self.kind = kind
        super().__init__(self.render())

    def __reduce__(self):
        # Exception's default reduce replays ``args`` (the rendered
        # text) into __init__, which does not match this signature —
        # reports carrying errors must survive pickling for the disk
        # cache.
        return (
            TypeCheckError,
            (self.component, self.reason, self.counterexample, self.kind),
        )

    def render(self) -> str:
        lines = [f"[{self.component}] {self.reason}"]
        if self.counterexample:
            pairs = ", ".join(
                f"{name} = {value}"
                for name, value in sorted(self.counterexample.items())
            )
            lines.append(f"  counterexample: {pairs}")
        return "\n".join(lines)


class CheckReport:
    """Outcome of checking one component.

    ``counters``/``timings`` carry the discharge loop's solver
    statistics (query counts, cache hits, per-phase wall time) — the
    session aggregates them into ``--stats json``.
    """

    def __init__(
        self,
        component: str,
        errors: List[TypeCheckError],
        obligations: int,
        counters: Optional[Dict[str, int]] = None,
        timings: Optional[Dict[str, float]] = None,
    ):
        self.component = component
        self.errors = errors
        self.obligations = obligations
        self.counters = counters or {}
        self.timings = timings or {}

    @property
    def ok(self) -> bool:
        return not self.errors

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.errors)} error(s)"
        return f"CheckReport({self.component}: {status}, {self.obligations} obligations)"


def format_counterexample(
    model: Dict[str, int], display: Dict[str, str]
) -> Dict[str, int]:
    """Project an SMT model onto user-meaningful names.

    Keeps parameters (``#...``) and output-parameter applications, rewriting
    the latter through the display map (``(FPAdd.#L 32)`` -> ``Add::#L``).
    """
    out: Dict[str, int] = {}
    for name, value in model.items():
        if name.startswith("$") or name.startswith("@"):
            continue
        nice = name
        for raw, pretty_name in display.items():
            if raw in nice:
                nice = nice.replace(raw, pretty_name)
        if nice.startswith("(") and nice == name:
            # An application with no display entry: skip internals.
            if "." not in name:
                continue
        out[nice] = value
    return out
