"""Solver budget exhaustion: the degradation rung and attribution.

A DPLL(T) budget exhaustion mid-typecheck must degrade (fresh one-shot
solve, same verdict) rather than fail; only a double exhaustion escapes,
and then the error names the component and the canonical obligation
digest so the breakage is reproducible from the message alone.
"""

import pytest

from repro import smt
from repro.designs.catalog import design_point
from repro.driver import CompileSession
from repro.lilac.typecheck.check import clear_obligation_memo


def _cold_solver_state():
    """Budget faults only fire on queries that actually *solve*; the
    process-global verdict memos would answer them silently."""
    clear_obligation_memo()
    smt.clear_solver_caches()


def test_with_context_attaches_component_and_digest():
    raw = smt.SolverError("DPLL(T) conflict budget exhausted")
    assert raw.component is None and raw.digest is None
    dressed = raw.with_context(component="FPU", digest="abc123")
    assert dressed.component == "FPU"
    assert dressed.digest == "abc123"
    assert "component=FPU" in str(dressed)
    assert "obligation=abc123" in str(dressed)
    # The innermost attribution wins over later layers.
    redressed = dressed.with_context(component="Outer", digest="zzz")
    assert redressed.component == "FPU"
    assert redressed.digest == "abc123"


def test_injected_budget_exhaustion_degrades_not_fails():
    source, _, _, _ = design_point("fpu")

    _cold_solver_state()
    clean = CompileSession().typecheck(source).value

    _cold_solver_state()
    session = CompileSession(fault_plan="solver.budget")
    with pytest.warns(RuntimeWarning, match="degrading to a fresh"):
        faulted = session.typecheck(source).value

    assert session.stats.counter("fault.injected.solver.budget") == 1
    assert session.stats.counter("degrade.solver") == 1
    # The degradation rung costs a re-solve, never a verdict.
    assert [r.ok for r in faulted] == [r.ok for r in clean]
    assert [r.obligations for r in faulted] == [
        r.obligations for r in clean
    ]


def test_double_exhaustion_escapes_with_attribution(monkeypatch):
    """With a one-conflict budget the one-shot fallback re-exhausts:
    the escaping error must carry the attribution context."""
    monkeypatch.setattr(smt.solver, "DEFAULT_SMT_BUDGET", 1)
    _cold_solver_state()
    source, _, _, _ = design_point("fpu")
    with pytest.warns(RuntimeWarning, match="degrading to a fresh"):
        with pytest.raises(smt.SolverError) as caught:
            CompileSession().typecheck(source)
    error = caught.value
    assert error.component, "escaping budget error must name a component"
    assert error.digest and len(error.digest) == 64
    assert f"component={error.component}" in str(error)
    assert f"obligation={error.digest}" in str(error)
