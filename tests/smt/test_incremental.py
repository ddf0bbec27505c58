"""The incremental DPLL(T) engine: parity with the one-shot solver,
assumption isolation and budgets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import smt
from repro.smt import IncrementalSolver, SolverError

x, y, z = smt.Int("x"), smt.Int("y"), smt.Int("z")


def test_basic_incremental_queries():
    solver = IncrementalSolver()
    solver.add(smt.Ge(x, 3))
    sat = solver.check(smt.Le(x, 5))
    assert sat.is_sat and 3 <= sat.model["x"] <= 5
    assert solver.check(smt.Le(x, 2)).is_unsat
    # the unsat query must not poison later ones
    again = solver.check(smt.Le(x, 10))
    assert again.is_sat


def test_queries_are_isolated():
    solver = IncrementalSolver()
    solver.add(smt.Ge(x, 0))
    assert solver.check(smt.Eq(x, 1)).is_sat
    # Eq(x, 2) must not see the retired Eq(x, 1)
    result = solver.check(smt.Eq(x, 2))
    assert result.is_sat and result.model["x"] == 2


def test_facts_accumulate():
    solver = IncrementalSolver()
    solver.add(smt.Ge(x, 0))
    assert solver.check(smt.Eq(x, 7)).is_sat
    solver.add(smt.Le(x, 5))
    assert solver.check(smt.Eq(x, 7)).is_unsat


def test_uninterpreted_functions_and_congruence():
    solver = IncrementalSolver()
    fx, fy = smt.App("f", x), smt.App("f", y)
    solver.add(smt.Eq(x, y))
    assert solver.check(smt.Ne(fx, fy)).is_unsat
    assert solver.check(smt.Eq(fx, fy)).is_sat


def test_divmod_definitions_shared_across_queries():
    solver = IncrementalSolver()
    solver.add(smt.Ge(x, 0), smt.Le(x, 100))
    q = smt.Div(x, smt.IntVal(4))
    assert solver.check(smt.Eq(q, 3), smt.Eq(x, 13)).is_sat
    assert solver.check(smt.Eq(q, 3), smt.Eq(x, 17)).is_unsat


def test_inconsistent_relevant_facts_make_query_unsat():
    solver = IncrementalSolver()
    solver.add(smt.Ge(x, 3), smt.Le(x, 2))
    assert solver.check(smt.Eq(x, 0)).is_unsat
    # Facts sharing no variables with the query sit outside the
    # relevance closure — exactly the one-shot engine's fact pruning —
    # so they cannot influence (or expose the inconsistency to) an
    # unrelated query.
    assert solver.check(smt.Eq(y, 0)).is_sat


@pytest.mark.parametrize("reverse", [False, True])
def test_pending_equalities_survive_a_unimodular_step(reverse):
    """``z = 3 /\\ 3y + 2z = 0`` forces ``y = -2`` in whichever order
    the equalities reach the solver, as permanent facts or as one
    query's assumptions."""
    step = smt.Plus(smt.Times(3, y), smt.Times(2, z))
    equalities = [smt.Eq(z, 3), smt.Eq(step, 0)]
    no_integer_y = [smt.Eq(z, 0), smt.Eq(step, -1)]  # 3y = -1
    if reverse:
        equalities.reverse()
        no_integer_y.reverse()
    solver = IncrementalSolver()
    solver.add(*equalities)
    result = solver.check(smt.Ge(y, -3))
    assert result.is_sat and (result.model["y"], result.model["z"]) == (-2, 3)
    assert solver.check(smt.Lt(y, -3)).is_unsat
    assumed = IncrementalSolver().check(*equalities, smt.Ge(y, -3))
    assert assumed.is_sat and assumed.model["y"] == -2
    assert IncrementalSolver().check(*no_integer_y).is_unsat


@settings(max_examples=25, deadline=None)
@given(
    lo=st.integers(min_value=-5, max_value=5),
    hi=st.integers(min_value=-5, max_value=5),
    probe=st.integers(min_value=-7, max_value=7),
)
def test_parity_with_one_shot(lo, hi, probe):
    goal = smt.And(smt.Ge(x, lo), smt.Le(x, hi), smt.Eq(x, probe))
    one = smt.check_sat(goal)
    inc = IncrementalSolver().check(goal)
    assert one.status == inc.status
    if one.is_sat:
        assert one.model["x"] == probe == inc.model["x"]


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(smt.solver, "DEFAULT_SMT_BUDGET", 1)
    solver = smt.Solver()
    solver.add(smt.Ge(x, 1), smt.Le(x, 0))
    with pytest.raises(SolverError):
        solver.check()
