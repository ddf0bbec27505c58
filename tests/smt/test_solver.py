"""End-to-end tests for the DPLL(T) solver, including the paper's examples."""

import itertools
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.smt import (
    And,
    App,
    Div,
    Eq,
    Ge,
    Gt,
    Implies,
    IncrementalSolver,
    Int,
    IntVal,
    Le,
    Lt,
    Mod,
    Ne,
    Not,
    Or,
    Plus,
    Solver,
    Times,
    check_sat,
    prove,
)

x, y, z = Int("x"), Int("y"), Int("z")


def test_sat_simple():
    result = check_sat(Ge(x, 3), Le(x, 5))
    assert result.is_sat
    assert 3 <= result.model["x"] <= 5


def test_unsat_simple():
    result = check_sat(Ge(x, 3), Le(x, 2))
    assert result.is_unsat


def test_boolean_structure():
    result = check_sat(Or(Eq(x, 1), Eq(x, 2)), Ne(x, 1))
    assert result.is_sat
    assert result.model["x"] == 2


def test_disjunction_both_false_unsat():
    result = check_sat(Or(Eq(x, 1), Eq(x, 2)), Ne(x, 1), Ne(x, 2))
    assert result.is_unsat


def test_implication_chains():
    result = check_sat(
        Implies(Ge(x, 5), Ge(y, 10)),
        Ge(x, 7),
        Le(y, 9),
    )
    assert result.is_unsat


def test_prove_valid():
    # x >= 1 and y >= x implies y >= 1
    result = prove(Ge(y, 1), Ge(x, 1), Ge(y, x))
    assert result.is_unsat  # negation unsatisfiable == proven


def test_prove_invalid_gives_counterexample():
    result = prove(Ge(y, 1), Ge(x, 1))
    assert result.is_sat
    assert result.model["y"] < 1


@pytest.mark.parametrize("reverse", [False, True])
def test_prove_rewrites_pending_equalities(reverse):
    """``z = 3 /\\ 3y + 2z = 0`` forces ``y = -2``, so ``y < -3`` does
    not follow.  Eliminating ``3y + 2z = 0`` first takes a unimodular
    step; the pending ``z = 3`` must be rewritten along with it."""
    facts = [Eq(z, 3), Eq(Plus(Times(3, y), Times(2, z)), 0)]
    if reverse:
        facts.reverse()
    result = prove(Lt(y, -3), *facts)
    assert result.is_sat
    assert result.model == {"y": -2, "z": 3}


def test_disequality_splitting():
    result = check_sat(Ne(x, 0), Ge(x, 0), Le(x, 1))
    assert result.is_sat
    assert result.model["x"] == 1


def test_uf_congruence():
    # f(x) != f(y) with x == y is unsat (functional consistency).
    fx, fy = App("f", x), App("f", y)
    result = check_sat(Eq(x, y), Ne(fx, fy))
    assert result.is_unsat


def test_uf_different_args_sat():
    fx, fy = App("f", x), App("f", y)
    result = check_sat(Ne(x, y), Ne(fx, fy))
    assert result.is_sat


def test_output_parameter_encoding_example():
    """The paper's section 4.2 examples.

    FAdd[16,8]::#L == FAdd[16,8]::#L is valid, and
    Max[#A,#B]::#O == Max[#X,#Y]::#O holds if #A==#X and #B==#Y.
    """
    fadd_1 = App("FAdd_L", IntVal(16), IntVal(8))
    fadd_2 = App("FAdd_L", IntVal(16), IntVal(8))
    assert prove(Eq(fadd_1, fadd_2)).is_unsat

    a, b, xx, yy = Int("A"), Int("B"), Int("X"), Int("Y")
    max_ab = App("Max_O", a, b)
    max_xy = App("Max_O", xx, yy)
    result = prove(Eq(max_ab, max_xy), Eq(a, xx), Eq(b, yy))
    assert result.is_unsat
    # Without the equalities the claim is not provable.
    assert prove(Eq(max_ab, max_xy)).is_sat


def test_exp2_log2_roundtrip():
    n = Int("N")
    roundtrip = App("exp2", App("log2", n))
    result = prove(Eq(roundtrip, n), Ge(n, 1))
    assert result.is_unsat


def test_log2_monotone():
    result = prove(
        Le(App("log2", x), App("log2", y)),
        Le(x, y),
        Ge(x, 1),
    )
    assert result.is_unsat


def test_exp2_constant_eval():
    result = check_sat(Eq(x, App("exp2", IntVal(4))), Ne(x, IntVal(16)))
    assert result.is_unsat


def test_log2_constant_eval():
    result = check_sat(Eq(x, App("log2", IntVal(8))), Ne(x, IntVal(3)))
    assert result.is_unsat


def test_div_elimination():
    # x == 7, y == x div 2 implies y == 3
    result = check_sat(Eq(x, 7), Eq(y, Div(x, IntVal(2))), Ne(y, 3))
    assert result.is_unsat


def test_mod_elimination():
    result = check_sat(Eq(x, 7), Eq(y, Mod(x, IntVal(2))), Ne(y, 1))
    assert result.is_unsat


def test_div_symbolic():
    # 16 % N == 0 and N > 0 and N <= 16 is satisfiable (the Aetherling
    # chunk-size constraint from figure 10a).
    n = Int("N")
    result = check_sat(
        Eq(Mod(IntVal(16), n), 0), Ge(n, 1), Le(n, 16)
    )
    assert result.is_sat
    assert 16 % result.model["N"] == 0


def test_nonlinear_abstraction_zero():
    # x*y with x == 0 must be 0.
    product = Int("p")
    from repro.smt import Times

    result = check_sat(
        Eq(product, Times(x, y)), Eq(x, 0), Ne(product, 0)
    )
    assert result.is_unsat


def test_nonlinear_abstraction_unit():
    from repro.smt import Times

    result = check_sat(Eq(z, Times(x, y)), Eq(x, 1), Ne(z, y))
    assert result.is_unsat


def test_nonlinear_sign():
    from repro.smt import Times

    result = check_sat(Eq(z, Times(x, y)), Ge(x, 1), Ge(y, 1), Lt(z, 0))
    assert result.is_unsat


def test_pipeline_balance_obligation():
    """The FPU pipeline-balancing obligation from section 3.2.

    With Max == max(AddL, MulL), Shift by Max-AddL delays the adder output
    to cycle Max; similarly for the multiplier.  The mux reads both at
    cycle Max — valid for every parameterization.
    """
    add_l, mul_l, mx = Int("AddL"), Int("MulL"), Int("Max")
    facts = And(
        Ge(add_l, 1),
        Ge(mul_l, 1),
        Or(Eq(mx, add_l), Eq(mx, mul_l)),
        Ge(mx, add_l),
        Ge(mx, mul_l),
    )
    # Adder output shifted by (Max - AddL) is available at AddL + (Max-AddL).
    available = add_l + (mx - add_l)
    assert prove(Eq(available, mx), facts).is_unsat


def test_unbalanced_pipeline_counterexample():
    """Without balancing, reading the multiplier at Add::#L is invalid
    whenever the latencies differ -- the solver finds a witness."""
    add_l, mul_l = Int("AddL"), Int("MulL")
    facts = And(Ge(add_l, 1), Ge(mul_l, 1))
    result = prove(Eq(mul_l, add_l), facts)
    assert result.is_sat
    assert result.model["AddL"] != result.model["MulL"]


def test_model_includes_uf_values():
    fx = App("f", x)
    result = check_sat(Eq(fx, 5), Eq(x, 2))
    assert result.is_sat
    app_values = {k: v for k, v in result.model.items() if k.startswith("(f")}
    assert 5 in app_values.values()


@settings(max_examples=60, deadline=None)
@given(
    bound=st.integers(0, 12),
    offset=st.integers(-5, 5),
)
def test_interval_containment_property(bound, offset):
    """[G+o, G+o+1) inside [G, G+bound) iff 0 <= o < bound -- the core
    availability-interval check the type system performs."""
    g = Int("G")
    contained = And(
        Le(g, g + offset),
        Le(g + offset + 1, g + bound),
    )
    result = check_sat(contained, Ge(g, 0))
    if 0 <= offset and offset + 1 <= bound:
        assert result.is_sat
    else:
        assert result.is_unsat


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=4))
def test_membership_encoding(values):
    """x constrained to a finite set is satisfiable exactly when nonempty."""
    disjuncts = Or(*[Eq(x, v) for v in values])
    result = check_sat(disjuncts)
    assert result.is_sat
    assert result.model["x"] in values


# -- ground truth: DPLL(T) against enumeration of a bounded box ----------

_VARS = (x, y, z)
_BOX = [bound for var in _VARS for bound in (Ge(var, -4), Le(var, 4))]
_POINTS = list(itertools.product(range(-4, 5), repeat=3))  # 729 points
_RELATIONS = {
    "<=": (Le, operator.le),
    "<": (Lt, operator.lt),
    "=": (Eq, operator.eq),
    "!=": (Ne, operator.ne),
}

#: ``("atom", ((a, b, c), relation, k))`` means ``a*x + b*y + c*z rel k``.
_atoms = st.tuples(
    st.tuples(*[st.integers(-3, 3)] * 3),
    st.sampled_from(sorted(_RELATIONS)),
    st.integers(-6, 6),
).map(lambda atom: ("atom", atom))
_formulas = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        sub.map(lambda f: ("not", f)),
        st.tuples(st.sampled_from(("and", "or", "implies")), sub, sub),
    ),
    max_leaves=5,
)


def _atom(coeffs, relation, k):
    return ("atom", (coeffs, relation, k))


# z = 3 /\ 3y + 2z = 0 /\ not(y < -3): satisfied only by y = -2, z = 3.
_PENDING_SAT = ("and", _atom((0, 0, 1), "=", 3),
                ("and", _atom((0, 3, 2), "=", 0),
                 ("not", _atom((0, 1, 0), "<", -3))))
_PENDING_SAT_SWAPPED = ("and", _atom((0, 3, 2), "=", 0),
                        ("and", _atom((0, 0, 1), "=", 3),
                         ("not", _atom((0, 1, 0), "<", -3))))
# z = 0 /\ 3y + 2z + 1 = 0: 3y = -1 has no integer solution.
_PENDING_UNSAT = ("and", _atom((0, 0, 1), "=", 0), _atom((0, 3, 2), "=", -1))


def _term(formula):
    kind = formula[0]
    if kind == "atom":
        coeffs, relation, k = formula[1]
        lhs = Plus(*[Times(c, var) for c, var in zip(coeffs, _VARS)])
        return _RELATIONS[relation][0](lhs, IntVal(k))
    if kind == "not":
        return Not(_term(formula[1]))
    build = {"and": And, "or": Or, "implies": Implies}[kind]
    return build(_term(formula[1]), _term(formula[2]))


def _holds(formula, point):
    kind = formula[0]
    if kind == "atom":
        coeffs, relation, k = formula[1]
        total = sum(c * v for c, v in zip(coeffs, point))
        return _RELATIONS[relation][1](total, k)
    if kind == "not":
        return not _holds(formula[1], point)
    left, right = _holds(formula[1], point), _holds(formula[2], point)
    if kind == "and":
        return left and right
    if kind == "or":
        return left or right
    return (not left) or right


def _assert_matches_enumeration(formula, result):
    expected = any(_holds(formula, point) for point in _POINTS)
    assert result.is_sat == expected, (formula, result)
    if result.is_sat:
        point = tuple(result.model.get(var.name, 0) for var in _VARS)
        assert all(-4 <= value <= 4 for value in point), (formula, result)
        assert _holds(formula, point), (formula, result)


@settings(max_examples=300, deadline=None)
@given(formula=_formulas)
@example(formula=_PENDING_SAT)
@example(formula=_PENDING_SAT_SWAPPED)
@example(formula=_PENDING_UNSAT)
def test_check_sat_agrees_with_enumeration(formula):
    """``check_sat`` over the box ``-4 <= x, y, z <= 4`` says SAT exactly
    when one of the box's 729 points satisfies the formula, and every
    SAT model is such a point."""
    _assert_matches_enumeration(formula, check_sat(*_BOX, _term(formula)))


@settings(max_examples=100, deadline=None)
@given(queries=st.lists(_formulas, min_size=1, max_size=4))
@example(queries=[_PENDING_SAT, _PENDING_UNSAT, _PENDING_SAT_SWAPPED])
def test_incremental_queries_agree_with_enumeration(queries):
    """The same oracle through one :class:`IncrementalSolver`: the box
    is asserted once as permanent facts and each formula is one query,
    so learned lemmas and shared encodings carry across the sequence."""
    solver = IncrementalSolver()
    solver.add(*_BOX)
    for formula in queries:
        _assert_matches_enumeration(formula, solver.check(_term(formula)))
