"""Linear integer arithmetic: normalization and an Omega-style decision
procedure with model extraction.

The Lilac type checker emits constraints over symbolic parameters (latencies,
initiation intervals, bundle indices).  After uninterpreted functions are
removed by Ackermann reduction, every theory atom is a linear constraint over
integer variables.  This module decides satisfiability of conjunctions of
such constraints *exactly* and produces integer models (used to build the
counterexample parameterizations the paper shows in section 3.2).

The algorithm follows Pugh's Omega test:

* equalities are eliminated with unimodular changes of variables (a
  Euclidean reduction that preserves integer solution sets bijectively);
* inequalities are eliminated with Fourier--Motzkin using the *dark shadow*
  for completeness, falling back to splinter enumeration in the rare case
  the dark shadow is strictly smaller than the real shadow.

Models are rebuilt by back-substitution through the recorded eliminations.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Tuple

from .terms import Term, Int

Model = Dict[Term, int]


class NonLinearError(Exception):
    """Raised when a term cannot be expressed as a linear expression."""


class LinExpr:
    """A linear expression ``sum(coeff * var) + const`` over Term variables."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Dict[Term, int]] = None, const: int = 0):
        self.coeffs: Dict[Term, int] = {}
        if coeffs:
            for var, coeff in coeffs.items():
                if coeff != 0:
                    self.coeffs[var] = coeff
        self.const = const

    @classmethod
    def _raw(cls, coeffs: Dict[Term, int], const: int) -> "LinExpr":
        """Internal fast path: adopt a pre-filtered coefficient dict.

        The public constructor re-filters zero coefficients on every
        call; the arithmetic methods below never produce zeros (integer
        products of non-zeros are non-zero, sums drop zeros eagerly),
        so they skip that pass — it dominated solver profiles.
        """
        self = object.__new__(cls)
        self.coeffs = coeffs
        self.const = const
        return self

    @staticmethod
    def constant(value: int) -> "LinExpr":
        return LinExpr._raw({}, value)

    @staticmethod
    def of_var(var: Term, coeff: int = 1) -> "LinExpr":
        if coeff == 0:
            return LinExpr._raw({}, 0)
        return LinExpr._raw({var: coeff}, 0)

    def copy(self) -> "LinExpr":
        return LinExpr._raw(dict(self.coeffs), self.const)

    def add(self, other: "LinExpr") -> "LinExpr":
        coeffs = dict(self.coeffs)
        get = coeffs.get
        for var, coeff in other.coeffs.items():
            new = get(var, 0) + coeff
            if new:
                coeffs[var] = new
            else:
                del coeffs[var]
        return LinExpr._raw(coeffs, self.const + other.const)

    def scale(self, factor: int) -> "LinExpr":
        if factor == 0:
            return LinExpr._raw({}, 0)
        if factor == 1:
            return self
        return LinExpr._raw(
            {var: coeff * factor for var, coeff in self.coeffs.items()},
            self.const * factor,
        )

    def sub(self, other: "LinExpr") -> "LinExpr":
        coeffs = dict(self.coeffs)
        get = coeffs.get
        for var, coeff in other.coeffs.items():
            new = get(var, 0) - coeff
            if new:
                coeffs[var] = new
            else:
                del coeffs[var]
        return LinExpr._raw(coeffs, self.const - other.const)

    def is_const(self) -> bool:
        return not self.coeffs

    def coeff(self, var: Term) -> int:
        return self.coeffs.get(var, 0)

    def without(self, var: Term) -> "LinExpr":
        coeffs = dict(self.coeffs)
        coeffs.pop(var, None)
        return LinExpr._raw(coeffs, self.const)

    def substitute(self, var: Term, replacement: "LinExpr") -> "LinExpr":
        coeff = self.coeffs.get(var)
        if coeff is None:
            return self
        out = self.without(var)
        return out.add(replacement.scale(coeff))

    def evaluate(self, model: Model) -> int:
        total = self.const
        for var, coeff in self.coeffs.items():
            total += coeff * model[var]
        return total

    def variables(self):
        return self.coeffs.keys()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.const))

    def __repr__(self) -> str:
        parts = [f"{c}*{v.sexpr()}" for v, c in self.coeffs.items()]
        parts.append(str(self.const))
        return " + ".join(parts)


#: Interned-term -> LinExpr memo.  Hash-consed terms make the key O(1)
#: and the conversion is referentially transparent; every LinExpr
#: operation returns a fresh object, so sharing memoized results is
#: safe as long as callers never mutate ``coeffs`` in place (none do).
_LINEXPR_MEMO: Dict[Term, LinExpr] = {}


def clear_linexpr_memo() -> None:
    _LINEXPR_MEMO.clear()
    _ELIM_PLAN_MEMO.clear()


def linexpr_of_term(term: Term) -> LinExpr:
    """Convert an integer term into a LinExpr (memoized on identity).

    Variables and uninterpreted applications become atomic variables.
    Multiplication is only allowed when at most one factor is non-constant;
    anything else raises :class:`NonLinearError` (the solver abstracts
    non-linear products before reaching this point).
    """
    # The theory layer's hottest entry point: one memo probe per call.
    hit = _LINEXPR_MEMO.get(term)
    if hit is not None:
        return hit
    out = _linexpr_of_term(term)
    _LINEXPR_MEMO[term] = out
    return out


def _linexpr_of_term(term: Term) -> LinExpr:
    op = term.op
    if op == "intval":
        return LinExpr.constant(term.value)
    if op in ("var", "app"):
        return LinExpr.of_var(term)
    if op == "+":
        out = LinExpr()
        for arg in term.args:
            out = out.add(linexpr_of_term(arg))
        return out
    if op == "neg":
        return linexpr_of_term(term.args[0]).scale(-1)
    if op == "*":
        const = 1
        base: Optional[LinExpr] = None
        for arg in term.args:
            sub = linexpr_of_term(arg)
            if sub.is_const():
                const *= sub.const
            elif base is None:
                base = sub
            else:
                raise NonLinearError(term.sexpr())
        if base is None:
            return LinExpr.constant(const)
        return base.scale(const)
    raise NonLinearError(term.sexpr())


def _normalize_ineq(expr: LinExpr) -> Optional[LinExpr]:
    """Normalize ``expr <= 0`` by dividing through the coefficient gcd.

    Returns None when the constraint is trivially true, and an expression
    with const > 0 and no variables means trivially false (caller checks).
    Integer tightening: ``g*sum <= -c`` becomes ``sum <= floor(-c/g)``.
    """
    if expr.is_const():
        return expr
    g = 0
    for coeff in expr.coeffs.values():
        g = gcd(g, abs(coeff))
    if g > 1:
        bound = -expr.const
        tightened = bound // g  # floor division: sum <= floor(bound/g)
        expr = LinExpr(
            {var: coeff // g for var, coeff in expr.coeffs.items()},
            -tightened,
        )
    return expr


def _pick_equality_var(expr: LinExpr) -> Term:
    return min(expr.coeffs, key=lambda v: (abs(expr.coeffs[v]), v.sexpr()))


class _FreshVars:
    """Source of fresh integer variables used during elimination."""

    def __init__(self):
        self.counter = 0

    def make(self, hint: str) -> Term:
        self.counter += 1
        return Int(f"$lia{self.counter}_{hint}")


def solve_system(
    equalities: List[LinExpr],
    inequalities: List[LinExpr],
    max_splinter_depth: int = 24,
) -> Optional[Model]:
    """Decide ``/\\ eq == 0  /\\  ineq <= 0`` over the integers.

    Returns a model (dict mapping variable Terms to ints) when satisfiable
    and None when unsatisfiable.  LinExprs are never mutated by the
    procedure (every operation returns a fresh object), so the inputs
    are used as-is — which also lets the equality-elimination plan cache
    key on row identity.
    """
    fresh = _FreshVars()
    return _solve(list(equalities), list(inequalities), fresh,
                  max_splinter_depth)


#: Equality-set (by row object ids) -> elimination plan.  Elimination
#: derives its substitutions from the equalities alone; the DPLL(T) hook
#: re-solves systems over the same (memoized, shared) equality rows with
#: varying inequality sides thousands of times, so the plan is computed
#: once per distinct set.  The value holds strong references to the rows,
#: which pins their ids and makes the id-based key collision-free.
_ELIM_PLAN_MEMO: Dict[tuple, tuple] = {}
_INFEASIBLE = object()


def _apply_map(expr: LinExpr, mapping: Dict[Term, LinExpr]) -> LinExpr:
    """Simultaneous substitution of variables by linear expressions."""
    touched = [var for var in expr.coeffs if var in mapping]
    if not touched:
        return expr
    coeffs: Dict[Term, int] = {}
    const = expr.const
    for var, coeff in expr.coeffs.items():
        replacement = mapping.get(var)
        if replacement is None:
            new = coeffs.get(var, 0) + coeff
            if new:
                coeffs[var] = new
            else:
                coeffs.pop(var, None)
            continue
        const += replacement.const * coeff
        for other, weight in replacement.coeffs.items():
            new = coeffs.get(other, 0) + weight * coeff
            if new:
                coeffs[other] = new
            else:
                coeffs.pop(other, None)
    return LinExpr._raw(coeffs, const)


def _elimination_plan(eqs: List[LinExpr]):
    """``(substitutions, composed_map)`` eliminating ``eqs``, or
    ``_INFEASIBLE`` when the equalities alone have no integer solution.

    ``substitutions`` is the sequential record (model rebuild applies it
    in reverse); ``composed_map`` is the same sequence composed into one
    simultaneous substitution, so each inequality is rewritten in a
    single pass instead of once per eliminated equality.
    """
    key = tuple(sorted(map(id, eqs)))
    hit = _ELIM_PLAN_MEMO.get(key)
    if hit is not None:
        return hit[1]
    substitutions: List[Tuple[Term, LinExpr]] = []
    if not _eliminate_equalities(eqs, substitutions):
        plan = _INFEASIBLE
    else:
        composed: Dict[Term, LinExpr] = {}
        for var, replacement in reversed(substitutions):
            composed[var] = _apply_map(replacement, composed)
        plan = (tuple(substitutions), composed)
    if len(_ELIM_PLAN_MEMO) >= 100_000:
        _ELIM_PLAN_MEMO.clear()
    _ELIM_PLAN_MEMO[key] = (list(eqs), plan)
    return plan


def _solve(
    eqs: List[LinExpr],
    ineqs: List[LinExpr],
    fresh: _FreshVars,
    depth: int,
) -> Optional[Model]:
    plan = _elimination_plan(eqs)
    if plan is _INFEASIBLE:
        return None
    sequential, composed = plan
    substitutions = list(sequential)
    if composed:
        ineqs = [_apply_map(i, composed) for i in ineqs]
    model = _solve_inequalities(ineqs, fresh, depth)
    if model is None:
        return None
    # Rebuild eliminated variables in reverse order of substitution.
    for var, expr in reversed(substitutions):
        model[var] = _eval_default(expr, model)
    return model


def _eval_default(expr: LinExpr, model: Model) -> int:
    """Evaluate, defaulting variables the reduced system left free to 0."""
    for var in expr.coeffs:
        model.setdefault(var, 0)
    return expr.evaluate(model)


def _eliminate_equalities(
    eqs: List[LinExpr],
    substitutions: List[Tuple[Term, LinExpr]],
) -> bool:
    """Eliminate all equalities, recording variable definitions; False
    when the equalities have no integer solution.

    Uses gcd feasibility checks plus Euclidean unimodular rewrites so that a
    unit-coefficient variable always eventually appears.  Every recorded
    substitution rewrites the equalities still pending as well: after a
    unimodular step ``var`` names a new variable for the whole system.
    """
    eqs = list(eqs)
    while eqs:
        eq = eqs.pop()
        if eq.is_const():
            if eq.const != 0:
                return False
            continue
        g = 0
        for coeff in eq.coeffs.values():
            g = gcd(g, abs(coeff))
        if eq.const % g != 0:
            return False
        if g > 1:
            eq = LinExpr(
                {var: coeff // g for var, coeff in eq.coeffs.items()},
                eq.const // g,
            )
        var = _pick_equality_var(eq)
        coeff = eq.coeffs[var]
        if abs(coeff) == 1:
            # var = -sign(coeff) * (eq - coeff*var)
            rest = eq.without(var).scale(-1 if coeff > 0 else 1)
            substitutions.append((var, rest))
            eqs = [e.substitute(var, rest) for e in eqs]
            continue
        # Euclidean reduction: substitute var := var' - sum(q_i * x_i) where
        # q_i = round-to-floor quotient of other coefficients by |coeff|.
        # This is unimodular, so integer solution sets are preserved.
        replacement = LinExpr.of_var(var)
        changed = False
        for other, other_coeff in list(eq.coeffs.items()):
            if other is var:
                continue
            quotient = other_coeff // coeff
            if quotient:
                replacement = replacement.add(LinExpr.of_var(other, -quotient))
                changed = True
        const_quotient = eq.const // coeff
        if const_quotient:
            # Fold part of the constant into the variable as well.
            replacement = replacement.add(LinExpr.constant(-const_quotient))
            changed = True
        if not changed:
            # Unreachable: ``var`` has the minimum absolute coefficient, so
            # every other coefficient has |a_i| >= |coeff| and a non-zero
            # floor quotient; with a single variable the gcd division above
            # already forced |coeff| == 1.
            raise AssertionError("equality elimination made no progress")
        substitutions.append((var, replacement))
        eqs = [e.substitute(var, replacement) for e in eqs]
        eqs.append(eq.substitute(var, replacement))
    return True


def _solve_inequalities(
    ineqs: List[LinExpr],
    fresh: _FreshVars,
    depth: int,
) -> Optional[Model]:
    # Normalize, drop trivial, fail fast on constant violations, and
    # keep only the tightest bound per coefficient vector: the checker's
    # queries contain many parallel copies of the same inequality
    # (renamed loop facts, congruence instances), and every redundant
    # row multiplies Fourier--Motzkin's output.  ``expr <= 0`` means
    # ``sum <= -const``, so for one vector the largest const dominates.
    tightest: Dict[frozenset, LinExpr] = {}
    for ineq in ineqs:
        norm = _normalize_ineq(ineq)
        if norm.is_const():
            if norm.const > 0:
                return None
            continue
        key = frozenset(norm.coeffs.items())
        prev = tightest.get(key)
        if prev is None or norm.const > prev.const:
            tightest[key] = norm
    work = list(tightest.values())
    if not work:
        return {}

    variables = set()
    for ineq in work:
        variables.update(ineq.variables())

    # Unconstrained-direction elimination: a variable with only lower bounds
    # or only upper bounds can always be satisfied; peel those first.
    for var in sorted(variables, key=lambda v: v.sexpr()):
        lowers = [i for i in work if i.coeff(var) < 0]
        uppers = [i for i in work if i.coeff(var) > 0]
        if lowers and uppers:
            continue
        rest = [i for i in work if i.coeff(var) == 0]
        model = _solve_inequalities(rest, fresh, depth)
        if model is None:
            return None
        _assign_free_var(model, var, lowers, uppers)
        return model

    # Pick the variable minimizing the number of generated constraints.
    def cost(var: Term) -> Tuple[int, str]:
        lows = sum(1 for i in work if i.coeff(var) < 0)
        ups = sum(1 for i in work if i.coeff(var) > 0)
        return (lows * ups, var.sexpr())

    var = min(variables, key=cost)
    lowers = []  # (a, b): b <= a * var, a > 0
    uppers = []  # (c, d): c * var <= d, c > 0
    rest = []
    for ineq in work:
        coeff = ineq.coeff(var)
        if coeff < 0:
            # rest - a*var <= 0  ==>  rest <= a*var  with a = -coeff.
            lowers.append((-coeff, ineq.without(var)))
        elif coeff > 0:
            # rest + c*var <= 0  ==>  c*var <= -rest.
            uppers.append((coeff, ineq.without(var).scale(-1)))
        else:
            rest.append(ineq)

    exact = all(a == 1 for a, _ in lowers) or all(c == 1 for c, _ in uppers)

    # Dark shadow (equals the real shadow when exact).
    shadow = list(rest)
    for a, b in lowers:
        for c, d in uppers:
            # real: c*b <= a*d ; dark adds (a-1)(c-1) slack requirement.
            expr = b.scale(c).sub(d.scale(a))
            if not exact:
                expr = expr.add(LinExpr.constant((a - 1) * (c - 1)))
            shadow.append(expr)
    model = _solve_inequalities(shadow, fresh, depth)
    if model is not None:
        value = _choose_between_bounds(model, lowers, uppers)
        if value is not None:
            model[var] = value
            return model
        # Dark shadow satisfiable but rounding failed (cannot happen for the
        # exact case); fall through to splinters.
    if exact:
        return None
    if depth <= 0:
        return None

    # Splinter enumeration: integer solutions missed by the dark shadow must
    # satisfy a*var = b + k for some lower bound (a, b) and small k.
    c_max = max(c for c, _ in uppers)
    for a, b in lowers:
        limit = (a * c_max - a - c_max) // c_max
        for k in range(limit + 1):
            # a*var - b - k == 0 together with the original system.
            eq = LinExpr.of_var(var, a).sub(b).add(LinExpr.constant(-k))
            model = _solve([eq], list(work), fresh, depth - 1)
            if model is not None:
                return model
    return None


# ---------------------------------------------------------------------------
# Certificate extraction: a provenance-tracking re-run of the decision
# procedure that returns *which input rows* derive a contradiction.
# Used by conflict minimization — one certificate run replaces dozens of
# deletion probes.  Only sound derivations contribute: when a non-exact
# dark-shadow step (or depth exhaustion) would be needed, no certificate
# is produced and the caller falls back to deletion minimization.

def core_of_system(
    eqs: List[Tuple[LinExpr, frozenset]],
    ineqs: List[Tuple[LinExpr, frozenset]],
    depth: int = 64,
) -> Optional[frozenset]:
    """An unsatisfiable subset of the tagged rows, as a union of tags.

    Rows are ``(expr, tags)`` meaning ``expr == 0`` / ``expr <= 0``;
    every derived constraint carries the union of its parents' tags, so
    a constant violation's tag set is a genuine Farkas-style certificate.
    Returns None when the system is satisfiable *or* no certificate
    could be established.
    """
    eqs = [(expr.copy(), tags) for expr, tags in eqs]
    ineqs = [(expr.copy(), tags) for expr, tags in ineqs]
    out = _core_eliminate_equalities(eqs, ineqs)
    if isinstance(out, frozenset):
        return out
    return _core_inequalities(out, depth)


def _core_eliminate_equalities(eqs, ineqs):
    """Tagged equality elimination; returns a core or the rewritten
    inequality rows."""
    eqs = list(eqs)
    ineqs = list(ineqs)
    while eqs:
        eq, tags = eqs.pop()
        if eq.is_const():
            if eq.const != 0:
                return tags
            continue
        g = 0
        for coeff in eq.coeffs.values():
            g = gcd(g, abs(coeff))
        if eq.const % g != 0:
            return tags
        if g > 1:
            eq = LinExpr(
                {var: coeff // g for var, coeff in eq.coeffs.items()},
                eq.const // g,
            )
        var = _pick_equality_var(eq)
        coeff = eq.coeffs[var]
        if abs(coeff) == 1:
            rest = eq.without(var).scale(-1 if coeff > 0 else 1)
            eqs = [
                (e.substitute(var, rest), t | tags if var in e.coeffs else t)
                for e, t in eqs
            ]
            ineqs = [
                (i.substitute(var, rest), t | tags if var in i.coeffs else t)
                for i, t in ineqs
            ]
            continue
        replacement = LinExpr.of_var(var)
        changed = False
        for other, other_coeff in list(eq.coeffs.items()):
            if other is var:
                continue
            quotient = other_coeff // coeff
            if quotient:
                replacement = replacement.add(LinExpr.of_var(other, -quotient))
                changed = True
        const_quotient = eq.const // coeff
        if const_quotient:
            replacement = replacement.add(LinExpr.constant(-const_quotient))
            changed = True
        if not changed:
            raise AssertionError("equality elimination made no progress")
        # The unimodular rewrite redefines ``var`` in terms of itself and
        # the other variables for every row, pending equalities included;
        # a change of variables derives nothing, so each row keeps its
        # own tags.
        eqs = [(e.substitute(var, replacement), t) for e, t in eqs]
        eqs.append((eq.substitute(var, replacement), tags))
        ineqs = [(i.substitute(var, replacement), t) for i, t in ineqs]
    return ineqs


def _core_inequalities(rows, depth: int) -> Optional[frozenset]:
    if depth <= 0:
        return None
    tightest: Dict[frozenset, Tuple[LinExpr, frozenset]] = {}
    for expr, tags in rows:
        norm = _normalize_ineq(expr)
        if norm.is_const():
            if norm.const > 0:
                return tags
            continue
        key = frozenset(norm.coeffs.items())
        prev = tightest.get(key)
        if prev is None or norm.const > prev[0].const:
            tightest[key] = (norm, tags)
    work = list(tightest.values())
    if not work:
        return None  # satisfiable

    variables = set()
    for expr, _ in work:
        variables.update(expr.variables())

    # One-sided variables cannot participate in a contradiction; peel.
    for var in sorted(variables, key=lambda v: v.sexpr()):
        lowers = [row for row in work if row[0].coeff(var) < 0]
        uppers = [row for row in work if row[0].coeff(var) > 0]
        if lowers and uppers:
            continue
        rest = [row for row in work if row[0].coeff(var) == 0]
        return _core_inequalities(rest, depth)

    def cost(var: Term) -> Tuple[int, str]:
        lows = sum(1 for row in work if row[0].coeff(var) < 0)
        ups = sum(1 for row in work if row[0].coeff(var) > 0)
        return (lows * ups, var.sexpr())

    var = min(variables, key=cost)
    lowers = []
    uppers = []
    rest = []
    for expr, tags in work:
        coeff = expr.coeff(var)
        if coeff < 0:
            lowers.append((-coeff, expr.without(var), tags))
        elif coeff > 0:
            uppers.append((coeff, expr.without(var).scale(-1), tags))
        else:
            rest.append((expr, tags))

    exact = all(a == 1 for a, _, _ in lowers) or all(
        c == 1 for c, _, _ in uppers
    )
    if not exact:
        # The dark shadow under-approximates: a contradiction through it
        # is not a certificate, and covering the splinters would need
        # model extraction.  Give up; the caller falls back.
        return None
    shadow = list(rest)
    for a, b, tags_low in lowers:
        for c, d, tags_up in uppers:
            shadow.append((b.scale(c).sub(d.scale(a)), tags_low | tags_up))
    return _core_inequalities(shadow, depth - 1)


def _assign_free_var(model: Model, var: Term, lowers, uppers) -> None:
    """Assign a variable constrained only from one side (or not at all)."""
    value = 0
    if lowers:
        # lowers are LinExpr with coeff(var) < 0: b_expr - a*var <= 0.
        bounds = []
        for ineq in lowers:
            a = -ineq.coeff(var)
            b = ineq.without(var)
            bval = _eval_default(b, model)
            bounds.append(-(-bval // a))  # ceil(bval / a)
        value = max(bounds + [0])
    elif uppers:
        bounds = []
        for ineq in uppers:
            c = ineq.coeff(var)
            d = ineq.without(var).scale(-1)
            dval = _eval_default(d, model)
            bounds.append(dval // c)  # floor(dval / c)
        value = min(bounds + [0])
    model[var] = value


def _choose_between_bounds(model: Model, lowers, uppers) -> Optional[int]:
    lo = None
    for a, b in lowers:
        bval = _eval_default(b, model)
        candidate = -(-bval // a)  # ceil
        lo = candidate if lo is None else max(lo, candidate)
    hi = None
    for c, d in uppers:
        dval = _eval_default(d, model)
        candidate = dval // c  # floor
        hi = candidate if hi is None else min(hi, candidate)
    if lo is None and hi is None:
        return 0
    if lo is None:
        return hi
    if hi is None:
        return lo
    if lo <= hi:
        return lo
    return None
