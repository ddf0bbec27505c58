"""Axiom instantiation for the partially interpreted functions log2/exp2.

Section 4.1 of the paper: "Lilac also declares common operations such as
log2 and exp2 as uninterpreted functions within its encoding and provides
common equalities such as exp2(log2(N)) = N".  This module instantiates
those equalities (plus monotonicity and growth facts) for the applications
that actually occur in a query, keeping the encoding quantifier-free.
"""

from __future__ import annotations

from typing import List

from .terms import (
    Term,
    Eq,
    Ge,
    Implies,
    IntVal,
    Le,
    Plus,
    Times,
    apps,
)

LOG2 = "log2"
EXP2 = "exp2"


def instantiate_axioms(formula: Term) -> List[Term]:
    """Produce axioms for every log2/exp2 application in ``formula``."""
    return _axioms_for(sorted(apps(formula), key=lambda t: t.sexpr()))


class AxiomInstantiator:
    """Stateful instantiation across a growing application population.

    Each call re-derives the axiom set over *all* log2/exp2 applications
    seen so far and returns only the axioms not emitted before, so
    cross-formula pairs (monotonicity, shift facts) are covered exactly
    once — incremental queries see at least the axioms a one-shot query
    over the same conjunction would.
    """

    def __init__(self):
        self._apps: set = set()
        self._emitted: set = set()

    def process(self, formulas) -> List[Term]:
        changed = False
        for formula in formulas:
            for app in apps(formula):
                if app.name in (LOG2, EXP2) and app not in self._apps:
                    self._apps.add(app)
                    changed = True
        if not changed:
            return []
        fresh: List[Term] = []
        for axiom in _axioms_for(sorted(self._apps, key=lambda t: t.sexpr())):
            if axiom not in self._emitted:
                self._emitted.add(axiom)
                fresh.append(axiom)
        return fresh


def _axioms_for(applications) -> List[Term]:
    log_apps = [a for a in applications if a.name == LOG2]
    exp_apps = [a for a in applications if a.name == EXP2]
    axioms: List[Term] = []

    for app in exp_apps:
        (arg,) = app.args
        axioms.append(Ge(app, 1))
        # exp2(t) > t for all t >= 0 (and trivially for negative t since
        # exp2 >= 1); encode the useful half.
        axioms.append(Implies(Ge(arg, 0), Ge(app, Plus(arg, IntVal(1)))))

    for app in log_apps:
        (arg,) = app.args
        axioms.append(Implies(Ge(arg, 1), Ge(app, 0)))
        axioms.append(Implies(Ge(arg, 1), Le(app, Plus(arg, IntVal(-1)))))
        axioms.append(Implies(Ge(arg, 2), Ge(app, 1)))

    # Round-trip equalities: exp2(log2(N)) == N and log2(exp2(t)) == t.
    # The former matches the paper's canonical example (Lilac designs apply
    # log2 to power-of-two parameters).
    for exp_app in exp_apps:
        inner = exp_app.args[0]
        if inner.op == "app" and inner.name == LOG2:
            axioms.append(Eq(exp_app, inner.args[0]))
    for log_app in log_apps:
        inner = log_app.args[0]
        if inner.op == "app" and inner.name == EXP2:
            axioms.append(Eq(log_app, inner.args[0]))

    # Monotonicity instantiated pairwise over occurring applications.
    for group in (log_apps, exp_apps):
        for i, first in enumerate(group):
            for second in group[i + 1 :]:
                a, b = first.args[0], second.args[0]
                axioms.append(Implies(Le(a, b), Le(first, second)))
                axioms.append(Implies(Le(b, a), Le(second, first)))

    # Shift facts: exp2(t + k) == 2^k * exp2(t) for small constant offsets
    # between occurring arguments.
    for i, first in enumerate(exp_apps):
        for second in exp_apps:
            if first is second:
                continue
            diff = Plus(second.args[0], Times(IntVal(-1), first.args[0]))
            if diff.op == "intval" and 1 <= diff.value <= 16:
                axioms.append(Eq(second, Times(IntVal(2**diff.value), first)))

    # Concrete evaluation for constant arguments.
    for app in exp_apps:
        (arg,) = app.args
        if arg.op == "intval" and 0 <= arg.value <= 62:
            axioms.append(Eq(app, IntVal(2**arg.value)))
    for app in log_apps:
        (arg,) = app.args
        if arg.op == "intval" and arg.value >= 1:
            axioms.append(Eq(app, IntVal(arg.value.bit_length() - 1)))

    return [a for a in axioms if a is not None]
