"""Lazy DPLL(T) solver for QF_UFLIA — the engine behind Lilac's type system.

Pipeline (section 4.2 of the paper, with Z3 replaced by this module):

1.  div/mod and integer ``ite`` elimination (fresh definitions);
2.  non-linear product abstraction (``@mul`` + axioms);
3.  log2/exp2 axiom instantiation;
4.  Ackermann reduction of all uninterpreted applications;
5.  Tseitin CNF conversion;
6.  DPLL enumeration of propositional models, each checked against the
    integer theory with the Omega-style procedure in :mod:`repro.smt.lia`;
    theory conflicts are greedily minimized and returned as blocking
    clauses.

`check` returns SAT with an integer model (used to build counterexample
parameterizations) or UNSAT (the design obligation holds for *every*
parameterization).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .ackermann import Ackermannizer, ackermannize
from .axioms import AxiomInstantiator, instantiate_axioms
from .cnf import AtomTable, CnfBuilder
from .lia import (
    LinExpr,
    clear_linexpr_memo,
    core_of_system,
    linexpr_of_term,
    solve_system,
)
from .prep import (
    DivModEliminator,
    IteEliminator,
    NonlinearAbstractor,
    abstract_nonlinear,
    eliminate_divmod,
    eliminate_ite,
)
from .sat import SatSolver
from .terms import (
    Term,
    And,
    Not,
    TRUE,
    free_vars,
    OP_EQ,
    OP_LE,
    OP_LT,
    OP_VAR,
    BOOL,
)

SAT = "sat"
UNSAT = "unsat"

#: Version of the solver's observable behaviour: status semantics, model
#: shapes, preprocessing.  It is part of every persistent obligation
#: cache key — bump it whenever a change could make a cached verdict or
#: model differ from what the current code would compute, and stale
#: entries become unreachable instead of wrong.  Version 2: equality
#: elimination rewrites the equalities still pending after a unimodular
#: step, so version-1 verdicts over such systems may be wrong.
SOLVER_VERSION = 2

#: Work budget of every query.  It bounds the DPLL(T) conflict count
#: (exhaustion raises :class:`SolverError`) and separately caps the
#: theory checks spent minimizing conflict cores (exhaustion just
#: returns unminimized cores — sound, merely weaker blocking clauses).
DEFAULT_SMT_BUDGET = 5000


# -- solver-wide statistics (cheap counters, read by `--stats json`) -----

_STATS: Dict[str, int] = {}


def _bump(name: str, amount: int = 1) -> None:
    _STATS[name] = _STATS.get(name, 0) + amount


def stats_snapshot() -> Dict[str, int]:
    """Counters since process start (or the last :func:`reset_stats`)."""
    return dict(_STATS)


def reset_stats() -> None:
    _STATS.clear()


# -- memo tables keyed by interned terms ---------------------------------

#: atom -> LinExpr of (lhs - rhs); the shared basis of every constraint
#: translation and of connected-component splitting.
_ATOM_DIFF_MEMO: Dict[Term, LinExpr] = {}

#: (atom, polarity) -> (equalities, inequalities, disequalities) tuples.
_ATOM_CONSTRAINT_MEMO: Dict[Tuple[Term, bool], Tuple[tuple, tuple, tuple]] = {}

#: frozenset of (atom, polarity) literals -> integer model or None.
#: Keys are variable-connected components, so the same sub-conjunction
#: reached from different obligations (or DPLL branches) is decided
#: once per process.
_THEORY_MEMO: Dict[frozenset, Optional[Dict[Term, int]]] = {}
_THEORY_MEMO_MAX = 200_000
_THEORY_MISS = object()  # sentinel: stored values include None

#: frozenset of failing literals -> minimized core (tuple of literals).
#: Obligations of one component trip over the same theory conflicts
#: again and again (each query restarts the SAT search); minimizing a
#: given failing set once per process removes the dominant rework.
_CORE_MEMO: Dict[frozenset, tuple] = {}



def clear_solver_caches() -> None:
    """Drop every solver-level memo (cold-start for benchmarks/tests)."""
    _ATOM_DIFF_MEMO.clear()
    _ATOM_CONSTRAINT_MEMO.clear()
    _THEORY_MEMO.clear()
    _CORE_MEMO.clear()
    _GROUPS_MEMO.clear()
    clear_linexpr_memo()


class SolverError(Exception):
    """Raised when the solver exceeds its conflict budget.

    When exhaustion escapes the typecheck recovery ladder (the one-shot
    fallback re-exhausted too) the error carries *attribution*:
    ``component`` names the Lilac component whose obligation broke the
    budget and ``digest`` is the obligation's canonical digest — the
    persistent cache key — so a budget failure deep in a long run names
    one reproducible query instead of only a stack trace.  Both are
    None on the raw error the DPLL(T) loop raises;
    :meth:`with_context` attaches them at the layer that knows them.
    """

    def __init__(
        self,
        message: str,
        component: Optional[str] = None,
        digest: Optional[str] = None,
    ):
        super().__init__(message)
        self.component = component
        self.digest = digest

    def with_context(
        self,
        component: Optional[str] = None,
        digest: Optional[str] = None,
    ) -> "SolverError":
        """A copy of this error with attribution folded into the
        message (existing context wins — the innermost layer knows
        best)."""
        component = self.component or component
        digest = self.digest or digest
        base = str(self.args[0]) if self.args else "solver budget exhausted"
        details = ", ".join(
            part
            for part in (
                f"component={component}" if component else "",
                f"obligation={digest}" if digest else "",
            )
            if part
        )
        message = f"{base} [{details}]" if details else base
        return SolverError(message, component=component, digest=digest)


class Result:
    """Outcome of a `check` call."""

    def __init__(self, status: str, model: Optional[Dict[str, int]] = None):
        self.status = status
        self.model = model

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT

    def __repr__(self) -> str:
        return f"Result({self.status}, model={self.model})"


class Solver:
    """One-shot satisfiability checker over a set of assertions.

    Each :meth:`check` runs on a budget of :data:`DEFAULT_SMT_BUDGET`
    DPLL(T) conflicts.
    """

    def __init__(self):
        self.assertions: List[Term] = []

    def add(self, *terms: Term) -> "Solver":
        for term in terms:
            if term.sort != BOOL:
                raise TypeError(f"assertion must be boolean: {term.sexpr()}")
            self.assertions.append(term)
        return self

    def check(self) -> Result:
        _bump("query")
        formula = And(*self.assertions) if self.assertions else TRUE
        if formula.op == "boolval":
            if formula.value:
                return Result(SAT, {})
            return Result(UNSAT)

        original_vars = {
            v.name for v in free_vars(formula) if v.sort != BOOL
        }

        formula, ite_side = eliminate_ite(formula)
        formula = And(formula, *ite_side)
        formula, div_side = eliminate_divmod(formula)
        formula = And(formula, *div_side)
        formula, mul_axioms = abstract_nonlinear(formula)
        formula = And(formula, *mul_axioms)
        axioms = instantiate_axioms(formula)
        formula = And(formula, *axioms)
        formula, congruence, app_map = ackermannize(formula)
        formula = And(formula, *congruence)

        if formula.op == "boolval":
            return Result(SAT, {}) if formula.value else Result(UNSAT)

        atoms = AtomTable()
        builder = CnfBuilder(atoms)
        builder.add_formula(formula)
        sat = SatSolver(atoms.num_vars)
        sat.add_clauses(builder.clauses)
        theory_atoms = atoms.theory_atoms()

        # DPLL(T) with early pruning: the hook checks the integer theory on
        # every propagation-complete partial assignment and learns a
        # minimized conflict clause on inconsistency.
        hook = _TheoryHook(theory_atoms, DEFAULT_SMT_BUDGET)
        state = hook.state

        assignment = sat.solve(theory_hook=hook)
        if assignment is None:
            return Result(UNSAT)
        # The final assignment passed the hook; its model was stashed.
        model = state["model"]
        if model is None:
            # No theory atoms were assigned at all.
            model = {}
        return Result(SAT, _project_model(model, original_vars, app_map))


class SideEntry:
    """A permanent side constraint with its activation rule.

    ``mode`` decides when the relevance closure activates the entry:

    * ``"any"`` — definitional constraints (div/mod, ite): active as
      soon as *any* trigger variable (the definition's fresh variables)
      is relevant, because a relevant fresh variable without its
      definition would be unconstrained and produce spurious models;
    * ``"all"`` — pairwise glue (Ackermann congruence, product/log2
      axioms): active only when *all* trigger variables (the involved
      application stand-ins) are relevant, mirroring the one-shot
      engine where such constraints only exist when both applications
      occur in the query.
    """

    __slots__ = ("term", "mode", "triggers")

    def __init__(self, term: Term, mode: str, triggers: frozenset):
        self.term = term
        self.mode = mode
        self.triggers = triggers


class PrepPipeline:
    """The preprocessing pipeline with state shared across formulas.

    Mirrors the one-shot stage order (ite → div/mod → non-linear
    abstraction → log2/exp2 axioms → Ackermann), but fresh-variable
    tables, abstraction maps and emitted-axiom sets persist, so a
    sequence of ``process`` calls over related formulas produces one
    consistent symbol space: repeated subterms share their fresh
    variables and every definition/axiom/congruence constraint is
    emitted exactly once, the first time it becomes relevant.
    """

    def __init__(self):
        self.ite = IteEliminator()
        self.divmod = DivModEliminator()
        self.nonlinear = NonlinearAbstractor()
        self.axioms = AxiomInstantiator()
        self.ackermann = Ackermannizer()

    def process(self, formulas):
        """Run the pipeline over ``formulas``.

        Returns ``(core, sides, deps)``:

        * ``core`` — the processed input formulas;
        * ``sides`` — new :class:`SideEntry` constraints (definitions,
          axioms, congruence) the processing introduced, threaded
          through the later stages exactly as the one-shot pipeline's
          growing conjunction would be;
        * ``deps`` — directed symbol dependencies ``(app_var_name,
          argument_symbols)`` for newly keyed applications: when an
          application stand-in becomes relevant, the symbols of its
          arguments (including nested application stand-ins) become
          relevant too.
        """
        # Items carry (term, tag); tag is "core", ("any", triggers) for
        # definitions, or "all" for glue whose triggers (the @-variables
        # of the final reduced term) are only known after Ackermann.
        items: List[Tuple[Term, object]] = [(f, "core") for f in formulas]
        for stage in (self.ite, self.divmod):
            next_items: List[Tuple[Term, object]] = []
            for term, tag in items:
                processed, side = stage.process(term)
                next_items.append((processed, tag))
                for definition in side:
                    triggers = frozenset(
                        fresh for fresh in _definition_triggers(stage, definition)
                    )
                    next_items.append((definition, ("any", triggers)))
            items = next_items
        next_items = []
        for term, tag in items:
            processed, side = self.nonlinear.process(term)
            next_items.append((processed, tag))
            next_items.extend((axiom, "all") for axiom in side)
        items = next_items
        items.extend(
            (axiom, "all")
            for axiom in self.axioms.process([term for term, _ in items])
        )
        mapping_mark = len(self.ackermann.mapping)
        core: List[Term] = []
        sides: List[SideEntry] = []
        for term, tag in items:
            reduced, congruence = self.ackermann.process(term)
            if tag == "core":
                core.append(reduced)
            elif tag == "all":
                sides.append(SideEntry(reduced, "all", _app_symbols(reduced)))
            else:
                sides.append(SideEntry(reduced, "any", tag[1]))
            sides.extend(
                SideEntry(constraint, "all", _app_symbols(constraint))
                for constraint in congruence
            )
        deps: List[Tuple[str, frozenset]] = []
        order = self.ackermann._order
        for app in order[mapping_mark:]:
            fresh = self.ackermann.mapping[app]
            deps.append(
                (fresh.name, frozenset(v.name for v in free_vars(app)))
            )
        return core, sides, deps


def _definition_triggers(stage, definition: Term):
    """The fresh variables a definitional side constraint defines.

    Definitions are emitted by the ite/div-mod eliminators; their fresh
    variables are exactly the ``$``-prefixed ones, a naming contract of
    :mod:`repro.smt.prep`.
    """
    return {
        v.name
        for v in free_vars(definition)
        if v.name.startswith(("$q", "$r", "$ite"))
    }


def _app_symbols(term: Term) -> frozenset:
    """Application stand-in variables (``@``-prefixed) of a term."""
    return frozenset(
        v.name for v in free_vars(term) if v.name.startswith("@")
    )


class IncrementalSolver:
    """Discharges many related queries against one growing context.

    The intended use is one instance per type-checked component: facts
    are asserted permanently with :meth:`add` (in whatever prefix order
    the caller's visibility rules demand), and each obligation is
    checked with :meth:`check` — its formulas are encoded once, guarded
    by a fresh assumption literal, solved, and retired.  Everything
    heavy is shared across queries instead of rebuilt N times:

    * the preprocessing state (:class:`PrepPipeline`): fresh-variable
      tables, abstraction maps, axiom/congruence sets;
    * the Tseitin encoding (:class:`~repro.smt.cnf.CnfBuilder` cache):
      facts are encoded once, not once per obligation;
    * the SAT clause database, *including learned theory lemmas*: a
      conflict minimized while discharging one obligation prunes the
      search of every later obligation (theory lemmas are valid
      globally, and conflict clauses are always over the active query's
      atoms — see :class:`_TheoryHook`);
    * the process-wide theory-check memo keyed by hash-consed literals.

    Retired queries stay in the clause database behind their (now
    permanently false) assumption literals; decision restriction keeps
    them out of later searches, so query cost tracks the active
    obligation, not the history.
    """

    def __init__(self):
        self.atoms = AtomTable()
        self.builder = CnfBuilder(self.atoms)
        self.sat = SatSolver()
        self.prep = PrepPipeline()
        self._clause_mark = 0
        #: fact entries: (variable-name symbols, sat vars) — the closure
        #: includes one as soon as it shares a symbol.
        self._facts: List[Tuple[frozenset, frozenset]] = []
        #: gated side entries: (mode, triggers, symbols, sat vars).
        self._sides: List[Tuple[str, frozenset, frozenset, frozenset]] = []
        #: directed deps: app stand-in name -> its arguments' symbols.
        self._deps: List[Tuple[str, frozenset]] = []
        self._orig_names: set = set()

    def _flush(self) -> None:
        new = self.builder.clauses[self._clause_mark :]
        if new:
            self.sat.add_clauses(new)
        self._clause_mark = len(self.builder.clauses)

    def _encode_permanent(self, term: Term):
        """Assert a formula's clauses; returns (symbols, vars) or None
        for constants."""
        if term.op == "boolval":
            if not term.value:
                self.builder.clauses.append(())
            return None
        self.builder.add_formula(term)
        return (
            frozenset(v.name for v in free_vars(term)),
            frozenset(self.builder.vars_of(term)),
        )

    def _assert_facts(self, terms) -> None:
        for term in terms:
            entry = self._encode_permanent(term)
            if entry is not None:
                self._facts.append(entry)
        self._flush()

    def _assert_sides(self, sides) -> None:
        for side in sides:
            entry = self._encode_permanent(side.term)
            if entry is not None:
                self._sides.append(
                    (side.mode, side.triggers, entry[0], entry[1])
                )
        self._flush()

    def _relevant_slices(self, anchor_symbols: set):
        """Per-query relevance closure over the permanent context.

        The incremental context holds *every* fact, definition, axiom
        and congruence constraint of the component, but a single
        obligation only needs the slice (transitively) connected to it —
        the same conservative relevance filter the one-shot engine
        applies by pruning facts before solving, realised here as a
        restriction of the SAT decision set.  Three record kinds
        cooperate (facts share-based, side entries gated by their
        trigger variables, app→argument dependency edges), so pairwise
        glue between applications of *different* obligations never
        bridges otherwise unrelated queries.  Entries outside the
        closure stay asserted but undecided: they can only be dropped,
        which can only make a query easier to satisfy, never mask an
        error.

        Returns ``(fact_vars, side_vars)`` as ordered lists (assertion
        order, ascending variable ids within an assertion) — the caller
        builds the branching order from them, and order matters: side
        constraints must be decided *after* the fact and query atoms or
        the search degenerates (see the decision-order note in
        :meth:`check`).
        """
        symbols = set(anchor_symbols)
        fact_fired = [False] * len(self._facts)
        side_fired = [False] * len(self._sides)
        dep_fired = [False] * len(self._deps)
        changed = True
        while changed:
            changed = False
            for index, (entry_symbols, _) in enumerate(self._facts):
                if not fact_fired[index] and entry_symbols & symbols:
                    fact_fired[index] = True
                    symbols |= entry_symbols
                    changed = True
            for index, (name, arg_symbols) in enumerate(self._deps):
                if not dep_fired[index] and name in symbols:
                    dep_fired[index] = True
                    if not arg_symbols <= symbols:
                        symbols |= arg_symbols
                    changed = True
            for index, (mode, triggers, entry_symbols, _) in enumerate(
                self._sides
            ):
                if side_fired[index]:
                    continue
                if not triggers:
                    fire = bool(entry_symbols & symbols)
                elif mode == "any":
                    fire = bool(triggers & symbols)
                else:
                    fire = triggers <= symbols
                if fire:
                    side_fired[index] = True
                    symbols |= entry_symbols
                    changed = True
        fact_vars = [
            var
            for index, (_, entry_vars) in enumerate(self._facts)
            if fact_fired[index]
            for var in sorted(entry_vars)
        ]
        side_vars = [
            var
            for index, (_, _, _, entry_vars) in enumerate(self._sides)
            if side_fired[index]
            for var in sorted(entry_vars)
        ]
        return fact_vars, side_vars

    def add(self, *facts: Term) -> "IncrementalSolver":
        """Permanently assert ``facts`` (they join every later query)."""
        for fact in facts:
            if fact.sort != BOOL:
                raise TypeError(f"assertion must be boolean: {fact.sexpr()}")
            self._orig_names |= {
                v.name for v in free_vars(fact) if v.sort != BOOL
            }
        core, sides, deps = self.prep.process(facts)
        self._assert_facts(core)
        self._assert_sides(sides)
        self._deps.extend(deps)
        return self

    def check(self, *extra: Term) -> Result:
        """Satisfiability of the permanent facts plus ``extra``.

        ``extra`` is encoded under a fresh assumption literal and
        retired afterwards; definitional side constraints its
        preprocessing introduces are asserted permanently (they are
        conservative extensions, inert without their trigger terms).
        """
        _bump("query")
        _bump("query.incremental")
        extra_names = set()
        for term in extra:
            if term.sort != BOOL:
                raise TypeError(f"assertion must be boolean: {term.sexpr()}")
            extra_names |= {
                v.name for v in free_vars(term) if v.sort != BOOL
            }
        core, sides, deps = self.prep.process(extra)
        self._assert_sides(sides)
        self._deps.extend(deps)
        # Flatten the query to top-level conjuncts and guard each one
        # individually: under the assumption every conjunct literal is
        # unit-propagated exactly as the one-shot engine's per-assertion
        # unit clauses are, which keeps the search trajectory aligned.
        conjuncts: List[Term] = []
        for term in core:
            flattened = And(term) if term.op != "and" else term
            if flattened.op == "and":
                conjuncts.extend(flattened.args)
            else:
                conjuncts.append(flattened)
        assumption = None
        extra_vars: set = set()
        anchor_symbols: set = set()
        guarded: List[Term] = []
        for term in conjuncts:
            if term.op == "boolval":
                if not term.value:
                    return Result(UNSAT)
                continue
            guarded.append(term)
        if guarded:
            assumption = self.atoms.fresh()
            for term in guarded:
                literal = self.builder.literal_of(term)
                self.builder.clauses.append((-assumption, literal))
                extra_vars |= self.builder.vars_of(term)
                anchor_symbols |= {v.name for v in free_vars(term)}
        self._flush()
        fact_vars, side_vars = self._relevant_slices(anchor_symbols)
        # Branching order is the critical heuristic: fact atoms, then the
        # query's own variables, then the definitional/axiom tail — the
        # shape a one-shot encoding produces naturally.  Deciding side
        # constraints early degenerates the search on UNSAT proofs by
        # orders of magnitude.
        decision_order = fact_vars + sorted(extra_vars) + side_vars
        decision_set = set(decision_order)
        if assumption is not None:
            decision_set.add(assumption)
        active_atoms = {
            var: atom
            for var, atom in self.atoms.theory_atoms().items()
            if var in decision_set
        }
        hook = _TheoryHook(active_atoms, DEFAULT_SMT_BUDGET)
        assignment = self.sat.solve(
            theory_hook=hook,
            assumptions=(assumption,) if assumption is not None else (),
            decision_vars=decision_order,
        )
        if assumption is not None:
            # Retire the query: its encoding goes inert for good.
            self.sat.add_clause((-assumption,))
        if assignment is None:
            return Result(UNSAT)
        model = hook.state["model"]
        if model is None:
            model = {}
        return Result(
            SAT,
            _project_model(
                model,
                self._orig_names | extra_names,
                self.prep.ackermann.mapping,
            ),
        )


def check_sat(*terms: Term) -> Result:
    """Convenience: check satisfiability of the conjunction of ``terms``."""
    return Solver().add(*terms).check()


def prove(goal: Term, *assumptions: Term) -> Result:
    """Check validity of ``assumptions => goal``.

    Returns UNSAT when the implication is valid; a SAT result carries a
    counterexample model.
    """
    return Solver().add(*assumptions, Not(goal)).check()


def _atom_diff(atom: Term) -> LinExpr:
    """``lhs - rhs`` of a theory atom as a LinExpr (memoized)."""
    diff = _ATOM_DIFF_MEMO.get(atom)
    if diff is None:
        diff = linexpr_of_term(atom.args[0]).sub(linexpr_of_term(atom.args[1]))
        _ATOM_DIFF_MEMO[atom] = diff
    return diff


def _atom_constraints(atom: Term, value: bool):
    """Translate an assigned atom into (equalities, inequalities, diseqs).

    Memoized on the interned ``(atom, polarity)`` pair; the returned
    LinExprs are shared and must be treated as immutable (every LinExpr
    operation already returns a fresh object).
    """
    key = (atom, value)
    hit = _ATOM_CONSTRAINT_MEMO.get(key)
    if hit is not None:
        return hit
    diff = _atom_diff(atom)  # atom relates diff to 0
    if atom.op == OP_EQ:
        result = ((diff,), (), ()) if value else ((), (), (diff,))
    elif atom.op == OP_LE:
        if value:
            result = ((), (diff,), ())
        else:
            # not (diff <= 0)  ==  diff >= 1  ==  -diff + 1 <= 0
            result = ((), (diff.scale(-1).add(LinExpr.constant(1)),), ())
    elif atom.op == OP_LT:
        if value:
            # diff < 0  ==  diff + 1 <= 0
            result = ((), (diff.add(LinExpr.constant(1)),), ())
        else:
            result = ((), (diff.scale(-1),), ())
    else:
        raise ValueError(f"not a theory atom: {atom.sexpr()}")
    _ATOM_CONSTRAINT_MEMO[key] = result
    return result


def _atom_vars(atom: Term):
    """The variables the atom actually constrains (keys of its diff)."""
    return _atom_diff(atom).coeffs.keys()


#: frozenset of atoms -> tuple of atom groups.  Connectivity depends on
#: the atoms alone (not their assigned polarities), and the DPLL search
#: flips polarities over a far slower-changing assigned-atom set, so
#: the union-find result is heavily reusable.
_GROUPS_MEMO: Dict[frozenset, tuple] = {}
_GROUPS_MEMO_MAX = 100_000


def _connected_groups(literals: Sequence[Tuple[Term, bool]]):
    """Split assigned literals into variable-connected components.

    Two literals land in one group iff their atoms (transitively) share
    a variable; constraints in different groups are independent, so the
    conjunction is satisfiable iff every group is and models merge by
    union.  Constant atoms (no variables) form one extra group.
    """
    literals = list(literals)
    if len(literals) <= 1:
        return [literals] if literals else []
    value_of = dict(literals)
    atoms_key = frozenset(value_of)
    grouped = _GROUPS_MEMO.get(atoms_key)
    if grouped is not None:
        return [
            [(atom, value_of[atom]) for atom in group] for group in grouped
        ]
    groups = _split_atoms(list(value_of))
    if len(_GROUPS_MEMO) >= _GROUPS_MEMO_MAX:
        _GROUPS_MEMO.clear()
    _GROUPS_MEMO[atoms_key] = groups
    return [[(atom, value_of[atom]) for atom in group] for group in groups]


def _split_atoms(atoms: Sequence[Term]):
    """Union-find over atoms by shared variables; returns atom groups."""
    parent: Dict[Term, Term] = {}

    def find(var: Term) -> Term:
        root = var
        while parent[root] is not root:
            root = parent[root]
        while parent[var] is not root:
            parent[var], var = root, parent[var]
        return root

    firsts = []  # each atom's first variable, None for a constant atom
    for atom in atoms:
        iterator = iter(_atom_vars(atom))
        first = next(iterator, None)
        firsts.append(first)
        if first is None:
            continue
        if first not in parent:
            parent[first] = first
        root = find(first)
        for var in iterator:
            if var not in parent:
                parent[var] = root
            else:
                other = find(var)
                if other is not root:
                    parent[other] = root
    groups: Dict[Term, List[Term]] = {}
    order: List[List[Term]] = []
    constants: List[Term] = []
    for atom, first in zip(atoms, firsts):
        if first is None:
            if not constants:
                order.append(constants)
            constants.append(atom)
            continue
        root = find(first)
        group = groups.get(root)
        if group is None:
            group = groups[root] = []
            order.append(group)
        group.append(atom)
    return tuple(tuple(group) for group in order)


def _theory_check_monolithic(literals) -> Optional[Dict[Term, int]]:
    """Check a conjunction of assigned theory literals as one system."""
    equalities: List[LinExpr] = []
    inequalities: List[LinExpr] = []
    disequalities: List[LinExpr] = []
    for atom, value in literals:
        eqs, ineqs, diseqs = _atom_constraints(atom, value)
        equalities.extend(eqs)
        inequalities.extend(ineqs)
        disequalities.extend(diseqs)
    return _solve_with_diseqs(equalities, inequalities, disequalities)


def _theory_check(literals, failing: Optional[list] = None):
    """Check assigned theory literals; return a merged model or None.

    The conjunction is split into variable-connected components, each
    decided through a process-wide memo (hash-consed atoms make the
    frozenset keys cheap).  DPLL revisits mostly-unchanged assignments
    constantly, so the memo turns the quadratic re-checking of the lazy
    loop into hash lookups.  On failure the offending component's
    literals are appended to ``failing`` — conflict minimization then
    works on that (much smaller) subset only.
    """
    model: Dict[Term, int] = {}
    for group in _connected_groups(literals):
        key = frozenset(group)
        # Single read: concurrent typecheck threads may clear the memo
        # wholesale at the size cap between a membership test and a
        # lookup, so check-then-read would race.
        result = _THEORY_MEMO.get(key, _THEORY_MISS)
        if result is not _THEORY_MISS:
            _bump("theory.memo_hit")
        else:
            _bump("theory.check")
            result = _theory_check_monolithic(group)
            if len(_THEORY_MEMO) >= _THEORY_MEMO_MAX:
                _THEORY_MEMO.clear()
            _THEORY_MEMO[key] = result
        if result is None:
            if failing is not None:
                failing.extend(group)
            return None
        model.update(result)
    return model


def _solve_with_diseqs(
    equalities, inequalities, disequalities
) -> Optional[Dict[Term, int]]:
    """Lazy disequality handling.

    Solve the equality/inequality core first; only branch on a
    disequality the candidate model actually violates.  Eager splitting
    is exponential in the number of false equality literals (which
    Ackermann congruence produces in bulk); lazy splitting is almost
    always linear because models rarely make unrelated terms equal.
    """
    model = solve_system(equalities, inequalities)
    if model is None:
        return None
    for index, diseq in enumerate(disequalities):
        for var in diseq.coeffs:
            model.setdefault(var, 0)
        if diseq.evaluate(model) != 0:
            continue
        rest = disequalities[:index] + disequalities[index + 1 :]
        # diseq != 0: branch on diseq <= -1 or diseq >= 1.
        low = inequalities + [diseq.add(LinExpr.constant(1))]
        branched = _solve_with_diseqs(equalities, low, rest)
        if branched is not None:
            return branched
        high = inequalities + [diseq.scale(-1).add(LinExpr.constant(1))]
        return _solve_with_diseqs(equalities, high, rest)
    return model


class _TheoryHook:
    """The DPLL(T) callback: theory checks, conflict learning, budgets.

    One instance lives per query.  ``theory_atoms`` holds only the
    atoms the query may decide on — the incremental solver shares one
    SAT instance across obligations and hands in the active
    obligation's atoms, so atoms of retired obligations neither bloat
    the LIA systems nor influence this query's verdict.  Conflict
    clauses are therefore always over the query's own atoms, which is
    what makes them valid theory lemmas that can be retained across
    queries.
    """

    def __init__(self, theory_atoms, conflict_budget):
        self.theory_atoms = theory_atoms  # sat var id -> atom Term
        self.conflict_budget = conflict_budget
        #: theory checks available for conflict minimization this query.
        self.minimize_pool = conflict_budget
        self.state = {"last": None, "model": None}

    def __call__(self, assignment):
        literals: List[Tuple[int, Term, bool]] = []
        for var, atom in self.theory_atoms.items():
            value = assignment.get(var)
            if value is None:
                continue
            literals.append((var, atom, value))
        key = frozenset((var, val) for var, _, val in literals)
        if key == self.state["last"]:
            return None
        self.state["last"] = key
        pairs = [(atom, val) for _, atom, val in literals]
        failing: List[Tuple[Term, bool]] = []
        model = _theory_check(pairs, failing)
        if model is not None:
            self.state["model"] = model
            return None
        self._spend_conflict()
        var_of = {atom: var for var, atom, _ in literals}
        core = _minimize_core(failing, self)
        return tuple(
            (-var_of[atom] if value else var_of[atom])
            for atom, value in core
        )

    def _spend_conflict(self) -> None:
        _bump("theory.conflict")
        self.conflict_budget -= 1
        if self.conflict_budget <= 0:
            raise SolverError("DPLL(T) conflict budget exhausted")


def _provenance_core(literals) -> Optional[list]:
    """Certificate-based core: one provenance-tracking LIA run.

    Tags every constraint row with its literal index and asks
    :func:`repro.smt.lia.core_of_system` for the contradiction's tag
    set.  Disequalities (false equalities) are handled by case-splitting
    without models: the system must be contradictory on both sides of
    some disequality, and the union of both branch cores plus the
    disequality's own tag is a core.  Returns None when no certificate
    is found (non-exact shadow steps, too many disequalities).
    """
    equalities = []
    inequalities = []
    disequalities = []
    for index, (atom, value) in enumerate(literals):
        tags = frozenset((index,))
        eqs, ineqs, diseqs = _atom_constraints(atom, value)
        equalities += [(expr, tags) for expr in eqs]
        inequalities += [(expr, tags) for expr in ineqs]
        disequalities += [(expr, tags) for expr in diseqs]

    def search(ineq_rows, diseq_rows, depth) -> Optional[frozenset]:
        core = core_of_system(equalities, ineq_rows)
        if core is not None:
            return core
        if not diseq_rows or depth <= 0:
            return None
        # The eq/ineq base has no certificate, so some disequality must
        # be doing the refuting.  Model-guided split (mirroring the
        # decision procedure's lazy disequality handling): find a
        # disequality the base model violates; the system must be
        # contradictory on *both* integer sides of it.
        model = solve_system(
            [expr for expr, _ in equalities],
            [expr for expr, _ in ineq_rows],
        )
        if model is None:
            return None  # base unsat but certificate-less: fall back
        for position, (expr, tags) in enumerate(diseq_rows):
            for var in expr.coeffs:
                model.setdefault(var, 0)
            if expr.evaluate(model) != 0:
                continue
            remaining = diseq_rows[:position] + diseq_rows[position + 1 :]
            low = search(
                ineq_rows + [(expr.add(LinExpr.constant(1)), tags)],
                remaining,
                depth - 1,
            )
            if low is None:
                return None
            high = search(
                ineq_rows + [(expr.scale(-1).add(LinExpr.constant(1)), tags)],
                remaining,
                depth - 1,
            )
            if high is None:
                return None
            return low | high
        return None  # no violated disequality: not refutable here

    core_tags = search(inequalities, disequalities, 16)
    if core_tags is None:
        return None
    return [literals[index] for index in sorted(core_tags)]


def _minimize_core(literals, hook: _TheoryHook):
    """Minimize an unsatisfiable set of (atom, value) literals.

    The caller passes the failing variable-connected component only, so
    ``n`` here is already far below the full assignment size.  A
    provenance certificate (:func:`_provenance_core`) is tried first —
    one tagged LIA run instead of dozens of deletion probes — and
    verified with a single memoized theory check.  Failing that,
    deletion proceeds in halving chunk sizes (QuickXplain-style:
    O(k log(n/k)) checks for a core of size k); every check goes through
    the memoized :func:`_theory_check`, and the hook's per-query budget
    pool caps total minimization work — on exhaustion the current
    (still unsatisfiable, merely non-minimal) core is returned.
    """
    core = list(literals)
    if len(core) <= 2:
        return core
    memo_key = frozenset(core)
    hit = _CORE_MEMO.get(memo_key)
    if hit is not None:
        _bump("minimize.memo_hit")
        return list(hit)
    chunk = max(1, len(core) // 2)
    candidate = _provenance_core(core)
    if candidate is not None and len(candidate) < len(core):
        # Re-deriving on the shrunken set often tightens the
        # certificate further (fewer rows -> shorter derivations).
        while len(candidate) > 3:
            tighter = _provenance_core(candidate)
            if tighter is None or len(tighter) >= len(candidate):
                break
            candidate = tighter
        # Distinct failing sets frequently reduce to the same
        # certificate; the polished result memos under the certificate
        # key as well as the original failing set.
        candidate_key = frozenset(candidate)
        polished = _CORE_MEMO.get(candidate_key)
        if polished is not None:
            _bump("minimize.memo_hit")
            _CORE_MEMO[memo_key] = polished
            return list(polished)
        hook.minimize_pool -= 1
        _bump("minimize.check")
        if _theory_check(candidate) is None:
            # The verified certificate is small but not always minimal —
            # and minimal cores prune the search far harder.  Polish
            # with single-literal deletion only (the halving ladder is
            # for the big pre-certificate sets); tiny cores are used
            # as-is.
            _bump("minimize.certificate")
            if len(candidate) <= 3:
                result = tuple(candidate)
                _CORE_MEMO[memo_key] = result
                _CORE_MEMO[candidate_key] = result
                return candidate
            core = candidate
            chunk = 1
            memo_key = candidate_key
        else:
            # A certificate that fails verification indicates a bug in
            # the provenance path; stay sound by falling back.
            _bump("minimize.certificate_invalid")
    while True:
        index = 0
        while index < len(core):
            if hook.minimize_pool <= 0:
                _bump("minimize.budget_exhausted")
                return core
            candidate = core[:index] + core[index + chunk:]
            if candidate:
                hook.minimize_pool -= 1
                _bump("minimize.check")
                if _theory_check(candidate) is None:
                    core = candidate
                    continue
            index += chunk
        if chunk == 1 or len(core) <= 1:
            break
        chunk //= 2
    _CORE_MEMO[memo_key] = tuple(core)
    return core


def _project_model(model, original_vars, app_map) -> Dict[str, int]:
    """Keep only user-visible variables; report UF apps by their s-expr."""
    out: Dict[str, int] = {}
    by_name = {}
    for var, value in model.items():
        if var.op == OP_VAR:
            by_name[var.name] = value
    for name in original_vars:
        out[name] = by_name.get(name, 0)
    for app, fresh in app_map.items():
        if fresh.name in by_name:
            out[app.sexpr()] = by_name[fresh.name]
    return out
