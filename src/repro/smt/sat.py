"""A small DPLL SAT solver used as the boolean core of the lazy SMT loop.

Clauses are tuples of non-zero integer literals.  The solver supports
incremental clause addition (the DPLL(T) loop adds theory conflict clauses
between calls, and the incremental SMT front end keeps one instance alive
across many queries) and returns assignments as ``{var: bool}`` dicts.

Three features serve the incremental front end:

* **Queue-driven unit propagation** over occurrence lists: only clauses
  containing the negation of a newly assigned literal are examined, so
  propagation cost tracks the touched clauses, not the (growing) clause
  database.
* **Assumptions**: ``solve(assumptions=(a, -b))`` checks satisfiability
  under temporary literals that are asserted before any decision and are
  never flipped; an induced conflict means "UNSAT under assumptions".
  Queries guarded by fresh assumption literals can therefore share one
  solver — and its learned clauses — without contaminating each other.
* **Decision restriction**: ``decision_vars`` limits branching to the
  variables of the active query.  Clauses mentioning only other
  (retired-query) variables are left undecided; the caller guarantees
  they are definitional/guarded and hence extendable, which keeps the
  search space proportional to the active query, not the history.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Clause = Tuple[int, ...]


class SatSolver:
    def __init__(self, num_vars: int = 0):
        self.num_vars = num_vars
        self.clauses: List[Clause] = []
        self._occurrences: Dict[int, List[int]] = {}

    def ensure_vars(self, num_vars: int) -> None:
        self.num_vars = max(self.num_vars, num_vars)

    def add_clause(self, clause: Clause) -> Optional[int]:
        """Add a clause; returns its index (None if dropped as tautology)."""
        clause = tuple(dict.fromkeys(clause))  # dedup, keep order
        if any(-lit in clause for lit in clause):
            return None  # tautology
        index = len(self.clauses)
        self.clauses.append(clause)
        for lit in clause:
            self.num_vars = max(self.num_vars, abs(lit))
            self._occurrences.setdefault(lit, []).append(index)
        return index

    def add_clauses(self, clauses) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def solve(
        self,
        theory_hook=None,
        assumptions: Sequence[int] = (),
        decision_vars: Optional[Iterable[int]] = None,
    ) -> Optional[Dict[int, bool]]:
        """Return a satisfying assignment, or None if unsatisfiable
        (under ``assumptions``, if given).

        ``theory_hook(assignment)`` is called after each successful round
        of unit propagation (DPLL(T)-style early pruning).  It returns
        None when the partial assignment is theory-consistent, or a
        conflict clause (tuple of literals, all false under the current
        assignment) which is learned before backtracking.

        With ``decision_vars`` the branching is restricted to those
        variables and the returned assignment may be partial: clauses
        whose literals are all unassigned are *not* checked.  The caller
        must ensure such clauses are always extendable to a full model
        (true for Tseitin definitions and assumption-guarded encodings).
        """
        assignment: Dict[int, bool] = {}
        trail: List[int] = []
        # decisions[i]: (trail index where the level starts, decided var,
        # whether the flipped polarity was already tried).
        decision_stack: List[Tuple[int, int, bool]] = []
        queue: deque = deque()
        clauses = self.clauses
        occurrences = self._occurrences

        def value_of(lit: int) -> Optional[bool]:
            val = assignment.get(abs(lit))
            if val is None:
                return None
            return val if lit > 0 else not val

        def assign(lit: int) -> None:
            assignment[abs(lit)] = lit > 0
            trail.append(lit)
            queue.append(lit)

        def examine(index: int) -> Optional[bool]:
            """Clause status: True satisfied/undecided, False conflict.
            Assigns the unit literal when exactly one is left open."""
            unassigned = None
            unit_count = 0
            for lit in clauses[index]:
                val = value_of(lit)
                if val is True:
                    return True
                if val is None:
                    unit_count += 1
                    if unit_count > 1:
                        return True
                    unassigned = lit
            if unit_count == 0:
                return False
            assign(unassigned)
            return True

        def propagate(recheck: Sequence[int]) -> Optional[int]:
            """Exhaust propagation; returns a conflicting clause index.

            ``recheck`` seeds explicit clause indices (newly learned
            clauses, or the clause that caused the last conflict) that
            the literal queue alone would not revisit.
            """
            for index in recheck:
                if examine(index) is False:
                    queue.clear()
                    return index
            while queue:
                lit = queue.popleft()
                for index in occurrences.get(-lit, ()):
                    if examine(index) is False:
                        queue.clear()
                        return index
            return None

        def backtrack() -> bool:
            """Undo to the last decision with an untried polarity."""
            while decision_stack:
                level_start, var, flipped = decision_stack.pop()
                while len(trail) > level_start:
                    lit = trail.pop()
                    assignment.pop(abs(lit), None)
                if not flipped:
                    # The decision tried the positive polarity first; now
                    # retry with the negative literal.
                    decision_stack.append((level_start, var, True))
                    assign(-var)
                    return True
            return False

        # Seed: fail on empty clauses, enqueue units, then propagate the
        # whole database once (solve() starts from a blank assignment).
        recheck: List[int] = []
        for index, clause in enumerate(clauses):
            if not clause:
                return None
            if len(clause) == 1:
                recheck.append(index)
        if propagate(recheck) is not None:
            return None

        # Assumptions behave like pre-decision facts: asserted in order,
        # never flipped; any conflict is UNSAT-under-assumptions (the
        # decision stack is still empty, so backtrack() cannot help).
        for lit in assumptions:
            val = value_of(lit)
            if val is False:
                return None
            if val is None:
                assign(lit)
                if propagate(()) is not None:
                    return None

        if decision_vars is not None:
            # Caller order is preserved: branching order is a powerful
            # heuristic lever (the SMT front end puts the active query's
            # atoms before permanent side constraints).
            decision_order = list(dict.fromkeys(decision_vars))
        else:
            decision_order = None

        #: clauses learned during this call.  A decision level's trail
        #: prefix was propagation-complete when the level was opened —
        #: but only with respect to the clauses that existed *then*.
        #: After a backtrack, every clause learned since may be unit (or
        #: false) over surviving literals without containing the flipped
        #: one, so the queue alone would never revisit it: re-examine
        #: them all explicitly.
        learned_indices: List[int] = []
        recheck = []
        while True:
            conflict = propagate(recheck)
            if conflict is not None:
                if not backtrack():
                    return None
                recheck = learned_indices + [conflict]
                continue
            recheck = []
            if theory_hook is not None:
                learned = theory_hook(assignment)
                if learned is not None:
                    index = self.add_clause(learned)
                    if index is not None:
                        learned_indices.append(index)
                        # The learned clause is false under the current
                        # assignment; rechecking it triggers the
                        # conflict/backtrack path above.
                        recheck = [index]
                        continue
            # Pick an unassigned variable.
            decision = None
            if decision_order is None:
                for var in range(1, self.num_vars + 1):
                    if var not in assignment:
                        decision = var
                        break
            else:
                for var in decision_order:
                    if var not in assignment:
                        decision = var
                        break
            if decision is None:
                return dict(assignment)
            decision_stack.append((len(trail), decision, False))
            assign(decision)
