"""Tseitin conversion from boolean term structure to CNF clauses.

Literals are non-zero integers (DIMACS convention): variable ``v`` is the
positive literal ``v`` and its negation ``-v``.  Theory atoms (equalities and
inequalities over integer terms) are mapped to boolean variables through an
:class:`AtomTable` so the DPLL(T) loop can recover them.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .terms import (
    Term,
    subterms,
    OP_AND,
    OP_OR,
    OP_NOT,
    OP_IMPLIES,
    OP_BOOLVAL,
    OP_VAR,
    OP_EQ,
    OP_LE,
    OP_LT,
)

Clause = Tuple[int, ...]


class AtomTable:
    """Bidirectional map between atoms (Terms) and boolean variable ids."""

    def __init__(self):
        self._by_term: Dict[Term, int] = {}
        self._by_id: Dict[int, Term] = {}
        self._next = 1

    def fresh(self) -> int:
        var = self._next
        self._next += 1
        return var

    def id_of(self, atom: Term) -> int:
        var = self._by_term.get(atom)
        if var is None:
            var = self.fresh()
            self._by_term[atom] = var
            self._by_id[var] = atom
        return var

    def theory_atoms(self) -> Dict[int, Term]:
        """All atom ids that correspond to theory predicates."""
        return {
            var: atom
            for var, atom in self._by_id.items()
            if atom.op in (OP_EQ, OP_LE, OP_LT)
        }

    @property
    def num_vars(self) -> int:
        return self._next - 1


class CnfBuilder:
    """Accumulates clauses while Tseitin-encoding formulas."""

    def __init__(self, atoms: AtomTable):
        self.atoms = atoms
        self.clauses: List[Clause] = []
        self._cache: Dict[Term, int] = {}

    def add_formula(self, formula: Term) -> None:
        """Assert ``formula`` (adds its defining clauses and a unit clause)."""
        if formula.op == OP_BOOLVAL:
            if not formula.value:
                self.clauses.append(())
            return
        if formula.op == OP_AND:
            for arg in formula.args:
                self.add_formula(arg)
            return
        literal = self._encode(formula)
        self.clauses.append((literal,))

    def literal_of(self, formula: Term) -> int:
        """Encode ``formula`` and return its representing literal
        *without* asserting it — the incremental solver asserts it under
        an assumption guard instead."""
        return self._encode(formula)

    def vars_of(self, formula: Term) -> Set[int]:
        """Boolean variables of an already-encoded formula's DAG.

        Every boolean-sorted subterm the Tseitin cache knows contributes
        its variable; the result is the decision set a query needs to be
        searched completely (atoms plus definitional variables), however
        long ago its shared subformulas were first encoded.
        """
        out: Set[int] = set()
        for sub in subterms(formula):
            literal = self._cache.get(sub)
            if literal is not None:
                out.add(abs(literal))
        return out

    def _encode(self, term: Term) -> int:
        """Return a literal equisatisfiably representing ``term``."""
        cached = self._cache.get(term)
        if cached is not None:
            return cached
        op = term.op
        if op == OP_BOOLVAL:
            # Encode constants with a fresh var pinned by a unit clause.
            var = self.atoms.fresh()
            self.clauses.append((var,))
            literal = var if term.value else -var
            self._cache[term] = literal
            return literal
        if op in (OP_VAR, OP_EQ, OP_LE, OP_LT):
            literal = self.atoms.id_of(term)
            self._cache[term] = literal
            return literal
        if op == OP_NOT:
            literal = -self._encode(term.args[0])
            self._cache[term] = literal
            return literal
        if op == OP_IMPLIES:
            lhs, rhs = term.args
            return self._encode_or((-self._encode(lhs), self._encode(rhs)), term)
        if op == OP_OR:
            return self._encode_or(
                tuple(self._encode(a) for a in term.args), term
            )
        if op == OP_AND:
            lits = tuple(self._encode(a) for a in term.args)
            fresh = self.atoms.fresh()
            # fresh -> each lit ; (all lits) -> fresh
            for lit in lits:
                self.clauses.append((-fresh, lit))
            self.clauses.append(tuple(-l for l in lits) + (fresh,))
            self._cache[term] = fresh
            return fresh
        raise ValueError(f"cannot CNF-encode boolean term: {term.sexpr()}")

    def _encode_or(self, lits: Tuple[int, ...], term: Term) -> int:
        fresh = self.atoms.fresh()
        # fresh -> (l1 | ... | ln)
        self.clauses.append((-fresh,) + lits)
        # each li -> fresh
        for lit in lits:
            self.clauses.append((-lit, fresh))
        self._cache[term] = fresh
        return fresh
