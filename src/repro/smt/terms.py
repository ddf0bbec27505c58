"""Term language for the QF_UFLIA solver.

The Lilac type checker (section 4 of the paper) discharges quantifier-free
queries over linear integer arithmetic extended with uninterpreted functions
(used to encode output parameters and ``log2``/``exp2``).  This module defines
the term representation shared by every stage of the solver pipeline.

Terms are immutable, structurally hashable, and *hash-consed*: the
constructor interns every term in a process-wide table, so two
structurally equal terms are one object.  That buys three things the
solver pipeline leans on heavily:

* equality is (almost always) a pointer comparison, and the structural
  hash is computed exactly once per distinct term;
* per-term analyses (``free_vars``, ``apps``) are cached on the term
  itself, and shared subterms are processed once by every memoizing
  pass (substitution, div/mod elimination, Tseitin conversion, …);
* dictionaries keyed by terms (atom tables, theory-check memos, the
  canonical obligation cache) hash and probe in O(1) per node.

Pickling survives interning: ``__reduce__`` routes unpickling back
through the constructor, so terms loaded from the persistent artifact
cache re-intern and the identity invariant holds across processes.

Smart constructors perform light normalization (constant folding,
flattening of associative operators) so that downstream passes see a
small canonical surface.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

INT = "Int"
BOOL = "Bool"

# Operator tags.  Grouped by arity/behaviour; the solver dispatches on these.
OP_INTVAL = "intval"
OP_BOOLVAL = "boolval"
OP_VAR = "var"
OP_APP = "app"
OP_ADD = "+"
OP_MUL = "*"
OP_DIV = "div"
OP_MOD = "mod"
OP_NEG = "neg"
OP_EQ = "="
OP_LE = "<="
OP_LT = "<"
OP_NOT = "not"
OP_AND = "and"
OP_OR = "or"
OP_IMPLIES = "=>"
OP_ITE = "ite"

_ARITH_OPS = frozenset({OP_ADD, OP_MUL, OP_DIV, OP_MOD, OP_NEG})
_PRED_OPS = frozenset({OP_EQ, OP_LE, OP_LT})
_BOOL_OPS = frozenset({OP_NOT, OP_AND, OP_OR, OP_IMPLIES})

#: The hash-consing table: (op, args, name, value, sort) -> Term.
#: Concurrent interning from grid threads is benign — the worst case is
#: a transient duplicate whose structural __eq__ fallback still holds.
_INTERN: Dict[tuple, "Term"] = {}


def intern_size() -> int:
    """Number of distinct live terms in the intern table."""
    return len(_INTERN)


def clear_intern() -> None:
    """Drop the intern table (benchmarks' cold-start; long processes).

    Terms created before the clear remain valid — they compare equal to
    re-interned copies structurally, just no longer by identity.
    """
    _INTERN.clear()


class Term:
    """An immutable, interned SMT term.

    Attributes:
        op: operator tag (one of the ``OP_*`` constants).
        args: child terms.
        name: variable or function-symbol name (for ``var``/``app``).
        value: payload for integer/boolean literals.
        sort: ``INT`` or ``BOOL``.

    Construction goes through ``__new__``: structurally equal terms are
    the *same object* (hash-consing), so identity comparison decides
    equality and per-term caches (``_fvs``, ``_apps``) are shared by
    every holder of the term.
    """

    __slots__ = ("op", "args", "name", "value", "sort", "_hash",
                 "_fvs", "_apps", "_sexpr")

    def __new__(
        cls,
        op: str,
        args: Tuple["Term", ...] = (),
        name: Optional[str] = None,
        value=None,
        sort: str = INT,
    ):
        if type(args) is not tuple:
            args = tuple(args)
        key = (op, args, name, value, sort)
        self = _INTERN.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.op = op
        self.args = args
        self.name = name
        self.value = value
        self.sort = sort
        self._hash = hash(key)
        self._fvs = None
        self._apps = None
        self._sexpr = None
        _INTERN[key] = self
        return self

    def __reduce__(self):
        # Unpickling re-enters __new__, so terms loaded from the disk
        # cache re-intern and the identity invariant survives pickling.
        return (Term, (self.op, self.args, self.name, self.value, self.sort))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        # Interning makes structurally equal terms identical, so this
        # fallback only matters for terms that straddle a cleared intern
        # table; keep it structural for robustness.
        return (
            self._hash == other._hash
            and self.op == other.op
            and self.name == other.name
            and self.value == other.value
            and self.sort == other.sort
            and self.args == other.args
        )

    def __repr__(self) -> str:
        return f"Term({self.sexpr()})"

    def sexpr(self) -> str:
        """Render the term as an SMT-LIB style s-expression (cached)."""
        text = self._sexpr
        if text is not None:
            return text
        if self.op == OP_INTVAL:
            text = str(self.value)
        elif self.op == OP_BOOLVAL:
            text = "true" if self.value else "false"
        elif self.op == OP_VAR:
            text = str(self.name)
        elif self.op == OP_APP:
            inner = " ".join(a.sexpr() for a in self.args)
            text = f"({self.name} {inner})" if inner else f"({self.name})"
        else:
            inner = " ".join(a.sexpr() for a in self.args)
            text = f"({self.op} {inner})"
        self._sexpr = text
        return text

    # Convenience operator overloads make the type checker's encoding
    # rules read close to the paper's mathematical notation.
    def __add__(self, other) -> "Term":
        return Plus(self, _coerce(other))

    def __radd__(self, other) -> "Term":
        return Plus(_coerce(other), self)

    def __sub__(self, other) -> "Term":
        return Minus(self, _coerce(other))

    def __rsub__(self, other) -> "Term":
        return Minus(_coerce(other), self)

    def __mul__(self, other) -> "Term":
        return Times(self, _coerce(other))

    def __rmul__(self, other) -> "Term":
        return Times(_coerce(other), self)

    def __neg__(self) -> "Term":
        return Neg(self)

    def is_const(self) -> bool:
        return self.op in (OP_INTVAL, OP_BOOLVAL)


def _coerce(value) -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return BoolVal(value)
    if isinstance(value, int):
        return IntVal(value)
    raise TypeError(f"cannot coerce {value!r} to a Term")


_TRUE = Term(OP_BOOLVAL, value=True, sort=BOOL)
_FALSE = Term(OP_BOOLVAL, value=False, sort=BOOL)


def IntVal(value: int) -> Term:
    """Integer literal."""
    return Term(OP_INTVAL, value=int(value), sort=INT)


def BoolVal(value: bool) -> Term:
    """Boolean literal."""
    return _TRUE if value else _FALSE


TRUE = _TRUE
FALSE = _FALSE


def Int(name: str) -> Term:
    """Integer variable."""
    return Term(OP_VAR, name=name, sort=INT)


def Bool(name: str) -> Term:
    """Boolean variable."""
    return Term(OP_VAR, name=name, sort=BOOL)


def App(fname: str, *args) -> Term:
    """Uninterpreted function application (integer-sorted)."""
    return Term(OP_APP, tuple(_coerce(a) for a in args), name=fname, sort=INT)


def Plus(*args) -> Term:
    """N-ary addition with flattening and constant folding."""
    flat = []
    const = 0
    for arg in args:
        arg = _coerce(arg)
        if arg.op == OP_INTVAL:
            const += arg.value
        elif arg.op == OP_ADD:
            for sub in arg.args:
                if sub.op == OP_INTVAL:
                    const += sub.value
                else:
                    flat.append(sub)
        else:
            flat.append(arg)
    if const != 0 or not flat:
        flat.append(IntVal(const))
    if len(flat) == 1:
        return flat[0]
    return Term(OP_ADD, tuple(flat), sort=INT)


def Minus(a, b) -> Term:
    return Plus(_coerce(a), Neg(_coerce(b)))


def Neg(a) -> Term:
    a = _coerce(a)
    if a.op == OP_INTVAL:
        return IntVal(-a.value)
    if a.op == OP_NEG:
        return a.args[0]
    return Term(OP_NEG, (a,), sort=INT)


def Times(*args) -> Term:
    """N-ary multiplication with flattening and constant folding."""
    flat = []
    const = 1
    for arg in args:
        arg = _coerce(arg)
        if arg.op == OP_INTVAL:
            const *= arg.value
        elif arg.op == OP_MUL:
            for sub in arg.args:
                if sub.op == OP_INTVAL:
                    const *= sub.value
                else:
                    flat.append(sub)
        else:
            flat.append(arg)
    if const == 0:
        return IntVal(0)
    if not flat:
        return IntVal(const)
    if const != 1:
        flat.insert(0, IntVal(const))
    if len(flat) == 1:
        return flat[0]
    return Term(OP_MUL, tuple(flat), sort=INT)


def Div(a, b) -> Term:
    """Euclidean integer division (floor for positive divisors)."""
    a, b = _coerce(a), _coerce(b)
    if a.op == OP_INTVAL and b.op == OP_INTVAL and b.value != 0:
        return IntVal(a.value // b.value)
    if b.op == OP_INTVAL and b.value == 1:
        return a
    return Term(OP_DIV, (a, b), sort=INT)


def Mod(a, b) -> Term:
    a, b = _coerce(a), _coerce(b)
    if a.op == OP_INTVAL and b.op == OP_INTVAL and b.value != 0:
        return IntVal(a.value % b.value)
    if b.op == OP_INTVAL and b.value == 1:
        return IntVal(0)
    return Term(OP_MOD, (a, b), sort=INT)


def Eq(a, b) -> Term:
    a, b = _coerce(a), _coerce(b)
    if a == b:
        return TRUE
    if a.is_const() and b.is_const():
        return BoolVal(a.value == b.value)
    return Term(OP_EQ, (a, b), sort=BOOL)


def Ne(a, b) -> Term:
    return Not(Eq(a, b))


def Le(a, b) -> Term:
    a, b = _coerce(a), _coerce(b)
    if a.op == OP_INTVAL and b.op == OP_INTVAL:
        return BoolVal(a.value <= b.value)
    if a == b:
        return TRUE
    return Term(OP_LE, (a, b), sort=BOOL)


def Lt(a, b) -> Term:
    a, b = _coerce(a), _coerce(b)
    if a.op == OP_INTVAL and b.op == OP_INTVAL:
        return BoolVal(a.value < b.value)
    if a == b:
        return FALSE
    return Term(OP_LT, (a, b), sort=BOOL)


def Ge(a, b) -> Term:
    return Le(_coerce(b), _coerce(a))


def Gt(a, b) -> Term:
    return Lt(_coerce(b), _coerce(a))


def Not(a) -> Term:
    a = _coerce(a)
    if a.op == OP_BOOLVAL:
        return BoolVal(not a.value)
    if a.op == OP_NOT:
        return a.args[0]
    return Term(OP_NOT, (a,), sort=BOOL)


def And(*args) -> Term:
    flat = []
    for arg in _flatten(args):
        arg = _coerce(arg)
        if arg.op == OP_BOOLVAL:
            if not arg.value:
                return FALSE
            continue
        if arg.op == OP_AND:
            flat.extend(arg.args)
        else:
            flat.append(arg)
    flat = _dedup(flat)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return Term(OP_AND, tuple(flat), sort=BOOL)


def Or(*args) -> Term:
    flat = []
    for arg in _flatten(args):
        arg = _coerce(arg)
        if arg.op == OP_BOOLVAL:
            if arg.value:
                return TRUE
            continue
        if arg.op == OP_OR:
            flat.extend(arg.args)
        else:
            flat.append(arg)
    flat = _dedup(flat)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Term(OP_OR, tuple(flat), sort=BOOL)


def Implies(a, b) -> Term:
    a, b = _coerce(a), _coerce(b)
    if a.op == OP_BOOLVAL:
        return b if a.value else TRUE
    if b.op == OP_BOOLVAL and b.value:
        return TRUE
    return Term(OP_IMPLIES, (a, b), sort=BOOL)


def Ite(cond, then, otherwise) -> Term:
    """Integer-sorted if-then-else."""
    cond, then, otherwise = _coerce(cond), _coerce(then), _coerce(otherwise)
    if cond.op == OP_BOOLVAL:
        return then if cond.value else otherwise
    if then == otherwise:
        return then
    return Term(OP_ITE, (cond, then, otherwise), sort=INT)


def _flatten(args: Iterable) -> Iterable:
    for arg in args:
        if isinstance(arg, (list, tuple)):
            yield from _flatten(arg)
        else:
            yield arg


def _dedup(terms):
    seen = set()
    out = []
    for term in terms:
        if term not in seen:
            seen.add(term)
            out.append(term)
    return out


def subterms(term: Term):
    """Iterate over all distinct subterms (pre-order).

    Interning makes identity deduplication structural: each shared
    subterm is yielded exactly once, so walks over heavily shared DAGs
    are linear in the number of distinct nodes.
    """
    seen = {id(term)}
    stack = [term]
    while stack:
        current = stack.pop()
        yield current
        for arg in current.args:
            if id(arg) not in seen:
                seen.add(id(arg))
                stack.append(arg)


def _cached_leaf_sets(term: Term, op_tag: str, slot: str):
    """Bottom-up computation of per-term leaf sets with caching.

    ``slot`` is the cache attribute (``_fvs`` or ``_apps``); shared
    subterms contribute their cached frozenset without being re-walked.
    """
    cached = getattr(term, slot)
    if cached is not None:
        return cached
    # Iterative post-order so deep terms cannot overflow the stack.
    stack = [(term, False)]
    while stack:
        current, expanded = stack.pop()
        if getattr(current, slot) is not None:
            continue
        if not expanded:
            stack.append((current, True))
            for arg in current.args:
                if getattr(arg, slot) is None:
                    stack.append((arg, False))
            continue
        out = set()
        if current.op == op_tag:
            out.add(current)
        for arg in current.args:
            out |= getattr(arg, slot)
        setattr(current, slot, frozenset(out))
    return getattr(term, slot)


def free_vars(term: Term):
    """The variable terms appearing in ``term`` (cached frozenset)."""
    return _cached_leaf_sets(term, OP_VAR, "_fvs")


def apps(term: Term):
    """Uninterpreted applications appearing in ``term`` (cached frozenset).

    Note: an application nested inside another application is included
    (the set covers the whole subtree).
    """
    return _cached_leaf_sets(term, OP_APP, "_apps")


def substitute(term: Term, mapping: dict) -> Term:
    """Substitute terms (usually variables) by terms, bottom-up."""
    cache: dict = {}

    def go(t: Term) -> Term:
        hit = cache.get(t)
        if hit is not None:
            return hit
        if t in mapping:
            result = mapping[t]
        elif not t.args:
            result = t
        else:
            new_args = tuple(go(a) for a in t.args)
            result = rebuild(t, new_args)
        cache[t] = result
        return result

    return go(term)


def rebuild(term: Term, args: Tuple[Term, ...]) -> Term:
    """Rebuild a term with new arguments through the smart constructors."""
    if args == term.args:
        return term
    op = term.op
    if op == OP_ADD:
        return Plus(*args)
    if op == OP_MUL:
        return Times(*args)
    if op == OP_NEG:
        return Neg(args[0])
    if op == OP_DIV:
        return Div(*args)
    if op == OP_MOD:
        return Mod(*args)
    if op == OP_EQ:
        return Eq(*args)
    if op == OP_LE:
        return Le(*args)
    if op == OP_LT:
        return Lt(*args)
    if op == OP_NOT:
        return Not(args[0])
    if op == OP_AND:
        return And(*args)
    if op == OP_OR:
        return Or(*args)
    if op == OP_IMPLIES:
        return Implies(*args)
    if op == OP_ITE:
        return Ite(*args)
    if op == OP_APP:
        return Term(OP_APP, args, name=term.name, sort=term.sort)
    raise ValueError(f"cannot rebuild op {op}")
