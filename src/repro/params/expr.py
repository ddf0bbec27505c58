"""Parameter expressions and constraints — the ``P`` and ``C`` grammars of
Figure 7 in the paper.

Parameter expressions appear everywhere constants are allowed in Filament:
availability intervals, event delays, scheduling offsets, port widths, loop
bounds.  They are compile-time values; during type checking they are encoded
into SMT terms (symbolically), and during elaboration they are evaluated to
concrete integers.

Grammar reproduced here:

    P ::= n | #p | bop(P, P) | unop(P) | X[P*]::#o | Inst::#o | C ? P : P
    C ::= P == P | P <= P | ... | !C | C & C | C | C | true | false

``X[P*]::#o`` is a *parameter access*: instantiate component ``X`` purely as
a function over parameters and read its output parameter (the paper's
``Max[#A,#B]::#Out``).  ``Inst::#o`` reads an output parameter of an
instance already in scope (``Add::#L``).
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Union


class ParamError(Exception):
    """Raised on malformed or unevaluable parameter expressions."""


class PExpr:
    """Base class for parameter expressions."""

    def __add__(self, other):
        return PBin("+", self, wrap(other))

    def __radd__(self, other):
        return PBin("+", wrap(other), self)

    def __sub__(self, other):
        return PBin("-", self, wrap(other))

    def __rsub__(self, other):
        return PBin("-", wrap(other), self)

    def __mul__(self, other):
        return PBin("*", self, wrap(other))

    def __rmul__(self, other):
        return PBin("*", wrap(other), self)

    def __floordiv__(self, other):
        return PBin("/", self, wrap(other))

    def __mod__(self, other):
        return PBin("%", self, wrap(other))

    # Comparisons build constraints, not booleans.
    def eq(self, other) -> "Constraint":
        return CCmp("==", self, wrap(other))

    def ne(self, other) -> "Constraint":
        return CCmp("!=", self, wrap(other))

    def __le__(self, other) -> "Constraint":
        return CCmp("<=", self, wrap(other))

    def __lt__(self, other) -> "Constraint":
        return CCmp("<", self, wrap(other))

    def __ge__(self, other) -> "Constraint":
        return CCmp(">=", self, wrap(other))

    def __gt__(self, other) -> "Constraint":
        return CCmp(">", self, wrap(other))

    def __repr__(self):
        return f"PExpr({pretty(self)})"


class PInt(PExpr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)

    def __eq__(self, other):
        return isinstance(other, PInt) and self.value == other.value

    def __hash__(self):
        return hash(("PInt", self.value))


class PVar(PExpr):
    """Reference to a parameter in scope (``#W``, loop index ``#k``...)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, PVar) and self.name == other.name

    def __hash__(self):
        return hash(("PVar", self.name))


class PBin(PExpr):
    __slots__ = ("op", "lhs", "rhs")

    OPS = ("+", "-", "*", "/", "%")

    def __init__(self, op: str, lhs: PExpr, rhs: PExpr):
        if op not in self.OPS:
            raise ParamError(f"unknown binary operator {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other):
        return (
            isinstance(other, PBin)
            and self.op == other.op
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self):
        return hash(("PBin", self.op, self.lhs, self.rhs))


class PUn(PExpr):
    __slots__ = ("op", "arg")

    OPS = ("log2", "exp2")

    def __init__(self, op: str, arg: PExpr):
        if op not in self.OPS:
            raise ParamError(f"unknown unary operator {op!r}")
        self.op = op
        self.arg = arg

    def __eq__(self, other):
        return isinstance(other, PUn) and self.op == other.op and self.arg == other.arg

    def __hash__(self):
        return hash(("PUn", self.op, self.arg))


class PAccess(PExpr):
    """Functional parameter access: ``Comp[P*]::#out``."""

    __slots__ = ("comp", "args", "out")

    def __init__(self, comp: str, args: Sequence[PExpr], out: str):
        self.comp = comp
        self.args = tuple(args)
        self.out = out

    def __eq__(self, other):
        return (
            isinstance(other, PAccess)
            and self.comp == other.comp
            and self.args == other.args
            and self.out == other.out
        )

    def __hash__(self):
        return hash(("PAccess", self.comp, self.args, self.out))


class PInstOut(PExpr):
    """Output parameter of an instance in scope: ``Add::#L``."""

    __slots__ = ("instance", "out")

    def __init__(self, instance: str, out: str):
        self.instance = instance
        self.out = out

    def __eq__(self, other):
        return (
            isinstance(other, PInstOut)
            and self.instance == other.instance
            and self.out == other.out
        )

    def __hash__(self):
        return hash(("PInstOut", self.instance, self.out))


class PIte(PExpr):
    """Conditional parameter expression ``C ? P : P`` (Figure 9b)."""

    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: "Constraint", then: PExpr, other: PExpr):
        self.cond = cond
        self.then = then
        self.other = other

    def __eq__(self, rhs):
        return (
            isinstance(rhs, PIte)
            and self.cond == rhs.cond
            and self.then == rhs.then
            and self.other == rhs.other
        )

    def __hash__(self):
        return hash(("PIte", self.cond, self.then, self.other))


# --------------------------------------------------------------------------
# Constraints (the C grammar).


class Constraint:
    def land(self, other) -> "Constraint":
        return CAnd(self, other)

    def neg(self) -> "Constraint":
        return CNot(self)

    def __repr__(self):
        return f"Constraint({pretty_constraint(self)})"


class CBool(Constraint):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = bool(value)

    def __eq__(self, other):
        return isinstance(other, CBool) and self.value == other.value

    def __hash__(self):
        return hash(("CBool", self.value))


class CCmp(Constraint):
    __slots__ = ("op", "lhs", "rhs")

    OPS = ("==", "!=", "<=", "<", ">=", ">")

    def __init__(self, op: str, lhs: PExpr, rhs: PExpr):
        if op not in self.OPS:
            raise ParamError(f"unknown comparison {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other):
        return (
            isinstance(other, CCmp)
            and self.op == other.op
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self):
        return hash(("CCmp", self.op, self.lhs, self.rhs))


class CNot(Constraint):
    __slots__ = ("arg",)

    def __init__(self, arg: Constraint):
        self.arg = arg

    def __eq__(self, other):
        return isinstance(other, CNot) and self.arg == other.arg

    def __hash__(self):
        return hash(("CNot", self.arg))


class CAnd(Constraint):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Constraint, rhs: Constraint):
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other):
        return isinstance(other, CAnd) and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self):
        return hash(("CAnd", self.lhs, self.rhs))


class COr(Constraint):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Constraint, rhs: Constraint):
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other):
        return isinstance(other, COr) and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self):
        return hash(("COr", self.lhs, self.rhs))


# --------------------------------------------------------------------------
# Helpers.


def wrap(value: Union[int, PExpr]) -> PExpr:
    """Coerce Python ints (and strings naming parameters) to expressions."""
    if isinstance(value, PExpr):
        return value
    if isinstance(value, int):
        return PInt(value)
    if isinstance(value, str):
        return PVar(value)
    raise ParamError(f"cannot interpret {value!r} as a parameter expression")


def P(value: Union[int, str, PExpr]) -> PExpr:
    """Public constructor: ``P(4)``, ``P("#W")``."""
    return wrap(value)


def access(comp: str, args: Sequence[Union[int, str, PExpr]], out: str) -> PAccess:
    return PAccess(comp, [wrap(a) for a in args], out)


def inst_out(instance: str, out: str) -> PInstOut:
    return PInstOut(instance, out)


def ite(cond: Constraint, then, other) -> PIte:
    return PIte(cond, wrap(then), wrap(other))


def free_params(node: Union[PExpr, Constraint]) -> Set[str]:
    """Names of parameters referenced by a P expression or constraint."""
    out: Set[str] = set()

    def go(n):
        if isinstance(n, PVar):
            out.add(n.name)
        elif isinstance(n, PBin):
            go(n.lhs)
            go(n.rhs)
        elif isinstance(n, PUn):
            go(n.arg)
        elif isinstance(n, PAccess):
            for a in n.args:
                go(a)
        elif isinstance(n, PIte):
            go(n.cond)
            go(n.then)
            go(n.other)
        elif isinstance(n, CCmp):
            go(n.lhs)
            go(n.rhs)
        elif isinstance(n, CNot):
            go(n.arg)
        elif isinstance(n, (CAnd, COr)):
            go(n.lhs)
            go(n.rhs)

    go(node)
    return out


def instance_outs(node: Union[PExpr, Constraint]) -> Set[PInstOut]:
    """All instance-output accesses in an expression or constraint."""
    out: Set[PInstOut] = set()

    def go(n):
        if isinstance(n, PInstOut):
            out.add(n)
        elif isinstance(n, PBin):
            go(n.lhs)
            go(n.rhs)
        elif isinstance(n, PUn):
            go(n.arg)
        elif isinstance(n, PAccess):
            for a in n.args:
                go(a)
        elif isinstance(n, PIte):
            go(n.cond)
            go(n.then)
            go(n.other)
        elif isinstance(n, CCmp):
            go(n.lhs)
            go(n.rhs)
        elif isinstance(n, CNot):
            go(n.arg)
        elif isinstance(n, (CAnd, COr)):
            go(n.lhs)
            go(n.rhs)

    go(node)
    return out


def substitute_params(
    node: Union[PExpr, Constraint], mapping: Dict[str, PExpr]
) -> Union[PExpr, Constraint]:
    """Substitute parameter variables by expressions."""

    def go(n):
        if isinstance(n, PInt):
            return n
        if isinstance(n, PVar):
            return mapping.get(n.name, n)
        if isinstance(n, PBin):
            return PBin(n.op, go(n.lhs), go(n.rhs))
        if isinstance(n, PUn):
            return PUn(n.op, go(n.arg))
        if isinstance(n, PAccess):
            return PAccess(n.comp, [go(a) for a in n.args], n.out)
        if isinstance(n, PInstOut):
            return n
        if isinstance(n, PIte):
            return PIte(go(n.cond), go(n.then), go(n.other))
        if isinstance(n, CBool):
            return n
        if isinstance(n, CCmp):
            return CCmp(n.op, go(n.lhs), go(n.rhs))
        if isinstance(n, CNot):
            return CNot(go(n.arg))
        if isinstance(n, CAnd):
            return CAnd(go(n.lhs), go(n.rhs))
        if isinstance(n, COr):
            return COr(go(n.lhs), go(n.rhs))
        raise ParamError(f"unknown node {n!r}")

    return go(node)


# --------------------------------------------------------------------------
# Pretty printing (paper-style).


def pretty(expr: PExpr) -> str:
    if isinstance(expr, PInt):
        return str(expr.value)
    if isinstance(expr, PVar):
        return expr.name
    if isinstance(expr, PBin):
        return f"({pretty(expr.lhs)} {expr.op} {pretty(expr.rhs)})"
    if isinstance(expr, PUn):
        return f"{expr.op}({pretty(expr.arg)})"
    if isinstance(expr, PAccess):
        args = ", ".join(pretty(a) for a in expr.args)
        return f"{expr.comp}[{args}]::{expr.out}"
    if isinstance(expr, PInstOut):
        return f"{expr.instance}::{expr.out}"
    if isinstance(expr, PIte):
        return (
            f"({pretty_constraint(expr.cond)} ? {pretty(expr.then)}"
            f" : {pretty(expr.other)})"
        )
    raise ParamError(f"unknown expression {expr!r}")


def pretty_constraint(constraint: Constraint) -> str:
    if isinstance(constraint, CBool):
        return "true" if constraint.value else "false"
    if isinstance(constraint, CCmp):
        return f"{pretty(constraint.lhs)} {constraint.op} {pretty(constraint.rhs)}"
    if isinstance(constraint, CNot):
        return f"!({pretty_constraint(constraint.arg)})"
    if isinstance(constraint, CAnd):
        return (
            f"({pretty_constraint(constraint.lhs)} & "
            f"{pretty_constraint(constraint.rhs)})"
        )
    if isinstance(constraint, COr):
        return (
            f"({pretty_constraint(constraint.lhs)} | "
            f"{pretty_constraint(constraint.rhs)})"
        )
    raise ParamError(f"unknown constraint {constraint!r}")
