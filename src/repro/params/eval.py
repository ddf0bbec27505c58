"""Concrete evaluation of parameter expressions (used by the elaborator)
and symbolic encoding into SMT terms (used by the type checker).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .. import smt
from .expr import (
    CAnd,
    CBool,
    CCmp,
    CNot,
    COr,
    Constraint,
    ParamError,
    PAccess,
    PBin,
    PExpr,
    PInstOut,
    PInt,
    PIte,
    PUn,
    PVar,
)

# Resolver signatures used by callers:
#   access_fn(PAccess, env)   -> int     (elaborator: run the component)
#   inst_out_fn(PInstOut)     -> int     (elaborator: read bound instance)
AccessFn = Callable[[PAccess, Dict[str, int]], int]
InstOutFn = Callable[[PInstOut], int]


def _log2(value: int) -> int:
    if value < 1:
        raise ParamError(f"log2 of non-positive value {value}")
    return value.bit_length() - 1


def evaluate(
    expr: PExpr,
    env: Dict[str, int],
    access_fn: Optional[AccessFn] = None,
    inst_out_fn: Optional[InstOutFn] = None,
) -> int:
    """Evaluate a parameter expression to a concrete integer."""
    if isinstance(expr, PInt):
        return expr.value
    if isinstance(expr, PVar):
        if expr.name not in env:
            raise ParamError(f"unbound parameter {expr.name}")
        return env[expr.name]
    if isinstance(expr, PBin):
        lhs = evaluate(expr.lhs, env, access_fn, inst_out_fn)
        rhs = evaluate(expr.rhs, env, access_fn, inst_out_fn)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op == "/":
            if rhs == 0:
                raise ParamError("division by zero in parameter expression")
            return lhs // rhs
        if expr.op == "%":
            if rhs == 0:
                raise ParamError("modulo by zero in parameter expression")
            return lhs % rhs
    if isinstance(expr, PUn):
        arg = evaluate(expr.arg, env, access_fn, inst_out_fn)
        if expr.op == "log2":
            return _log2(arg)
        if expr.op == "exp2":
            if arg < 0:
                raise ParamError(f"exp2 of negative value {arg}")
            return 2**arg
    if isinstance(expr, PAccess):
        if access_fn is None:
            raise ParamError(
                f"parameter access {expr.comp}::{expr.out} needs an elaborator"
            )
        return access_fn(expr, env)
    if isinstance(expr, PInstOut):
        if inst_out_fn is None:
            raise ParamError(
                f"instance output {expr.instance}::{expr.out} not in scope"
            )
        return inst_out_fn(expr)
    if isinstance(expr, PIte):
        if evaluate_constraint(expr.cond, env, access_fn, inst_out_fn):
            return evaluate(expr.then, env, access_fn, inst_out_fn)
        return evaluate(expr.other, env, access_fn, inst_out_fn)
    raise ParamError(f"cannot evaluate {expr!r}")


def evaluate_constraint(
    constraint: Constraint,
    env: Dict[str, int],
    access_fn: Optional[AccessFn] = None,
    inst_out_fn: Optional[InstOutFn] = None,
) -> bool:
    if isinstance(constraint, CBool):
        return constraint.value
    if isinstance(constraint, CCmp):
        lhs = evaluate(constraint.lhs, env, access_fn, inst_out_fn)
        rhs = evaluate(constraint.rhs, env, access_fn, inst_out_fn)
        return {
            "==": lhs == rhs,
            "!=": lhs != rhs,
            "<=": lhs <= rhs,
            "<": lhs < rhs,
            ">=": lhs >= rhs,
            ">": lhs > rhs,
        }[constraint.op]
    if isinstance(constraint, CNot):
        return not evaluate_constraint(constraint.arg, env, access_fn, inst_out_fn)
    if isinstance(constraint, CAnd):
        return evaluate_constraint(
            constraint.lhs, env, access_fn, inst_out_fn
        ) and evaluate_constraint(constraint.rhs, env, access_fn, inst_out_fn)
    if isinstance(constraint, COr):
        return evaluate_constraint(
            constraint.lhs, env, access_fn, inst_out_fn
        ) or evaluate_constraint(constraint.rhs, env, access_fn, inst_out_fn)
    raise ParamError(f"cannot evaluate constraint {constraint!r}")


# --------------------------------------------------------------------------
# Symbolic encoding (type checker).

# Encoders map PAccess / PInstOut to SMT terms; the type checker supplies
# them because the translation needs signature information (section 4.2:
# output parameters become uninterpreted functions of input parameters).
SymAccessFn = Callable[[PAccess], smt.Term]
SymInstOutFn = Callable[[PInstOut], smt.Term]


def encode(
    expr: PExpr,
    var_fn: Callable[[str], smt.Term],
    access_fn: Optional[SymAccessFn] = None,
    inst_out_fn: Optional[SymInstOutFn] = None,
) -> smt.Term:
    """Encode a parameter expression as an SMT integer term."""
    if isinstance(expr, PInt):
        return smt.IntVal(expr.value)
    if isinstance(expr, PVar):
        return var_fn(expr.name)
    if isinstance(expr, PBin):
        lhs = encode(expr.lhs, var_fn, access_fn, inst_out_fn)
        rhs = encode(expr.rhs, var_fn, access_fn, inst_out_fn)
        if expr.op == "+":
            return smt.Plus(lhs, rhs)
        if expr.op == "-":
            return smt.Minus(lhs, rhs)
        if expr.op == "*":
            return smt.Times(lhs, rhs)
        if expr.op == "/":
            return smt.Div(lhs, rhs)
        if expr.op == "%":
            return smt.Mod(lhs, rhs)
    if isinstance(expr, PUn):
        arg = encode(expr.arg, var_fn, access_fn, inst_out_fn)
        return smt.App(expr.op, arg)
    if isinstance(expr, PAccess):
        if access_fn is None:
            raise ParamError(f"no encoder for parameter access {expr!r}")
        return access_fn(expr)
    if isinstance(expr, PInstOut):
        if inst_out_fn is None:
            raise ParamError(f"no encoder for instance output {expr!r}")
        return inst_out_fn(expr)
    if isinstance(expr, PIte):
        cond = encode_constraint(expr.cond, var_fn, access_fn, inst_out_fn)
        then = encode(expr.then, var_fn, access_fn, inst_out_fn)
        other = encode(expr.other, var_fn, access_fn, inst_out_fn)
        return smt.Ite(cond, then, other)
    raise ParamError(f"cannot encode {expr!r}")


def encode_constraint(
    constraint: Constraint,
    var_fn: Callable[[str], smt.Term],
    access_fn: Optional[SymAccessFn] = None,
    inst_out_fn: Optional[SymInstOutFn] = None,
) -> smt.Term:
    """Encode a constraint as an SMT boolean term."""
    if isinstance(constraint, CBool):
        return smt.BoolVal(constraint.value)
    if isinstance(constraint, CCmp):
        lhs = encode(constraint.lhs, var_fn, access_fn, inst_out_fn)
        rhs = encode(constraint.rhs, var_fn, access_fn, inst_out_fn)
        return {
            "==": smt.Eq,
            "!=": smt.Ne,
            "<=": smt.Le,
            "<": smt.Lt,
            ">=": smt.Ge,
            ">": smt.Gt,
        }[constraint.op](lhs, rhs)
    if isinstance(constraint, CNot):
        return smt.Not(
            encode_constraint(constraint.arg, var_fn, access_fn, inst_out_fn)
        )
    if isinstance(constraint, CAnd):
        return smt.And(
            encode_constraint(constraint.lhs, var_fn, access_fn, inst_out_fn),
            encode_constraint(constraint.rhs, var_fn, access_fn, inst_out_fn),
        )
    if isinstance(constraint, COr):
        return smt.Or(
            encode_constraint(constraint.lhs, var_fn, access_fn, inst_out_fn),
            encode_constraint(constraint.rhs, var_fn, access_fn, inst_out_fn),
        )
    raise ParamError(f"cannot encode constraint {constraint!r}")
