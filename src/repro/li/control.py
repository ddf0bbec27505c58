"""Small control-logic builders used by the latency-insensitive substrate.

Everything here is built from plain netlist cells so the synthesis model
charges honestly for the handshaking logic — the paper's central claim is
that this logic is pure overhead when timing is statically known.
"""

from __future__ import annotations

from math import ceil, log2
from typing import Tuple

from ..rtl import Module, Net


def bit_not(m: Module, a: Net) -> Net:
    return m.unop("not", a, width=1)


def bit_and(m: Module, a: Net, b: Net) -> Net:
    return m.binop("and", a, b, width=1)


def bit_or(m: Module, a: Net, b: Net) -> Net:
    return m.binop("or", a, b, width=1)


def counter_width(limit: int) -> int:
    return max(1, ceil(log2(limit + 1)))


def credit_counter(
    m: Module, depth: int, take: Net, give: Net
) -> Tuple[Net, Net]:
    """An up/down credit counter starting at ``depth``.

    Returns ``(credits, has_credit)``: ``take`` spends one credit,
    ``give`` returns one (both may fire in the same cycle).
    """
    width = counter_width(depth)
    state = m.fresh_net(width, "credits")
    one = m.constant(1, width)
    minus = m.binop("sub", state, one, width)
    plus = m.binop("add", state, one, width)
    after_take = m.mux(take, minus, state)
    both = bit_and(m, take, give)
    neither_changed = m.mux(give, plus, after_take)
    next_state = m.mux(both, state, neither_changed)
    m.add_cell("reg", {"d": next_state, "q": state}, {"init": depth})
    zero = m.constant(0, width)
    is_zero = m.binop("eq", state, zero, 1)
    has_credit = bit_not(m, is_zero)
    return state, has_credit


def spacing_guard(m: Module, interval: int, issue: Net) -> Net:
    """Ready signal enforcing an initiation interval.

    After ``issue`` fires, ready deasserts for ``interval - 1`` cycles.
    For interval 1 the guard is constant true.
    """
    if interval <= 1:
        return m.constant(1, 1)
    width = counter_width(interval)
    state = m.fresh_net(width, "iicnt")
    zero = m.constant(0, width)
    one = m.constant(1, width)
    is_zero = m.binop("eq", state, zero, 1)
    reload = m.constant(interval - 1, width)
    decremented = m.binop("sub", state, one, width)
    hold = m.mux(is_zero, state, decremented)
    next_state = m.mux(issue, reload, hold)
    m.add_cell("reg", {"d": next_state, "q": state}, {"init": 0})
    return is_zero


def valid_chain(m: Module, start: Net, length: int) -> Net:
    """A 1-bit shift register marking in-flight transactions."""
    return m.delay_chain(start, length)


def up_counter(
    m: Module, limit: int, enable: Net, reset: Net
) -> Tuple[Net, Net]:
    """A saturating index counter: returns (value, at_limit).

    Increments while ``enable``; ``reset`` (dominant) returns to zero.
    ``at_limit`` is asserted when value == limit.
    """
    width = counter_width(limit)
    state = m.fresh_net(width, "idx")
    one = m.constant(1, width)
    bumped = m.binop("add", state, one, width)
    advanced = m.mux(enable, bumped, state)
    zero = m.constant(0, width)
    next_state = m.mux(reset, zero, advanced)
    m.add_cell("reg", {"d": next_state, "q": state}, {"init": 0})
    limit_net = m.constant(limit, width)
    at_limit = m.binop("eq", state, limit_net, 1)
    return state, at_limit
