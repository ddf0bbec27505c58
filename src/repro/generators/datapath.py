"""Reusable pipelined datapath constructions for the generator stand-ins.

These build *structurally honest* pipelines: an L-stage adder really is
chunked with a carry pipeline (registers scale with L and W), and an
L-stage multiplier really accumulates partial products.  The synthesis
model (area, critical path) therefore responds to pipeline depth the way
real generated cores do.
"""

from __future__ import annotations

from math import ceil
from typing import List, Optional, Tuple

from ..rtl import Module, Net


def _chunk_bounds(width: int, stages: int) -> List[Tuple[int, int]]:
    """Split ``width`` bits into ``stages`` contiguous (lsb, size) chunks."""
    chunk = ceil(width / stages)
    bounds = []
    lsb = 0
    while lsb < width:
        size = min(chunk, width - lsb)
        bounds.append((lsb, size))
        lsb += size
    return bounds


def pipelined_adder(name: str, width: int, stages: int) -> Module:
    """An L-stage pipelined adder: ports a, b -> o with latency ``stages``.

    Stage ``s`` adds bit-chunk ``s`` (operands delayed ``s`` cycles) plus
    the carry from stage ``s-1``; chunk results are delayed to align at
    cycle ``stages``.
    """
    if stages < 1:
        raise ValueError("adder needs at least one stage")
    m = Module(name)
    a = m.add_input("l", width)
    b = m.add_input("r", width)
    out = m.add_output("o", width)
    bounds = _chunk_bounds(width, stages)
    actual_stages = len(bounds)
    # Align total latency to `stages` even if fewer chunks are needed.
    carry: Optional[Net] = None
    chunks: List[Tuple[Net, int]] = []  # (net at cycle s+1, stage index)
    a_delayed, b_delayed = a, b
    for stage, (lsb, size) in enumerate(bounds):
        chunk_a = m.unop("slice", a_delayed, width=size, lsb=lsb)
        chunk_b = m.unop("slice", b_delayed, width=size, lsb=lsb)
        total = m.binop("add", chunk_a, chunk_b, width=size + 1)
        if carry is not None:
            total = m.binop("add", total, carry, width=size + 1)
        summed = m.register(total)  # cycle stage+1
        low = m.unop("slice", summed, width=size, lsb=0)
        chunks.append((low, stage))
        carry = m.unop("slice", summed, width=1, lsb=size)
        if stage + 1 < actual_stages:
            a_delayed = m.register(a_delayed)
            b_delayed = m.register(b_delayed)
    # Delay each chunk to cycle `stages` and concatenate.
    aligned: List[Net] = []
    for net, stage in chunks:
        extra = stages - (stage + 1)
        aligned.append(m.delay_chain(net, extra))
    packed = aligned[0]
    for net in aligned[1:]:
        merged = m.fresh_net(packed.width + net.width, "sum")
        m.add_cell("concat", {"a": net, "b": packed, "out": merged})
        packed = merged
    m.add_cell("slice", {"a": packed, "out": out}, {"lsb": 0})
    return m


def pipelined_multiplier(name: str, width: int, stages: int) -> Module:
    """An L-stage shift-add multiplier: ports l, r -> o (low ``width`` bits).

    Stage ``s`` multiplies the delayed ``l`` by chunk ``s`` of ``r`` and
    accumulates into a pipelined partial sum.
    """
    if stages < 1:
        raise ValueError("multiplier needs at least one stage")
    m = Module(name)
    a = m.add_input("l", width)
    b = m.add_input("r", width)
    out = m.add_output("o", width)
    bounds = _chunk_bounds(width, stages)
    acc: Optional[Net] = None
    a_delayed, b_delayed = a, b
    for stage, (lsb, size) in enumerate(bounds):
        chunk_b = m.unop("slice", b_delayed, width=size, lsb=lsb)
        partial = m.binop("mul", a_delayed, chunk_b, width=width)
        shifted = m.unop("shl", partial, width=width, amount=lsb)
        if acc is not None:
            shifted = m.binop("add", shifted, acc, width=width)
        acc = m.register(shifted)
        if stage + 1 < len(bounds):
            a_delayed = m.register(a_delayed)
            b_delayed = m.register(b_delayed)
    extra = stages - len(bounds)
    acc = m.delay_chain(acc, extra)
    m.add_cell("slice", {"a": acc, "out": out}, {"lsb": 0})
    return m


def pipelined_divider(
    name: str,
    width: int,
    bits_per_stage: int,
    total_latency: int,
    num_name: str = "n",
    den_name: str = "d",
    quot_name: str = "q",
) -> Module:
    """A restoring divider: ``bits_per_stage`` quotient bits per pipeline
    stage, padded with alignment registers to ``total_latency``.

    This is the structure behind all three Vivado divider
    microarchitectures (Figure 9): LutMult packs many bits per stage,
    Radix-2 resolves one bit per stage, High-radix resolves four.
    """
    stages = ceil(width / bits_per_stage)
    if total_latency < stages:
        raise ValueError(
            f"latency {total_latency} below pipeline depth {stages}"
        )
    m = Module(name)
    n = m.add_input(num_name, width)
    d = m.add_input(den_name, width)
    q = m.add_output(quot_name, width)
    rem = m.constant(0, width + 1)
    n_cur, d_cur = n, d
    q_bits: List[Tuple[Net, int]] = []  # (bit net, ready cycle)
    bit = width - 1
    for stage in range(stages):
        for _ in range(bits_per_stage):
            if bit < 0:
                break
            n_bit = m.unop("slice", n_cur, width=1, lsb=bit)
            shifted = m.unop("shl", rem, width=width + 1, amount=1)
            candidate = m.binop("or", shifted, n_bit, width=width + 1)
            fits_net = m.fresh_net(1, "fits")
            m.add_cell("lt", {"a": d_cur, "b": candidate, "out": fits_net})
            eq_net = m.fresh_net(1, "deq")
            m.add_cell("eq", {"a": d_cur, "b": candidate, "out": eq_net})
            ge = m.binop("or", fits_net, eq_net, 1)
            reduced = m.binop("sub", candidate, d_cur, width=width + 1)
            rem = m.mux(ge, reduced, candidate)
            # ge is combinational during cycle `stage` (inputs are delayed
            # `stage` times); it needs total_latency - stage registers to
            # be valid during cycle `total_latency`.
            q_bits.append((ge, stage))
            bit -= 1
        rem = m.register(rem)
        n_cur = m.register(n_cur)
        d_cur = m.register(d_cur)
    # Align each quotient bit to total_latency and pack MSB..LSB.
    aligned = [
        m.delay_chain(net, total_latency - ready) for net, ready in q_bits
    ]
    packed = aligned[0]  # MSB first
    for net in aligned[1:]:
        widened = m.fresh_net(packed.width + 1, "qpack")
        m.add_cell("concat", {"a": packed, "b": net, "out": widened})
        packed = widened
    m.add_cell("slice", {"a": packed, "out": q}, {"lsb": 0})
    return m


def butterfly_network(
    name: str,
    num_points: int,
    width: int,
    extra_latency: int = 0,
    port_in: str = "x",
    port_out: str = "y",
) -> Module:
    """A pipelined add/sub butterfly network over ``num_points`` elements.

    One register level per butterfly stage (log2(num_points) stages), plus
    ``extra_latency`` alignment registers.  With unity twiddle factors this
    computes a Walsh--Hadamard transform — structurally identical to a
    radix-2 FFT datapath (see DESIGN.md substitutions).
    """
    if num_points & (num_points - 1):
        raise ValueError("num_points must be a power of two")
    m = Module(name)
    packed_in = m.add_input(port_in, num_points * width)
    packed_out = m.add_output(port_out, num_points * width)
    lanes = [
        m.unop("slice", packed_in, width=width, lsb=i * width)
        for i in range(num_points)
    ]
    span = num_points // 2
    while span >= 1:
        next_lanes = list(lanes)
        for base in range(0, num_points, span * 2):
            for offset in range(span):
                i, j = base + offset, base + offset + span
                next_lanes[i] = m.binop("add", lanes[i], lanes[j], width)
                next_lanes[j] = m.binop("sub", lanes[i], lanes[j], width)
        lanes = [m.register(lane) for lane in next_lanes]
        span //= 2
    lanes = [m.delay_chain(lane, extra_latency) for lane in lanes]
    packed = lanes[-1]
    for lane in reversed(lanes[:-1]):
        widened = m.fresh_net(packed.width + width, "pack")
        m.add_cell("concat", {"a": packed, "b": lane, "out": widened})
        packed = widened
    m.add_cell("slice", {"a": packed, "out": packed_out}, {"lsb": 0})
    return m


def delayed_block(name: str, width: int, op: str, latency: int) -> Module:
    """A two-input op followed by ``latency`` alignment registers."""
    m = Module(name)
    a = m.add_input("l", width)
    b = m.add_input("r", width)
    out = m.add_output("o", width)
    result = m.binop(op, a, b, width=width)
    delayed = m.delay_chain(result, latency)
    m.add_cell("slice", {"a": delayed, "out": out}, {"lsb": 0})
    return m
