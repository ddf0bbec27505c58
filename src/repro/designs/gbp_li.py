"""Gaussian Blur Pyramid — latency-insensitive baseline (section 7.1).

The Verilog-with-ready/valid implementation the paper compares against:

* each Aetherling convolution is wrapped in a ready--valid interface;
* each blur level is a *serial* send/recv state machine (Figure 12): the
  send side slices the latched tile into conv-sized chunks and feeds them
  through the handshake, the recv side collects the convolved chunks into
  a result register bank;
* the pyramid chains the blur levels through ready--valid channels, with
  a bookkeeping FIFO buffering the level-0 output until the level-1 branch
  catches up for blending.

The handshake logic, FIFOs and valid chains are real cells, so the
synthesis model charges for exactly the overheads Table 1/Figure 13
measure.
"""

from __future__ import annotations

from typing import List, Optional

from ..driver import CompileSession, default_session
from ..generators.aetherling import AetherlingGenerator
from ..lilac.elaborate import ElabResult
from ..li import bit_and, bit_not, up_counter, wrap_latency_sensitive
from ..rtl import Module, Net, Simulator
from .gbp_la import AETHERLING_CONV_INTERFACE, TILE


def elaborate_conv(
    parallelism: int, width: int, session: Optional[CompileSession] = None
) -> ElabResult:
    session = session or default_session()
    return session.elaborate(
        AETHERLING_CONV_INTERFACE,
        "AethConv",
        {"#W": width},
        [AetherlingGenerator(parallelism)],
    ).value


def build_li_blur(conv: ElabResult, width: int, name: str) -> Module:
    """One blur level: Figure 12's send/recv machines around a wrapped conv."""
    chunk = conv.output("out").size
    chunks = TILE // chunk
    wrapped = wrap_latency_sensitive(conv, name=f"{name}_conv_li")

    m = Module(name)
    in_valid = m.add_input("in_valid", 1)
    tile_in = m.add_input("tile", TILE * width)
    out_ready = m.add_input("out_ready", 1)
    in_ready = m.add_output("in_ready", 1)
    out_valid = m.add_output("out_valid", 1)
    tile_out = m.add_output("tile_o", TILE * width)

    # Serial state: busy from tile acceptance until the result transfers.
    busy = m.fresh_net(1, "busy")
    issue = bit_and(m, in_valid, bit_not(m, busy))
    m.add_cell("slice", {"a": bit_not(m, busy), "out": in_ready}, {"lsb": 0})

    # Latch the input tile.
    tile_reg = m.fresh_net(TILE * width, "tile_reg")
    m.add_cell("regen", {"d": tile_in, "en": issue, "q": tile_reg})

    # Send machine: stream chunk k whenever the conv wrapper is ready.
    cv_in_ready = m.fresh_net(1, "cv_in_ready")
    send_idx, send_done = (None, None)
    cv_fire_holder = m.fresh_net(1, "cv_fire")
    send_idx, send_done = up_counter(m, chunks, cv_fire_holder, issue)
    sending = bit_and(m, busy, bit_not(m, send_done))
    cv_fire = bit_and(m, sending, cv_in_ready)
    m.add_cell("slice", {"a": cv_fire, "out": cv_fire_holder}, {"lsb": 0})
    # Chunk select mux (the LI design pays for this slicing logic too).
    chunk_nets: List[Net] = []
    for index in range(chunks):
        chunk_nets.append(
            m.unop(
                "slice", tile_reg, width=chunk * width, lsb=index * chunk * width
            )
        )
    from ..rtl.netlist import onehot_mux

    select_cases = []
    for index in range(chunks):
        idx_const = m.constant(index, send_idx.width)
        here = m.binop("eq", send_idx, idx_const, 1)
        select_cases.append((here, chunk_nets[index]))
    selected = onehot_mux(m, select_cases, chunk * width)

    # Recv machine: collect convolved chunks into the result bank.
    cv_out_valid = m.fresh_net(1, "cv_out_valid")
    cv_out = m.fresh_net(chunk * width, "cv_out")
    recv_fire = m.fresh_net(1, "recv_fire")
    recv_idx, recv_done = up_counter(m, chunks, recv_fire, issue)
    pop = bit_and(m, cv_out_valid, bit_not(m, recv_done))
    m.add_cell("slice", {"a": pop, "out": recv_fire}, {"lsb": 0})
    m.add_submodule(
        wrapped.module,
        {
            "in_valid": cv_fire,
            "in_ready": cv_in_ready,
            "in": selected,
            "out_ready": pop,
            "out_valid": cv_out_valid,
            "out": cv_out,
        },
        name="u_conv",
    )
    result_chunks: List[Net] = []
    for index in range(chunks):
        idx_const = m.constant(index, recv_idx.width)
        here = m.binop("eq", recv_idx, idx_const, 1)
        enable = bit_and(m, pop, here)
        stored = m.fresh_net(chunk * width, f"res{index}")
        m.add_cell("regen", {"d": cv_out, "en": enable, "q": stored})
        result_chunks.append(stored)
    packed = result_chunks[-1]
    for net in reversed(result_chunks[:-1]):
        widened = m.fresh_net(packed.width + chunk * width, "respack")
        m.add_cell("concat", {"a": packed, "b": net, "out": widened})
        packed = widened
    m.add_cell("slice", {"a": packed, "out": tile_out}, {"lsb": 0})

    # Output handshake and the busy register.
    done = bit_and(m, busy, recv_done)
    m.add_cell("slice", {"a": done, "out": out_valid}, {"lsb": 0})
    out_fire = bit_and(m, done, out_ready)
    after_issue = m.mux(issue, m.constant(1, 1), busy)
    next_busy = m.mux(out_fire, m.constant(0, 1), after_issue)
    m.add_cell("reg", {"d": next_busy, "q": busy}, {"init": 0})
    return m


def _elementwise_blend(m: Module, a: Net, b: Net, width: int) -> Net:
    """(a + b) / 2 per element over packed tiles."""
    lanes = []
    for index in range(TILE):
        ea = m.unop("slice", a, width=width, lsb=index * width)
        eb = m.unop("slice", b, width=width, lsb=index * width)
        total = m.binop("add", ea, eb, width)
        lanes.append(m.unop("shr", total, width=width, amount=1))
    packed = lanes[-1]
    for lane in reversed(lanes[:-1]):
        widened = m.fresh_net(packed.width + width, "blend")
        m.add_cell("concat", {"a": packed, "b": lane, "out": widened})
        packed = widened
    return packed


def _rearrange(m: Module, tile: Net, width: int, index_fn) -> Net:
    """Pure-wiring element shuffle (down/up sampling)."""
    lanes = [
        m.unop("slice", tile, width=width, lsb=index_fn(i) * width)
        for i in range(TILE)
    ]
    packed = lanes[-1]
    for lane in reversed(lanes[:-1]):
        widened = m.fresh_net(packed.width + width, "shuf")
        m.add_cell("concat", {"a": packed, "b": lane, "out": widened})
        packed = widened
    return packed


def build_li_gbp(
    parallelism: int, width: int = 16, session: Optional[CompileSession] = None
) -> Module:
    """The full LI pyramid: three serial blur levels plus a bypass FIFO."""
    conv = elaborate_conv(parallelism, width, session)
    blur0 = build_li_blur(conv, width, f"li_blur0_N{parallelism}")
    blur1 = build_li_blur(conv, width, f"li_blur1_N{parallelism}")
    blur2 = build_li_blur(conv, width, f"li_blur2_N{parallelism}")

    m = Module(f"GBP_LI_N{parallelism}")
    in_valid = m.add_input("in_valid", 1)
    img = m.add_input("img", TILE * width)
    out_ready = m.add_input("out_ready", 1)
    in_ready = m.add_output("in_ready", 1)
    out_valid = m.add_output("out_valid", 1)
    out_tile = m.add_output("out", TILE * width)

    # Level 0.
    b0_in_ready = m.fresh_net(1, "b0_in_ready")
    b0_out_valid = m.fresh_net(1, "b0_ov")
    b0_tile = m.fresh_net(TILE * width, "b0_tile")
    b0_out_ready = m.fresh_net(1, "b0_or")
    m.add_cell("slice", {"a": b0_in_ready, "out": in_ready}, {"lsb": 0})
    m.add_submodule(
        blur0,
        {
            "in_valid": in_valid,
            "in_ready": b0_in_ready,
            "tile": img,
            "out_ready": b0_out_ready,
            "out_valid": b0_out_valid,
            "tile_o": b0_tile,
        },
        name="u_blur0",
    )
    # Fork level-0 output to the level-1 branch and the bypass FIFO.
    fifo_in_ready = m.fresh_net(1, "byp_in_ready")
    b1_in_ready = m.fresh_net(1, "b1_in_ready")
    b1_in_valid = bit_and(m, b0_out_valid, fifo_in_ready)
    fifo_in_valid = bit_and(m, b0_out_valid, b1_in_ready)
    fork_ready = bit_and(m, b1_in_ready, fifo_in_ready)
    m.add_cell("slice", {"a": fork_ready, "out": b0_out_ready}, {"lsb": 0})

    downsampled = _rearrange(m, b0_tile, width, lambda i: (i // 4) * 4)
    b1_out_valid = m.fresh_net(1, "b1_ov")
    b1_tile = m.fresh_net(TILE * width, "b1_tile")
    b1_out_ready = m.fresh_net(1, "b1_or")
    m.add_submodule(
        blur1,
        {
            "in_valid": b1_in_valid,
            "in_ready": b1_in_ready,
            "tile": downsampled,
            "out_ready": b1_out_ready,
            "out_valid": b1_out_valid,
            "tile_o": b1_tile,
        },
        name="u_blur1",
    )
    # Bypass FIFO holding level-0 tiles for blending (the bookkeeping
    # cost called out in section 2.2).
    byp_out_valid = m.fresh_net(1, "byp_ov")
    byp_tile = m.fresh_net(TILE * width, "byp_tile")
    byp_out_ready = m.fresh_net(1, "byp_or")
    m.add_cell(
        "fifo",
        {
            "in_data": b0_tile,
            "in_valid": fifo_in_valid,
            "in_ready": fifo_in_ready,
            "out_data": byp_tile,
            "out_valid": byp_out_valid,
            "out_ready": byp_out_ready,
        },
        {"depth": 2},
    )
    # Join: blend fires into the final blur when both branches have data.
    upsampled = _rearrange(m, b1_tile, width, lambda i: (i // 2) * 2)
    blended = _elementwise_blend(m, byp_tile, upsampled, width)
    b2_in_ready = m.fresh_net(1, "b2_in_ready")
    join_valid = bit_and(m, b1_out_valid, byp_out_valid)
    b2_in_valid = bit_and(m, join_valid, m.constant(1, 1))
    join_fire = bit_and(m, join_valid, b2_in_ready)
    m.add_cell("slice", {"a": join_fire, "out": b1_out_ready}, {"lsb": 0})
    byp_pop = m.binop("or", join_fire, m.constant(0, 1), 1)
    m.add_cell("slice", {"a": byp_pop, "out": byp_out_ready}, {"lsb": 0})
    b2_ov = m.fresh_net(1, "b2_ov")
    b2_tile = m.fresh_net(TILE * width, "b2_tile")
    m.add_submodule(
        blur2,
        {
            "in_valid": b2_in_valid,
            "in_ready": b2_in_ready,
            "tile": blended,
            "out_ready": out_ready,
            "out_valid": b2_ov,
            "tile_o": b2_tile,
        },
        name="u_blur2",
    )
    m.add_cell("slice", {"a": b2_ov, "out": out_valid}, {"lsb": 0})
    m.add_cell("slice", {"a": b2_tile, "out": out_tile}, {"lsb": 0})
    return m


class LiGbpDriver:
    """Transaction harness for the LI pyramid."""

    def __init__(self, module: Module, width: int):
        self.simulator = Simulator(module)
        self.width = width

    def run(self, tiles: List[List[int]], max_cycles: int = 50000):
        from ..lilac.run import pack_elements, unpack_elements

        pending = [pack_elements(tile, self.width) for tile in tiles]
        results: List[List[int]] = []
        cycle = 0
        while len(results) < len(tiles):
            if cycle >= max_cycles:
                raise RuntimeError("LI GBP timed out")
            inputs = {"in_valid": 0, "out_ready": 1, "img": 0}
            if pending:
                inputs["in_valid"] = 1
                inputs["img"] = pending[0]
            self.simulator.poke(inputs)
            self.simulator.evaluate()
            took = pending and self.simulator.peek("in_ready") == 1
            gave = self.simulator.peek("out_valid") == 1
            if gave:
                results.append(
                    unpack_elements(
                        self.simulator.peek("out"), self.width, TILE
                    )
                )
            self.simulator.tick()
            if took:
                pending.pop(0)
            cycle += 1
        self.cycles = cycle
        return results
