"""Batched multi-lane compiled simulation: bit-identical to sequential.

The contract: a K-lane batched run is indistinguishable from K
independent single-lane runs — same traces, lane for lane, for every
catalog design at -O0 and -O2, for FIFO-heavy control logic, under
corner-biased stimulus, and across the packed/per-lane-list net
representations the generator mixes (wide buses fall out of the packed
encoding).  Stimulus lanes derive deterministically from one batch seed
and are pairwise uncorrelated.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.designs import fifo_pipeline
from repro.designs.catalog import DESIGNS, design_point
from repro.driver import CompileSession
from repro.rtl import (
    BatchedCompiledSimulator,
    CompiledSimulator,
    Module,
    NetlistError,
    Simulator,
    batched_stride,
    compile_netlist,
    derive_lane_seed,
    differential_check,
    random_stimulus,
    random_stimulus_batch,
    swar_profitable,
)
from repro.rtl.compile import _lane_helper_lines, _lane_words

from .lane_runs import (
    LANE_RUN_CASES,
    assert_run_matches_steps,
    free_running_counter,
    lane_run_cases,
    sink,
)


def _alu(width=8) -> Module:
    module = Module("alu")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    sel = module.add_input("sel", 1)
    out = module.add_output("out", width)
    total = module.binop("add", a, b, width)
    delta = module.binop("sub", a, b, width)
    picked = module.mux(sel, total, delta)
    module.add_cell("not", {"a": picked, "out": out})
    return module


def _registered_counter(width=8) -> Module:
    module = Module("counter")
    en = module.add_input("en", 1)
    out = module.add_output("out", width)
    one = module.constant(1, width)
    q = module.fresh_net(width, "q")
    total = module.binop("add", q, one, width)
    module.add_cell("regen", {"d": total, "en": en, "q": q}, {"init": 5})
    module.add_cell("shl", {"a": q, "out": out}, {"amount": 0})
    return module


def _wide_datapath(width=200, narrow_cells=120) -> Module:
    """A narrow-majority module with a genuinely wide side channel.

    The cost model keeps the stride sized for the narrow majority, so
    the ``width``-bit nets exceed every lane field and must take the
    per-lane-list fallback — including a ``mul``, which never packs.
    """
    module = Module("wide")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    na = module.add_input("na", 8)
    out = module.add_output("out", width)
    nout = module.add_output("nout", 8)
    value = na
    for _ in range(narrow_cells):
        value = module.binop("add", value, na, 8)
    module.add_cell("shl", {"a": value, "out": nout}, {"amount": 0})
    total = module.binop("add", a, b, width)
    product = module.binop("mul", a, b, width)
    module.add_cell("xor", {"a": total, "b": product, "out": out})
    return module


# -- lane seed derivation ----------------------------------------------


def test_lane_zero_keeps_the_batch_seed():
    assert derive_lane_seed(42, 0) == 42


def test_lane_seeds_are_deterministic_and_distinct():
    seeds = [derive_lane_seed(7, lane) for lane in range(32)]
    assert seeds == [derive_lane_seed(7, lane) for lane in range(32)]
    assert len(set(seeds)) == 32


def test_stimulus_batch_lanes_are_uncorrelated():
    module = _alu(width=32)
    streams = random_stimulus_batch(module, 64, 8, seed=5)
    assert len(streams) == 8
    # Lane 0 is exactly the single-lane stream for the batch seed.
    assert streams[0] == random_stimulus(module, 64, seed=5)
    for i in range(8):
        for j in range(i + 1, 8):
            assert streams[i] != streams[j], (i, j)


def test_stimulus_batch_applies_bias_per_lane():
    module = _alu(width=32)
    corners = {0, (1 << 32) - 1, 1 << 31}
    for stream in random_stimulus_batch(module, 200, 4, seed=1, bias=0.5):
        hits = sum(1 for vec in stream if vec["a"] in corners)
        assert hits > 10


def test_stimulus_batch_rejects_bad_lanes():
    with pytest.raises(ValueError):
        random_stimulus_batch(_alu(), 10, 0)


# -- unit-level batched parity ------------------------------------------


@pytest.mark.parametrize("lanes", [1, 3, 16, 64])
def test_batched_matches_interpreter_on_comb_logic(lanes):
    assert differential_check(_alu(), cycles=100, seed=3, lanes=lanes)


@pytest.mark.parametrize("lanes", [2, 7])
def test_batched_matches_interpreter_on_registers(lanes):
    assert differential_check(
        _registered_counter(), cycles=150, seed=4, lanes=lanes
    )


def test_batched_matches_interpreter_on_fifo_pipeline():
    module = fifo_pipeline(stages=5, width=16, depth=3)
    assert differential_check(module, cycles=250, seed=11, lanes=4)
    # Corner-biased stimulus stresses full/empty transitions per lane.
    assert differential_check(module, cycles=250, seed=11, bias=0.5, lanes=4)


def test_batched_handles_wide_nets_via_lane_lists():
    module = _wide_datapath(width=200)
    # The narrow majority keeps the stride small, so the 200-bit nets
    # exceed every lane field...
    assert batched_stride(module, 16) - 2 < 200
    # ...yet the lane-list fallback keeps the semantics exact.
    assert differential_check(module, cycles=60, seed=9, lanes=5)


def test_batched_equals_independent_single_lane_runs():
    """The satellite claim, stated directly on the engine surface."""
    module = _registered_counter()
    lanes = 6
    streams = random_stimulus_batch(module, 80, lanes, seed=13)
    batched = BatchedCompiledSimulator(module, lanes).run(streams)
    for lane in range(lanes):
        solo = CompiledSimulator(module).run(streams[lane])
        assert batched[lane] == solo, f"lane {lane} diverged"


def test_run_batch_interfaces_agree_across_backends():
    module = _alu()
    interp = Simulator(module).run_random_batch(50, 5, seed=2)
    compiled = CompiledSimulator(module).run_random_batch(50, 5, seed=2)
    assert interp == compiled
    assert len(interp) == 5


# -- vectorized poke/peek ----------------------------------------------


def test_batched_poke_peek_per_lane():
    module = _registered_counter()
    sim = BatchedCompiledSimulator(module, 3)
    sim.poke({"en": [1, 0, 1]})
    sim.evaluate()
    assert sim.peek("out") == [5, 5, 5]
    sim.tick()
    sim.evaluate()
    # Only the enabled lanes advanced.
    assert sim.peek("out") == [6, 5, 6]
    assert sim.cycle == 1
    for net_name in sim.module.nets:
        assert len(sim.peek_net(net_name)) == 3


def test_batched_poke_masks_and_rejects_like_scalar():
    sim = BatchedCompiledSimulator(_alu(width=8), 2)
    sim.poke({"a": [0x1FF, 1], "b": [0, 0], "sel": [0, 0]})
    sim.evaluate()
    scalar = CompiledSimulator(_alu(width=8))
    scalar.poke({"a": 0x1FF, "b": 0, "sel": 0})
    scalar.evaluate()
    assert sim.peek("out")[0] == scalar.peek("out")
    with pytest.raises(NetlistError):
        sim.poke({"nope": [1, 1]})
    with pytest.raises(NetlistError):
        sim.poke({"a": [1]})  # lane-count mismatch


def test_step_honors_per_lane_port_subsets():
    """Lanes driving different ports behave like K scalar step calls:
    a port a lane omits keeps that lane's previous value."""
    module = _alu(width=8)
    lanes = BatchedCompiledSimulator(module, 2)
    solo = [CompiledSimulator(module), CompiledSimulator(module)]
    vector_streams = [
        [{"a": 1, "b": 2, "sel": 1}, {"a": 9, "b": 7, "sel": 0}],
        [{"a": 5}, {"b": 3}],  # partial, different ports per lane
        [{"sel": 0}, {"a": 2, "sel": 1}],
    ]
    for vectors in vector_streams:
        batched = lanes.step(vectors)
        expected = [sim.step(vec) for sim, vec in zip(solo, vectors)]
        assert batched == expected, vectors
    with pytest.raises(NetlistError):
        lanes.step([{"a": 1}, {"nope": 2}])


def test_batched_rejects_ragged_streams():
    sim = BatchedCompiledSimulator(_alu(), 2)
    good = random_stimulus(_alu(), 4, seed=0)
    with pytest.raises(NetlistError):
        sim.run([good, good[:2]])
    with pytest.raises(NetlistError):
        sim.run([good])  # wrong lane count
    with pytest.raises(NetlistError, match="no input port 'nope'"):
        sim.run([[{"a": 1, "nope": 2}], [{"a": 3, "nope": 4}]])


# -- whole-run marshalling: run() == step() cycle by cycle ---------------


@pytest.mark.parametrize("case", LANE_RUN_CASES)
@pytest.mark.parametrize(
    "make_module",
    [
        _alu,
        lambda: _alu(width=65),
        lambda: _alu(width=100),
        lambda: _alu(width=512),
        _registered_counter,
        lambda: _wide_datapath(width=200, narrow_cells=8),
        lambda: fifo_pipeline(stages=3, width=16, depth=2),
        free_running_counter,
        sink,
    ],
    ids=["w8", "w65", "w100", "w512", "counter", "lane-lists", "fifo",
         "no-inputs", "no-outputs"],
)
def test_batched_run_matches_step_by_step(make_module, case):
    module = make_module()
    assert_run_matches_steps(
        lambda: BatchedCompiledSimulator(module, 3),
        lane_run_cases(module, 3, seed=5)[case],
    )


# -- compilation and memoization ----------------------------------------


def test_batched_compilations_memoize_per_lane_count():
    first, second = _alu(), _alu()
    assert compile_netlist(first, lanes=4) is compile_netlist(second, lanes=4)
    assert compile_netlist(first, lanes=4) is not compile_netlist(
        first, lanes=8
    )
    # The scalar program is its own entry, not the lanes=1 batched one.
    scalar = compile_netlist(first)
    assert scalar is not compile_netlist(first, lanes=1)
    assert scalar.lanes is None and scalar.stride == 0
    assert compile_netlist(first, lanes=1).stride >= 64


def test_batched_rejects_bad_lane_counts():
    with pytest.raises(NetlistError):
        compile_netlist(_alu(), lanes=0)
    with pytest.raises(NetlistError):
        BatchedCompiledSimulator(_alu(), 0)


def test_stride_prefers_narrow_fields_over_wide_outliers():
    """A couple of wide bus nets must not tax thousands of narrow cells."""
    module = Module("mostly_narrow")
    a = module.add_input("a", 8)
    out = module.add_output("out", 8)
    value = a
    for _ in range(200):
        value = module.binop("add", value, a, 8)
    wide_out = module.add_output("wide", 300)
    wide_in = module.add_input("win", 300)
    module.add_cell("not", {"a": wide_in, "out": wide_out})
    module.add_cell("shl", {"a": value, "out": out}, {"amount": 0})
    stride = batched_stride(module, 16)
    assert stride <= 128
    assert differential_check(module, cycles=30, seed=1, lanes=4)


# -- the full catalog, both levels --------------------------------------


@pytest.mark.parametrize("name", sorted(DESIGNS))
@pytest.mark.parametrize("opt_level", [0, 2])
def test_catalog_designs_batched_bit_identical(name, opt_level):
    source, component, generators, params = design_point(name)
    session = CompileSession(opt_level=opt_level)
    module = session.optimize(
        source, component, params, generators
    ).value.module
    assert differential_check(module, cycles=24, seed=0xA5, lanes=3)
    assert_run_matches_steps(
        lambda: BatchedCompiledSimulator(module, 3),
        random_stimulus_batch(module, 24, 3, seed=0xA5),
    )



# -- lane values through the 64-bit word view -----------------------------


def _lane_helpers(lanes, stride):
    """The generated lane-loop helpers, both pairs, run on this host."""
    namespace = {}
    exec("\n".join(_lane_helper_lines(lanes, stride, {"words", "bytes"})),
         namespace)
    return namespace


@settings(max_examples=200, deadline=None)
@given(
    lanes=st.sampled_from([1, 2, 3, 5, 64]),
    stride=st.sampled_from([64, 128, 192, 320]),
    width=st.integers(1, 64),
    data=st.data(),
)
def test_word_view_round_trips_and_matches_the_references(
    lanes, stride, width, data
):
    values = data.draw(st.lists(
        st.integers(0, (1 << width) - 1), min_size=lanes, max_size=lanes
    ))
    helpers = _lane_helpers(lanes, stride)
    shifted = sum(
        value << (lane * stride) for lane, value in enumerate(values)
    )
    packed = helpers["_pack"](values)
    assert packed == shifted == helpers["_pack_bytes"](values)
    assert helpers["_unpack"](packed) == values
    assert helpers["_unpack_bytes"](packed) == values
    assert [
        (packed >> (lane * stride)) & ((1 << width) - 1)
        for lane in range(lanes)
    ] == values


@pytest.mark.parametrize("lanes", [1, 3, 64])
@pytest.mark.parametrize("stride", [64, 192, 320])
def test_word_view_reads_little_endian_lanes_on_a_big_endian_host(
    lanes, stride
):
    """What a big-endian host's native ``"Q"`` view of ``to_bytes(...,
    "big")`` holds, emulated here: the big-endian lane slice must still
    find lane ``k`` in field ``k``, for reading and for packing."""
    values = [(lane * 0x9E3779B97F4A7C15 + 1) % (1 << 64)
              for lane in range(lanes)]
    packed = sum(value << (lane * stride) for lane, value in enumerate(values))
    n_bytes = lanes * stride // 8
    data = packed.to_bytes(n_bytes, "big")
    view = [int.from_bytes(data[at:at + 8], "big")
            for at in range(0, n_bytes, 8)]
    lane_words = _lane_words(lanes, stride, "big")
    assert view[lane_words] == values
    words = [0] * len(view)
    words[lane_words] = values
    stored = b"".join(word.to_bytes(8, "big") for word in words)
    assert int.from_bytes(stored, "big") == packed


def _port_widths(width) -> Module:
    """``width``-bit ports through a lane loop (a ``mul`` of two inputs)
    and packed cells, with 1-bit ports beside them."""
    module = Module(f"ports{width}")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    sel = module.add_input("sel", 1)
    out = module.add_output("out", width)
    less = module.add_output("less", 1)
    product = module.binop("mul", a, b, width)
    total = module.binop("add", a, b, width)
    module.add_cell("mux", {"sel": sel, "a": product, "b": total, "out": out})
    module.add_cell("lt", {"a": a, "b": b, "out": less})
    return module


PORT_VALUE_CASES = ("random", "over-width", "out-of-range", "bools", "floats")


@pytest.mark.parametrize("case", PORT_VALUE_CASES)
@pytest.mark.parametrize("width", [1, 63, 64, 65])
@pytest.mark.parametrize("lanes", [3, 64])
def test_word_view_ports_run_like_steps(width, lanes, case):
    module = _port_widths(width)
    program = compile_netlist(module, lanes=lanes)
    assert width <= program.stride - 2  # packed, not a per-lane list
    loop = "_unpack_bytes(" if width > 64 else "_unpack("
    assert loop in program.source
    assert_run_matches_steps(
        lambda: BatchedCompiledSimulator(module, lanes),
        lane_run_cases(module, lanes, seed=width, cycles=8)[case],
    )


@pytest.mark.parametrize("width", [1, 63, 64, 65])
def test_word_view_poke_then_peek_returns_the_values(width):
    module = _port_widths(width)
    sim = BatchedCompiledSimulator(module, 5)
    mask = (1 << width) - 1
    values = [0, mask, 1, mask >> 1, (0x5A5A5A5A5A5A5A5A5A << 3) & mask]
    sim.poke({"a": values, "sel": [1, 0, 1, True, 0]})
    assert sim.peek("a") == values
    assert sim.peek("sel") == [1, 0, 1, 1, 0]
    raw = [-1, mask + 2, 1 << 70, True, float(3)]
    sim.poke({"b": raw})
    assert sim.peek("b") == [int(value) & mask for value in raw]
    assert sim.peek_net(module.ports["b"].name) == sim.peek("b")


# -- packed multiply by a constant ----------------------------------------


def _const_mul(width, c, const_pin="b", out_width=None) -> Module:
    """``x * c`` with ``c`` on ``const_pin``, plus a register so the
    product feeds state."""
    module = Module("const_mul")
    x = module.add_input("x", width)
    out = module.add_output("out", out_width or width)
    held = module.add_output("held", out_width or width)
    const = module.constant(c, max(1, c.bit_length()))
    pins = {"a": x, "b": const, "out": out}
    if const_pin == "a":
        pins = {"a": const, "b": x, "out": out}
    module.add_cell("mul", pins)
    module.add_cell("reg", {"d": out, "q": held})
    module.validate()
    return module


def _packed_muls(source) -> int:
    return len(re.findall(r"^    s\[\d+\] = \(?s\[\d+\] \* \d+",
                          source, re.M))


@pytest.mark.parametrize("const_pin", ["a", "b"])
@pytest.mark.parametrize("c", [0, 1, 1 << 3, (1 << 8) - 1])
@pytest.mark.parametrize("out_width", [8, 20], ids=["narrower", "wider"])
def test_mul_by_a_constant_is_one_packed_multiply(const_pin, c, out_width):
    module = _const_mul(8, c, const_pin, out_width)
    for lanes in (1, 3, 64):
        source = compile_netlist(module, lanes=lanes).source
        assert _packed_muls(source) == 1
        assert "_unpack(" not in source and "_pack(" not in source
        for bias in (0.0, 0.5):
            assert differential_check(
                module, cycles=24, seed=c + lanes, bias=bias, lanes=lanes,
                backend="batched",
            ), (lanes, bias)


@pytest.mark.parametrize("const_pin", ["a", "b"])
@pytest.mark.parametrize(
    "c, packed", [(15, True), (16, False)], ids=["stride", "stride+1"]
)
def test_packed_multiply_stops_where_a_product_could_cross_a_field(
    const_pin, c, packed
):
    """A 60-bit ``x`` at stride 64: ``60 + c.bit_length()`` is 64 for
    ``c = 15`` (packed) and 65 for ``c = 16`` (the lane loop)."""
    module = _const_mul(60, c, const_pin)
    for lanes in (1, 3, 64):
        program = compile_netlist(module, lanes=lanes)
        assert program.stride == 64
        assert _packed_muls(program.source) == int(packed)
        assert ("_unpack(" in program.source) == (not packed)
        for bias in (0.0, 0.5):
            assert differential_check(
                module, cycles=24, seed=lanes, bias=bias, lanes=lanes,
                backend="batched",
            ), (lanes, bias)


def _catalog_module(name, opt_level):
    source, component, generators, params = design_point(name)
    session = CompileSession(opt_level=opt_level)
    return session.optimize(source, component, params, generators).value.module


def test_gbp_multiplies_are_packed_and_leave_no_lane_loop():
    source = compile_netlist(_catalog_module("gbp", 2), lanes=64).source
    # 6 multiplies by 1, 10 by 7 and 6 by 49, once slices read through
    # the packed array ports.
    assert _packed_muls(source) == 22
    assert "_unpack" not in source and "_pack" not in source


#: (stride, swar_profitable) per catalog design at K = 2, 4, ..., 64
#: lanes.  The ``-O0`` rows are the choices made before the lane loops
#: moved to the word view: the cheaper loops and packed multiplies must
#: not move them.  The ``-O2`` rows follow the ``-O2`` netlists, which
#: moved gbp's SWAR pick and flofft's stride once slices read through
#: concats.
LANE_PICKS = {
    (0, "gbp"): [(320, True)] * 6,
    (2, "gbp"): [(320, False)] * 6,
    (0, "flofft"): [(192, True)] * 6,
    (2, "flofft"): [(64, True)] * 6,
    **{(level, "blas"): [(192, False)] * 6 for level in (0, 2)},
    **{(level, "fft"): [(320, True)] * 6 for level in (0, 2)},
    **{(level, "fpu"): [(64, True)] * 6 for level in (0, 2)},
    **{(level, "risc"): [(64, True)] * 6 for level in (0, 2)},
}


@pytest.mark.parametrize("level, name", sorted(LANE_PICKS))
def test_catalog_strides_and_swar_picks_are_unchanged(level, name):
    module = _catalog_module(name, level)
    assert [
        (batched_stride(module, lanes), swar_profitable(module, lanes))
        for lanes in (2, 4, 8, 16, 32, 64)
    ] == LANE_PICKS[level, name]
