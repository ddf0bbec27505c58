"""Tests for the netlist optimization pass framework."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs.catalog import DESIGNS, design_point
from repro.driver import CompileSession
from repro.rtl import (
    Module,
    NetlistError,
    Simulator,
    differential_check,
    flatten,
    random_stimulus,
)
from repro.rtl.passes import (
    SHAREABLE_KINDS,
    CommonCellSharing,
    ConstantFold,
    DeadCellElim,
    DelayCoalesce,
    Pass,
    PassManager,
    check_module,
    pipeline_for_level,
    share_cells,
)
from repro.rtl.passes.delay_coalesce import _is_alias


def make_mac(width=8) -> Module:
    """a*b + c with a dead subtract and a duplicated multiplier."""
    m = Module("mac")
    a = m.add_input("a", width)
    b = m.add_input("b", width)
    c = m.add_input("c", width)
    out = m.add_output("out", width)
    product = m.binop("mul", a, b, width)
    dup = m.binop("mul", a, b, width)  # structurally identical
    m.add_cell("add", {"a": product, "b": c, "out": out})
    m.binop("sub", dup, c, width)  # drives nothing
    return m


def run_level(module: Module, level: int) -> Module:
    flat = flatten(module)
    pipeline_for_level(level).run(flat)
    return flat


# ---------------------------------------------------------------------------
# Structural equality / hashing (netlist comparison without Verilog diffs).


def test_structural_equality_and_hash():
    left, right = make_mac(), make_mac()
    assert left == right
    assert left.structural_hash() == right.structural_hash()
    next(iter(right.cells.values())).params["note"] = 1
    assert left != right
    assert left.structural_hash() != right.structural_hash()


def test_structural_equality_is_insertion_order_insensitive():
    def build(order_flipped: bool) -> Module:
        m = Module("two")
        a = m.add_input("a", 4)
        out = m.add_output("out", 4)
        t = m.net("t", 4)
        cells = [
            ("n0", "not", {"a": a, "out": t}),
            ("n1", "not", {"a": t, "out": out}),
        ]
        if order_flipped:
            cells.reverse()
        for name, kind, pins in cells:
            m.add_cell(kind, pins, name=name)
        return m

    assert build(False) == build(True)


def test_cell_equality_tracks_wiring():
    m = make_mac()
    mul_cells = [c for c in m.cells.values() if c.kind == "mul"]
    # Same function of the same nets, but different names.
    assert mul_cells[0] != mul_cells[1]
    assert mul_cells[0] == mul_cells[0]


# ---------------------------------------------------------------------------
# Individual passes.


def test_constant_fold_evaluates_const_logic():
    m = Module("fold")
    out = m.add_output("out", 8)
    three = m.constant(3, 8)
    four = m.constant(4, 8)
    m.add_cell("add", {"a": three, "b": four, "out": out})
    ConstantFold().run(m)
    driver, _ = m.drivers()[out]
    assert driver.kind == "const"
    assert driver.params["value"] == 7


def test_constant_fold_matches_simulator_semantics():
    # div-by-zero is the classic divergence spot; the simulator says 0.
    m = Module("divzero")
    out = m.add_output("out", 8)
    lhs = m.constant(9, 8)
    zero = m.constant(0, 8)
    m.add_cell("div", {"a": lhs, "b": zero, "out": out})
    reference = Simulator(m).step({})["out"]
    ConstantFold().run(m)
    driver, _ = m.drivers()[out]
    assert driver.params["value"] == reference == 0


def test_constant_fold_resolves_const_select_mux():
    m = Module("muxfold")
    a = m.add_input("a", 8)
    b = m.add_input("b", 8)
    out = m.add_output("out", 8)
    sel = m.constant(1, 1)
    m.add_cell("mux", {"sel": sel, "a": a, "b": b, "out": out})
    ConstantFold().run(m)
    driver, _ = m.drivers()[out]
    assert driver.kind == "slice"
    assert driver.pins["a"] is a


def test_dead_cell_elimination_sweeps_unobservable_logic():
    m = flatten(make_mac())
    before = len(m.cells)
    DeadCellElim().run(m)
    # The dead subtract goes, and with it the multiplier it kept alive.
    assert len(m.cells) == before - 2
    assert not [c for c in m.cells.values() if c.kind == "sub"]
    check_module(m)


def test_dead_cell_elimination_keeps_live_state():
    m = Module("counter")
    out = m.add_output("out", 8)
    q = m.fresh_net(8, "q")
    one = m.constant(1, 8)
    step = m.binop("add", q, one, 8)
    m.add_cell("reg", {"d": step, "q": q})
    m.add_cell("slice", {"a": q, "out": out}, {"lsb": 0})
    DeadCellElim().run(m)
    assert [c for c in m.cells.values() if c.kind == "reg"]


def test_common_cell_sharing_merges_duplicates():
    m = flatten(make_mac())
    CommonCellSharing().run(m)
    assert len([c for c in m.cells.values() if c.kind == "mul"]) == 1
    check_module(m)


def test_sharing_coalesces_parallel_register_chains():
    m = Module("chains")
    d = m.add_input("d", 8)
    o1 = m.add_output("o1", 8)
    o2 = m.add_output("o2", 8)
    m.add_cell("slice", {"a": m.delay_chain(d, 3), "out": o1}, {"lsb": 0})
    m.add_cell("slice", {"a": m.delay_chain(d, 3), "out": o2}, {"lsb": 0})
    assert len([c for c in m.cells.values() if c.kind == "reg"]) == 6
    CommonCellSharing().run(m)
    assert len([c for c in m.cells.values() if c.kind == "reg"]) == 3
    check_module(m)


def test_sharing_respects_output_port_drivers():
    m = Module("twoports")
    a = m.add_input("a", 8)
    o1 = m.add_output("o1", 8)
    o2 = m.add_output("o2", 8)
    m.add_cell("not", {"a": a, "out": o1})
    m.add_cell("not", {"a": a, "out": o2})
    CommonCellSharing().run(m)
    check_module(m)  # both ports must keep a driver
    assert len(m.cells) == 2


def test_delay_coalesce_forwards_aliases_and_sinks_buffers():
    m = Module("buffered")
    a = m.add_input("a", 8)
    out = m.add_output("out", 8)
    inner = m.fresh_net(8, "inner")
    doubled = m.fresh_net(8, "doubled")
    m.add_cell("slice", {"a": a, "out": inner}, {"lsb": 0})  # alias
    m.add_cell("add", {"a": inner, "b": inner, "out": doubled})
    m.add_cell("slice", {"a": doubled, "out": out}, {"lsb": 0})  # buffer
    DelayCoalesce().run(m)
    check_module(m)
    assert len(m.cells) == 1
    (adder,) = m.cells.values()
    assert adder.pins["a"] is a and adder.pins["out"] is out


def test_delay_coalesce_keeps_truncating_slices():
    m = Module("trunc")
    a = m.add_input("a", 8)
    out = m.add_output("out", 4)
    m.add_cell("slice", {"a": a, "out": out}, {"lsb": 0})
    DelayCoalesce().run(m)
    assert len(m.cells) == 1  # narrowing is real logic, not an alias


# ---------------------------------------------------------------------------
# Slices read through concats.


def _pack(m, high, low, width=None):
    """``{high, low}``, truncated (or zero-extended) to ``width``."""
    out = m.fresh_net(width or high.width + low.width, "cat")
    m.add_cell("concat", {"a": high, "b": low, "out": out})
    return out


def _read(m, src, lsb, width, port="out"):
    """A slice of ``src`` driving the output port ``port``."""
    out = m.add_output(port, width)
    m.add_cell(
        "slice", {"a": src, "out": out}, {"lsb": lsb}, name=f"read_{port}"
    )
    return out


def _two_operands(width=None):
    m = Module("pair")
    high = m.add_input("high", 8)
    low = m.add_input("low", 8)
    return m, high, low, _pack(m, high, low, width)


def assert_o2_matches_o0(module, cycles=48, seed=7):
    opt = run_level(module, 2)
    stimulus = random_stimulus(module, cycles, seed=seed)
    assert Simulator(module).run(stimulus) == Simulator(opt).run(stimulus)
    return opt


def test_narrowing_reads_a_slice_inside_the_low_operand():
    m, high, low, packed = _two_operands()
    _read(m, packed, 2, 4)
    assert DelayCoalesce._narrow_slices(m) == 1
    read = m.cells["read_out"]
    assert read.pins["a"] is low and read.params["lsb"] == 2


def test_narrowing_lowers_lsb_for_a_slice_inside_the_high_operand():
    m, high, low, packed = _two_operands()
    _read(m, packed, 10, 4)
    assert DelayCoalesce._narrow_slices(m) == 1
    read = m.cells["read_out"]
    assert read.pins["a"] is high and read.params["lsb"] == 2


def _three_deep():
    """Four 8-bit elements packed the way lowering packs an array port:
    ``{{{e3, e2}, e1}, e0}``."""
    m = Module("chain")
    elements = [m.add_input(f"e{index}", 8) for index in range(4)]
    packed = elements[3]
    for element in reversed(elements[:3]):
        packed = _pack(m, packed, element)
    return m, elements, packed


def test_narrowing_walks_a_three_deep_chain_to_its_leaf():
    m, elements, packed = _three_deep()
    _read(m, packed, 17, 5)  # bits 17..21: e2's bits 1..5
    assert DelayCoalesce._narrow_slices(m) == 1
    read = m.cells["read_out"]
    assert read.pins["a"] is elements[2] and read.params["lsb"] == 1
    assert DelayCoalesce._narrow_slices(m) == 0  # already at its leaf


def test_exact_leaf_reads_leave_no_concat_at_o2():
    m = Module("unpack")
    leaves = [m.unop("not", m.add_input(f"i{index}", 8)) for index in range(4)]
    packed = leaves[3]
    for leaf in reversed(leaves[:3]):
        packed = _pack(m, packed, leaf)
    for index in range(4):
        _read(m, packed, 8 * index, 8, port=f"o{index}")
    opt = assert_o2_matches_o0(m)
    assert sorted(cell.kind for cell in opt.cells.values()) == ["not"] * 4
    assert {cell.pins["out"] for cell in opt.cells.values()} == {
        net for _, net in opt.outputs()
    }


def test_straddling_slice_stays_on_the_concat():
    m, high, low, packed = _two_operands()
    _read(m, packed, 6, 4)  # bits 6..9: two of low's, two of high's
    assert DelayCoalesce._narrow_slices(m) == 0
    assert m.cells["read_out"].pins["a"] is packed
    assert_o2_matches_o0(m)


def test_slice_past_a_truncating_concat_stays():
    m, high, low, packed = _two_operands(width=12)
    _read(m, packed, 8, 8)  # bits 12..15 read 0, high's bits 4..7 need not
    assert DelayCoalesce._narrow_slices(m) == 0
    assert_o2_matches_o0(m)


def test_slice_up_to_a_truncating_concat_top_is_narrowed():
    m, high, low, packed = _two_operands(width=12)
    _read(m, packed, 8, 4)  # bits 8..11, all below the out width
    assert DelayCoalesce._narrow_slices(m) == 1
    read = m.cells["read_out"]
    assert read.pins["a"] is high and read.params["lsb"] == 0


@pytest.mark.parametrize("reader", ["reg", "port"])
def test_concat_with_another_reader_keeps_its_cell(reader):
    m = Module("shared")
    high = m.add_input("high", 8)
    low = m.add_input("low", 8)
    if reader == "port":
        packed = m.add_output("packed", 16)
        m.add_cell("concat", {"a": high, "b": low, "out": packed})
    else:
        packed = _pack(m, high, low)
        _read(m, m.register(packed), 0, 16, port="packed")
    _read(m, packed, 8, 8)
    opt = assert_o2_matches_o0(m)
    (concat,) = [cell for cell in opt.cells.values() if cell.kind == "concat"]
    assert concat.pins["a"].name == "high" and concat.pins["b"].name == "low"
    read = opt.drivers()[opt.ports["out"]][0]
    assert read.kind == "slice" and read.pins["a"].name == "high"
    assert read.params["lsb"] == 0


@st.composite
def slice_concat_netlists(draw):
    """A random tree of concats, slices and registers over inputs 1–130
    bits wide: slice ranges and concat widths may run past the top, and
    every internal net is observable through an output buffer."""
    m = Module("tree")
    nets = [
        m.add_input(f"i{k}", draw(st.integers(1, 130)))
        for k in range(draw(st.integers(1, 4)))
    ]
    kinds = st.sampled_from(["concat", "concat", "slice", "slice", "reg"])
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(kinds)
        if kind == "concat":
            high, low = draw(st.sampled_from(nets)), draw(st.sampled_from(nets))
            top = high.width + low.width
            width = draw(st.one_of(st.just(top), st.integers(1, top + 8)))
            nets.append(_pack(m, high, low, width))
        elif kind == "slice":
            # Half the slices read a concat, when there is one.
            packed = [net for net in nets if net.name.startswith("cat")]
            pool = packed if packed and draw(st.booleans()) else nets
            src = draw(st.sampled_from(pool))
            lsb = draw(st.integers(0, src.width + 4))
            width = draw(st.integers(1, max(1, src.width - lsb) + 4))
            out = m.fresh_net(width, "slice")
            m.add_cell("slice", {"a": src, "out": out}, {"lsb": lsb})
            nets.append(out)
        else:
            nets.append(m.register(draw(st.sampled_from(nets))))
    for index, net in enumerate(nets):
        if net not in m.ports.values():
            port = m.add_output(f"o{index}", net.width)
            m.add_cell("slice", {"a": net, "out": port}, {"lsb": 0})
    return m


@settings(max_examples=100, deadline=None)
@given(module=slice_concat_netlists(), seed=st.integers(0, 2 ** 16))
def test_narrowing_differential_on_random_trees(module, seed):
    opt = assert_o2_matches_o0(module, cycles=12, seed=seed)
    assert differential_check(opt, cycles=12, seed=seed)
    assert differential_check(
        opt, cycles=12, seed=seed, lanes=3, backend="batched"
    )


@pytest.mark.numpy
@settings(max_examples=25, deadline=None)
@given(module=slice_concat_netlists(), seed=st.integers(0, 2 ** 16))
def test_narrowing_differential_on_random_trees_under_vector(module, seed):
    opt = run_level(module, 2)
    assert differential_check(
        opt, cycles=12, seed=seed, lanes=3, backend="vector"
    )


# ---------------------------------------------------------------------------
# One-sweep rewiring.


def _rewire_fixture():
    """Input ``i`` through three inverters driving ``a``, ``b``, ``c``,
    and a reader of ``a`` and ``b`` driving ``x``."""
    m = Module("rewire")
    i = m.add_input("i", 8)
    nets = {name: m.net(name, 8) for name in ("a", "b", "c", "x")}
    m.add_cell("not", {"a": i, "out": nets["a"]}, name="drive_a")
    m.add_cell("not", {"a": nets["a"], "out": nets["b"]}, name="drive_b")
    m.add_cell("not", {"a": nets["b"], "out": nets["c"]}, name="drive_c")
    m.add_cell(
        "add", {"a": nets["a"], "b": nets["b"], "out": nets["x"]}, name="reader"
    )
    return m, nets


def _wiring(module):
    return {
        cell.name: {pin: net.name for pin, net in cell.pins.items()}
        for cell in module.cells.values()
    }


def test_replace_net_uses_resolves_chains_to_their_end():
    m, nets = _rewire_fixture()
    m.replace_net_uses({nets["a"]: nets["b"], nets["b"]: nets["c"]})
    reader = m.cells["reader"]
    assert reader.pins["a"] is nets["c"] and reader.pins["b"] is nets["c"]
    assert m.cells["drive_c"].pins["a"] is nets["c"]


def test_replace_net_uses_never_moves_output_pins():
    m, nets = _rewire_fixture()
    m.replace_net_uses({nets["a"]: nets["c"], nets["x"]: nets["b"]})
    assert m.cells["drive_a"].pins["out"] is nets["a"]
    assert m.cells["reader"].pins["out"] is nets["x"]
    assert m.cells["drive_b"].pins["a"] is nets["c"]


def test_replace_net_uses_checks_every_width_before_moving_a_pin():
    m, nets = _rewire_fixture()
    narrow = m.net("narrow", 4)
    before = _wiring(m)
    with pytest.raises(NetlistError, match="cannot rewire"):
        m.replace_net_uses({nets["a"]: nets["c"], nets["b"]: narrow})
    assert _wiring(m) == before


def test_replace_net_uses_counts_rewired_pins():
    m, nets = _rewire_fixture()
    # reader.a, drive_b.a (both read a) and reader.b, drive_c.a (read b).
    assert m.replace_net_uses({nets["a"]: nets["x"], nets["b"]: nets["x"]}) == 4
    assert m.replace_net_uses({nets["a"]: nets["x"]}) == 0
    assert m.replace_net_uses({}) == 0


def test_replace_net_uses_rejects_cycles():
    m, nets = _rewire_fixture()
    with pytest.raises(NetlistError, match="cycle"):
        m.replace_net_uses({nets["a"]: nets["b"], nets["b"]: nets["a"]})


# ---------------------------------------------------------------------------
# Reference: sharing and alias forwarding as one rewiring scan per merged
# cell.  The passes must produce exactly these netlists.


def _reference_rewire(module, old, new):
    for cell in module.cells.values():
        outs = set(cell.output_pins())
        for pin, net in cell.pins.items():
            if net is old and pin not in outs:
                cell.pins[pin] = new


def reference_share_cells(module, kinds):
    port_nets = set(module.ports.values())
    merged_total = 0
    while True:
        merged = 0
        seen = {}
        for cell in list(module.cells.values()):
            if cell.kind not in kinds:
                continue
            outs = cell.output_pins()
            if len(outs) != 1:
                continue
            out_pin = outs[0]
            signature = (
                cell.kind,
                tuple(sorted((k, repr(v)) for k, v in cell.params.items())),
                tuple(
                    sorted((pin, id(cell.pins[pin])) for pin in cell.input_pins())
                ),
                cell.pins[out_pin].width,
            )
            rep = seen.get(signature)
            if rep is None:
                seen[signature] = cell
                continue
            rep_out = rep.pins[out_pin]
            cell_out = cell.pins[out_pin]
            if cell_out in port_nets:
                if rep_out in port_nets:
                    continue
                seen[signature] = cell
                rep, cell = cell, rep
                rep_out, cell_out = cell_out, rep_out
            _reference_rewire(module, cell_out, rep_out)
            module.remove_cell(cell.name)
            merged += 1
        merged_total += merged
        if not merged:
            break
    module.prune_nets()
    return merged_total


def reference_forward_aliases(module):
    port_nets = set(module.ports.values())
    forwarded = 0
    for cell in list(module.cells.values()):
        if not _is_alias(cell):
            continue
        src, out = cell.pins["a"], cell.pins["out"]
        if out in port_nets or src is out:
            continue
        module.remove_cell(cell.name)
        _reference_rewire(module, out, src)
        forwarded += 1
    return forwarded


class _ReferenceSharing(CommonCellSharing):
    def run(self, module):
        reference_share_cells(module, SHAREABLE_KINDS)


class _ReferenceCoalesce(DelayCoalesce):
    def run(self, module):
        while True:
            changed = self._narrow_slices(module)
            changed += reference_forward_aliases(module)
            changed += self._sink_output_buffers(module)
            changed += reference_share_cells(module, {"reg", "regen"})
            if not changed:
                break
        module.prune_nets()


def reference_o2():
    return PassManager(
        [
            ConstantFold(),
            _ReferenceSharing(),
            _ReferenceCoalesce(),
            _ReferenceSharing(),
            DeadCellElim(),
        ]
    )


def assert_matches_reference(build):
    """``-O2`` over ``build()`` equals the reference pipeline's netlist,
    pass by pass in cells removed."""
    ours, theirs = build(), build()
    ours_stats = pipeline_for_level(2).run(ours)
    theirs_stats = reference_o2().run(theirs)
    assert [s.name for s in ours_stats] == [s.name for s in theirs_stats]
    assert ours == theirs
    assert ours.structural_hash() == theirs.structural_hash()
    assert [s.cells_removed for s in ours_stats] == [
        s.cells_removed for s in theirs_stats
    ]
    return ours


@pytest.fixture(scope="module")
def catalog_netlists():
    session = CompileSession(opt_level=0)
    netlists = {}
    for name in DESIGNS:
        source, component, generators, params = design_point(name)
        netlists[name] = session.elaborate(
            source, component, params, generators
        ).value.module
    return netlists


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_o2_matches_per_merge_reference_on_catalog(name, catalog_netlists):
    optimized = assert_matches_reference(
        lambda: flatten(catalog_netlists[name])
    )
    assert len(optimized.cells) < len(flatten(catalog_netlists[name]).cells)


def test_alias_of_alias_chain_forwards_to_the_source():
    def build():
        m = Module("aliases")
        a = m.add_input("a", 8)
        out = m.add_output("out", 8)
        x1, x2, x3 = (m.net(name, 8) for name in ("x1", "x2", "x3"))
        # Downstream aliases come first, so forwarding meets each one
        # before the alias that feeds it.
        m.add_cell("slice", {"a": x2, "out": x3}, {"lsb": 0}, name="al3")
        m.add_cell("add", {"a": x3, "b": x1, "out": out}, name="sum")
        m.add_cell("slice", {"a": x1, "out": x2}, {"lsb": 0}, name="al2")
        m.add_cell("slice", {"a": a, "out": x1}, {"lsb": 0}, name="al1")
        return m

    ours, theirs = build(), build()
    assert DelayCoalesce._forward_aliases(ours) == 3
    assert reference_forward_aliases(theirs) == 3
    assert ours == theirs
    (adder,) = ours.cells.values()
    assert adder.pins["a"] is ours.ports["a"] is adder.pins["b"]
    assert_matches_reference(build)


def test_alias_ring_keeps_one_buffer_like_the_reference():
    # Not a valid design (a combinational loop), but the pass must not
    # map a net onto itself: the second alias reads its own output once
    # the first is forwarded, and stays.
    def build():
        m = Module("ring")
        x, y = m.net("x", 8), m.net("y", 8)
        m.add_cell("slice", {"a": y, "out": x}, {"lsb": 0}, name="ax")
        m.add_cell("slice", {"a": x, "out": y}, {"lsb": 0}, name="ay")
        return m

    ours, theirs = build(), build()
    assert DelayCoalesce._forward_aliases(ours) == 1
    assert reference_forward_aliases(theirs) == 1
    assert ours == theirs
    assert ours.cells["ay"].pins["a"] is ours.nets["y"]


def _same_round_duplicates():
    m = Module("late")
    a = m.add_input("a", 8)
    b = m.add_input("b", 8)
    o1 = m.add_output("o1", 8)
    o2 = m.add_output("o2", 8)
    t1 = m.unop("not", a)
    t2 = m.unop("not", a)
    s1 = m.binop("add", t1, b)  # twins only once t2 is merged into t1
    s2 = m.binop("add", t2, b)
    m.add_cell("xor", {"a": s1, "b": b, "out": o1})
    m.add_cell("and", {"a": s2, "b": b, "out": o2})
    return m


def test_duplicate_matching_after_an_earlier_merge_merges_in_that_round():
    ours, theirs = _same_round_duplicates(), _same_round_duplicates()
    sweeps = []
    rewire = ours.replace_net_uses

    def counting_rewire(replacements):
        sweeps.append(len(replacements))
        return rewire(replacements)

    ours.replace_net_uses = counting_rewire
    assert share_cells(ours, SHAREABLE_KINDS) == 2
    assert reference_share_cells(theirs, SHAREABLE_KINDS) == 2
    assert sweeps == [2]  # one round merged both
    assert ours == theirs
    assert_matches_reference(_same_round_duplicates)


def _port_driving_duplicates():
    m = Module("portdup")
    a = m.add_input("a", 8)
    b = m.add_input("b", 8)
    o1 = m.add_output("o1", 8)
    o2 = m.add_output("o2", 8)
    o3 = m.add_output("o3", 8)
    t0 = m.net("t0", 8)
    t2 = m.net("t2", 8)
    # t2 merges into t0 first; then the port driver o1 replaces t0's
    # cell as representative, so t2's readers must follow t2 -> t0 -> o1.
    m.add_cell("not", {"a": a, "out": t0}, name="n0")
    m.add_cell("not", {"a": a, "out": t2}, name="n2")
    m.add_cell("not", {"a": a, "out": o1}, name="n1")
    m.add_cell("not", {"a": a, "out": o3}, name="n3")  # keeps its own port
    m.add_cell("add", {"a": t0, "b": t2, "out": o2}, name="sum")
    return m


def test_duplicate_driving_an_output_port_becomes_the_representative():
    ours, theirs = _port_driving_duplicates(), _port_driving_duplicates()
    assert share_cells(ours, SHAREABLE_KINDS) == 2
    assert reference_share_cells(theirs, SHAREABLE_KINDS) == 2
    assert ours == theirs
    check_module(ours)
    assert sorted(ours.cells) == ["n1", "n3", "sum"]
    o1 = ours.ports["o1"]
    assert ours.cells["sum"].pins["a"] is o1 is ours.cells["sum"].pins["b"]
    assert_matches_reference(_port_driving_duplicates)


def _three_deep_chains():
    m = Module("chains3")
    d = m.add_input("d", 8)
    en = m.add_input("en", 1)
    outs = [m.add_output(f"o{k}", 8) for k in range(3)]
    for k, out in enumerate(outs):
        current = d
        for stage in range(3):
            current = m.register(current, en=en if k == 2 else None)
            if k == 1:  # buffers between stages hide the twin at first
                current = m.unop("slice", current, lsb=0)
        m.add_cell("slice", {"a": current, "out": out}, {"lsb": 0})
    return m


def test_three_deep_parallel_delay_chains_coalesce_like_the_reference():
    optimized = assert_matches_reference(_three_deep_chains)
    kinds = [c.kind for c in optimized.cells.values()]
    # The two plain chains share their first two stages; each last stage
    # is sunk onto its own output port, and ports keep separate drivers.
    assert kinds.count("reg") == 4 and kinds.count("regen") == 3
    stimulus = random_stimulus(_three_deep_chains(), 64, seed=4)
    assert Simulator(_three_deep_chains()).run(stimulus) == Simulator(
        optimized
    ).run(stimulus)


# ---------------------------------------------------------------------------
# The manager: stats, integrity checking, idempotence, soundness.


def test_pass_manager_records_deltas_and_timings():
    m = flatten(make_mac())
    stats = pipeline_for_level(2).run(m)
    assert [s.name for s in stats] == [
        "constant-fold",
        "common-cell-sharing",
        "delay-coalesce",
        "common-cell-sharing",
        "dead-cell-elim",
    ]
    assert all(s.seconds >= 0 for s in stats)
    assert sum(s.cells_removed for s in stats) > 0
    assert stats[0].cells_before == 4


def test_pipeline_fingerprints_distinguish_levels():
    prints = {pipeline_for_level(level).fingerprint() for level in (0, 1, 2)}
    assert len(prints) == 3


def test_unknown_level_rejected():
    for level in (3, 4):
        with pytest.raises(ValueError):
            pipeline_for_level(level)
    # A session asked for level 3 fails at construction, not mid-run.
    from repro.driver import CompileSession

    with pytest.raises(ValueError, match="optimization level"):
        CompileSession(opt_level=3)


class _CorruptingPass(Pass):
    name = "corrupt"

    def run(self, module):
        module.remove_cell(next(iter(module.cells)))  # leaves net undriven


def test_integrity_check_blames_the_breaking_pass():
    m = flatten(make_mac())
    with pytest.raises(NetlistError, match="corrupt"):
        PassManager([_CorruptingPass()]).run(m)
    PassManager([_CorruptingPass()], check_integrity=False).run(
        flatten(make_mac())
    )  # opting out is allowed


@pytest.mark.parametrize("level", [1, 2])
def test_pipeline_is_idempotent(level):
    once = run_level(make_mac(), level)
    twice = run_level(make_mac(), level)
    pipeline_for_level(level).run(twice)
    assert once == twice
    assert once.structural_hash() == twice.structural_hash()


@pytest.mark.parametrize("level", [1, 2])
def test_optimized_netlist_is_output_equivalent(level):
    base = flatten(make_mac())
    opt = run_level(make_mac(), level)
    stimulus = random_stimulus(base, 64, seed=11)
    assert Simulator(base).run(stimulus) == Simulator(opt).run(stimulus)


def test_sequential_differential_simulation():
    def build() -> Module:
        m = Module("seq")
        d = m.add_input("d", 8)
        en = m.add_input("en", 1)
        o1 = m.add_output("o1", 8)
        o2 = m.add_output("o2", 8)
        m.add_cell(
            "slice", {"a": m.delay_chain(d, 2, en=en), "out": o1}, {"lsb": 0}
        )
        m.add_cell(
            "slice", {"a": m.delay_chain(d, 2, en=en), "out": o2}, {"lsb": 0}
        )
        return m

    base, opt = build(), build()
    pipeline_for_level(2).run(opt)
    assert len(opt.cells) < len(base.cells)
    stimulus = random_stimulus(base, 128, seed=3)
    assert Simulator(base).run(stimulus) == Simulator(opt).run(stimulus)


# ---------------------------------------------------------------------------
# Seedable stimulus.


def test_random_stimulus_is_reproducible():
    m = make_mac()
    assert random_stimulus(m, 16, seed=5) == random_stimulus(m, 16, seed=5)
    assert random_stimulus(m, 16, seed=5) != random_stimulus(m, 16, seed=6)


def test_random_stimulus_respects_widths():
    m = Module("narrow")
    m.add_input("bit", 1)
    m.add_output("out", 1)
    m.add_cell("slice", {"a": m.ports["bit"], "out": m.ports["out"]}, {"lsb": 0})
    for vector in random_stimulus(m, 32, seed=1):
        assert vector["bit"] in (0, 1)


def test_simulator_run_random_matches_manual_stimulus():
    m = make_mac()
    stimulus = random_stimulus(m, 16, seed=9)
    outputs = Simulator(m).run(stimulus)
    stepped = Simulator(m)
    manual = [stepped.step(inputs) for inputs in stimulus]
    assert outputs == manual
