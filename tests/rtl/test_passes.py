"""Tests for the netlist optimization pass framework."""

import pytest

from repro.rtl import Module, NetlistError, Simulator, flatten, random_stimulus
from repro.rtl.passes import (
    CommonCellSharing,
    ConstantFold,
    DeadCellElim,
    DelayCoalesce,
    Pass,
    PassManager,
    check_module,
    pipeline_for_level,
)


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
    outputs = Simulator(m).run_random(16, seed=9)
    manual = Simulator(m).run(random_stimulus(m, 16, seed=9))
    assert outputs == manual
