"""Persistent codegen: step-function source survives the process.

``compile_netlist`` persists its generated source (plus slot layout)
through :class:`CodegenStore` keyed by ``(structural_hash, lanes)``, so
a warm process skips levelization and code generation entirely — the
``codegen.disk_hit`` / ``codegen.store`` counters and the
``CompiledNetlist.from_store`` flag make the path observable.  Corrupt
entries are quarantined by the underlying ``DiskCache`` and regenerated,
never served.
"""

import os

import pytest

from repro.driver import CodegenStore, CompileSession, DiskCache
from repro.rtl import clear_compile_memo, compile_netlist
from repro.rtl import CompiledSimulator, Module, NetlistError


@pytest.fixture(autouse=True)
def _fresh_memo():
    # The in-process memo would otherwise short-circuit the store and
    # leak compilations between tests.
    clear_compile_memo()
    yield
    clear_compile_memo()


SOURCE = """
comp Double[#W]<G:1>(x: [G, G+1] #W) -> (y: [G+1, G+2] #W) {
  s := new Add[#W]<G>(x, x);
  r := new Reg[#W]<G>(s.out);
  y = r.out;
}
"""


def _adder(width=8) -> Module:
    module = Module("adder")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    out = module.add_output("out", width)
    module.add_cell("add", {"a": a, "b": b, "out": out})
    return module


def _fusable(width=8) -> Module:
    module = Module("fusable")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    out = module.add_output("out", width)
    mixed = module.binop("xor", a, b)  # one combinational reader: fused
    module.add_cell("add", {"a": mixed, "b": b, "out": out})
    return module


def _unpeekable(simulator) -> set:
    """The net names ``peek_net`` refuses on this simulator."""
    refused = set()
    for name in simulator.module.nets:
        try:
            simulator.peek_net(name)
        except NetlistError:
            refused.add(name)
    return refused


def _store(tmp_path) -> CodegenStore:
    return CodegenStore(DiskCache(str(tmp_path)))


def test_codegen_round_trips_through_the_store(tmp_path):
    store = _store(tmp_path)
    module = _adder()
    cold = compile_netlist(module, lanes=4, store=store)
    assert not cold.from_store
    assert store.disk.stats.counter("codegen.store") == 1

    clear_compile_memo()
    warm = compile_netlist(_adder(), lanes=4, store=store)
    assert warm.from_store
    assert warm.source == cold.source
    assert warm.slot_of == cold.slot_of
    assert warm.stride == cold.stride
    assert store.disk.stats.counter("codegen.disk_hit") == 1
    # The rematerialized program still computes.
    from repro.rtl import differential_check

    assert differential_check(_adder(), cycles=32, seed=2, lanes=4)


def test_scalar_program_keeps_its_fused_nets_through_the_store(tmp_path):
    store = _store(tmp_path)
    fresh = CompiledSimulator(_fusable(), codegen_store=store)
    assert not fresh.program.from_store
    assert fresh.program.inlined_nets

    clear_compile_memo()
    warm = CompiledSimulator(_fusable(), codegen_store=store)
    assert warm.program.from_store
    assert warm.program.inlined_nets == fresh.program.inlined_nets
    assert _unpeekable(warm) == _unpeekable(fresh)
    assert _unpeekable(warm) == set(fresh.program.inlined_nets)


def test_codegen_entries_are_keyed_per_lane_count(tmp_path):
    store = _store(tmp_path)
    compile_netlist(_adder(), store=store)  # scalar
    compile_netlist(_adder(), lanes=2, store=store)
    compile_netlist(_adder(), lanes=8, store=store)
    assert store.disk.stats.counter("codegen.store") == 3
    clear_compile_memo()
    assert compile_netlist(_adder(), lanes=8, store=store).from_store
    assert store.disk.stats.counter("codegen.disk_hit") == 1


def test_corrupt_codegen_entry_is_quarantined_and_regenerated(tmp_path):
    store = _store(tmp_path)
    compile_netlist(_adder(), lanes=4, store=store)
    entries = []
    for directory, _, files in os.walk(str(tmp_path)):
        entries += [
            os.path.join(directory, f) for f in files if f.endswith(".pkl")
        ]
    assert len(entries) == 1
    with open(entries[0], "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        handle.seek(size // 2)
        handle.write(b"\xde\xad\xbe\xef")

    clear_compile_memo()
    compiled = compile_netlist(_adder(), lanes=4, store=store)
    # Regenerated, not served from the poisoned file...
    assert not compiled.from_store
    assert store.disk.stats.counter("disk.corrupt") == 1
    # ...and the quarantine re-wrote a good entry for the next process.
    assert store.disk.stats.counter("codegen.store") == 2
    clear_compile_memo()
    assert compile_netlist(_adder(), lanes=4, store=store).from_store


def test_warm_session_loads_codegen_instead_of_generating(tmp_path):
    """Same netlist, *different* simulate parameters: the simulate
    artifact misses but the compiled step source still comes from disk."""
    cold = CompileSession(
        cache_dir=str(tmp_path), sim_backend="compiled", sim_lanes=3
    )
    cold.simulate(SOURCE, "Double", {"#W": 8}, cycles=16)
    assert cold.stats.counter("codegen.store") >= 1

    clear_compile_memo()
    warm = CompileSession(
        cache_dir=str(tmp_path), sim_backend="compiled", sim_lanes=3
    )
    warm.simulate(SOURCE, "Double", {"#W": 8}, cycles=24)  # new trace
    assert warm.stats.miss_count("simulate") == 1
    assert warm.stats.counter("codegen.disk_hit") >= 1
    assert warm.stats.counter("codegen.store") == 0


def test_scalar_and_batched_sessions_share_nothing_but_agree(tmp_path):
    session = CompileSession(cache_dir=str(tmp_path), sim_backend="compiled")
    single = session.simulate(SOURCE, "Double", {"#W": 8}, cycles=20).value
    batch = session.simulate(
        SOURCE, "Double", {"#W": 8}, cycles=20, lanes=3
    ).value
    assert batch.lanes == 3 and single.lanes == 1
    assert batch.lane_cycles == 60
    # Lane 0 of the batch is the single-lane trace for the same seed.
    assert batch.outputs[0] == single.outputs
