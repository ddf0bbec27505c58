"""Persistent codegen: step-function source survives the process.

``compile_netlist`` persists its generated source (plus slot layout)
through the ``"codegen"`` :class:`PseudoStore` keyed by
``(structural_hash, backend, lanes)``, so a warm process skips
levelization and code generation entirely — the
``codegen.disk_hit`` / ``codegen.store`` counters and the
``CompiledNetlist.from_store`` flag make the path observable.  Corrupt
entries are quarantined by the underlying ``DiskCache`` and regenerated,
never served.
"""

import os

import pytest

from repro.driver import CompileSession, DiskCache, PseudoStore
from repro.rtl import CODEGEN_VERSION, clear_compile_memo, compile_netlist
from repro.rtl.compile import valid_codegen_payload
from repro.rtl import (
    BatchedCompiledSimulator,
    CompiledSimulator,
    Module,
    NetlistError,
    random_stimulus,
    random_stimulus_batch,
)


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


def _multiplier(width=8) -> Module:
    """Two ports multiplied: a SWAR program with a lane loop."""
    module = Module("multiplier")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    out = module.add_output("out", width)
    module.add_cell("mul", {"a": a, "b": b, "out": out})
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


def _store(tmp_path) -> PseudoStore:
    return PseudoStore(
        DiskCache(str(tmp_path)), "codegen", CODEGEN_VERSION,
        valid_codegen_payload,
    )


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

    assert differential_check(
        _adder(), cycles=32, seed=2, lanes=4, backend="batched"
    )


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


def test_store_loaded_scalar_program_takes_the_generated_loop(
    tmp_path, monkeypatch
):
    store = _store(tmp_path)
    stream = random_stimulus(_fusable(), 24, seed=6)
    cold = CompiledSimulator(_fusable(), codegen_store=store)
    expected = cold.run(stream)

    clear_compile_memo()
    warm = CompiledSimulator(_fusable(), codegen_store=store)
    assert warm.program.from_store
    assert warm.program.run is not None
    monkeypatch.setattr(
        warm, "step", lambda inputs=None: pytest.fail("stepped")
    )
    assert warm.run(stream) == expected
    assert warm.cycle == cold.cycle == 24


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


@pytest.mark.numpy
def test_retired_tuner_and_vector_numpy_entries_stay_inert(tmp_path):
    """A store written before ``vector`` went numpy-only holds
    ``("tuner", ...)`` calibration profiles and kernels tagged
    ``vector-numpy``.  No cache epoch retires them: they stay
    digest-valid for fsck, and a vector compile over them misses and
    stores under the ``"vector"`` tag."""
    from repro.driver import run_fsck
    from repro.driver.artifact import StageArtifact
    from repro.rtl import (
        CODEGEN_VERSION, clear_vector_memo, compile_vector_netlist,
    )
    from repro.rtl.vectorize import _generate_vector_payload

    module = _adder()
    structural = module.structural_hash()
    disk = DiskCache(str(tmp_path))
    tuner_key = ("tuner", structural, "numpy", 3)
    profile = {
        "tuner_version": 3, "structural_hash": structural,
        "flavor": "numpy", "cycles": 32, "scalar_cps": 1e5,
        "swar": {16: 2e5, 64: 3e5}, "vector": {64: 4e5},
    }
    assert disk.store(tuner_key, StageArtifact("tuner", tuner_key, profile,
                                               0.0))
    legacy = dict(_generate_vector_payload(module, structural, 4),
                  backend="vector-numpy", flavor="numpy")
    legacy_key = ("codegen", structural, "vector-numpy", 4, CODEGEN_VERSION)
    assert disk.store(legacy_key, StageArtifact("codegen", legacy_key,
                                                legacy, 0.0))
    report = run_fsck(str(tmp_path))
    assert report.consistent and report.scanned == 2

    clear_vector_memo()
    try:
        store = _store(tmp_path)
        program = compile_vector_netlist(module, 4, store=store)
    finally:
        clear_vector_memo()
    assert not program.from_store
    assert store.disk.stats.counter("codegen.disk_miss") == 1
    assert store.disk.stats.counter("codegen.store") == 1
    assert store.load(structural, "vector", 4)["backend"] == "vector"
    report = run_fsck(str(tmp_path))
    assert report.consistent and report.scanned == 3


def test_scalar_entries_from_before_the_run_loop_stay_inert(tmp_path):
    """A store written at ``CODEGEN_VERSION`` 4 holds scalar programs
    without the generated ``_run`` loop.  Their key carries the old
    version, so a compile over them misses and stores a new entry, and
    the old one stays digest-valid for fsck."""
    from repro.driver import run_fsck
    from repro.driver.artifact import StageArtifact
    from repro.rtl import CODEGEN_VERSION
    from repro.rtl.compile import _generate_payload

    assert CODEGEN_VERSION > 4
    module = _adder()
    structural = module.structural_hash()
    payload = _generate_payload(module, structural, None)
    # The version-4 source: the evaluate/latch pair alone.
    legacy = dict(payload,
                  source=payload["source"].split("\n\n\n_RUN_PORTS")[0] + "\n")
    assert "_run" not in legacy["source"] and "_latch" in legacy["source"]
    legacy_key = ("codegen", structural, "scalar", None, 4)
    disk = DiskCache(str(tmp_path))
    assert disk.store(legacy_key, StageArtifact("codegen", legacy_key,
                                                legacy, 0.0))
    report = run_fsck(str(tmp_path))
    assert report.consistent and report.scanned == 1

    store = _store(tmp_path)
    assert store.key(structural, "scalar", None) == (
        legacy_key[:-1] + (CODEGEN_VERSION,)
    )
    program = compile_netlist(module, store=store)
    assert not program.from_store
    assert program.run is not None
    assert store.disk.stats.counter("codegen.disk_miss") == 1
    assert store.disk.stats.counter("codegen.store") == 1
    assert store.load(structural, "scalar", None)["source"] == payload["source"]
    report = run_fsck(str(tmp_path))
    assert report.consistent and report.scanned == 2


#: What the version-6 scalar generator emitted for ``_widening_adder``:
#: a mask on every result, and a run loop that pokes the slot list and
#: calls ``_evaluate`` and ``_latch`` per row.
_V6_WIDENING_ADDER = """def _evaluate(s, r, f):
    s[2] = (s[0] + s[1]) & 511


def _latch(s, r, f):
    pass


_RUN_PORTS = (('a', 'b'), ('out',))


def _run(s, r, f, rows, trace, _evaluate=_evaluate, _latch=_latch):
    append = trace.append
    for v0, v1 in rows:
        s[0] = int(v0) & 255
        s[1] = int(v1) & 255
        _evaluate(s, r, f)
        append({'out': s[2]})
        _latch(s, r, f)
"""


def _widening_adder() -> Module:
    """Two 8-bit ports summed into 9 bits: a sum that needs no mask."""
    module = Module("widening")
    a = module.add_input("a", 8)
    b = module.add_input("b", 8)
    module.add_cell("add",
                    {"a": a, "b": b, "out": module.add_output("out", 9)})
    return module


def test_scalar_entries_from_before_clean_masks_stay_inert(tmp_path):
    """A store written at ``CODEGEN_VERSION`` 6 holds scalar programs
    that mask every result and run on the slot lists.  Their key carries
    the old version, so a compile over them misses and stores a new
    entry, the old one stays digest-valid for fsck, and a program loaded
    from the new entry runs the cold program's trace."""
    from repro.driver import run_fsck
    from repro.driver.artifact import StageArtifact
    from repro.rtl import CODEGEN_VERSION, Simulator
    from repro.rtl.compile import _generate_payload

    assert CODEGEN_VERSION > 6
    module = _widening_adder()
    structural = module.structural_hash()
    payload = _generate_payload(module, structural, None)
    assert "& 511" not in payload["source"]
    legacy = dict(payload, source=_V6_WIDENING_ADDER)
    legacy_key = ("codegen", structural, "scalar", None, 6)
    disk = DiskCache(str(tmp_path))
    assert disk.store(legacy_key, StageArtifact("codegen", legacy_key,
                                                legacy, 0.0))
    report = run_fsck(str(tmp_path))
    assert report.consistent and report.scanned == 1

    store = _store(tmp_path)
    stream = random_stimulus(module, 24, seed=6)
    cold = CompiledSimulator(module, codegen_store=store)
    assert not cold.program.from_store
    assert cold.program.source == payload["source"]
    assert store.disk.stats.counter("codegen.disk_miss") == 1
    assert store.disk.stats.counter("codegen.store") == 1
    expected = cold.run(stream)
    assert expected == Simulator(module).run(stream)
    report = run_fsck(str(tmp_path))
    assert report.consistent and report.scanned == 2

    clear_compile_memo()
    warm = CompiledSimulator(_widening_adder(), codegen_store=store)
    assert warm.program.from_store
    assert warm.program.source == payload["source"]
    assert warm.run(stream) == expected


def test_swar_entries_from_before_the_word_view_stay_inert(tmp_path):
    """A store written at ``CODEGEN_VERSION`` 5 holds SWAR programs whose
    lane loops convert every lane through byte slices.  Their key
    carries the old version, so a compile over them misses and stores a
    new entry, the old one stays digest-valid for fsck, and a program
    loaded from the new entry runs the cold program's traces."""
    from repro.driver import run_fsck
    from repro.driver.artifact import StageArtifact
    from repro.rtl import CODEGEN_VERSION
    from repro.rtl.compile import _generate_payload, _lane_helper_lines

    assert CODEGEN_VERSION > 5
    module = _multiplier()
    structural = module.structural_hash()
    payload = _generate_payload(module, structural, 4)
    helpers, body = payload["source"].split("\n\n\n_LANES")
    assert "memoryview" in helpers and "_unpack(" in body
    # The version-5 program: byte-sliced helpers under the same names.
    old_helpers = "\n".join(
        _lane_helper_lines(4, payload["stride"], {"bytes"})
    ).replace("_unpack_bytes", "_unpack").replace("_pack_bytes", "_pack")
    legacy = dict(payload, source=old_helpers + "\n\n\n_LANES" + body)
    assert "memoryview" not in legacy["source"]
    legacy_key = ("codegen", structural, "swar", 4, 5)
    disk = DiskCache(str(tmp_path))
    assert disk.store(legacy_key, StageArtifact("codegen", legacy_key,
                                                legacy, 0.0))
    report = run_fsck(str(tmp_path))
    assert report.consistent and report.scanned == 1

    store = _store(tmp_path)
    streams = random_stimulus_batch(module, 24, 4, seed=8)
    cold = BatchedCompiledSimulator(module, 4, codegen_store=store)
    assert not cold.program.from_store
    assert cold.program.source == payload["source"]
    assert store.disk.stats.counter("codegen.disk_miss") == 1
    assert store.disk.stats.counter("codegen.store") == 1
    expected = cold.run(streams)
    report = run_fsck(str(tmp_path))
    assert report.consistent and report.scanned == 2

    clear_compile_memo()
    warm = BatchedCompiledSimulator(_multiplier(), 4, codegen_store=store)
    assert warm.program.from_store
    assert warm.program.source == payload["source"]
    assert warm.run(streams) == expected
    assert expected == [
        CompiledSimulator(module).run(stream) for stream in streams
    ]


@pytest.mark.numpy
def test_vector_entries_from_before_zero_d_constants_stay_inert(tmp_path):
    """A store written at ``CODEGEN_VERSION`` 7 holds vector programs
    whose masks are ``np.uint64`` scalars.  Their key carries the old
    version, so a compile over them misses and stores a new entry, the
    old one stays digest-valid for fsck, and a program loaded from the
    new entry binds read-only 0-d constants and runs the cold program's
    traces."""
    import re

    from repro.driver import run_fsck
    from repro.driver.artifact import StageArtifact
    from repro.rtl import CODEGEN_VERSION, Simulator, VectorCompiledSimulator
    from repro.rtl.vectorize import _generate_vector_payload

    assert CODEGEN_VERSION > 7
    module = _adder()
    structural = module.structural_hash()
    payload = _generate_vector_payload(module, structural, 4)
    assert "_M8 = _scalar(0xff)" in payload["source"]
    # The version-7 program: the same kernels over np.uint64 scalars.
    legacy_source = re.sub(
        r"def _scalar\(value\):\n(    .*\n)+\n\n", "", payload["source"]
    ).replace("_scalar(", "_np.uint64(")
    assert "_M8 = _np.uint64(0xff)" in legacy_source
    assert "_scalar" not in legacy_source
    legacy = dict(payload, source=legacy_source)
    legacy_key = ("codegen", structural, "vector", 4, 7)
    disk = DiskCache(str(tmp_path))
    assert disk.store(legacy_key, StageArtifact("codegen", legacy_key,
                                                legacy, 0.0))
    report = run_fsck(str(tmp_path))
    assert report.consistent and report.scanned == 1

    store = _store(tmp_path)
    streams = random_stimulus_batch(module, 24, 4, seed=9)
    cold = VectorCompiledSimulator(module, 4, codegen_store=store)
    assert not cold.program.from_store
    assert cold.program.source == payload["source"]
    assert store.disk.stats.counter("codegen.disk_miss") == 1
    assert store.disk.stats.counter("codegen.store") == 1
    expected = cold.run(streams)
    assert expected == Simulator(module).run_batch(streams)
    report = run_fsck(str(tmp_path))
    assert report.consistent and report.scanned == 2

    clear_compile_memo()
    warm = VectorCompiledSimulator(_adder(), 4, codegen_store=store)
    assert warm.program.from_store
    assert warm.program.source == payload["source"]
    (mask,) = [
        value for value in warm.program.evaluate.__defaults__
        if getattr(value, "shape", None) == ()
    ]
    assert int(mask) == 0xFF and not mask.flags.writeable
    assert warm.run(streams) == expected
