"""Corrupt/truncated entries in the pseudo-stage stores.

Every persistent store riding the DiskCache — codegen step sources,
SMT obligation verdicts — must treat a partially written or bit-rotted
entry exactly like the artifact cache does: quarantine it (delete +
``disk.corrupt``), count a miss, recompute, and produce bit-identical
results to a never-corrupted run.  A half-written file must never steer
a simulation or a proof.
"""

import os

import pytest

from repro.driver import CompileSession, SCHEMA_VERSION

SOURCE = """
comp Double[#W]<G:1>(x: [G, G+1] #W) -> (y: [G+1, G+2] #W) {
  s := new Add[#W]<G>(x, x);
  r := new Reg[#W]<G>(s.out);
  y = r.out;
}
"""


def _store_entries(tmp_path, stage):
    directory = os.path.join(str(tmp_path), f"v{SCHEMA_VERSION}", stage)
    if not os.path.isdir(directory):
        return []
    return [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(".pkl")
    ]


def _truncate(path):
    """Simulate a writer that died mid-write: keep the header intact,
    cut the payload short (the digest check must catch it)."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(size // 2, 1))


def _drop_stage(tmp_path, stage):
    """Evict a *stage's* persisted artifacts so the rerun recomputes
    through the (corrupted) pseudo-stage store instead of being served
    the stage artifact wholesale."""
    import shutil

    shutil.rmtree(
        os.path.join(str(tmp_path), f"v{SCHEMA_VERSION}", stage),
        ignore_errors=True,
    )


@pytest.mark.parametrize("corrupt", [_truncate])
def test_corrupt_codegen_entries_recompute_identically(tmp_path, corrupt):
    from repro.rtl.compile import clear_compile_memo

    # A memo warmed by earlier tests would satisfy compile_netlist
    # before it ever consults (or fills) the persistent store.
    clear_compile_memo()
    cold = CompileSession(cache_dir=str(tmp_path))
    baseline = cold.simulate(
        SOURCE, "Double", {"#W": 8}, cycles=32, backend="compiled"
    ).value.outputs
    entries = _store_entries(tmp_path, "codegen")
    assert entries, "compiled backend must persist its step source"
    for path in entries:
        corrupt(path)
    # Make the rerun actually walk the store: evict the simulate-stage
    # artifact (else it is served wholesale) and the in-process memo.
    _drop_stage(tmp_path, "simulate")
    clear_compile_memo()

    warm = CompileSession(cache_dir=str(tmp_path))
    rerun = warm.simulate(
        SOURCE, "Double", {"#W": 8}, cycles=32, backend="compiled"
    ).value.outputs
    assert rerun == baseline
    assert warm.stats.counter("disk.corrupt") >= 1
    assert warm.stats.counter("codegen.disk_hit") == 0
    assert warm.stats.counter("codegen.store") >= 1

    # The recompute re-stored a clean entry: third run is served warm.
    _drop_stage(tmp_path, "simulate")
    clear_compile_memo()
    third = CompileSession(cache_dir=str(tmp_path))
    third.simulate(
        SOURCE, "Double", {"#W": 8}, cycles=32, backend="compiled"
    )
    assert third.stats.counter("codegen.disk_hit") >= 1
    assert third.stats.counter("disk.corrupt") == 0


def test_corrupt_obligation_entries_resolve_identically(tmp_path):
    from repro.lilac.typecheck.check import clear_obligation_memo

    cold = CompileSession(cache_dir=str(tmp_path))
    baseline = cold.typecheck(SOURCE).value
    assert cold.stats.counter("smt.store") >= 1
    entries = _store_entries(tmp_path, "smt")
    assert entries
    for path in entries:
        _truncate(path)
    _drop_stage(tmp_path, "typecheck")
    clear_obligation_memo()  # the in-process memo would mask the store

    warm = CompileSession(cache_dir=str(tmp_path))
    rerun = warm.typecheck(SOURCE).value
    assert [r.ok for r in rerun] == [r.ok for r in baseline]
    assert [r.obligations for r in rerun] == [
        r.obligations for r in baseline
    ]
    assert warm.stats.counter("disk.corrupt") >= 1
    assert warm.stats.counter("smt.disk_hit") == 0
    # Fresh verdicts were solved and re-stored.
    assert warm.stats.counter("smt.queries") >= 1
