"""The optimization ablation: differential simulation across designs."""

import warnings

from repro.designs.catalog import design_point
from repro.driver import CompileSession
from repro.evalx import ablation
from repro.rtl import BatchedCompiledSimulator, vectorize


def test_ablation_rows_cover_the_catalog_and_hold_shape():
    rows = ablation.build_rows(cycles=32)
    assert [row.name for row in rows] == sorted(
        ["fpu", "fft", "flofft", "risc", "gbp", "blas"]
    )
    stats = ablation.check_shape(rows)
    assert len(stats) == len(rows)
    # Differential simulation: every design bit-identical across levels
    # and across simulation backends (interpreter vs compiled).
    assert all(row.equivalent for row in rows)
    assert all(row.backends_agree for row in rows)
    # ... and both lane engines against the per-lane reference traces
    # (the vector engine runs only where numpy is installed).
    assert all(row.lanes_agree for row in rows)
    vector_ran = True if vectorize._numpy() is not None else None
    assert all(row.vector_agree is vector_ran for row in rows)
    # The headline claim: cleanup passes shrink at least three designs.
    assert sum(1 for row in rows if row.cleanup_removed() > 0) >= 3


def test_ablation_lanes_column_runs_swar_on_every_design(monkeypatch):
    """The "Lanes" column gates the SWAR engine on all six designs: its
    lanes run asks for ``batched``, and the trace says that engine ran."""
    ran = set()
    real_run = BatchedCompiledSimulator.run

    def recorded(self, input_streams):
        ran.add(self.module.name)
        return real_run(self, input_streams)

    monkeypatch.setattr(BatchedCompiledSimulator, "run", recorded)
    session = CompileSession()
    rows = ablation.build_rows(session=session, cycles=16)
    assert all(row.lanes_agree for row in rows)
    points = [design_point(name) for name in ablation.ABLATION_DESIGNS]
    assert ran == {
        session.optimize(
            source, component, params, generators, opt_level=2
        ).value.module.name
        for source, component, generators, params in points
    }
    for source, component, generators, params in points:
        lanes_run = session.simulate(
            source, component, params, generators, cycles=16,
            seed=ablation.SEED, opt_level=2, backend="batched",
            lanes=ablation.LANES,
        )
        assert lanes_run.from_cache  # the ablation's own run
        assert lanes_run.value.backend == "batched"


def test_ablation_render_marks_equivalence():
    row = ablation.AblationRow("toy", 100, 80, True, {"dead-cell-elim": 20})
    assert abs(row.reduction - 0.2) < 1e-12
    assert row.cleanup_removed() == 20
    text = ablation.render([row])
    assert "toy" in text and "20.0%" in text and "yes" in text


def test_ablation_check_shape_rejects_divergence():
    bad = ablation.AblationRow("toy", 100, 100, False, {})
    try:
        ablation.check_shape([bad])
    except AssertionError as error:
        assert "unsound" in str(error)
    else:
        raise AssertionError("divergent row should fail the shape check")


def test_ablation_check_shape_rejects_backend_divergence():
    bad = ablation.AblationRow("toy", 100, 90, True, {}, backends_agree=False)
    try:
        ablation.check_shape([bad])
    except AssertionError as error:
        assert "code generation is unsound" in str(error)
    else:
        raise AssertionError("backend divergence should fail the check")
    text = ablation.render([bad])
    assert "NO" in text


def test_ablation_check_shape_rejects_vector_divergence():
    bad = ablation.AblationRow("toy", 100, 90, True, {}, vector_agree=False)
    try:
        ablation.check_shape([bad])
    except AssertionError as error:
        assert "vector codegen is unsound" in str(error)
    else:
        raise AssertionError("vector divergence should fail the check")


def test_ablation_reports_na_for_vector_without_numpy(monkeypatch):
    """Without numpy no vector run is made, so nothing degrades or
    warns: the "Vector" column says ``n/a`` instead of vouching for
    kernels that never ran, and the other three columns still hold."""
    monkeypatch.setattr(vectorize, "_NUMPY", None)
    monkeypatch.setattr(vectorize, "_NUMPY_PROBED", True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = ablation.build_rows(cycles=16)
    ablation.check_shape(rows)
    assert all(row.vector_agree is None for row in rows)
    for row in rows:
        assert row.cells()[-4:] == ["yes", "yes", "yes", "n/a"]
