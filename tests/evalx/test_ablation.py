"""The optimization ablation: differential simulation across designs."""

from repro.evalx import ablation
from repro.rtl import clear_vector_memo


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
    # ... and both lane engines against the per-lane reference traces.
    assert all(row.lanes_agree for row in rows)
    assert all(row.vector_agree for row in rows)
    # The headline claim: cleanup passes shrink at least three designs.
    assert sum(1 for row in rows if row.cleanup_removed() > 0) >= 3


def test_ablation_render_marks_equivalence():
    row = ablation.AblationRow(
        "toy", 100, 80, True, 2.0, 1.0, {"dead-cell-elim": 20}
    )
    assert abs(row.reduction - 0.2) < 1e-12
    assert row.speedup == 2.0
    assert row.cleanup_removed() == 20
    text = ablation.render([row])
    assert "toy" in text and "20.0%" in text and "yes" in text


def test_ablation_check_shape_rejects_divergence():
    bad = ablation.AblationRow("toy", 100, 100, False, 1.0, 1.0, {})
    try:
        ablation.check_shape([bad])
    except AssertionError as error:
        assert "unsound" in str(error)
    else:
        raise AssertionError("divergent row should fail the shape check")


def test_ablation_check_shape_rejects_backend_divergence():
    bad = ablation.AblationRow(
        "toy", 100, 90, True, 1.0, 1.0, {}, backends_agree=False
    )
    try:
        ablation.check_shape([bad])
    except AssertionError as error:
        assert "code generation is unsound" in str(error)
    else:
        raise AssertionError("backend divergence should fail the check")
    text = ablation.render([bad])
    assert "NO" in text


def test_ablation_check_shape_rejects_vector_divergence():
    bad = ablation.AblationRow(
        "toy", 100, 90, True, 1.0, 1.0, {}, vector_agree=False
    )
    try:
        ablation.check_shape([bad])
    except AssertionError as error:
        assert "vector codegen is unsound" in str(error)
    else:
        raise AssertionError("vector divergence should fail the check")


def test_ablation_holds_under_stdlib_vector_flavor(monkeypatch):
    """The whole differential battery — including the vector column —
    re-run with the vector backend forced onto the pure-stdlib
    ``array('Q')`` flavor."""
    monkeypatch.setenv("REPRO_VECTOR_FLAVOR", "stdlib")
    clear_vector_memo()  # drop programs compiled under another flavor
    try:
        rows = ablation.build_rows(cycles=16)
        ablation.check_shape(rows)
        assert all(row.vector_agree for row in rows)
    finally:
        clear_vector_memo()
