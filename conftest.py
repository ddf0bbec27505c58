"""Repo-wide pytest fixtures.

The CLI enables the persistent artifact cache by default (resolving to
``$REPRO_CACHE_DIR``), so every test gets a private, empty cache root:
tests stay hermetic — cold on every run, never sharing artifacts across
tests or with the developer's real cache — while still exercising the
disk-cache code path end to end.  Tests that *want* warm-versus-cold
behavior opt in by pointing two sessions at one explicit directory.

Tests marked ``@pytest.mark.numpy`` need the vector backend's numpy
kernels; they are skipped, with a reason, where numpy is not installed
(the base CI legs, which check the numpy-less degrade path instead).
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "numpy: needs numpy (the 'vector' extra); skipped without it",
    )


def pytest_runtest_setup(item):
    if item.get_closest_marker("numpy") is None:
        return
    from repro.rtl import vectorize

    if vectorize._numpy() is None:
        pytest.skip("numpy is not installed (the 'vector' extra)")


@pytest.fixture(autouse=True)
def _isolated_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(autouse=True)
def _no_fsync(monkeypatch):
    """Skip fsync in tests: SIGKILL safety only needs write *ordering*
    (which the suite exercises), not power-loss durability — and fsync
    on every cache write makes the suite dramatically slower on some
    filesystems.  Tests that verify the syncing path itself re-enable
    it with ``monkeypatch.setenv("REPRO_CACHE_FSYNC", "1")``."""
    monkeypatch.setenv("REPRO_CACHE_FSYNC", "0")


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Fault plans install process-globally (see repro.driver.faults);
    a test that installs one — directly or by building a session with a
    ``fault_plan`` — must not leak it into the next test."""
    from repro.driver import faults

    yield
    faults.uninstall()
