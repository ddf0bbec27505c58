"""The fault-injection substrate: plan grammar, determinism, accounting.

The substrate must be boring and exact — every hardened layer trusts
it to fire precisely the scheduled invocations, account every fire,
and stand down completely when uninstalled.
"""

import errno
import os

import pytest

from repro.driver import CacheStats, CompileSession, FaultPlan
from repro.driver.faults import (
    FAULT_SITES,
    FaultPlanError,
    FaultSite,
    InjectedFault,
    InjectedOSError,
    active_plan,
    inject,
    installed,
    should_fire,
    uninstall,
)


def test_entry_grammar_round_trips():
    for spec in ("disk.read", "disk.write#enospc", "solver.budget:3",
                 "pickle.load:2@5", "disk.write#erofs:2@1"):
        plan = FaultPlan.parse(spec)
        assert plan.spec_string() == spec


def test_plan_parses_multiple_entries_and_sorts_by_site():
    plan = FaultPlan.parse("solver.budget, disk.read:2@1")
    assert plan.sites() == ("disk.read", "solver.budget")
    assert plan.planned("disk.read") == 2
    assert plan.planned("solver.budget") == 1
    assert plan.planned("pickle.load") == 0


@pytest.mark.parametrize("bad", [
    "disk.reed",            # typo'd site
    "worker.crash",         # the grid has no worker site
    "cache.lock",           # nor the single-flight lock
    "disk.read#eio",        # unknown mode
    "disk.read:zero",       # non-integer count
    "disk.read@x",          # non-integer skip
    "disk.read:0",          # count must be >= 1
])
def test_bad_specs_are_rejected(bad):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse(bad)


def test_coverage_window_is_skip_to_skip_plus_count():
    site = FaultSite("disk.read", count=2, skip=3)
    assert [site.covers(i) for i in range(7)] == [
        False, False, False, True, True, False, False
    ]


def test_site_exceptions_match_their_real_failures():
    assert isinstance(FaultSite("disk.read").exception(), InjectedOSError)
    assert FaultSite("disk.write", mode="enospc").exception().errno == \
        errno.ENOSPC
    assert isinstance(FaultSite("disk.replace").exception(), InjectedOSError)
    assert isinstance(FaultSite("pickle.load").exception(), InjectedFault)


def test_check_counts_invocations_and_fires_deterministically():
    plan = FaultPlan.parse("disk.read:2@1")
    hits = [plan.check("disk.read") is not None for _ in range(5)]
    assert hits == [False, True, True, False, False]
    assert plan.calls["disk.read"] == 5
    assert plan.fired["disk.read"] == 2
    assert plan.summary()["disk.read"] == {
        "planned": 2, "calls": 5, "fired": 2
    }


def test_fires_are_accounted_on_bound_stats():
    stats = CacheStats()
    plan = FaultPlan.parse("pickle.load").bind(stats)
    with installed(plan):
        assert should_fire("pickle.load")
        assert not should_fire("pickle.load")
    assert stats.counter("fault.injected.pickle.load") == 1


def test_inject_raises_the_site_exception():
    with installed(FaultPlan.parse("disk.write#enospc")):
        with pytest.raises(InjectedOSError) as caught:
            inject("disk.write")
        assert caught.value.errno == errno.ENOSPC
    # After the scoped install nothing fires.
    inject("disk.write")


def test_seeded_plans_are_stable_and_seed_sensitive():
    first = FaultPlan.seeded(7, sites=("disk.read", "solver.budget"))
    again = FaultPlan.seeded(7, sites=("disk.read", "solver.budget"))
    other = FaultPlan.seeded(8, sites=FAULT_SITES)
    assert first.spec_string() == again.spec_string()
    assert other.sites() == tuple(sorted(FAULT_SITES))
    skips = {
        spec.skip for site in other._sites.values() for spec in site
    }
    assert skips <= {0, 1, 2, 3}


def test_installed_restores_the_previous_plan():
    outer = FaultPlan.parse("disk.read")
    inner = FaultPlan.parse("disk.write")
    with installed(outer):
        with installed(inner):
            assert active_plan() is inner
        assert active_plan() is outer
    uninstall()
    assert active_plan() is None


def test_session_installs_and_ships_its_plan(tmp_path):
    session = CompileSession(
        cache_dir=str(tmp_path), fault_plan="disk.read:2@1,solver.budget"
    )
    assert active_plan() is session.fault_plan
    assert session.spec()["fault_plan"] == "disk.read:2@1,solver.budget"
    rebuilt = CompileSession.from_spec(session.spec())
    assert rebuilt.fault_plan.spec_string() == "disk.read:2@1,solver.budget"
    # The rebuilt plan starts its own counters (fresh per process).
    assert rebuilt.fault_plan.calls == {}


def test_session_picks_up_the_env_plan(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "pickle.load@2")
    session = CompileSession(cache_dir=str(tmp_path))
    assert session.fault_plan is not None
    assert session.fault_plan.spec_string() == "pickle.load@2"
    monkeypatch.delenv("REPRO_FAULTS")
    assert CompileSession(cache_dir=str(tmp_path)).fault_plan is None


def test_fault_stats_slices_the_counters(tmp_path):
    session = CompileSession(
        cache_dir=str(tmp_path), fault_plan="disk.read"
    )
    session.synthesize(
        "comp T[#W]<G:1>(x: [G, G+1] #W) -> (y: [G+1, G+2] #W) {"
        " r := new Reg[#W]<G>(x); y = r.out; }",
        "T", {"#W": 4},
    )
    stats = session.fault_stats()
    assert stats["plan"] == "disk.read"
    assert stats["injected"] == {"disk.read": 1}
    assert stats["retries"] == {"disk.read": 1}
    assert "faults" in session.stats_dict()


# -- the crash family ----------------------------------------------------


def test_crash_sites_are_fault_sites_with_the_spec_grammar():
    from repro.driver.faults import CRASH_SITES

    assert set(CRASH_SITES) <= set(FAULT_SITES)
    plan = FaultPlan.parse("proc.kill.write@3")
    assert plan.spec_string() == "proc.kill.write@3"
    assert plan.planned("proc.kill.write") == 1


def test_kill_here_rejects_non_crash_sites():
    from repro.driver.faults import kill_here

    with pytest.raises(ValueError, match="not a crash site"):
        kill_here("disk.read")


def test_kill_here_outside_its_window_is_a_no_op():
    """The suite still running after these calls *is* the assertion —
    a bug here SIGKILLs the test process."""
    from repro.driver.faults import kill_here

    kill_here("proc.kill.write")  # no plan installed
    stats = CacheStats()
    plan = FaultPlan.parse("proc.kill.point@5").bind(stats)
    with installed(plan):
        kill_here("proc.kill.point")  # call 0; window opens at skip 5
    assert plan.calls["proc.kill.point"] == 1
    assert plan.fired == {}
