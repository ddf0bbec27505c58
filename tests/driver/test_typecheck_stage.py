"""The typecheck stage: warm persistence, CLI, stats."""

import json

import pytest

from repro.designs.catalog import design_point
from repro.driver import CompileSession
from repro.driver.cli import main
from repro.lilac.typecheck import check as check_mod


@pytest.fixture(autouse=True)
def _cold_memo():
    check_mod.clear_obligation_memo()
    yield
    check_mod.clear_obligation_memo()


SOURCE, _, _, _ = design_point("fpu")


def test_warm_session_answers_from_disk(tmp_path):
    cache = str(tmp_path / "cache")
    cold = CompileSession(cache_dir=cache)
    cold.typecheck(SOURCE)
    assert cold.stats.counter("smt.store") > 0

    check_mod.clear_obligation_memo()
    warm = CompileSession(cache_dir=cache)
    # Nudge past the stage-artifact cache: check one component directly
    # so the obligation store itself must answer.
    artifact = warm.typecheck(SOURCE, component="FPU")
    assert artifact.ok
    assert warm.stats.counter("smt.disk_hit") > 0
    assert warm.stats.counter("smt.queries") == 0


def test_typecheck_stats_in_stats_dict():
    session = CompileSession()
    session.typecheck(SOURCE)
    stats = session.stats_dict()["typecheck"]
    assert stats["obligations"] > 0
    assert stats["solver_queries"] > 0
    assert 0.0 <= stats["cache_hit_rate"] <= 1.0


def test_typecheck_stage_records_sub_timings():
    artifact = CompileSession().typecheck(SOURCE)
    assert "smt.discharge" in artifact.sub_timings
    assert artifact.sub_timings["smt.discharge"] >= 0.0


def test_cli_typecheck_subcommand(capsys):
    code = main(["typecheck", "--design", "fpu", "--no-disk-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "obligations" in out and "solver queries" in out


@pytest.mark.parametrize("flag", ["--freq=100", "--parallelism=4"])
def test_cli_typecheck_takes_no_design_point_flags(flag, capsys):
    """A catalog design's source text is the same at every frequency and
    parallelism, so neither flag could change what typecheck prints."""
    with pytest.raises(SystemExit) as exit_info:
        main(["typecheck", "--design", "fpu", flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_typecheck_stats_json(capsys):
    code = main(
        ["typecheck", "--design", "fpu", "--no-disk-cache",
         "--stats", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    stats = json.loads(out.strip().splitlines()[-1])
    assert set(stats["typecheck"]) == {
        "solver_queries", "memo_hits", "disk_hits", "disk_stores",
        "obligations", "cache_hit_rate",
    }
    assert stats["typecheck"]["obligations"] > 0


@pytest.mark.parametrize("flag", ["--typecheck-jobs=2",
                                  "--typecheck-executor=process"])
@pytest.mark.parametrize("command", [
    ["compile", "--design", "fpu"], ["typecheck", "--design", "fpu"],
    ["table", "2"], ["figure", "8"], ["ablation"], ["profile"], ["all"],
    ["sweep"],
], ids=lambda command: command[0])
def test_cli_rejects_the_removed_fan_out_flags(command, flag, capsys):
    """Whole-program typechecks run in one thread: no subcommand takes
    the fan-out flags any more, and argparse rejects them (exit 2)
    before any work starts."""
    with pytest.raises(SystemExit) as exit_info:
        main([*command, flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
