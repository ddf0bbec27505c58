"""The ``python -m repro`` command-line front door."""

import errno
import json
import multiprocessing
import os
import re
import time

import pytest

from repro.driver import cli
from repro.driver.cli import main
from repro.evalx import figure8, table2
from repro.lilac.typecheck import check


def test_compile_preset(capsys):
    assert main(["compile", "--design", "fpu", "--freq", "100"]) == 0
    out = capsys.readouterr().out
    assert "FPU" in out
    assert "synthesis:" in out
    assert "stage timings" in out


def test_compile_param_override(capsys):
    assert main(["compile", "--design", "blas", "-p", "#ML=4"]) == 0
    out = capsys.readouterr().out
    assert "latency=7" in out  # Dot latency = #ML + 3


def test_compile_emits_verilog_to_file(tmp_path, capsys):
    path = tmp_path / "risc.v"
    assert main(["compile", "--design", "risc", "--verilog", str(path)]) == 0
    assert "module Risc3" in path.read_text()


def test_compile_source_file(tmp_path, capsys):
    source = tmp_path / "double.lilac"
    source.write_text(
        """
comp Double[#W]<G:1>(x: [G, G+1] #W) -> (y: [G+1, G+2] #W) {
  s := new Add[#W]<G>(x, x);
  r := new Reg[#W]<G>(s.out);
  y = r.out;
}
"""
    )
    assert main(
        ["compile", "--source", str(source), "--component", "Double",
         "-p", "#W=8"]
    ) == 0
    out = capsys.readouterr().out
    assert "latency=1" in out


def test_compile_source_requires_component(tmp_path):
    source = tmp_path / "x.lilac"
    source.write_text("comp T<G:1>() -> () {}")
    with pytest.raises(SystemExit):
        main(["compile", "--source", str(source)])


def test_compile_check_flag_rejects_bad_designs(tmp_path, capsys):
    source = tmp_path / "bad.lilac"
    source.write_text(
        """
comp Bad[#W]<G:1>(x: [G, G+1] #W) -> (y: [G, G+1] #W) {
  s := new Add[#W]<G>(x, x);
  r := new Reg[#W]<G>(s.out);
  y = r.out;
}
"""
    )
    assert main(
        ["compile", "--source", str(source), "--component", "Bad",
         "-p", "#W=8", "--check"]
    ) == 1
    assert "FAILED" in capsys.readouterr().out


def test_table_2(capsys):
    assert main(["table", "2"]) == 0
    out = capsys.readouterr().out
    assert "Latency Abstract (LA)" in out
    assert "cache statistics" in out


def test_table_3(capsys):
    assert main(["table", "3"]) == 0
    assert "Aetherling" in capsys.readouterr().out


def test_figure_13_with_workers(capsys):
    assert main(["figure", "13", "--workers", "2"]) == 0
    assert "Lilac / RV" in capsys.readouterr().out


def test_compile_opt_level_reports_pass_stats(capsys):
    assert main(["compile", "--design", "fpu", "-O2"]) == 0
    out = capsys.readouterr().out
    assert "optimize (-O2):" in out
    assert "pass statistics:" in out
    assert "common-cell-sharing" in out


def test_stats_json_is_machine_readable(capsys):
    assert main(["compile", "--design", "fpu", "-O2", "--stats", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[-1])
    assert payload["opt_level"] == 2
    assert payload["cache"]["misses"]["optimize"] >= 1
    assert payload["passes"]["dead-cell-elim"]["runs"] >= 1
    assert payload["passes"]["delay-coalesce"]["cells_removed"] >= 0


def test_artifact_stats_json(capsys):
    assert main(["table", "3", "--stats", "json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert "cache" in payload and "passes" in payload


def test_ablation_command(capsys):
    assert main(["ablation", "--workers", "4"]) == 0
    out = capsys.readouterr().out
    assert "Equivalent" in out and "Sim speedup" not in out
    assert "NO" not in out  # every design differentially equivalent
    assert "pass statistics" in out


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_sim_lanes_flag_reaches_the_session(capsys):
    assert main([
        "sweep", "--designs", "fpu", "--cycles", "8",
        "--sim-lanes", "4", "--sim-backend", "compiled",
    ]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["sim_lanes"] == 4
    assert payload["sim_backend"] == "compiled"


def test_ablation_with_lanes_and_process_executor(capsys):
    assert main([
        "ablation", "--workers", "2", "--executor", "process",
        "--sim-lanes", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "Lanes" in out
    assert "NO" not in out  # batched lanes bit-identical everywhere


#: How each subcommand that lost a simulation flag is invoked.
_COMMANDS = {
    "compile": ["compile", "--design", "fpu"],
    "typecheck": ["typecheck", "--design", "fpu"],
    "table": ["table", "3"],
    "figure": ["figure", "13"],
    "ablation": ["ablation"],
    "all": ["all"],
}


@pytest.mark.parametrize("command, flag", [
    *[(command, "--sim-backend") for command in _COMMANDS],
    *[(command, "--sim-lanes")
      for command in ("compile", "typecheck", "table", "figure")],
])
def test_sim_flags_exist_only_where_they_select_something(
    command, flag, capsys
):
    """Only ``profile`` and ``sweep`` simulate on the session's engine,
    and ``ablation``/``all`` read only the lane count, so elsewhere a
    simulation flag would be accepted and ignored."""
    value = "compiled" if flag == "--sim-backend" else "4"
    with pytest.raises(SystemExit) as exit_info:
        main(_COMMANDS[command] + [flag, value])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_executor_flag_rejects_unknown_pool(capsys):
    for executor in ("fiber", "auto"):
        with pytest.raises(SystemExit) as exit_info:
            main(["ablation", "--executor", executor])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_profile_command_renders_attribution(capsys):
    assert main([
        "profile", "--designs", "fpu", "fft", "--cycles", "32",
        "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "run profile:" in out
    assert "compute" in out and "waiting" in out
    assert "fpu" in out and "fft" in out


def test_profile_command_json_payload(capsys):
    assert main([
        "profile", "--designs", "fpu", "--cycles", "32", "-O2", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["wall_seconds"] > 0.0
    assert "compute" in payload and "waits" in payload
    assert [row["design"] for row in payload["designs"]] == ["fpu"]
    assert payload["designs"][0]["cells"] > 0


def test_compile_rejects_level_3():
    with pytest.raises(SystemExit):
        main(["compile", "--design", "fpu", "-O3"])


def test_stats_json_carries_stage_timers_and_no_tuner_section(capsys):
    assert main(["compile", "--design", "fpu", "-O2", "--stats", "json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["opt_level"] == 2
    assert "profile" not in payload and "tuner" not in payload
    # Stage wall clocks flow through the cache stats timers.
    assert any(
        name.startswith("compute.")
        for name in payload["cache"]["timers"]
    )


def test_chaos_command_sweeps_and_reports(capsys):
    assert main([
        "chaos", "--designs", "fpu", "--cycles", "16", "--count", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "chaos sweep" in out
    assert "disk@seed=0" in out
    assert "all runs bit-identical, all faults accounted" in out


def test_chaos_json_report(capsys):
    assert main([
        "chaos", "--designs", "fpu", "--cycles", "16", "--count", "1",
        "--groups", "disk", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["ok"] is True
    assert [run["label"] for run in payload["runs"]] == ["disk@seed=0"]
    run = payload["runs"][0]
    assert run["identical"] is True
    assert run["fired"] == run["injected"]


def test_stats_json_carries_the_fault_section(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "disk.read")
    assert main(["compile", "--design", "fpu", "--stats", "json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["faults"]["plan"] == "disk.read"
    assert payload["faults"]["injected"] == {"disk.read": 1}
    assert payload["faults"]["retries"] == {"disk.read": 1}


def test_sweep_emits_digests_and_checkpoints(tmp_path, capsys):
    cache = str(tmp_path / "store")
    assert main([
        "sweep", "--designs", "fpu", "--cycles", "8", "-O1",
        "--cache-dir", cache, "--run-id", "run-a", "--stats", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(payload["digests"]) == {"fpu"}
    assert "trace" in payload["digests"]["fpu"]
    assert payload["checkpoint"]["run_id"] == "run-a"
    assert payload["checkpoint"]["stores"] == 1
    assert payload["cache"]["counters"]["disk.write"] >= 1

    # A --resume serves the point from the ledger, digests unchanged.
    assert main([
        "sweep", "--designs", "fpu", "--cycles", "8", "-O1",
        "--cache-dir", cache, "--run-id", "run-a", "--resume",
        "--stats", "json",
    ]) == 0
    resumed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert resumed["digests"] == payload["digests"]
    assert resumed["checkpoint"]["hits"] == 1
    assert resumed["checkpoint"]["stores"] == 0


def test_rerunning_a_run_id_without_resume_is_refused(tmp_path, capsys):
    cache = str(tmp_path / "store")
    args = [
        "sweep", "--designs", "fpu", "--cycles", "8", "-O1",
        "--cache-dir", cache, "--run-id", "run-a",
    ]
    assert main(args) == 0
    with pytest.raises(SystemExit, match="pass --resume"):
        main(args)


def test_resume_requires_a_run_id():
    with pytest.raises(SystemExit, match="--resume requires --run-id"):
        main(["sweep", "--designs", "fpu", "--resume"])


def test_fsck_command_reports_a_consistent_store(tmp_path, capsys):
    cache = str(tmp_path / "store")
    assert main([
        "sweep", "--designs", "fpu", "--cycles", "8", "-O1",
        "--cache-dir", cache,
    ]) == 0
    capsys.readouterr()
    assert main(["fsck", "--cache-dir", cache]) == 0
    assert "store is consistent" in capsys.readouterr().out

    assert main(["fsck", "--cache-dir", cache, "--stats", "json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["consistent"] is True
    assert payload["exit_code"] == 0
    assert payload["scanned"] >= 1


def test_fsck_flags_and_repairs_damage(tmp_path, capsys):
    import os

    cache = str(tmp_path / "store")
    assert main([
        "sweep", "--designs", "fpu", "--cycles", "8", "-O1",
        "--cache-dir", cache,
    ]) == 0
    capsys.readouterr()
    # Bit-rot one entry behind the store's back.
    victim = None
    for directory, _, files in os.walk(cache):
        for name in files:
            if name.endswith(".pkl") and "runs" not in directory:
                victim = f"{directory}/{name}"
                break
        if victim:
            break
    with open(victim, "ab") as handle:
        handle.write(b"bitrot")
    assert main(["fsck", "--cache-dir", cache]) == 1
    assert "corrupt_entry" in capsys.readouterr().out
    assert main(["fsck", "--cache-dir", cache, "--repair"]) == 0
    assert "quarantined" in capsys.readouterr().out
    assert main(["fsck", "--cache-dir", cache]) == 0


def test_chaos_sites_flag_requires_crash_mode():
    with pytest.raises(SystemExit, match="--sites only applies"):
        main(["chaos", "--sites", "proc.kill.write"])


# -- repro all's Figure 8 helper process ------------------------------------


@pytest.fixture
def short_figure8(monkeypatch):
    """Figure 8 over its first design only; a forked helper inherits the
    shortened list."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the helper inherits the shortened list only by fork")
    monkeypatch.setattr(figure8, "DESIGNS", figure8.DESIGNS[:1])


def _mask_ms(lines):
    """The shortened Figure 8's one row with its wall-clock cell starred
    out: the one cell a rerun may change."""
    row = re.escape(figure8.DESIGNS[0][0])
    return [
        re.sub(rf"^({row}\s+\d+\s+)\d+", r"\1*", line) for line in lines
    ]


def _table2_and_figure8(monkeypatch, capsys, cpus, *argv):
    """``_run_artifacts`` over Table 2 and Figure 8 as if ``cpus`` CPUs
    were usable: the masked tables and the ``--stats json`` payload."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    args = cli.build_parser().parse_args(["all", "--stats", "json", *argv])
    assert cli._run_artifacts(["table2", "figure8"], args) == 0
    assert multiprocessing.active_children() == []
    lines = capsys.readouterr().out.splitlines()
    return _mask_ms(lines[:-1]), json.loads(lines[-1])


def _counted(stats):
    """A ``--stats json`` payload less what may differ between a helper
    run and a sequential one: timers, the parse stage's counts and the
    cache directory."""
    cache = {
        "hits": stats["cache"]["hits"],
        "misses": stats["cache"]["misses"],
        "counters": stats["cache"]["counters"],
    }
    for field in ("hits", "misses"):
        cache[field] = {
            stage: count for stage, count in cache[field].items()
            if stage != "parse"
        }
    disk = {key: value for key, value in stats["disk"].items()
            if key != "dir"}
    return dict(stats, cache=cache, disk=disk)


def test_all_runs_figure8_in_a_helper_process(
    short_figure8, monkeypatch, capsys, tmp_path
):
    """With two CPUs Figure 8 runs in a helper process; the tables equal
    a one-CPU run's once its ms column is masked, and the merged stats
    count what the sequential run counts."""
    collected = []
    real_collect = cli._Figure8Helper.collect

    def collect(helper):
        collected.append(real_collect(helper))
        return collected[-1]

    monkeypatch.setattr(cli._Figure8Helper, "collect", collect)
    # Both runs solve from an empty verdict memo (the helper forks with
    # the one set here).
    monkeypatch.setattr(check, "_OBLIGATION_MEMO", {})
    helper_tables, helper_stats = _table2_and_figure8(
        monkeypatch, capsys, 2, "--cache-dir", str(tmp_path / "helper")
    )
    monkeypatch.setattr(check, "_OBLIGATION_MEMO", {})
    serial_tables, serial_stats = _table2_and_figure8(
        monkeypatch, capsys, 1, "--cache-dir", str(tmp_path / "serial")
    )
    assert len(collected) == 1 and collected[0] is not None
    assert "== figure8 ==" in helper_tables
    assert helper_tables == serial_tables
    assert helper_stats["typecheck"]["solver_queries"] > 0
    assert _counted(helper_stats) == _counted(serial_stats)


@pytest.mark.parametrize("failure", ["dies", "cannot start"])
def test_a_failed_helper_leaves_figure8_to_the_parent(
    short_figure8, monkeypatch, capsys, failure
):
    if failure == "dies":
        parent = os.getpid()
        real_build = figure8.build_rows

        def build_rows(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(13)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(figure8, "build_rows", build_rows)
    else:
        def refuse(*args, **kwargs):
            raise OSError(errno.EAGAIN, "no process for the helper")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", refuse)
    with pytest.warns(RuntimeWarning, match="figure8 helper process failed"):
        tables, stats = _table2_and_figure8(
            monkeypatch, capsys, 2, "--no-disk-cache"
        )
    assert tables.index("== table2 ==") < tables.index("== figure8 ==")
    assert any(line.startswith("RISC 3-stage Base") for line in tables)
    assert stats["faults"]["degrades"] == {"executor": 1}


def test_an_assertion_in_figure8_reaches_the_caller(
    short_figure8, monkeypatch, capsys
):
    def check_shape(rows):
        raise AssertionError("planted Figure 8 failure")

    monkeypatch.setattr(figure8, "check_shape", check_shape)
    with pytest.raises(AssertionError, match="planted Figure 8 failure"):
        _table2_and_figure8(monkeypatch, capsys, 2, "--no-disk-cache")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_failing_parent_kills_the_helper_instead_of_waiting(
    short_figure8, monkeypatch, capsys, error
):
    """An exception in the parent, or the KeyboardInterrupt a drain
    signal raises, stops a helper that would otherwise run a minute."""
    parent = os.getpid()
    real_build = figure8.build_rows

    def build_rows(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)
        return real_build(*args, **kwargs)

    def classify(*args, **kwargs):
        raise error("the parent fails")

    monkeypatch.setattr(figure8, "build_rows", build_rows)
    monkeypatch.setattr(table2, "classify", classify)
    started = time.perf_counter()
    with pytest.raises(error, match="the parent fails"):
        _table2_and_figure8(monkeypatch, capsys, 2, "--no-disk-cache")
    assert time.perf_counter() - started < 30
    assert multiprocessing.active_children() == []
