"""The ``python -m repro`` command-line front door."""

import json

import pytest

from repro.driver.cli import main


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
    assert "Sim speedup" in out
    assert "NO" not in out  # every design differentially equivalent
    assert "pass statistics" in out


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_sim_lanes_flag_reaches_the_session(capsys):
    assert main([
        "table", "3", "--sim-lanes", "4", "--sim-backend", "compiled",
        "--stats", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["sim_lanes"] == 4
    assert payload["sim_backend"] == "compiled"


def test_ablation_with_lanes_and_process_executor(capsys):
    assert main([
        "ablation", "--workers", "2", "--executor", "process",
        "--sim-lanes", "2", "--sim-backend", "compiled",
    ]) == 0
    out = capsys.readouterr().out
    assert "Lanes" in out
    assert "NO" not in out  # batched lanes bit-identical everywhere


def test_executor_flag_rejects_unknown_pool():
    with pytest.raises(SystemExit):
        main(["ablation", "--executor", "fiber"])


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


def test_stats_json_surfaces_tuner_counters(capsys):
    assert main(["compile", "--design", "fpu", "-O2", "--stats", "json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["opt_level"] == 2
    assert "profile" not in payload
    # The tuner section is always present, even when the static
    # backend choice never consulted it.
    assert set(payload["tuner"]) >= {"disk_hits", "resolve_seconds",
                                     "chosen"}
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
    # The journal bracketed every publish.
    assert payload["cache"]["counters"]["journal.begin"] >= 1

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
