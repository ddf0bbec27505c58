"""Checks on the benchmark itself: its output checks, masking and spans.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import simsweep
import spans

HERE = os.path.dirname(os.path.abspath(__file__))


def _sweep(engines):
    sweep = simsweep.Sweep(["risc"], engines, seed=7)
    sweep.setup()
    return sweep


def test_sweep_agrees_with_interpreter():
    sweep = _sweep(["compiled", "batched"])
    reply = sweep.one_pass()
    assert sweep.failed == 0
    rates = run.EngineRates()
    rates.add(reply)
    assert set(rates.rates()) == {"compiled", "batched"}


@pytest.mark.parametrize("lane", [0, 1])
def test_corrupted_reference_reports_failure_not_a_number(lane):
    sweep = _sweep(["batched"])
    (pair,) = sweep.pairs
    checked = pair.checked[lane]
    trace = pair.expected[checked]
    trace[-1] = {name: value ^ 1 for name, value in trace[-1].items()}
    reply = sweep.one_pass()
    assert sweep.failed == 1 and reply["rates"][pair.key] is None
    rates = run.EngineRates()
    rates.add(reply)
    assert "batched" not in rates.rates()


def test_host_factor_is_positive():
    assert simsweep.host_factor() > 0


def test_fallen_back_engine_is_not_reported_as_requested():
    sweep = _sweep(["batched"])
    (pair,) = sweep.pairs
    assert simsweep.landed_on("batched", simsweep.make_engine("batched", pair.module))
    assert not simsweep.landed_on(
        "batched", simsweep.make_engine("compiled", pair.module)
    )


FIGURE8 = """== figure8 ==
Design             Lines  Time (ms)  Status
-----------------  -----  ---------  ------
RISC 3-stage Base  55     {ms:<9}  ok

cache statistics:
  parse  1 hits
"""


def test_masked_tables_ignore_wall_clock_only():
    cold = run.masked_tables(FIGURE8.format(ms=57))
    assert cold == run.masked_tables(FIGURE8.format(ms=4498))
    assert "cache statistics:" not in cold
    changed = FIGURE8.format(ms=57).replace("55 ", "56 ")
    assert run.masked_tables(changed) != cold


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        tracer.call(("inner",), inner)
        time.sleep(0.01)

    tracer.call(("outer",), outer)
    assert tracer.self_s["inner"] == pytest.approx(tracer.total_s["inner"])
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total_s["outer"] - tracer.total_s["inner"]
    )
    (child, parent) = tracer.spans
    assert child[1] == parent[0]


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == dict(
        spans.PER_LAYER
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
