"""The repository benchmark: ``repro all`` cold and warm, and the engine sweep.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop with a single client):

* ``paper-cold`` — ``repro all -O2`` in a fresh process on an empty
  private cache directory, CLI defaults otherwise;
* ``paper-warm`` — the same command against a cache that set-up filled
  with one untimed cold run (runnable, but not listed in
  ``BENCHMARK.json``: see the README);
* ``sim-sweep`` — one process, no disk cache: the six catalog designs
  at ``-O2`` through the ``compiled``, ``batched`` and ``vector``
  engines (see ``simsweep.py``).

Every child runs from the checkout's ``src/`` with no ``REPRO_*``
variable in its environment, and everything the run writes lives under
``perfbench/work`` (removed at exit) and ``perfbench/results``.  The
last line of standard output is the JSON result: end-to-end metrics
with ``--trace 0``, per-layer metrics (see ``spans.py``) with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("paper-cold", "paper-warm", "sim-sweep")
ENGINES = ("compiled", "batched", "vector")

#: end-to-end metric -> unit; every workload reports every one.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"sim.{engine}.lane_cycles_per_s": "lane-cycles/s" for engine in ENGINES},
}

#: A paper workload runs at least this many timed invocations, and
#: ``sim-sweep`` at least this many passes.
MIN_INVOCATIONS = MIN_PASSES = 3
#: Set-up repetitions whose median is ``setup_s`` (the cache fill of
#: ``paper-warm`` runs once: it is a whole cold invocation).
SETUP_REPEATS = 3
#: Engine-sweep passes a paper run interleaves with its invocations for
#: the ``sim.*`` metrics.
PROBE_PASSES = 6
#: Per-child wall-clock bound; a child past it is killed and fails.
CHILD_TIMEOUT = 150.0

ARTIFACT_NAMES = ("ablation", "figure13", "figure8", "table1", "table2", "table3")
#: Table columns holding wall-clock measurements, masked before comparing.
WALL_CLOCK_COLUMNS = ("Time (ms)", "Sim speedup")


class Child:
    """One finished child process: wall seconds, peak RSS and output."""

    def __init__(self, seconds: float, rss_mb: float, code: int, out: str):
        self.seconds = seconds
        self.rss_mb = rss_mb
        self.code = code
        self.out = out

    def last_json(self) -> Optional[dict]:
        return last_json(self.out)


def last_json(text: str) -> Optional[dict]:
    """The last line of ``text`` that starts with ``{``, parsed."""
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


class Bench:
    """One benchmark run's private work area, environment and children."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(HERE, "work", f"{workload}-{os.getpid()}")
        self.results = os.path.join(HERE, "results")
        self._serial = 0
        os.makedirs(os.path.join(self.work, "tmp"), exist_ok=True)
        os.makedirs(self.results, exist_ok=True)
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key != "PYTHONPATH"
        }
        self.env["PYTHONPATH"] = SRC
        self.env["TMPDIR"] = os.path.join(self.work, "tmp")

    def path(self, name: str) -> str:
        self._serial += 1
        return os.path.join(self.work, f"{self._serial:04d}-{name}")

    def run(self, argv: List[str]) -> Child:
        """Run ``argv`` to completion; its peak RSS comes from wait4."""
        out_path = self.path("stdout")
        with open(out_path, "wb") as out, open(self.path("stderr"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, errors="replace") as handle:
            text = handle.read()
        return Child(seconds, usage.ru_maxrss / 1024.0, code, text)

    def cache_dir(self) -> str:
        path = self.path("cache")
        os.makedirs(path)
        return path

    def repro_all(self, cache: str) -> Child:
        return self.run(
            [sys.executable, "-m", "repro", "all", "-O2", "--cache-dir", cache]
        )

    def warm_up(self) -> Child:
        """Bytecode-compile the package and import the CLI in a fresh
        interpreter, so no timed invocation pays first-run compilation."""
        compiled = self.run([sys.executable, "-m", "compileall", "-q", "src/repro"])
        imported = self.run(
            [sys.executable, "-c", "import repro.driver.cli, repro.evalx"]
        )
        if compiled.code or imported.code:
            raise SystemExit("set-up failed: the package does not import")
        return Child(compiled.seconds + imported.seconds, 0.0, 0, "")

    def engines(self) -> "Engines":
        return Engines(self, [
            sys.executable, os.path.join(HERE, "simsweep.py"),
            "--seed", str(self.seed),
        ])

    def spans_path(self) -> str:
        return os.path.join(
            self.results, f"{self.workload}-seed{self.seed}-spans.json"
        )

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


class Engines:
    """The engine-sweep child (``simsweep.py``), one command at a time.

    The child is idle between commands, so its passes can be spread over
    a paper run's invocations.
    """

    def __init__(self, bench: Bench, argv: List[str]):
        with open(bench.path("stderr"), "wb") as err:
            self.proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err, env=bench.env, cwd=ROOT, text=True,
            )
        self.watchdog = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        self.watchdog.start()
        self.alive = True

    def request(self, command: str) -> Optional[dict]:
        """Send ``setup`` or ``pass``; the child's reply, or None once
        the child has died."""
        if self.alive:
            try:
                self.proc.stdin.write(command + "\n")
                self.proc.stdin.flush()
                reply = last_json(self.proc.stdout.readline())
            except OSError:
                reply = None
            self.alive = reply is not None
            return reply
        return None

    def finish(self) -> Tuple[dict, float]:
        """End the session: the child's operation counts ({} if it
        failed) and its peak RSS in MB."""
        try:
            self.proc.stdin.close()
            out = self.proc.stdout.read()
        except OSError:
            out = ""
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.close()
        counts = last_json(out) if self.alive and self.proc.returncode == 0 else None
        return counts or {}, usage.ru_maxrss / 1024.0

    def close(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.watchdog.cancel()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class EngineRates:
    """Per-pair lane-cycles/s samples from the sweep child's pass replies
    (already scaled to the reference host speed, see ``simsweep.py``)."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {}
        self.failed_pairs = set()
        self.factors: List[Dict[str, float]] = []
        self.passes = 0

    def add(self, reply: dict) -> None:
        self.passes += 1
        self.factors.append(reply["factors"])
        for key, rate in reply["rates"].items():
            if rate is None:
                self.failed_pairs.add(key)
            else:
                self.samples.setdefault(key, []).append(rate)

    def rates(self) -> Dict[str, float]:
        """Engine -> geomean over designs of each pair's median rate.

        An engine with any failed or fallen-back run is left out: its
        number would not be that engine's.
        """
        rates = {}
        for engine in ENGINES:
            keys = [key for key in self.samples if key.endswith("/" + engine)]
            if not keys or any(key.endswith("/" + engine) for key in self.failed_pairs):
                continue
            logs = [math.log(statistics.median(self.samples[key])) for key in keys]
            rates[engine] = math.exp(sum(logs) / len(logs))
        return rates

    def pass_seconds(self) -> float:
        """One pass with every pair at its median rate."""
        from simsweep import ENGINE_SHAPES

        total = 0.0
        for key, samples in self.samples.items():
            lanes, cycles = ENGINE_SHAPES[key.split("/")[1]]
            total += lanes * cycles / statistics.median(samples)
        return total


def masked_tables(stdout: str) -> List[str]:
    """The rendered artifacts of a ``repro all`` run, wall-clock masked.

    Keeps every line before the trailing cache statistics; in each
    table, cells under a :data:`WALL_CLOCK_COLUMNS` header become ``*``.
    """
    lines = stdout.splitlines()
    if "cache statistics:" in lines:
        lines = lines[: lines.index("cache statistics:")]
    masked, columns = [], []
    for index, line in enumerate(lines):
        rule = lines[index + 1] if index + 1 < len(lines) else ""
        if not line.strip():
            columns = []
        elif rule.strip() and set(rule.replace(" ", "")) == {"-"}:
            columns = [
                match.span()
                for match in re.finditer(r"-+", rule)
                if line[match.start():match.end()].strip() in WALL_CLOCK_COLUMNS
            ]
        elif columns and set(line.replace(" ", "")) != {"-"}:
            for start, end in columns:
                line = line[:start] + "*" * (end - start) + line[end:]
        masked.append(line)
    return masked


def paper_ok(child: Child, reference: Optional[List[str]]) -> bool:
    """Exit 0 (every artifact's ``check_shape`` held), no ``degrade.*``
    counter (the run did not fall back to another engine, executor or a
    memory-only cache), every artifact rendered, and the tables equal to
    ``reference`` when given."""
    if child.code != 0:
        return False
    if any(line.strip().startswith("degrade.") for line in child.out.splitlines()):
        return False
    tables = masked_tables(child.out)
    if any(f"== {name} ==" not in tables for name in ARTIFACT_NAMES):
        return False
    return reference is None or tables == reference


def tree_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                pass
    return total


class Outcome:
    """Operation counts, metric values and the record written at the end."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.record: Dict[str, object] = {}

    def op(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += 0 if ok else 1
        return ok

    def add_counts(self, counts: dict) -> None:
        """Fold in a child's operation counts; no counts is a failure."""
        if not counts:
            self.op(False)
            return
        self.attempted += counts["attempted"]
        self.failed += counts["failed"]

    def add_engines(self, engines: "Engines", rates: EngineRates) -> float:
        """Close the engine sweep; returns its peak RSS in MB."""
        counts, rss_mb = engines.finish()
        self.add_counts(counts)
        for engine, rate in rates.rates().items():
            self.metrics[f"sim.{engine}.lane_cycles_per_s"] = rate
        self.record["engine_samples"] = rates.samples
        self.record["host_factors"] = rates.factors
        return rss_mb


def paper(bench: Bench, outcome: Outcome, warm: bool, seconds: float) -> None:
    setup = statistics.median(
        bench.warm_up().seconds for _ in range(SETUP_REPEATS)
    )
    reference = None
    cache = None
    if warm:
        cache = bench.cache_dir()
        fill = bench.repro_all(cache)
        setup += fill.seconds
        if outcome.op(paper_ok(fill, None)):
            reference = masked_tables(fill.out)
    walls, rss = [], []
    engines = bench.engines()
    rates = EngineRates()
    try:
        engines.request("setup")
        interval = seconds / PROBE_PASSES
        start = last_pass = time.perf_counter()
        deadline = start + seconds
        while len(walls) < MIN_INVOCATIONS or time.perf_counter() < deadline:
            target = cache if warm else bench.cache_dir()
            child = bench.repro_all(target)
            if outcome.op(paper_ok(child, reference)):
                walls.append(child.seconds)
                rss.append(child.rss_mb)
                if reference is None:
                    reference = masked_tables(child.out)
            if not warm:
                shutil.rmtree(target, ignore_errors=True)
            now = time.perf_counter()
            if now - last_pass >= interval and rates.passes < PROBE_PASSES:
                engine_pass(engines, rates)
                # Engine passes do not eat into the invocations' budget.
                last_pass = time.perf_counter()
                deadline += last_pass - now
        while rates.passes < PROBE_PASSES and engine_pass(engines, rates):
            pass
        outcome.add_engines(engines, rates)
    finally:
        engines.close()
    outcome.metrics["setup_s"] = setup
    if walls:
        # The fastest invocation: host contention only ever slows an
        # invocation down.
        outcome.metrics["wall_s"] = min(walls)
        outcome.metrics["peak_rss_mb"] = statistics.median(rss)
    outcome.record.update(walls=walls, rss_mb=rss)


def engine_pass(engines: Engines, rates: EngineRates) -> bool:
    """One timed engine pass; False once the sweep child has died."""
    reply = engines.request("pass")
    if reply is None:
        return False
    rates.add(reply)
    return True


def paper_traced(bench: Bench, outcome: Outcome, warm: bool) -> None:
    bench.warm_up()
    first = bench.cache_dir()
    reference = None
    if warm:
        fill = bench.repro_all(first)
        if outcome.op(paper_ok(fill, None)):
            reference = masked_tables(fill.out)
    untraced = bench.repro_all(first)
    if outcome.op(paper_ok(untraced, reference)) and reference is None:
        reference = masked_tables(untraced.out)
    cache = first if warm else bench.cache_dir()
    traced = bench.run([
        sys.executable, os.path.join(HERE, "spans.py"),
        "--cache-dir", cache, "--spans", bench.spans_path(),
    ])
    result = traced.last_json() if traced.code == 0 else None
    if not outcome.op(
        result is not None
        and result["exit"] == 0
        and masked_tables(traced.out) == reference
    ):
        return
    metrics = result["metrics"]
    metrics["disk.bytes"] = tree_bytes(cache)
    metrics["trace.overhead_s"] = traced.seconds - untraced.seconds
    metrics["trace.uncovered_s"] = untraced.seconds - (
        metrics["import.s"]
        + sum(metrics[f"artifact.{name}.s"] for name in ARTIFACT_NAMES)
    )
    outcome.metrics.update(metrics)


def sim_sweep(bench: Bench, outcome: Outcome, seconds: float) -> None:
    engines = bench.engines()
    rates = EngineRates()
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            reply = engines.request("setup")
            if reply is not None:
                setups.append(reply["seconds"])
        deadline = time.perf_counter() + seconds
        while rates.passes < MIN_PASSES or time.perf_counter() < deadline:
            if not engine_pass(engines, rates):
                break
        rss_mb = outcome.add_engines(engines, rates)
    finally:
        engines.close()
    if setups and rates.samples:
        outcome.metrics["setup_s"] = statistics.median(setups)
        outcome.metrics["wall_s"] = rates.pass_seconds()
        outcome.metrics["peak_rss_mb"] = rss_mb
    outcome.record["setups"] = setups


def sim_sweep_traced(bench: Bench, outcome: Outcome) -> None:
    child = bench.run([
        sys.executable, os.path.join(HERE, "simsweep.py"),
        "--seed", str(bench.seed), "--trace", "--spans", bench.spans_path(),
    ])
    result = (child.last_json() if child.code == 0 else None) or {}
    outcome.add_counts(result)
    outcome.metrics.update(result.get("metrics", {}))


def host(seed: int) -> dict:
    from simsweep import numpy_version

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            probe = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True,
            )
            commit = probe.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2

    from spans import PER_LAYER

    # SIGTERM unwinds like Ctrl-C, so running children are killed and
    # the work area removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(args.workload, args.seed)
    outcome = Outcome()
    try:
        if args.workload == "sim-sweep":
            if args.trace:
                sim_sweep_traced(bench, outcome)
            else:
                sim_sweep(bench, outcome, args.seconds)
        else:
            warm = args.workload == "paper-warm"
            if args.trace:
                paper_traced(bench, outcome, warm)
            else:
                paper(bench, outcome, warm, args.seconds)
    finally:
        bench.close()

    units = dict(PER_LAYER) if args.trace else END_TO_END
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit in units.items()
        if name in outcome.metrics
    }
    if not outcome.attempted:
        outcome.op(False)
    fingerprint = host(args.seed)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(bench.results, name), "w") as handle:
        json.dump(
            {"workload": args.workload, "host": fingerprint,
             "metrics": metrics, "attempted": outcome.attempted,
             "failed": outcome.failed, **outcome.record},
            handle, indent=1,
        )
    print(json.dumps({"host": fingerprint}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
