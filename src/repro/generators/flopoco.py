"""FloPoCo stand-in (section 2 and Figure 4 of the paper).

FloPoCo [de Dinechin & Pasca 2011] accepts a computation (add, multiply),
a bitwidth, and performance goals (target frequency, FPGA family) and
emits a pipelined latency-sensitive core, *reporting* the resulting
pipeline depth on its command line.  Changing the performance goals
changes the latency in ways the user cannot predict — the motivating
example for latency-abstract interfaces.

This stand-in reproduces that contract:

* ``FPAdd[#W]`` / ``FPMul[#W]`` produce genuinely pipelined integer
  datapaths (the paper's evaluation depends on pipeline structure, not on
  IEEE-754 semantics — see DESIGN.md substitutions);
* the pipeline depth is a function of bitwidth and target frequency;
* the depth is *scraped from the textual report* via the registry's
  binding-pattern mechanism, mirroring how Lilac's compiler integrates
  the real tool.

Latency model (calibrated so the paper's Table 1 design points are
reachable): at 100 MHz a 32-bit adder fits in one stage (A=1, M=1); at
400 MHz it needs four (A=4, M=2).
"""

from __future__ import annotations

from typing import Dict

from .base import GeneratedModule, Generator, GeneratorError
from .datapath import pipelined_adder, pipelined_multiplier


def adder_depth(width: int, frequency_mhz: int) -> int:
    """Pipeline depth FloPoCo would pick for an adder."""
    return max(1, round((width / 32) * (frequency_mhz / 100)))


def multiplier_depth(width: int, frequency_mhz: int) -> int:
    """Pipeline depth for a multiplier (DSP-assisted, so shallower)."""
    return max(1, round((width / 32) * (frequency_mhz / 200)))


class FloPoCoGenerator(Generator):
    name = "flopoco"
    binding_patterns = {"#L": r"Pipeline depth = (\d+)"}

    def __init__(self, frequency_mhz: int = 400, target: str = "Virtex6"):
        if frequency_mhz < 1:
            raise GeneratorError("target frequency must be positive")
        self.frequency_mhz = frequency_mhz
        self.target = target

    def generate(self, comp_name: str, params: Dict[str, int]) -> GeneratedModule:
        width = params.get("#W")
        if width is None or width < 1:
            raise GeneratorError(f"flopoco: {comp_name} needs parameter #W >= 1")
        if comp_name == "FPAdd":
            depth = adder_depth(width, self.frequency_mhz)
            module = pipelined_adder(
                f"FPAdd_W{width}_F{self.frequency_mhz}", width, depth
            )
            operator = "FPAdd"
        elif comp_name == "FPMul":
            depth = multiplier_depth(width, self.frequency_mhz)
            module = pipelined_multiplier(
                f"FPMul_W{width}_F{self.frequency_mhz}", width, depth
            )
            operator = "FPMult"
        else:
            raise GeneratorError(f"flopoco: unknown operator {comp_name!r}")
        report = self._report(operator, width, depth)
        return GeneratedModule(module, report=report)

    def _report(self, operator: str, width: int, depth: int) -> str:
        return "\n".join(
            [
                "FloPoCo 4.1 (reproduction stand-in)",
                f"> {operator} we=8 wf={width} "
                f"frequency={self.frequency_mhz} target={self.target}",
                f"  Entity {operator}_{width}_F{self.frequency_mhz}",
                f"  Pipeline depth = {depth}",
                "  Output file: flopoco.vhdl",
            ]
        )
