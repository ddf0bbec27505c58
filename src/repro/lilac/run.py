"""Transaction-level harness for simulating elaborated designs.

An elaborated component has a static schedule: inputs are required in
known cycle windows relative to each ``go`` event, outputs appear at known
offsets, and events may fire every ``delay`` (initiation interval) cycles.
The runner drives the RTL simulator accordingly, so tests and examples can
speak in terms of transactions rather than cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..rtl import Simulator
from .elaborate.elaborator import ElabResult

Value = Union[int, Sequence[int]]


def pack_elements(values: Sequence[int], width: int) -> int:
    """Pack per-element values into one wide integer (element 0 at LSB)."""
    packed = 0
    mask = (1 << width) - 1
    for index, value in enumerate(values):
        packed |= (int(value) & mask) << (index * width)
    return packed


def unpack_elements(packed: int, width: int, size: int) -> List[int]:
    mask = (1 << width) - 1
    return [(packed >> (index * width)) & mask for index in range(size)]


class TransactionRunner:
    """Feeds transactions into an elaborated design and collects results."""

    def __init__(self, elab: ElabResult):
        self.elab = elab
        self.simulator = Simulator(elab.module)
        self.go_name = elab.go_port or "go"

    def run(
        self, transactions: List[Dict[str, Value]], spacing: Optional[int] = None
    ) -> List[Dict[str, Value]]:
        """Run transactions spaced ``spacing`` (default: the design's II).

        Each transaction maps input port names to values (lists for array
        ports).  Returns one output map per transaction, with array ports
        unpacked back into lists.
        """
        elab = self.elab
        interval = spacing if spacing is not None else elab.delay
        if interval < elab.delay:
            raise ValueError(
                f"spacing {interval} below initiation interval {elab.delay}"
            )
        data_inputs = [p for p in elab.inputs if not p.interface]
        data_outputs = [p for p in elab.outputs if not p.interface]
        events = [i * interval for i in range(len(transactions))]
        max_output = max((p.end for p in data_outputs), default=1)
        total_cycles = (events[-1] if events else 0) + max_output + 1

        # Schedule of input values per cycle.
        drive: List[Dict[str, int]] = [dict() for _ in range(total_cycles)]
        for event, txn in zip(events, transactions):
            drive[event][self.go_name] = 1
            for port in data_inputs:
                if port.name not in txn:
                    raise ValueError(
                        f"transaction missing input {port.name!r}"
                    )
                value = txn[port.name]
                if port.size is not None:
                    if not isinstance(value, (list, tuple)):
                        raise ValueError(
                            f"input {port.name!r} is an array port; "
                            "provide a list"
                        )
                    if len(value) != port.size:
                        raise ValueError(
                            f"input {port.name!r} expects {port.size} "
                            f"elements, got {len(value)}"
                        )
                    packed = pack_elements(value, port.width)
                else:
                    packed = int(value)
                for cycle in range(event + port.start, event + port.end):
                    drive[cycle][port.name] = packed

        # Run the clock and sample outputs at their scheduled cycles.
        sample_at: Dict[int, List[int]] = {}
        for index, event in enumerate(events):
            for port in data_outputs:
                sample_at.setdefault(event + port.start, []).append(index)
        results: List[Dict[str, Value]] = [dict() for _ in transactions]
        for cycle in range(total_cycles):
            inputs = {self.go_name: 0}
            inputs.update(drive[cycle])
            self.simulator.poke(inputs)
            self.simulator.evaluate()
            for txn_index in sample_at.get(cycle, ()):  # sample outputs
                event = events[txn_index]
                for port in data_outputs:
                    if event + port.start != cycle:
                        continue
                    raw = self.simulator.peek(port.name)
                    if port.size is not None:
                        results[txn_index][port.name] = unpack_elements(
                            raw, port.width, port.size
                        )
                    else:
                        results[txn_index][port.name] = raw
            self.simulator.tick()
        return results
