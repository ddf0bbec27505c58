"""The netlist optimization pass framework.

A :class:`Pass` is an in-place netlist transformation; a
:class:`PassManager` runs an ordered pipeline of them over an
:class:`~repro.rtl.Module`, recording per-pass wall-clock time and
cell/net deltas as :class:`PassStats`, and (optionally) re-checking
netlist integrity after every pass so a buggy transformation fails
loudly at the pass that broke the design rather than cycles later in
simulation.

Pipelines are identified by a value-based :meth:`PassManager.fingerprint`
— the ordered tuple of each pass's ``name@version`` — which the compile
driver folds into its artifact cache keys: changing the pipeline (a new
pass, a reordering, a version bump after fixing a pass) invalidates
exactly the artifacts that depended on it.

Standard pipelines are selected by optimization level, mirroring
compiler drivers:

* ``-O0`` — no passes (the netlist exactly as lowered);
* ``-O1`` — constant folding + dead-cell elimination;
* ``-O2`` — ``-O1`` plus common-cell sharing and delay-buffer
  coalescing (sharing runs twice: coalescing canonicalizes buffer and
  delay structure, which exposes a second round of sharing).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from ..netlist import Module, NetlistError, comb_topo_order  # noqa: F401
# (comb_topo_order is re-exported: it is part of the pass-author API.)

#: Optimization levels understood by :func:`pipeline_for_level`.
OPT_LEVELS = (0, 1, 2)


class Pass:
    """Base class for netlist transformations.

    Subclasses set :attr:`name` (stable, kebab-case) and bump
    :attr:`version` whenever their behaviour changes — the pair is the
    pass's contribution to the pipeline fingerprint, i.e. its cache
    epoch.
    """

    name = "pass"
    version = 1

    def run(self, module: Module) -> None:
        raise NotImplementedError

    def fingerprint(self) -> str:
        return f"{self.name}@{self.version}"

    def __repr__(self):
        return f"{type(self).__name__}()"


class PassStats:
    """What one pass did to one module: time and size deltas."""

    __slots__ = (
        "name",
        "seconds",
        "cells_before",
        "cells_after",
        "nets_before",
        "nets_after",
    )

    def __init__(
        self,
        name: str,
        seconds: float,
        cells_before: int,
        cells_after: int,
        nets_before: int,
        nets_after: int,
    ):
        self.name = name
        self.seconds = seconds
        self.cells_before = cells_before
        self.cells_after = cells_after
        self.nets_before = nets_before
        self.nets_after = nets_after

    @property
    def cells_removed(self) -> int:
        return self.cells_before - self.cells_after

    @property
    def nets_removed(self) -> int:
        return self.nets_before - self.nets_after

    def to_dict(self) -> Dict[str, object]:
        return {
            "pass": self.name,
            "seconds": self.seconds,
            "cells_before": self.cells_before,
            "cells_after": self.cells_after,
            "nets_before": self.nets_before,
            "nets_after": self.nets_after,
        }

    def __repr__(self):
        return (
            f"PassStats({self.name}: {self.cells_before}->{self.cells_after} "
            f"cells, {self.seconds * 1000.0:.2f}ms)"
        )


def check_module(module: Module) -> None:
    """Netlist integrity: single drivers everywhere, no dangling pins."""
    module.validate()
    known = set(module.nets.values())
    for cell in module.cells.values():
        for pin, net in cell.pins.items():
            if net not in known:
                raise NetlistError(
                    f"{module.name}: cell {cell.name!r} pin {pin!r} wired to "
                    f"net {net.name!r} that is not in the module"
                )


class PassManager:
    """Runs an ordered pass pipeline over a module, with accounting."""

    def __init__(self, passes: Sequence[Pass] = (), check_integrity: bool = True):
        self.passes = list(passes)
        self.check_integrity = check_integrity

    def fingerprint(self) -> Tuple:
        """Value-based pipeline identity for artifact cache keys."""
        return ("pipeline",) + tuple(p.fingerprint() for p in self.passes)

    def run(self, module: Module) -> List[PassStats]:
        """Run every pass in order, in place.  Returns per-pass stats."""
        if self.check_integrity and self.passes:
            check_module(module)  # garbage in, garbage blamed on a pass
        stats: List[PassStats] = []
        for pass_ in self.passes:
            cells_before = len(module.cells)
            nets_before = len(module.nets)
            start = time.perf_counter()
            pass_.run(module)
            seconds = time.perf_counter() - start
            if self.check_integrity:
                try:
                    check_module(module)
                except NetlistError as error:
                    raise NetlistError(
                        f"pass {pass_.name!r} corrupted {module.name}: {error}"
                    ) from error
            stats.append(
                PassStats(
                    pass_.name,
                    seconds,
                    cells_before,
                    len(module.cells),
                    nets_before,
                    len(module.nets),
                )
            )
        return stats


def pipeline_for_level(
    level: int, check_integrity: bool = True
) -> PassManager:
    """The standard ``-O<level>`` pipeline (see module docstring)."""
    from .constant_fold import ConstantFold
    from .dce import DeadCellElim
    from .delay_coalesce import DelayCoalesce
    from .share import CommonCellSharing

    if level not in OPT_LEVELS:
        raise ValueError(
            f"unknown optimization level {level!r}; choose from {OPT_LEVELS}"
        )
    if level == 0:
        passes: List[Pass] = []
    elif level == 1:
        passes = [ConstantFold(), DeadCellElim()]
    else:
        passes = [
            ConstantFold(),
            CommonCellSharing(),
            DelayCoalesce(),
            CommonCellSharing(),
            DeadCellElim(),
        ]
    return PassManager(passes, check_integrity=check_integrity)
