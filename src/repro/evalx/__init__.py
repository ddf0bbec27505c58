"""Evaluation harness: regenerates every table and figure in the paper.

Every artifact module exposes the same surface:

* ``build_rows(...)`` / ``classify(...)`` — compute the rows, accepting
  an optional shared :class:`~repro.driver.CompileSession` (and, for the
  grid-shaped artifacts, a worker count for the
  :class:`~repro.driver.EvalGrid`);
* ``render(rows)`` — the formatted table;
* ``check_shape(rows)`` — assert the paper's relative claims;
* ``run(session=None, workers=None)`` — build + check + render in one
  call (what ``python -m repro table/figure/all`` invokes via
  :func:`run_artifact`); artifacts without a grid accept and ignore
  ``workers``.
"""

from typing import Optional

from . import ablation, figure8, figure13, table1, table2, table3

#: name → module, for the CLI and for sweep-everything helpers.
ARTIFACTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "figure8": figure8,
    "figure13": figure13,
    "ablation": ablation,
}


def run_artifact(
    name: str, session=None, workers: Optional[int] = None
) -> str:
    """Build, shape-check and render one table/figure by name."""
    module = ARTIFACTS.get(name)
    if module is None:
        raise KeyError(
            f"unknown artifact {name!r}; available: {sorted(ARTIFACTS)}"
        )
    return module.run(session=session, workers=workers)


__all__ = [
    "ARTIFACTS",
    "ablation",
    "figure8",
    "figure13",
    "run_artifact",
    "table1",
    "table2",
    "table3",
]
