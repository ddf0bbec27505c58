"""The solver's search is pinned, step for step.

Constant-factor work on the solver (term hashing, the Omega test's
bookkeeping) must not change which variable it eliminates, which cores
it derives or which clauses it learns.  Each corpus below is discharged
from a cold state, and two fingerprints must equal the pinned ones:

* the sha256 of every discharge's ``(status, sorted model)``, in order;
* the full :func:`repro.smt.stats_snapshot` counters.

The corpora:

* ``rejected``: every source ``tests/lilac/test_typecheck.py`` rejects,
  whose counterexamples come from the incremental engine;
* ``catalog``: the risc and fft catalog designs with the standard
  library (incremental engine, every verdict ``unsat``);
* ``queries``: a seeded batch of ``check_sat``/``prove`` queries over
  the brute-force oracle's box, drawn like its formulas
  (``tests/smt/test_solver.py``), through the one-shot engine.

CI runs this module again under two ``PYTHONHASHSEED`` values, so a
model that depends on set iteration order fails there.  A change that
alters the search on purpose re-pins: print the new table with
``PYTHONPATH=src python -m tests.smt.test_search_pins``, paste it over
``PINS`` and say so in CHANGES.md.
"""

import hashlib
import json
import random

import pytest

from repro import smt
from repro.designs.fft import FFT_LILAC
from repro.designs.risc import RISC_SOURCE
from repro.lilac.stdlib import stdlib_program
from repro.lilac.typecheck import check as typecheck
from tests.lilac.test_typecheck import REJECTED
from tests.smt.test_solver import _BOX, _RELATIONS, _term

#: corpus -> (sha256 prefix of the discharges, solver counters).
PINS = {
    "rejected": (
        "ebbdb2b6871351ec",
        {
            "minimize.certificate": 3,
            "minimize.check": 3,
            "minimize.memo_hit": 1,
            "query": 19,
            "query.incremental": 19,
            "theory.check": 20,
            "theory.conflict": 6,
            "theory.memo_hit": 2,
        },
    ),
    "catalog": (
        "6741daa96f91ac79",
        {
            "minimize.certificate": 35,
            "minimize.check": 110,
            "minimize.memo_hit": 3,
            "query": 45,
            "query.incremental": 45,
            "theory.check": 183,
            "theory.conflict": 46,
            "theory.memo_hit": 7,
        },
    ),
    "queries": (
        "a2fa7d9e8f47f6cb",
        {
            "minimize.certificate": 88,
            "minimize.check": 414,
            "query": 200,
            "theory.check": 935,
            "theory.conflict": 103,
            "theory.memo_hit": 308,
        },
    ),
}


def _typecheck(sources):
    """Check ``(source, component)`` pairs (None: the whole program) and
    return every discharge's ``[status, sorted model]``."""
    pairs = []
    discharge = typecheck.ComponentChecker._cached_discharge

    def recording(self, assertions, solve):
        result = discharge(self, assertions, solve)
        pairs.append([result.status, sorted((result.model or {}).items())])
        return result

    typecheck.ComponentChecker._cached_discharge = recording
    try:
        for source, component in sources:
            program = stdlib_program(source)
            if component is None:
                typecheck.check_program(program, raise_on_error=False)
            else:
                typecheck.check_component(program, component)
    finally:
        typecheck.ComponentChecker._cached_discharge = discharge
    return pairs


def _draw(rng, leaves):
    """A formula in the oracle's shape: linear atoms over x, y, z with
    coefficients in [-3, 3] and constants in [-6, 6], joined by
    not/and/or/implies."""
    if rng.random() < 0.2:
        return ("not", _draw(rng, leaves))
    if leaves == 1:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(3))
        relation = rng.choice(sorted(_RELATIONS))
        return ("atom", (coeffs, relation, rng.randint(-6, 6)))
    left = rng.randint(1, leaves - 1)
    kind = rng.choice(("and", "or", "implies"))
    return (kind, _draw(rng, left), _draw(rng, leaves - left))


def _queries(count=200, seed=2024):
    rng = random.Random(seed)
    pairs = []
    for index in range(count):
        term = _term(_draw(rng, rng.randint(1, 5)))
        if index % 2:
            result = smt.prove(term, *_BOX)
        else:
            result = smt.check_sat(*_BOX, term)
        pairs.append([result.status, sorted((result.model or {}).items())])
    return pairs


CORPORA = {
    "rejected": lambda: _typecheck(REJECTED),
    "catalog": lambda: _typecheck([(RISC_SOURCE, None), (FFT_LILAC, None)]),
    "queries": _queries,
}


def fingerprint(corpus):
    """Discharge ``corpus`` from a cold state: (digest, counters)."""
    smt.clear_solver_caches()
    smt.reset_stats()
    typecheck.clear_obligation_memo()
    pairs = CORPORA[corpus]()
    text = json.dumps(pairs)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return digest, dict(sorted(smt.stats_snapshot().items()))


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_search_is_pinned(corpus):
    digest, counters = fingerprint(corpus)
    pinned_digest, pinned_counters = PINS[corpus]
    assert counters == pinned_counters, (
        f"{corpus}: the solver's counters moved; the search changed"
    )
    assert digest == pinned_digest, (
        f"{corpus}: the discharges hash to {digest}, not the pinned "
        f"{pinned_digest}; a verdict or a model changed"
    )


if __name__ == "__main__":
    print("PINS = {")
    for corpus in CORPORA:
        digest, counters = fingerprint(corpus)
        print(f'    "{corpus}": (')
        print(f'        "{digest}",')
        print("        {")
        for name, count in counters.items():
            print(f'            "{name}": {count},')
        print("        },")
        print("    ),")
    print("}")
