"""Canonical forms for proof obligations: alpha-renaming + digests.

The type checker discharges hundreds of obligations whose assertion sets
differ only in machine-generated variable names (renamed loop indices
``k'12`` vs ``k'15``, fresh bundle-read indices, …).  Canonicalizing a
query — sorting its conjuncts by a variable-blind skeleton, renaming
variables positionally, and hashing the result — collapses such
alpha-variants onto one digest, which keys both the in-process verdict
memo and the persistent verdict store (the ``"smt"``
:class:`~repro.driver.cache.PseudoStore` of the disk cache).

The collapse is *best-effort*, not a decision procedure for
alpha-equivalence: skeleton-equal conjuncts tie-break on their original
(rename-sensitive) text, so pathological queries can land on different
digests despite being alpha-equivalent.  That direction is always safe —
a missed hit re-runs the solver; digests are injective on the canonical
text, so equal digests never conflate genuinely different queries.

Models travel with the cache in canonical names: a SAT verdict's model
is translated *to* canonical names when stored and back into the
requesting query's own names on a hit (token-wise, so application
s-expressions like ``(FPAdd.#L #W)`` translate too).  Canonical names
are fixed-width (``?v000042``), so no name is a prefix of another and
token replacement is collision-free; ``?`` cannot begin a user or
solver-generated variable.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Optional, Sequence

from .terms import Term, OP_AND, OP_VAR, substitute

_TOKEN = re.compile(r"[^\s()]+")

#: term -> variable-blind skeleton string (process-wide; hash-consed
#: terms make this safe and cheap).
_SKELETON_MEMO: Dict[Term, str] = {}


def clear_canon_memo() -> None:
    _SKELETON_MEMO.clear()


def _skeleton(term: Term) -> str:
    """Render with every variable replaced by ``?``.

    Function symbols (uninterpreted applications) are kept — they are
    semantic, not alpha-convertible.  The skeleton gives conjuncts a
    rename-invariant primary sort key, so alpha-equivalent queries order
    their conjuncts identically.
    """
    hit = _SKELETON_MEMO.get(term)
    if hit is not None:
        return hit
    if term.op == OP_VAR:
        text = "?"
    elif not term.args:
        text = term.sexpr()
    else:
        inner = " ".join(_skeleton(a) for a in term.args)
        head = term.name if term.op == "app" else term.op
        text = f"({head} {inner})"
    _SKELETON_MEMO[term] = text
    return text


class CanonicalQuery:
    """A query's digest plus the name maps to and from canonical form."""

    __slots__ = ("digest", "to_canonical", "to_original")

    def __init__(
        self,
        digest: str,
        to_canonical: Dict[str, str],
        to_original: Dict[str, str],
    ):
        self.digest = digest
        self.to_canonical = to_canonical
        self.to_original = to_original


def canonical_query(assertions: Sequence[Term], tag: str = "") -> CanonicalQuery:
    """Canonicalize an assertion set.

    ``tag`` folds engine/version context into the digest (the caller
    passes the discharge engine name; the persistent store additionally
    keys on ``SOLVER_VERSION``).
    """
    conjuncts: List[Term] = []
    seen = set()
    for assertion in assertions:
        parts = assertion.args if assertion.op == OP_AND else (assertion,)
        for part in parts:
            if part not in seen:
                seen.add(part)
                conjuncts.append(part)
    ordered = sorted(conjuncts, key=lambda t: (_skeleton(t), t.sexpr()))
    mapping: Dict[Term, Term] = {}
    to_canonical: Dict[str, str] = {}
    counter = 0
    for term in ordered:
        stack = [term]
        while stack:
            current = stack.pop()
            if current.op == OP_VAR:
                if current not in mapping:
                    canon = f"?v{counter:06d}"
                    counter += 1
                    mapping[current] = Term(
                        OP_VAR, name=canon, sort=current.sort
                    )
                    to_canonical[current.name] = canon
                continue
            stack.extend(reversed(current.args))
    renamed = sorted(substitute(term, mapping).sexpr() for term in ordered)
    basis = "\n".join(renamed) + f"\n|{tag}"
    digest = hashlib.sha256(basis.encode("utf-8")).hexdigest()
    to_original = {canon: name for name, canon in to_canonical.items()}
    return CanonicalQuery(digest, to_canonical, to_original)


def translate_model(
    model: Optional[Dict[str, int]], table: Dict[str, str]
) -> Optional[Dict[str, int]]:
    """Rewrite a model's keys token-wise through a name table.

    Keys are variable names or application s-expressions; tokens not in
    the table (operators, constants, function symbols) pass through.
    """
    if model is None:
        return None
    return {
        _TOKEN.sub(lambda m: table.get(m.group(0), m.group(0)), key): value
        for key, value in model.items()
    }
