"""Hash-consing invariants: identity, caching, pickling, threads."""

import copy
import pickle
import sys
import threading

from repro import smt
from repro.smt.terms import Term, intern_size


def test_structurally_equal_terms_are_identical():
    x, y = smt.Int("x"), smt.Int("y")
    assert smt.Plus(x, y, 3) is smt.Plus(x, y, 3)
    assert smt.And(smt.Ge(x, 0), smt.Le(y, 5)) is smt.And(
        smt.Ge(x, 0), smt.Le(y, 5)
    )
    assert smt.Int("x") is x


def test_direct_constructor_interns_too():
    a = Term("var", name="v", sort=smt.INT)
    b = Term("var", name="v", sort=smt.INT)
    assert a is b
    assert a is smt.Int("v")


def test_distinct_terms_are_distinct():
    x = smt.Int("x")
    assert smt.Plus(x, 1) is not smt.Plus(x, 2)
    assert smt.Int("x") is not smt.Bool("x")  # sorts differ


def test_equality_and_hash_are_structural():
    x = smt.Int("x")
    t1, t2 = smt.Plus(x, 1), smt.Plus(x, 1)
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1 != smt.Plus(x, 2)


def test_identity_is_the_hash_and_the_equality():
    # Interning makes structure and identity coincide, so terms keep
    # object's C-level hash and equality.
    assert "__hash__" not in vars(Term) and "__eq__" not in vars(Term)
    term = smt.Plus(smt.Int("x"), 1)
    assert hash(term) == object.__hash__(term)
    assert term != "(+ x 1)" and term != 1


def test_copies_reintern():
    term = smt.Implies(smt.Ge(smt.App("f", smt.Int("x")), 0), smt.TRUE)
    assert copy.copy(term) is term
    assert copy.deepcopy(term) is term
    assert copy.deepcopy([term, term])[0] is term


def test_pickle_round_trip_reinterns():
    x, y = smt.Int("x"), smt.Int("y")
    term = smt.Implies(smt.Ge(smt.App("f", x), 0), smt.Lt(x, y))
    clone = pickle.loads(pickle.dumps(term))
    assert clone is term  # identity, not merely equality


def test_pickle_preserves_all_fields():
    term = smt.Ite(smt.Bool("c"), smt.IntVal(3), smt.Int("z"))
    clone = pickle.loads(pickle.dumps(term))
    assert clone.op == term.op
    assert clone.args == term.args
    assert clone.sort == term.sort


def test_free_vars_cached_and_correct():
    x, y = smt.Int("x"), smt.Int("y")
    term = smt.And(smt.Ge(smt.Plus(x, y), 0), smt.Le(x, 9))
    fvs = smt.free_vars(term)
    assert fvs == frozenset({x, y})
    assert smt.free_vars(term) is fvs  # cached object


def test_apps_includes_nested_applications():
    x = smt.Int("x")
    inner = smt.App("exp2", x)
    outer = smt.App("log2", inner)
    collected = smt.apps(smt.Eq(outer, x))
    assert inner in collected and outer in collected


def test_subterms_deduplicates_shared_nodes():
    x = smt.Int("x")
    shared = smt.Plus(x, 1)
    term = smt.And(smt.Ge(shared, 0), smt.Le(shared, 5))
    nodes = list(smt.subterms(term))
    assert len(nodes) == len(set(map(id, nodes)))


def test_intern_size_grows():
    before = intern_size()
    smt.Int("a-very-unlikely-test-variable-name")
    assert intern_size() == before + 1
    smt.Int("a-very-unlikely-test-variable-name")
    assert intern_size() == before + 1


def test_lockstep_builders_intern_one_term():
    """Two threads that both miss on one key still share one term.

    The name's hash waits for the other thread, so every hash of the key
    happens in lockstep: both builders probe the table before either
    stores its term, whatever the scheduler does.
    """
    barrier = threading.Barrier(2, timeout=10)

    class Lockstep(str):
        armed = True

        def __hash__(self):
            if self.armed:
                barrier.wait()
            return str.__hash__(self)

    name = Lockstep("intern-lockstep")
    built = [None, None]

    def build(slot):
        built[slot] = smt.Int(name)

    workers = [threading.Thread(target=build, args=(slot,)) for slot in (0, 1)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
    Lockstep.armed = False
    assert not any(worker.is_alive() for worker in workers)
    assert built[0] is built[1] is smt.Int("intern-lockstep")


def test_racing_threads_intern_one_term_per_key():
    """Threads building the same fresh terms all get one object per key.

    A probe-then-store intern table lets two threads both miss on one
    key and each keep its own term.  Switching threads every microsecond
    while wide keys hash, with a barrier before each round of fresh
    keys, hits that window often: such a table split 2 to 170 of these
    1,600 keys per run on a 2-vCPU VM, depending on the host's load.
    """
    threads, rounds, width, count = 4, 8, 32, 200
    built = [[] for _ in range(threads)]
    barrier = threading.Barrier(threads, timeout=30)

    def build(out):
        for round_ in range(rounds):
            # Fresh variables each round, so every key starts uninterned.
            pool = [
                smt.Int(f"intern-race-{round_}-{index}")
                for index in range(width)
            ]
            barrier.wait()
            out.extend(smt.Plus(*pool, k) for k in range(1, count + 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=build, args=(out,)) for out in built
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert all(len(out) == rounds * count for out in built)
    split = [
        index for index, terms in enumerate(zip(*built))
        if any(term is not terms[0] for term in terms)
    ]
    assert not split, f"{len(split)} of {rounds * count} keys built twice"
