"""Reference oracle for the incremental canonical keys.

:func:`repro.mc.canonical.state_key` re-keys only what a world's change
log names.  The oracle below is the original single-class canonicaliser,
which rebuilds the whole key on every call; its one change is the bool
encoding (``("bool", b)``), which the model checker's keys adopted at
the same time.  Every ``state_key`` call an exploration makes is
checked against it: the key must be byte-identical (equal ``repr``) and
the base recorded on the world must hold the id map and the per-thread
watermarks a from-scratch pass gives.  ``quiescent_key`` and
``shared_key`` are checked against the original versions the same way.

Run as a script, the module repeats the check at benchmark scale
(GH Program 1, 3 threads, full interleaving, 10,000 states, plus a
Table 2 NFQ' driver) and exits non-zero on any mismatch::

    PYTHONPATH=src python tests/test_canonical_oracle.py
"""

from __future__ import annotations

import sys
from typing import Optional

import pytest

from repro import corpus
from repro.experiments import section63
from repro.interp import Interp, ThreadSpec
from repro.interp.state import Thread, World
from repro.interp.values import Heap, HeapArray, HeapObject, Ref, Value
from repro.mc import Explorer, atomic, canonical, explorer


# -- the oracle ---------------------------------------------------------------------

class _Canonicalizer:
    def __init__(self, world: World):
        self.world = world
        self.ids: dict[int, int] = {}
        self.pending: list[int] = []

    def ref(self, value: Value):
        if isinstance(value, Ref):
            if value.oid not in self.ids:
                self.ids[value.oid] = len(self.ids) + 1
                self.pending.append(value.oid)
            return ("ref", self.ids[value.oid])
        if isinstance(value, bool):
            return ("bool", value)
        return value

    def addr(self, addr: tuple) -> Optional[tuple]:
        kind = addr[0]
        if kind == "g":
            return addr
        if kind in ("f", "e"):
            oid = addr[1]
            if oid not in self.ids:
                return None  # unreachable object: reservation is moot
            return (kind, self.ids[oid], addr[2])
        return None  # thread-private: never invalidated, never contested

    def heap_contents(self) -> tuple:
        out = []
        i = 0
        while i < len(self.pending):
            oid = self.pending[i]
            i += 1
            obj = self.world.heap.objects[oid]
            if isinstance(obj, HeapObject):
                fields = tuple(sorted(
                    (name, self.ref(v)) for name, v in obj.fields.items()))
                out.append(("obj", self.ids[oid], obj.class_name, fields))
            else:
                assert isinstance(obj, HeapArray)
                cells = tuple(self.ref(v) for v in obj.cells)
                out.append(("arr", self.ids[oid], obj.class_name, cells))
        return tuple(out)

    def thread_key(self, thread: Thread) -> tuple:
        spec = thread.spec
        if spec.repeat and spec.ops:
            op_index = thread.op_index % len(spec.ops)
        else:
            op_index = thread.op_index
        tls = tuple(sorted(
            (name, self.ref(v)) for name, v in thread.threadlocals.items()))
        if thread.frame is None:
            frame_key: tuple | None = None
        else:
            env = tuple(sorted(
                (b, self.ref(v)) for b, v in thread.frame.env.items()))
            node_uid = thread.frame.node.uid \
                if thread.frame.node is not None else -1
            frame_key = (thread.frame.proc_name, node_uid, env,
                         tuple(self.ref(a) for a in thread.frame.args))
        valid = []
        for addr, ok in thread.reservations.items():
            if not ok:
                continue
            canon = self.addr(addr)
            if canon is not None:
                valid.append(canon)
        current = []
        for addr, counter in thread.observed.items():
            if counter != self.world.versions.get(addr, 0):
                continue
            canon = self.addr(addr)
            if canon is not None:
                current.append(canon)
        return (op_index, tls, frame_key,
                tuple(sorted(valid)), tuple(sorted(current)))


def oracle(world: World) -> tuple:
    """(key, id map, watermarks) of a from-scratch pass."""
    canon = _Canonicalizer(world)
    globals_key = tuple(
        (name, canon.ref(world.globals[name]))
        for name in sorted(world.globals))
    thread_keys = []
    marks = []
    for t in world.threads:
        thread_keys.append(canon.thread_key(t))
        marks.append(len(canon.ids))
    heap_key = canon.heap_contents()
    locks_key = tuple(sorted(
        (canon.ids.get(oid, 0), owner)
        for oid, owner in world.locks.items() if oid in canon.ids))
    key = (globals_key, tuple(thread_keys), heap_key, locks_key)
    return key, canon.ids, tuple(marks)


def oracle_shared(world: World) -> tuple:
    canon = _Canonicalizer(world)
    globals_key = tuple(
        (name, canon.ref(world.globals[name]))
        for name in sorted(world.globals))
    heap_key = canon.heap_contents()
    locks_key = tuple(sorted(
        (canon.ids.get(oid, 0), owner)
        for oid, owner in world.locks.items() if oid in canon.ids))
    return (globals_key, heap_key, locks_key)


def oracle_quiescent(world: World) -> tuple:
    canon = _Canonicalizer(world)
    globals_key = tuple(
        (name, canon.ref(world.globals[name]))
        for name in sorted(world.globals))
    progress = []
    tl_keys = []
    for thread in world.threads:
        spec = thread.spec
        if spec.repeat and spec.ops:
            progress.append(thread.op_index % len(spec.ops))
        else:
            progress.append(thread.op_index)
        tl_keys.append(tuple(sorted(
            (name, canon.ref(v))
            for name, v in thread.threadlocals.items())))
    heap_key = canon.heap_contents()
    locks_key = tuple(sorted(
        (canon.ids.get(oid, 0), owner)
        for oid, owner in world.locks.items() if oid in canon.ids))
    return (globals_key, tuple(progress), tuple(tl_keys), heap_key,
            locks_key)


def _path(world: World) -> str:
    """Which branch of ``state_key`` the world's log selects."""
    log = world.log
    if log.base is None:
        return "fresh"
    if log.reshaped:
        return "renumbered"
    if not (log.tids or log.stored or log.locks):
        return "reuse"
    return "incremental"


class Checker:
    """A ``state_key`` that checks every call against the oracle."""

    def __init__(self) -> None:
        self.paths = {"fresh": 0, "renumbered": 0, "reuse": 0,
                      "incremental": 0}

    def __call__(self, world: World) -> tuple:
        self.paths[_path(world)] += 1
        key = canonical.state_key(world)
        expected, ids, marks = oracle(world)
        if repr(key) != repr(expected):
            raise AssertionError(f"key mismatch:\n{key!r}\n!=\n{expected!r}")
        base = world.log.base
        if base.key is not key or base.ids != ids or base.marks != marks:
            raise AssertionError(f"base mismatch: {base.ids} / {base.marks}"
                                 f" != {ids} / {marks}")
        return key

    def install(self, patch) -> None:
        patch(explorer, "state_key", self)
        patch(atomic, "state_key", self)
        patch(explorer, "quiescent_key",
              _checked(canonical.quiescent_key, oracle_quiescent))
        patch(explorer, "shared_key",
              _checked(canonical.shared_key, oracle_shared))


def _checked(key_fn, oracle_fn):
    def check(world: World) -> tuple:
        key = key_fn(world)
        expected = oracle_fn(world)
        if repr(key) != repr(expected):
            raise AssertionError(f"{key_fn.__name__} mismatch:\n{key!r}\n"
                                 f"!=\n{expected!r}")
        return key
    return check


@pytest.fixture
def checker(monkeypatch):
    check = Checker()
    check.install(monkeypatch.setattr)
    return check


# -- drivers --------------------------------------------------------------------------

def _specs(*scripts, repeat_last: bool = False) -> list[ThreadSpec]:
    specs = [ThreadSpec.of(*calls) for calls in scripts]
    if repeat_last:
        specs[-1] = ThreadSpec(specs[-1].ops, repeat=True)
    return specs


GH = ("GH_PROGRAM1", corpus.GH_PROGRAM1,
      [[("Apply", 1)], [("Apply", 2)], [("Apply", 3)]], False)
#: Table 2's add-heavy driver: two AddNodes, DeqP, repeating UpdateTail
NFQ_PRIME_DRIVER = [[("AddNode", 1)], [("AddNode", 2)], [("DeqP",)],
                    [("UpdateTail",)]]
#: bools in a global, a binding and a heap field
FLAGS = """
class Box { f; }
global G; global B;
init { G = false; B = new Box; B.f = 1; }
proc Flip() { local ok = CAS(G, false, true) in { B.f = ok; } }
"""

DRIVERS = [
    GH,
    ("NFQ_PRIME", corpus.NFQ_PRIME, NFQ_PRIME_DRIVER, True),
    ("NFQ_PRIME_BUGGY", corpus.NFQ_PRIME_BUGGY, NFQ_PRIME_DRIVER, True),
    ("NFQ", corpus.NFQ, [[("Enq", 1)], [("Deq",)], [("Enq", 2)]], False),
    ("SEMAPHORE", corpus.SEMAPHORE, [[("Down",)], [("Down",)], [("Up",)]],
     False),
    ("TREIBER_STACK", corpus.TREIBER_STACK,
     [[("Push", 1)], [("Pop",)], [("Push", 2)]], False),
    ("CAS_COUNTER", corpus.CAS_COUNTER, [[("Inc",)], [("Inc",), ("Get",)]],
     False),
    ("VERSIONED_CELL", corpus.VERSIONED_CELL,
     [[("IncCell",)], [("GetCell",)], [("IncCell",)]], False),
    ("SPIN_LOCK", corpus.SPIN_LOCK,
     [[("Acquire",), ("Release",)], [("Acquire",), ("Release",)]], False),
    ("LOCKED_REGISTER", corpus.LOCKED_REGISTER,
     [[("Write", 1)], [("Read",)], [("Write", 2)]], False),
    ("HERLIHY_SMALL", corpus.HERLIHY_SMALL,
     [[("Apply", 1)], [("ReadValue",)], [("Apply", 2)]], False),
    ("FLAGS", FLAGS, [[("Flip",)], [("Flip",)]], False),
]


@pytest.mark.parametrize("mode", ["full", "por", "atomic"])
@pytest.mark.parametrize("name,source,scripts,repeat", DRIVERS,
                         ids=[d[0] for d in DRIVERS])
def test_every_key_matches_oracle(checker, name, source, scripts, repeat,
                                  mode):
    Explorer(Interp(source), _specs(*scripts, repeat_last=repeat),
             mode=mode, max_states=600, collect_quiescent=True).run()
    assert sum(checker.paths.values()) > 0
    if mode != "atomic":
        # single statements are keyed one by one: the incremental
        # branch must have done real work
        assert checker.paths["incremental"] > 0


def test_every_key_matches_oracle_both_mode(checker):
    _name, source, scripts, _ = GH
    Explorer(Interp(source), _specs(*scripts), mode="both",
             commutes=section63.commutes, collect_quiescent=True).run()
    assert checker.paths["incremental"] + checker.paths["renumbered"] > 0


def test_every_key_matches_oracle_variant_mode(checker,
                                               nfq_prime_analysis):
    vset = nfq_prime_analysis.variant_set
    Explorer(Interp(corpus.NFQ_PRIME),
             _specs(*NFQ_PRIME_DRIVER[:1], *NFQ_PRIME_DRIVER[2:],
                    repeat_last=True),
             mode="atomic", variant_interp=Interp(vset.program),
             variant_map={src: [v.name for v in vs]
                          for src, vs in vset.by_source.items()},
             max_states=600).run()
    assert sum(checker.paths.values()) > 0


# -- unit cases ------------------------------------------------------------------------

CELLS = """
global A; global B; global P;
init {
  A = new int[2];
  B = new int[2];
  P = null;
}
proc SetA() { A[0] = 7; }
proc Point() { P = A; }
proc Fresh() { P = new int[1]; }
"""


def _keyed(source: str, *scripts) -> tuple[Interp, World]:
    interp = Interp(source)
    world = interp.make_world(_specs(*scripts))
    canonical.state_key(world)
    return interp, world


def _check(world: World) -> tuple:
    expected, ids, marks = oracle(world)
    key = canonical.state_key(world)
    assert repr(key) == repr(expected)
    assert world.log.base.ids == ids and world.log.base.marks == marks
    return key


def test_ref_store_renumbering_forces_full_pass():
    interp, w0 = _keyed(CELLS, [("Fresh",)])
    w = w0.copy()
    interp.step(w, 0)  # invoke
    interp.step(w, 0)  # P = new int[1]: a new reachable record
    assert w.log.reshaped
    _check(w)
    assert w.log.base.ids is not w0.log.base.ids
    assert len(w.log.base.ids) == len(w0.log.base.ids) + 1


def test_ref_store_keeping_the_numbering_reuses_ids():
    interp, w0 = _keyed(CELLS, [("Point",)])
    w = w0.copy()
    interp.step(w, 0)
    interp.step(w, 0)  # P = A: A already has the first id
    assert w.log.reshaped
    key = _check(w)
    assert w.log.base.ids is w0.log.base.ids
    assert key[2] is w0.log.base.key[2]  # no record changed


def test_int_cell_store_rekeys_only_that_record():
    interp, w0 = _keyed(CELLS, [("SetA",)])
    w = w0.copy()
    interp.step(w, 0)
    interp.step(w, 0)  # A[0] = 7
    assert not w.log.reshaped and w.log.stored == {("e", w.globals["A"].oid,
                                                     0)}
    key = _check(w)
    base = w0.log.base
    assert w.log.base.ids is base.ids  # ids reused, not rebuilt
    old_heap, new_heap = base.key[2], key[2]
    changed = [i for i, (a, b) in enumerate(zip(old_heap, new_heap))
               if a is not b]
    assert changed == [base.ids[w.globals["A"].oid] - 1]
    assert new_heap[changed[0]][3] == (7, 0)


STALE = """
class Cell { v; }
global X; global C;
init { X = 0; C = new Cell; C.v = 0; }
proc Reserve() { local t = LL(X) in { local u = C.v in { skip; } } }
proc Store() { X = 1; }
proc StoreCell() { C.v = 5; }
"""


@pytest.mark.parametrize("writer", ["Store", "StoreCell"])
def test_store_makes_other_threads_reservation_or_observation_stale(
        writer):
    interp, w = _keyed(STALE, [("Reserve",)], [(writer,)])
    for _ in range(4):  # invoke, LL(X), C.v read, skip
        interp.step(w, 0)
    before = _check(w)
    assert before[1][0][3] == (("g", "X"),)            # valid reservation
    assert len(before[1][0][4]) == 3                   # X, C, C.v current
    interp.step(w, 1)
    interp.step(w, 1)  # the store by thread 1
    assert w.log.tids == {0, 1}  # it changed thread 0's state too
    after = _check(w)
    if writer == "Store":
        assert after[1][0][3] == ()                    # invalidated
    assert len(after[1][0][4]) == 2                    # one read now stale


SPIN = """
global F;
init { F = 0; }
proc Spin() { loop { if (F == 1) { break; } } }
"""


def test_world_keyed_at_loop_head_then_stepped_further():
    interp, w0 = _keyed(SPIN, [("Spin",)])
    w = w0.copy()
    keys = []
    for _ in range(8):  # the run_to_commit pattern: key, step, key, ...
        interp.step(w, 0)
        keys.append(_check(w))
    assert len(set(keys)) < len(keys)  # the spin revisits a key


def test_heap_copy_shares_records_copy_on_write():
    h1 = Heap()
    r = h1.alloc("C")
    h1.write_field(r, "fd", 1)
    record = h1.objects[r.oid]
    h2 = h1.copy()
    assert h2.objects[r.oid] is record
    h2.write_field(r, "fd", 2)
    assert h1.objects[r.oid] is record
    assert record.fields == {"fd": 1}
    assert h2.read_field(r, "fd") == 2


def test_editing_a_keyed_world_needs_forget():
    interp, w0 = _keyed(CELLS, [("SetA",)])
    w = w0.copy()
    w.globals["P"] = w.globals["B"]  # outside the interpreter
    w.log.forget()
    _check(w)


# -- benchmark scale (script mode) -------------------------------------------------------

def _main() -> int:
    check = Checker()
    check.install(setattr)
    _name, _source, scripts, _ = GH
    runs = [
        ("GH_PROGRAM1 full, 3 threads, 10k states",
         Explorer(Interp(corpus.GH_PROGRAM1), _specs(*scripts),
                  mode="full", max_states=10_000, collect_quiescent=True)),
        ("NFQ' Table 2 add-heavy full, 5k states",
         Explorer(Interp(corpus.NFQ_PRIME),
                  _specs(*NFQ_PRIME_DRIVER, repeat_last=True),
                  mode="full", max_states=5_000)),
    ]
    for label, ex in runs:
        result = ex.run()
        print(f"{label}: {result.states} states, {result.transitions} "
              f"transitions, keys checked {check.paths}")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
