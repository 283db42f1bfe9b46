"""Canonical hashing of interpreter worlds for explicit-state search.

Heap object ids are renamed by first-visit order along a deterministic
traversal (globals in name order, then threads in tid order), so states
differing only in allocation order collapse.  Two unbounded components
are abstracted relationally, keeping the state space finite:

* LL/SC *reservations* store only the set of currently-valid reserved
  addresses (an invalid reservation is indistinguishable from no
  reservation: both make SC fail);
* per-address *modification counters* store, per thread, only the set of
  addresses whose last observed counter is still current (all a
  versioned CAS can test).

Repeating thread scripts wrap their op index modulo the script length.

Known quirk: :func:`state_key` maps each thread's reservation and
observation addresses while it visits that thread, before
``heap_contents()`` gives ids to objects reachable only through the
heap.  An address on such an object is dropped as unreachable unless an
earlier root (a global, or a lower tid's locals) already named it, so
which addresses survive depends on tid order.  A valid reservation on an
array reached only through an object field leaves the key unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.interp.state import Thread, World
from repro.interp.values import HeapArray, HeapObject, Ref, Value


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


def state_key(world: World) -> tuple:
    """Full canonical key of a world (threads included)."""
    canon = _Canonicalizer(world)
    globals_key = tuple(
        (name, canon.ref(world.globals[name]))
        for name in sorted(world.globals))
    # visit thread roots before serializing heap contents so the id
    # assignment covers everything reachable
    thread_keys = tuple(canon.thread_key(t) for t in world.threads)
    heap_key = canon.heap_contents()
    locks_key = tuple(sorted(
        (canon.ids.get(oid, 0), owner)
        for oid, owner in world.locks.items() if oid in canon.ids))
    return (globals_key, thread_keys, heap_key, locks_key)


def rebase_node_uids(world_key: tuple, uid_map: dict) -> tuple:
    """Rewrite the CFG-node uids embedded in a :func:`state_key` tuple
    (each thread's ``frame_key[1]`` program counter) through
    ``uid_map``.

    CFG node uids come from a process-global counter, so the *same*
    program rebuilt later in one process gets shifted uids and
    otherwise-equal state keys stop comparing equal across builds.
    Graph capture (:mod:`repro.obs.graph`) uses this to rebase keys
    onto a build-independent dense numbering before hashing them into
    node ids, making captures comparable across runs and processes.
    Unmapped uids pass through unchanged."""
    globals_key, thread_keys, heap_key, locks_key = world_key
    threads = []
    for op_index, tls, frame_key, valid, current in thread_keys:
        if frame_key is not None:
            proc, uid, env, args = frame_key
            frame_key = (proc, uid_map.get(uid, uid), env, args)
        threads.append((op_index, tls, frame_key, valid, current))
    return (globals_key, tuple(threads), heap_key, locks_key)


def shared_key(world: World) -> tuple:
    """Canonical key of the *shared* state only: globals, the heap
    reachable from them, and the lock table.  Thread-private residue
    (working copies, script progress) is projected away.  This is the
    granularity at which the ``both`` mode's operation-commutativity
    ample sets preserve reachability: two commuting operations leave the
    same shared state either way, but may leave different private
    scratch objects."""
    canon = _Canonicalizer(world)
    globals_key = tuple(
        (name, canon.ref(world.globals[name]))
        for name in sorted(world.globals))
    heap_key = canon.heap_contents()
    locks_key = tuple(sorted(
        (canon.ids.get(oid, 0), owner)
        for oid, owner in world.locks.items() if oid in canon.ids))
    return (globals_key, heap_key, locks_key)


def quiescent_key(world: World) -> tuple:
    """Canonical key of the *shared* state plus each thread's script
    progress — the granularity at which the atomicity definition of
    §3.2 compares executions.  Stale reservations and observation sets
    are dropped: every procedure in the corpus re-reads (LL / matching
    read) before any SC/CAS, so they cannot influence future behaviour
    from a quiescent state."""
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
