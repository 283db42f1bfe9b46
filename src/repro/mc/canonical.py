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
A bool is keyed as ``("bool", b)``: inside a tuple ``True == 1``, but
SYNL's ``==`` tells ``true`` from ``1``, so the bare value would merge
states the program distinguishes.

Known quirk: :func:`state_key` maps each thread's reservation and
observation addresses as of its visit, before the heap walk gives ids
to objects reachable only through the heap.  An address on such an
object is dropped as unreachable unless an earlier root (a global, or a
lower tid's locals) already named it, so which addresses survive
depends on tid order.  A valid reservation on an array reached only
through an object field leaves the key unchanged.  Each thread's
*watermark* (the number of ids given out after its roots) reproduces
this exactly: an address survives iff its object's id is at or below
the watermark.

Incremental keys.  Keying is split in two: a *numbering* walk over the
references only (:func:`_number`), and keying each part under the
finished numbering.  :func:`state_key` records its result on the
world's :class:`~repro.interp.state.ChangeLog` as a :class:`Base` (key,
raw-oid to canonical-id map, watermarks), and the interpreter logs what
each step changes.  The next call then does one of these:

* no base yet: number the world and key every part;
* empty log: return the base key;
* the log is *reshaped* (a reference slot changed, so ids may move):
  renumber; if ids or watermarks differ from the base's, key every
  part, else go on as below;
* otherwise re-key only the logged threads (the stepping ones, and any
  whose valid reservation a store broke or whose current observation
  it made stale), the globals if one was stored, the stored records
  (found by canonical id) and the lock table if touched, and reuse
  every other part of the base key.

The result equals a from-scratch pass.  The log is trusted: a world
edited outside the interpreter after its first key needs
``world.log.forget()``.

Heap records are never mutated (:mod:`repro.interp.values`), so each
caches its canonical form on first keying: the body with bools encoded
and the positions that hold a reference.  A record without references
enters a key without being rebuilt.  :func:`quiescent_key` and
:func:`shared_key` use the same numbering walk and record helpers.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.interp.state import Thread, World
from repro.interp.values import HeapObject, Ref

#: interned ("ref", i) at index i, so keys share them; it only grows, and
#: every entry is a constant
_REFS: list[tuple] = [("ref", 0)]
_BOOLS = {True: ("bool", True), False: ("bool", False)}


class Base(NamedTuple):
    """A world's canonical form as of its last :func:`state_key`."""

    key: tuple
    #: raw heap oid -> canonical id (never mutated once recorded)
    ids: dict
    #: per thread, the number of ids given out when its addresses were
    #: mapped (an address on a later id is dropped)
    marks: tuple


# -- numbering: raw oids -> canonical ids --------------------------------------------

def _take(values, ids: dict, order: list) -> None:
    """Number the references among ``values``, in order."""
    for v in values:
        if v.__class__ is Ref and v.oid not in ids:
            order.append(v.oid)
            ids[v.oid] = len(order)


def _in_order(slots: dict) -> list:
    return [slots[name] for name in sorted(slots)]


def _number(world: World, threads: bool = True,
            frames: bool = True) -> tuple:
    """(ids, watermarks, order) of the traversal that numbers objects:
    globals in name order, then per thread (in tid order, if
    ``threads``) its threadlocals and, if ``frames``, its frame bindings
    and arguments, then the heap breadth-first.  ``order`` lists raw
    oids in id order; a thread's watermark is the count of ids given out
    after its roots."""
    ids: dict[int, int] = {}
    order: list[int] = []
    _take(_in_order(world.globals), ids, order)
    marks = []
    if threads:
        for thread in world.threads:
            _take(_in_order(thread.threadlocals), ids, order)
            frame = thread.frame
            if frames and frame is not None:
                _take(_in_order(frame.env), ids, order)
                _take(frame.args, ids, order)
            marks.append(len(order))
    objects = world.heap.objects
    for oid in order:  # grows while the walk finds new records
        obj = objects[oid]
        for _pos, ref in (obj.canon or _record_form(obj))[3]:
            if ref not in ids:
                order.append(ref)
                ids[ref] = len(order)
    while len(_REFS) <= len(order):
        _REFS.append(("ref", len(_REFS)))
    return ids, tuple(marks), order


# -- keying under a finished numbering ------------------------------------------------

def _value(v, ids: dict):
    cls = v.__class__
    if cls is Ref:
        return _REFS[ids[v.oid]]
    if cls is bool:
        return _BOOLS[v]
    return v


def _named(slots: dict, ids: dict) -> tuple:
    """Name-sorted (name, canonical value) pairs of a dict of slots."""
    return tuple([(name, _value(slots[name], ids)) for name in sorted(slots)])


def _record_form(obj) -> tuple:
    """(tag, class name, body, ref slots) of a heap record, cached on
    it: the body holds the sorted fields or the cells with bools
    encoded, and ref slots lists (position, raw oid) per reference."""
    is_obj = obj.__class__ is HeapObject
    items = sorted(obj.fields.items()) if is_obj else obj.cells
    body = []
    refs = []
    for i, item in enumerate(items):
        v = item[1] if is_obj else item
        if v.__class__ is Ref:
            refs.append((i, v.oid))
        elif v.__class__ is bool:
            item = (item[0], _BOOLS[v]) if is_obj else _BOOLS[v]
        body.append(item)
    obj.canon = ("obj" if is_obj else "arr", obj.class_name, tuple(body),
                 tuple(refs))
    return obj.canon


def _record_key(obj, cid: int, ids: dict) -> tuple:
    tag, class_name, body, refs = obj.canon or _record_form(obj)
    if refs:
        body = list(body)
        if tag == "obj":
            for i, oid in refs:
                body[i] = (body[i][0], _REFS[ids[oid]])
        else:
            for i, oid in refs:
                body[i] = _REFS[ids[oid]]
        body = tuple(body)
    return (tag, cid, class_name, body)


def _heap_key(objects: dict, ids: dict, order: list) -> tuple:
    return tuple([_record_key(objects[oid], cid, ids)
                  for cid, oid in enumerate(order, 1)])


def _locks_key(locks: dict, ids: dict) -> tuple:
    return tuple(sorted((ids[oid], owner) for oid, owner in locks.items()
                        if oid in ids))


def _op_index(thread: Thread) -> int:
    ops = thread.spec.ops
    if thread.spec.repeat and ops:
        return thread.op_index % len(ops)
    return thread.op_index


def _thread_key(thread: Thread, versions: dict, ids: dict,
                mark: int) -> tuple:
    """Key of one thread; ``mark`` is its watermark.  Reservations keep
    only valid addresses and observations only current ones; an address
    on an object numbered after the watermark is dropped (unreachable
    when the thread was visited), and thread-private ones are never
    contested."""
    frame = thread.frame
    if frame is None:
        frame_key = None
    else:
        node = frame.node
        frame_key = (frame.proc_name, node.uid if node is not None else -1,
                     _named(frame.env, ids),
                     tuple([_value(a, ids) for a in frame.args]))
    addrs = ([a for a, ok in thread.reservations.items() if ok],
             [a for a, c in thread.observed.items()
              if c == versions.get(a, 0)])
    valid, current = [], []
    for raw, out in zip(addrs, (valid, current)):
        for addr in raw:
            kind = addr[0]
            if kind == "g":
                out.append(addr)
            elif kind == "f" or kind == "e":
                cid = ids.get(addr[1])
                if cid is not None and cid <= mark:
                    out.append((kind, cid, addr[2]))
        out.sort()
    return (_op_index(thread), _named(thread.threadlocals, ids), frame_key,
            tuple(valid), tuple(current))


# -- the keys -------------------------------------------------------------------------

def state_key(world: World) -> tuple:
    """Full canonical key of a world (threads included), re-keying only
    what its change log names when it was keyed before."""
    log = world.log
    base = log.base
    if base is None or log.reshaped:
        ids, marks, order = _number(world)
        if base is None or ids != base.ids or marks != base.marks:
            key = (_named(world.globals, ids),
                   tuple([_thread_key(t, world.versions, ids, mark)
                          for t, mark in zip(world.threads, marks)]),
                   _heap_key(world.heap.objects, ids, order),
                   _locks_key(world.locks, ids))
            log.rebase(Base(key, ids, marks))
            return key
        # the numbering survived the new references: re-key as below
    elif not (log.tids or log.stored or log.locks):
        return base.key
    globals_key, thread_keys, heap_key, locks_key = base.key
    ids = base.ids
    records = {}
    for addr in log.stored:
        if addr[0] == "g":
            globals_key = None
        else:
            cid = ids.get(addr[1])
            if cid is not None:  # else unreachable: not in the key
                records[cid] = addr[1]
    if globals_key is None:
        globals_key = _named(world.globals, ids)
    if records:
        heap = list(heap_key)
        objects = world.heap.objects
        for cid, oid in records.items():
            heap[cid - 1] = _record_key(objects[oid], cid, ids)
        heap_key = tuple(heap)
    tids = log.tids
    if tids:
        threads = list(thread_keys)
        for i, thread in enumerate(world.threads):
            if thread.tid in tids:
                threads[i] = _thread_key(thread, world.versions, ids,
                                         base.marks[i])
        thread_keys = tuple(threads)
    if log.locks:
        locks_key = _locks_key(world.locks, ids)
    key = (globals_key, thread_keys, heap_key, locks_key)
    log.rebase(Base(key, ids, base.marks))
    return key


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
    ids, _marks, order = _number(world, threads=False)
    return (_named(world.globals, ids),
            _heap_key(world.heap.objects, ids, order),
            _locks_key(world.locks, ids))


def quiescent_key(world: World) -> tuple:
    """Canonical key of the *shared* state plus each thread's script
    progress — the granularity at which the atomicity definition of
    §3.2 compares executions.  Stale reservations and observation sets
    are dropped: every procedure in the corpus re-reads (LL / matching
    read) before any SC/CAS, so they cannot influence future behaviour
    from a quiescent state."""
    ids, _marks, order = _number(world, frames=False)
    return (_named(world.globals, ids),
            tuple(_op_index(t) for t in world.threads),
            tuple(_named(t.threadlocals, ids) for t in world.threads),
            _heap_key(world.heap.objects, ids, order),
            _locks_key(world.locks, ids))
