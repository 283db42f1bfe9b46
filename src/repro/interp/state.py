"""Program state for the SYNL interpreter: threads, frames, worlds.

A :class:`World` is a complete program state — global store, heap, lock
table, and per-thread local state — that can be copied (for the model
checker's branching exploration) and canonicalized
(:mod:`repro.mc.canonical`).  A copy shares the heap's records, which
are copy-on-write (:mod:`repro.interp.values`), and copies every thread
eagerly, so a copy's thread dicts may be edited freely.

Each world carries a :class:`ChangeLog` of what changed since it was
last keyed, which lets :func:`repro.mc.canonical.state_key` re-key only
the parts a transition touched.  The interpreter appends to the log;
``state_key`` trusts it.  So a world may be edited outside
:class:`~repro.interp.interp.Interp` only before it is first keyed, or
with ``world.log.forget()`` called after the edit (which makes the next
key a full pass).

Each thread executes a :class:`ThreadSpec`: a list of procedure
invocations (optionally repeated forever), which models the paper's
environment that "invokes procedures with arbitrary arguments and an
arbitrary amount of concurrency" (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfg.graph import CFGNode, ProcCFG
from repro.interp.values import Heap, Value

Addr = tuple  # ('g', name) | ('t', tid, name) | ('f', oid, fd) | ('e', oid, i)


@dataclass(frozen=True)
class ThreadSpec:
    """What one environment thread does: a sequence of invocations."""

    ops: tuple  # tuple[tuple[str, tuple[Value, ...]], ...]
    repeat: bool = False

    @staticmethod
    def of(*calls, repeat: bool = False) -> "ThreadSpec":
        """``ThreadSpec.of(("Enq", 1), ("Deq",))``"""
        norm = tuple((name, tuple(rest)) for name, *rest in
                     (c if isinstance(c, tuple) else (c,) for c in calls))
        return ThreadSpec(norm, repeat)


@dataclass
class Event:
    kind: str       # 'invoke' | 'return'
    tid: int
    proc: str
    args: tuple
    result: Value = None
    seq: int = 0

    def __repr__(self) -> str:
        if self.kind == "invoke":
            return f"[{self.seq}] t{self.tid} call {self.proc}{self.args}"
        return (f"[{self.seq}] t{self.tid} ret  {self.proc}{self.args}"
                f" = {self.result!r}")


@dataclass
class Frame:
    proc_name: str
    cfg: ProcCFG
    node: Optional[CFGNode]      # the node about to execute
    env: dict[int, Value] = field(default_factory=dict)
    args: tuple = ()

    def copy(self) -> "Frame":
        return Frame(self.proc_name, self.cfg, self.node, self.env.copy(),
                     self.args)


@dataclass
class Thread:
    tid: int
    spec: ThreadSpec
    op_index: int = 0
    frame: Optional[Frame] = None
    threadlocals: dict[str, Value] = field(default_factory=dict)
    #: addr -> reservation still valid?
    reservations: dict[Addr, bool] = field(default_factory=dict)
    #: addr -> modification counter observed at the last read
    observed: dict[Addr, int] = field(default_factory=dict)
    steps: int = 0

    @property
    def done(self) -> bool:
        if self.frame is not None:
            return False
        if self.spec.repeat:
            return not self.spec.ops
        return self.op_index >= len(self.spec.ops)

    def current_call(self) -> tuple[str, tuple]:
        ops = self.spec.ops
        return ops[self.op_index % len(ops)]

    def copy(self) -> "Thread":
        return Thread(
            self.tid, self.spec, self.op_index,
            self.frame.copy() if self.frame is not None else None,
            self.threadlocals.copy(), self.reservations.copy(),
            self.observed.copy(), self.steps)


class ChangeLog:
    """What happened to a world since it was last keyed.

    ``base`` is the last canonical form (opaque here; see
    :mod:`repro.mc.canonical`), or None before the first key.  Since
    then: the threads in ``tids`` changed (they stepped, or another
    thread's store broke a valid reservation of theirs or made a
    current observation stale); the shared addresses in ``stored``
    (``g``/``f``/``e``) were written; ``reshaped`` is set when a
    reference-valued slot changed (a :class:`~repro.interp.values.Ref`
    written or overwritten anywhere, or a frame holding one pushed or
    popped); ``locks`` is set when the lock table was touched."""

    __slots__ = ("base", "tids", "stored", "reshaped", "locks")

    def __init__(self) -> None:
        self.base = None
        self.tids: set[int] = set()
        self.stored: set[Addr] = set()
        self.reshaped = False
        self.locks = False

    def copy(self) -> "ChangeLog":
        out = ChangeLog.__new__(ChangeLog)
        out.base = self.base
        out.tids = self.tids.copy()
        out.stored = self.stored.copy()
        out.reshaped = self.reshaped
        out.locks = self.locks
        return out

    def forget(self) -> None:
        """Drop the base, so the next key is a full pass: required after
        editing a keyed world outside the interpreter."""
        self.rebase(None)

    def rebase(self, base) -> None:
        """Record ``base`` as the world's canonical form and empty the
        log."""
        self.base = base
        self.tids.clear()
        self.stored.clear()
        self.reshaped = False
        self.locks = False


class World:
    """A complete, copyable program state."""

    def __init__(self) -> None:
        self.globals: dict[str, Value] = {}
        self.heap = Heap()
        self.locks: dict[int, tuple[int, int]] = {}  # oid -> (tid, depth)
        self.versions: dict[Addr, int] = {}          # store counters
        self.threads: list[Thread] = []
        self.history: list[Event] = []
        self._seq = 0
        self.log = ChangeLog()

    def emit(self, event: Event) -> Event:
        event.seq = self._seq
        self._seq += 1
        self.history.append(event)
        return event

    def copy(self, with_history: bool = False) -> "World":
        out = World.__new__(World)
        out.globals = self.globals.copy()
        out.heap = self.heap.copy()
        out.locks = self.locks.copy()
        out.versions = self.versions.copy()
        out.threads = [t.copy() for t in self.threads]
        if with_history:
            out.history = list(self.history)
            out._seq = self._seq
        else:
            out.history = []
            out._seq = 0
        out.log = self.log.copy()
        return out

    def quiescent(self) -> bool:
        """All threads between invocations (outside all code blocks)."""
        return all(t.frame is None for t in self.threads)
