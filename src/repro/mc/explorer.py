"""Explicit-state model checker over SYNL worlds.

Modes (the four configurations of §6.3):

* ``"full"``   — every enabled thread's next statement, full interleaving;
* ``"por"``    — ample-set partial-order reduction (SPIN-style stand-in);
* ``"atomic"`` — each procedure invocation is one transition (the
  reduction licensed by the paper's atomicity analysis); sub-modes
  ``run_to_commit`` (default) and exceptional-variant execution;
* ``"both"``   — atomic transitions plus an ample-set reduction at
  operation granularity, driven by an operation-commutativity oracle.

The search is a DFS with canonical state hashing, property checks (per
state and at quiescent states), an optional quiescent-state set for the
soundness tests, a state cap, a soft deadline and violation traces.
It runs with the cyclic garbage collector paused.  Its telemetry lives
in :mod:`repro.mc.telemetry`.
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import AssertionViolation
from repro.interp.interp import AssumeFailed, Interp
from repro.interp.state import Event, ThreadSpec, World
from repro.mc.atomic import run_to_commit, run_variant
from repro.mc.canonical import quiescent_key, shared_key, state_key
from repro.mc.por import SafetyCache
from repro.mc.properties import Property
from repro.mc.telemetry import Telemetry
from repro.obs.export import MIN_RATE_WINDOW_S
from repro.obs.profile import NULL_PROFILER
from repro.obs.tracing import NULL_TRACER

#: the DFS checks the deadline/heartbeat clock once per this many loop
#: iterations — cheap enough to leave always on
_BEAT_CHECK_MASK = 0xFF


@dataclass
class MCResult:
    mode: str
    states: int = 0
    transitions: int = 0
    elapsed: float = 0.0
    violation: Optional[str] = None
    trace: list[str] = field(default_factory=list)
    #: structured counterpart of ``trace`` (only on violation): one
    #: ``{tid, uid, desc, kind, via}`` dict per transition, enough to
    #: rebuild an annotated interleaving (:mod:`repro.mc.cex`).
    #: ``kind`` is ``init`` | ``invoke`` | ``stmt`` | ``atomic``; ``uid``
    #: is the CFG-node uid for ``stmt`` steps, else ``None``.
    path: list[dict] = field(default_factory=list)
    capped: bool = False
    #: the --deadline soft timeout fired: the search stopped
    #: gracefully with the verdict UNKNOWN — no violation was found,
    #: but the state space was not exhausted either.  Partial state/
    #: transition counts and the full coverage telemetry are
    #: preserved, exactly as for a capped run.
    deadline_hit: bool = False
    #: explorer metrics snapshot (states/sec, canonical-hash cache
    #: hits, ample-set reduction counts, coverage telemetry such as
    #: ``mc.depth`` / ``mc.frontier_samples`` / ``mc.mem_peak_mb``)
    #: — see :meth:`repro.mc.telemetry.Telemetry.finish`
    metrics: dict = field(default_factory=dict)
    #: ranked hotspot document (``Profiler.to_dict`` shape) when the
    #: exploration ran with a profiler, else empty
    profile: dict = field(default_factory=dict)
    quiescent: Optional[set] = None
    #: quiescent states where every thread's script has completed.
    #: ``full``/``por``/``atomic`` preserve the whole quiescent set;
    #: the op-level ample sets of ``both`` preserve the final *shared*
    #: projection (``final_shared``) — commuting operations may leave
    #: different thread-private scratch objects.
    final: Optional[set] = None
    final_shared: Optional[set] = None

    @property
    def states_per_s(self) -> float:
        """Throughput, 0.0 for runs shorter than
        :data:`~repro.obs.export.MIN_RATE_WINDOW_S` — a rate computed
        over a sub-millisecond window is timer noise and must not be
        compared against real baselines."""
        if self.elapsed <= MIN_RATE_WINDOW_S:
            return 0.0
        return self.states / self.elapsed

    def to_dict(self) -> dict:
        from repro.obs.export import mc_to_dict

        return mc_to_dict(self)

    def __str__(self) -> str:
        if self.violation:
            status = self.violation
        elif self.deadline_hit:
            status = "UNKNOWN (deadline)"
        elif self.capped:
            status = "CAPPED"
        else:
            status = "ok"
        return (f"[{self.mode}] states={self.states} "
                f"transitions={self.transitions} "
                f"time={self.elapsed:.2f}s {status}")


@dataclass
class _Succ:
    desc: str
    world: Optional[World]
    events: list[Event]
    violation: Optional[str] = None
    # provenance for counterexample reconstruction
    tid: int = -1
    uid: Optional[int] = None        # CFG node uid ('stmt' steps only)
    kind: str = "stmt"               # 'invoke'|'stmt'|'return'|'atomic'
    via: Optional[str] = None        # exceptional-variant name, if any
    proc: Optional[str] = None       # procedure being executed/invoked

    def step_info(self) -> dict:
        return {"tid": self.tid, "uid": self.uid, "desc": self.desc,
                "kind": self.kind, "via": self.via, "proc": self.proc}


class Explorer:
    def __init__(self, interp: Interp, specs: list[ThreadSpec],
                 mode: str = "full",
                 properties: Optional[list[Property]] = None,
                 max_states: Optional[int] = None,
                 variant_interp: Optional[Interp] = None,
                 variant_map: Optional[dict[str, list[str]]] = None,
                 commutes: Optional[Callable] = None,
                 collect_quiescent: bool = False,
                 atomic_step_budget: int = 10_000,
                 tracer=None, events=None, profiler=None,
                 progress: Optional[float] = None,
                 progress_sink: Optional[Callable[[str], None]] = None,
                 trace_malloc: bool = False,
                 deadline: Optional[float] = None,
                 graph=None):
        if mode not in ("full", "por", "atomic", "both"):
            raise ValueError(f"unknown mode {mode!r}")
        self.interp = interp
        self.specs = specs
        self.mode = mode
        self.properties = properties or []
        self.max_states = max_states
        self.variant_interp = variant_interp
        self.variant_map = variant_map
        self.commutes = commutes
        self.collect_quiescent = collect_quiescent
        self.atomic_step_budget = atomic_step_budget
        self.safety = SafetyCache()
        #: soft wall-clock budget in seconds (None = unbounded): the
        #: DFS checks the clock every ``_BEAT_CHECK_MASK + 1``
        #: iterations and stops gracefully once exceeded, with the
        #: verdict UNKNOWN (``MCResult.deadline_hit``)
        self.deadline = deadline
        self.tracer = tracer or NULL_TRACER
        # telemetry sinks, read by repro.mc.telemetry.Telemetry:
        #: :class:`repro.obs.events.EventStream` (None = off)
        self.events = events
        #: per-sub-step work-counter profiler (NULL_PROFILER = off)
        self.profiler = profiler or NULL_PROFILER
        #: heartbeat period in seconds (None = no heartbeat); each
        #: beat prints one progress line and emits an
        #: ``explorer.progress`` event
        self.progress = progress
        self.progress_sink = progress_sink or (
            lambda line: print(line, file=sys.stderr))
        #: collect tracemalloc top-allocation sites into
        #: ``metrics["mc.malloc_top"]`` (starts tracing if needed)
        self.trace_malloc = trace_malloc
        #: :class:`repro.obs.graph.GraphWriter` streaming the visited
        #: state graph to JSONL (None = off)
        self.graph = graph
        #: the running search's telemetry (a fresh one per run)
        self._tel: Optional[Telemetry] = None

    # -- successor generation --------------------------------------------------
    # Each generator returns (successors to explore, successors an ample
    # set pruned); the pruned ones are executed only when the telemetry
    # records them.
    def _step_thread(self, world: World, tid: int) -> _Succ:
        w = world.copy()
        thread = w.threads[tid]
        frame = thread.frame
        node = frame.node if frame is not None else None
        uid = node.uid if node is not None else None
        if frame is None:
            kind, proc = "invoke", thread.current_call()[0]
        else:
            kind = "stmt" if node is not None else "return"
            proc = frame.proc_name
        desc = f"t{tid}@{node.uid if node else 'call'}"
        try:
            event = self.interp.step(w, tid)
        except AssumeFailed:
            return _Succ(desc, None, [], tid=tid, uid=uid, kind=kind,
                         proc=proc)
        except AssertionViolation as exc:
            return _Succ(desc, None, [], violation=str(exc),
                         tid=tid, uid=uid, kind=kind, proc=proc)
        return _Succ(desc, w, [event] if event is not None else [],
                     tid=tid, uid=uid, kind=kind, proc=proc)

    def _interleaved(self, world: World, on_stack: set) -> tuple:
        enabled = self.interp.enabled_threads(world)
        if self.mode == "por":
            tel = self._tel
            for tid in enabled:
                t0 = time.perf_counter()
                safe = self.safety.thread_safe(self.interp, world, tid)
                tel.ample_check(time.perf_counter() - t0)
                if not safe:
                    continue
                succ = self._step_thread(world, tid)
                if succ.violation is not None:
                    return [succ], ()
                if succ.world is None:
                    continue
                if state_key(succ.world) in on_stack:
                    continue  # cycle proviso: fall back to full expansion
                tel.ample(tid, succ.desc)
                pruned = [self._step_thread(world, o)
                          for o in enabled if o != tid] \
                    if tel.record_pruned else ()
                return [succ], pruned
            tel.no_ample()
        return [self._step_thread(world, tid) for tid in enabled], ()

    def _atomic_one(self, world: World, tid: int) -> list[_Succ]:
        if self.variant_interp is not None and self.variant_map is not None:
            name, _args = world.threads[tid].current_call()
            out: list[_Succ] = []
            for vname in self.variant_map.get(name, [name]):
                outcome = run_variant(self.interp, self.variant_interp,
                                      world, tid, vname,
                                      self.atomic_step_budget)
                out.append(_Succ(outcome.desc, outcome.world,
                                 outcome.events, outcome.violation,
                                 tid=tid, kind="atomic", via=vname,
                                 proc=name))
            return out
        name, _args = world.threads[tid].current_call()
        outcome = run_to_commit(self.interp, world, tid,
                                self.atomic_step_budget)
        return [_Succ(outcome.desc, outcome.world, outcome.events,
                      outcome.violation, tid=tid, kind="atomic",
                      proc=name)]

    def _atomic(self, world: World, on_stack: set) -> tuple:
        live = [t.tid for t in world.threads if not t.done]
        tel = self._tel
        if self.mode == "both" and self.commutes is not None:
            # ample set at operation granularity: a thread whose next
            # operation commutes with every other live thread's next
            # operation may be explored alone (cycle proviso applies)
            for tid in live:
                mine = world.threads[tid].current_call()
                t0 = time.perf_counter()
                alone = all(
                    self.commutes(mine, world.threads[o].current_call())
                    for o in live if o != tid)
                tel.ample_check(time.perf_counter() - t0)
                if not alone:
                    continue
                succs = self._atomic_one(world, tid)
                if any(s.violation for s in succs):
                    return succs, ()
                real = [s for s in succs if s.world is not None]
                if not real:
                    continue  # disabled here; try another thread
                if any(state_key(s.world) in on_stack for s in real):
                    continue
                tel.ample(tid, real[0].desc)
                pruned = [s for o in live if o != tid
                          for s in self._atomic_one(world, o)] \
                    if tel.record_pruned else ()
                return succs, pruned
        if self.mode == "both":
            tel.no_ample()
        out: list[_Succ] = []
        for tid in live:
            out.extend(self._atomic_one(world, tid))
        return out, ()

    def _successors(self, world: World, on_stack: set) -> tuple:
        if self.mode in ("full", "por"):
            return self._interleaved(world, on_stack)
        return self._atomic(world, on_stack)

    # -- property plumbing -------------------------------------------------------
    def _apply_events(self, ghosts: tuple, events: list[Event]) -> tuple:
        out = list(ghosts)
        for i, prop in enumerate(self.properties):
            g = out[i]
            for event in events:
                g = prop.on_event(g, event)
            out[i] = g
        return tuple(out)

    def _check(self, world: World, ghosts: tuple) -> Optional[str]:
        for prop, ghost in zip(self.properties, ghosts):
            message = prop.check_state(world, self.interp, ghost)
            if message is not None:
                return message
            if world.quiescent():
                message = prop.check_quiescent(world, self.interp, ghost)
                if message is not None:
                    return message
        return None

    # -- the search ---------------------------------------------------------------
    def run(self) -> MCResult:
        # the search makes no reference cycles, so the cyclic GC would
        # only rescan the growing seen set; it is paused for the run and
        # the caller's setting restored
        collecting = gc.isenabled()
        gc.disable()
        try:
            with self.tracer.span("mc:run", mode=self.mode):
                return self._run()
        finally:
            if collecting:
                gc.enable()

    def _run(self) -> MCResult:
        start = time.perf_counter()
        tel = self._tel = Telemetry(self, start)
        deadline_at = start + self.deadline \
            if self.deadline is not None else None
        result = MCResult(self.mode)
        if self.collect_quiescent:
            result.quiescent = set()
            result.final = set()
            result.final_shared = set()

        def record_quiescent(world: World) -> None:
            if not self.collect_quiescent or not world.quiescent():
                return
            key = quiescent_key(world)
            result.quiescent.add(key)
            if all(t.done for t in world.threads):
                result.final.add(key)
                result.final_shared.add(shared_key(world))

        def record_violation(message: str,
                             succ: Optional[_Succ] = None) -> None:
            result.violation = message
            result.path = [dict(e[5]) for e in stack]
            if succ is not None:
                result.path.append(succ.step_info())
            result.trace = [s["desc"] for s in result.path]
            tel.violation(result.trace[-1], message)

        with self.tracer.span("mc:init"):
            world0 = self.interp.make_world(self.specs)
            ghosts0 = tuple(p.initial_ghost() for p in self.properties)
            key0 = (state_key(world0), ghosts0)
            seen = {key0}
            result.states = 1
            gid0 = tel.node(key0, 1, world0, init=True)
            message = self._check(world0, ghosts0)
        init_step = {"tid": -1, "uid": None, "desc": "init",
                     "kind": "init", "via": None}
        # stack entries: (key, world, ghosts, successor list, index,
        # step, graph node id)
        stack = [[key0, world0, ghosts0, None, 0, init_step, gid0]]
        if message is not None:
            record_violation(message)
            return tel.finish(result, len(stack), self.safety)
        record_quiescent(world0)
        on_stack = {key0[0]}
        loop_i = 0
        with self.tracer.span("mc:dfs"):
            while stack:
                loop_i += 1
                if not (loop_i & _BEAT_CHECK_MASK):
                    now = time.perf_counter()
                    if deadline_at is not None and now >= deadline_at:
                        # graceful stop: every counter and the
                        # telemetry survive; the verdict is UNKNOWN
                        result.deadline_hit = True
                        tel.stopped("mc.deadline", states=result.states,
                                    deadline_s=self.deadline)
                        break
                    tel.tick(result, now, len(stack))
                entry = stack[-1]
                key, world, ghosts, succs, index, step, gid = entry
                if succs is None:
                    t0 = time.perf_counter()
                    succs, pruned = self._successors(world, on_stack)
                    tel.expanded(time.perf_counter() - t0, len(succs))
                    entry[3] = succs
                    for s in pruned:
                        # same filters as the counting path: disabled
                        # and violating successors are no transitions
                        if s.world is not None and s.violation is None:
                            tel.pruned(gid, (state_key(s.world),
                                             self._apply_events(
                                                 ghosts, s.events)), s)
                if index >= len(succs):
                    stack.pop()
                    on_stack.discard(key[0])
                    tel.pop(len(stack))
                    continue
                entry[4] += 1
                succ = succs[index]
                if succ.violation is not None:
                    record_violation(succ.violation, succ)
                    break
                if succ.world is None:
                    continue  # disabled transition
                result.transitions += 1
                new_ghosts = self._apply_events(ghosts, succ.events)
                t0 = time.perf_counter()
                new_key = (state_key(succ.world), new_ghosts)
                canon_wall = time.perf_counter() - t0
                seen.add(new_key)  # one hash of the key, not two
                dup = len(seen) == result.states
                tel.transition(gid, step["tid"], succ, new_key, dup,
                               canon_wall, result.transitions,
                               len(stack))
                if dup:
                    continue
                result.states += 1
                new_gid = tel.node(new_key, len(stack) + 1, succ.world)
                message = self._check(succ.world, new_ghosts)
                if message is not None:
                    record_violation(message, succ)
                    break
                record_quiescent(succ.world)
                if self.max_states is not None \
                        and result.states >= self.max_states:
                    result.capped = True
                    tel.stopped("mc.cap", states=result.states)
                    break
                on_stack.add(new_key[0])
                stack.append([new_key, succ.world, new_ghosts, None, 0,
                              succ.step_info(), new_gid])
                tel.push(len(stack), succ.desc, result.states)
        return tel.finish(result, len(stack), self.safety)


def explore(interp: Interp, specs: list[ThreadSpec], mode: str = "full",
            **kwargs) -> MCResult:
    """Convenience wrapper around :class:`Explorer`."""
    return Explorer(interp, specs, mode=mode, **kwargs).run()
