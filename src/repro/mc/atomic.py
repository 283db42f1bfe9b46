"""Atomic-block transitions for the model checker (§1, §6.1, §6.3).

When the static analysis has shown procedures atomic, each procedure
body "can be treated as a single transition during subsequent analysis";
this module implements that reduction in two flavours:

* **run-to-commit** — execute the thread's next invocation of the
  *original* procedure to completion as one transition.  A pure spin
  (e.g. UpdateTail waiting for a lagging Tail) revisits a state inside
  the run and makes the transition *disabled* — the operation simply
  cannot complete from here, and will be retried after another thread
  moves.
* **variant mode** — execute one *exceptional variant* (§5.2) of the
  procedure per transition, straight-line under its TRUE(...)
  assumptions; a failed assumption disables that variant.  This is
  precisely the reduction Theorems 4.1/5.2 justify.

Spins are detected at loop heads: the run takes a :func:`state_key` only
when the thread stands at a ``LOOP_HEAD`` it has already reached in this
run, and a repeated key disables the transition.  The CFG builder adds
back edges only to loop heads, so every cycle of a single-thread run
passes one, and the outermost head on a spin's cycle is reached no later
than the spin begins.  The verdict equals a check after every step and
arrives at most one loop period later (assuming, like the explorer's
dedup, that canonically equal worlds behave alike); a spin whose later
detection lands past ``step_budget`` raises the budget ``InterpError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfg.graph import NodeKind
from repro.errors import AssertionViolation, InterpError
from repro.interp.interp import AssumeFailed, Interp
from repro.interp.state import Event, Thread, World
from repro.mc.canonical import state_key


@dataclass
class AtomicOutcome:
    """Result of attempting one atomic transition."""

    world: Optional[World] = None          # successor (None if disabled)
    events: list[Event] = field(default_factory=list)
    violation: Optional[str] = None
    desc: str = ""


def _spins(w: World, thread: Thread, heads: set, seen: set) -> bool:
    """True when ``thread`` is back at a loop head, reached before in
    this run, in a state already recorded there."""
    node = thread.frame.node
    if node is None or node.kind is not NodeKind.LOOP_HEAD:
        return False
    if node not in heads:
        heads.add(node)
        return False
    key = state_key(w)
    spun = key in seen
    seen.add(key)
    return spun


def run_to_commit(interp: Interp, world: World, tid: int,
                  step_budget: int = 10_000) -> AtomicOutcome:
    """Run thread ``tid``'s next whole invocation as one transition."""
    w = world.copy()
    thread = w.threads[tid]
    name, args = thread.current_call()
    outcome = AtomicOutcome(desc=f"t{tid}:{name}{args}")
    heads, seen = set(), set()  # the pre-invoke state never recurs
    for _ in range(step_budget):
        try:
            event = interp.step(w, tid)
        except AssumeFailed:
            return outcome  # disabled
        except AssertionViolation as exc:
            outcome.violation = f"assertion failed in {name}: {exc}"
            return outcome
        if event is not None:
            outcome.events.append(event)
        if thread.frame is None and thread.steps > 0 \
                and outcome.events and outcome.events[-1].kind == "return":
            outcome.world = w
            return outcome
        if _spins(w, thread, heads, seen):
            return outcome  # pure spinning: disabled from this state
    raise InterpError(
        f"atomic run of {name} exceeded {step_budget} steps")


def run_variant(original: Interp, variant_interp: Interp, world: World,
                tid: int, variant_name: str,
                step_budget: int = 10_000) -> AtomicOutcome:
    """Run one exceptional variant of the thread's next invocation as a
    single transition (under the variant program's CFGs)."""
    w = world.copy()
    thread = w.threads[tid]
    name, args = thread.current_call()
    outcome = AtomicOutcome(desc=f"t{tid}:{name}{args} via {variant_name}")
    variant_interp.begin_call(w, tid, variant_name, args, display=name)
    outcome.events.append(w.history[-1])
    heads, seen = {thread.frame.node}, set()  # start counts as reached
    for _ in range(step_budget):
        try:
            event = variant_interp.step(w, tid)
        except AssumeFailed:
            return outcome  # this variant's assumptions do not hold
        except AssertionViolation as exc:
            outcome.violation = f"assertion failed in {variant_name}: {exc}"
            return outcome
        if event is not None:
            outcome.events.append(event)
        if thread.frame is None:
            outcome.world = w
            return outcome
        if _spins(w, thread, heads, seen):
            return outcome  # residual loop spins: disabled
    raise InterpError(
        f"atomic variant {variant_name} exceeded {step_budget} steps")
