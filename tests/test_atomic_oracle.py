"""Differential test of the atomic transitions (mc/atomic.py) against a
reference that checks for a revisited state after *every* step.

``run_to_commit`` and ``run_variant`` only canonicalise the world at loop
heads they have already reached.  The reference functions below are the
straightforward versions that take a ``state_key`` after each step; they
serve only as an oracle.  Every atomic transition an exploration asks for
is computed both ways and must agree on: disabled or not, violation text,
the successor's ``state_key`` and the (kind, proc, args, result) events.
"""

from __future__ import annotations

import pytest

from repro import corpus
from repro.analysis import analyze_program
from repro.errors import AssertionViolation, InterpError
from repro.interp import Interp, ThreadSpec
from repro.interp.interp import AssumeFailed
from repro.mc import AtomicOutcome, Explorer, atomic, state_key
from repro.mc.properties import QueueContents, QueueShape


def _every_step_run_to_commit(interp, world, tid, step_budget=10_000):
    w = world.copy()
    thread = w.threads[tid]
    name, args = thread.current_call()
    outcome = AtomicOutcome(desc=f"t{tid}:{name}{args}")
    seen = {state_key(w)}
    for _ in range(step_budget):
        try:
            event = interp.step(w, tid)
        except AssumeFailed:
            return outcome
        except AssertionViolation as exc:
            outcome.violation = f"assertion failed in {name}: {exc}"
            return outcome
        if event is not None:
            outcome.events.append(event)
        if thread.frame is None and thread.steps > 0 \
                and outcome.events and outcome.events[-1].kind == "return":
            outcome.world = w
            return outcome
        key = state_key(w)
        if key in seen:
            return outcome
        seen.add(key)
    raise InterpError(
        f"atomic run of {name} exceeded {step_budget} steps")


def _every_step_run_variant(original, variant_interp, world, tid,
                            variant_name, step_budget=10_000):
    w = world.copy()
    thread = w.threads[tid]
    name, args = thread.current_call()
    outcome = AtomicOutcome(desc=f"t{tid}:{name}{args} via {variant_name}")
    variant_interp.begin_call(w, tid, variant_name, args, display=name)
    outcome.events.append(w.history[-1])
    seen = {state_key(w)}
    for _ in range(step_budget):
        try:
            event = variant_interp.step(w, tid)
        except AssumeFailed:
            return outcome
        except AssertionViolation as exc:
            outcome.violation = f"assertion failed in {variant_name}: {exc}"
            return outcome
        if event is not None:
            outcome.events.append(event)
        if thread.frame is None:
            outcome.world = w
            return outcome
        key = state_key(w)
        if key in seen:
            return outcome
        seen.add(key)
    raise InterpError(
        f"atomic variant {variant_name} exceeded {step_budget} steps")


def _summary(outcome: AtomicOutcome) -> tuple:
    return (outcome.world is None,
            outcome.violation,
            None if outcome.world is None else state_key(outcome.world),
            [(e.kind, e.proc, e.args, e.result) for e in outcome.events])


class _Differential:
    """Replaces the explorer's atomic transitions with wrappers that run
    the real function and the reference on the same (world, tid)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.disabled = 0
        monkeypatch.setattr("repro.mc.explorer.run_to_commit",
                            self._run_to_commit)
        monkeypatch.setattr("repro.mc.explorer.run_variant",
                            self._run_variant)

    def _compare(self, got: AtomicOutcome, want: AtomicOutcome):
        self.calls += 1
        self.disabled += got.world is None and got.violation is None
        assert _summary(got) == _summary(want), got.desc
        return got

    def _run_to_commit(self, interp, world, tid, step_budget=10_000):
        return self._compare(
            atomic.run_to_commit(interp, world, tid, step_budget),
            _every_step_run_to_commit(interp, world, tid, step_budget))

    def _run_variant(self, original, variant_interp, world, tid,
                     variant_name, step_budget=10_000):
        args = (original, variant_interp, world, tid, variant_name,
                step_budget)
        return self._compare(atomic.run_variant(*args),
                             _every_step_run_variant(*args))


def _nfq_add_heavy():
    return [ThreadSpec.of(("AddNode", 1)), ThreadSpec.of(("AddNode", 2)),
            ThreadSpec.of(("DeqP",)),
            ThreadSpec.of(("UpdateTail",), repeat=True)]


def _nfq_deq_heavy():
    return [ThreadSpec.of(("AddNode", 1)), ThreadSpec.of(("DeqP",)),
            ThreadSpec.of(("DeqP",)),
            ThreadSpec.of(("UpdateTail",), repeat=True)]


def _ops(*names):
    return [ThreadSpec.of(*((n,) if isinstance(n, str) else n
                            for n in ops)) for ops in names]


#: (name, source, specs, properties?, expect disabled spins?)
SCENARIOS = [
    ("nfq-add-heavy", corpus.NFQ_PRIME, _nfq_add_heavy(), True, True),
    ("nfq-deq-heavy", corpus.NFQ_PRIME, _nfq_deq_heavy(), True, True),
    ("nfq-buggy-add-heavy", corpus.NFQ_PRIME_BUGGY, _nfq_add_heavy(),
     True, True),
    ("gh-program1", corpus.GH_PROGRAM1,
     _ops([("Apply", 1)], [("Apply", 2)], [("Apply", 3)]), False, False),
    ("semaphore", corpus.SEMAPHORE,
     _ops(["Down", "Up"], ["Down", "Up"], ["Down"]), False, True),
    ("treiber-stack", corpus.TREIBER_STACK,
     _ops([("Push", 1), "Pop"], ["Pop", ("Push", 2)]), False, False),
    ("cas-counter", corpus.CAS_COUNTER,
     _ops(["Inc", "Get"], ["Inc"], ["Get", "Inc"]), False, False),
    ("versioned-cell", corpus.VERSIONED_CELL,
     _ops(["IncCell", "GetCell"], ["IncCell"]), False, False),
    ("spin-lock", corpus.SPIN_LOCK,
     _ops(["Acquire", "Release"], ["Acquire", "Release"]), False, True),
]


@pytest.mark.parametrize("name,source,specs,props,spins", SCENARIOS,
                         ids=[d[0] for d in SCENARIOS])
def test_run_to_commit_matches_every_step_reference(
        monkeypatch, name, source, specs, props, spins):
    diff = _Differential(monkeypatch)
    properties = [QueueShape(), QueueContents()] if props else []
    Explorer(Interp(source), specs, mode="atomic", properties=properties,
             max_states=50_000).run()
    assert diff.calls > 0
    assert (diff.disabled > 0) == spins


def test_run_variant_matches_every_step_reference(monkeypatch):
    analysis = analyze_program(corpus.NFQ_PRIME)
    variant_map = {src: [v.name for v in vs]
                   for src, vs in analysis.variant_set.by_source.items()}
    diff = _Differential(monkeypatch)
    Explorer(Interp(corpus.NFQ_PRIME), _nfq_add_heavy(), mode="atomic",
             variant_interp=Interp(analysis.variant_set.program),
             variant_map=variant_map, max_states=50_000).run()
    assert diff.calls > 0 and diff.disabled > 0
