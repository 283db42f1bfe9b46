"""Unit tests for the atomic-transition machinery (mc/atomic.py), the
work its loop-head spin check does, and a property test: full vs atomic
exploration agree on quiescent states for randomly drawn thread-spec
mixes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import corpus
from repro.analysis import analyze_program
from repro.errors import InterpError
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, atomic, run_to_commit, run_variant

SOURCE = """
global G;
init { G = 0; }
proc Inc() {
  loop {
    local t = LL(G) in {
      if (SC(G, t + 1)) { return t + 1; }
    }
  }
}
proc WaitFor(v) {
  loop {
    local t = LL(G) in {
      if (t == v) { return 1; }
    }
  }
}
proc Crash() { assert(G < 100); G = G + 1; }
proc WaitOuter(v) {
  outer: loop {
    loop {
      local t = LL(G) in {
        if (t != v) { continue outer; }
        return 1;
      }
    }
  }
}
proc WaitInner(v) {
  loop {
    loop {
      local t = LL(G) in {
        if (t == v) { break; }
      }
    }
    return 1;
  }
}
"""


def _interp():
    return Interp(SOURCE)


def test_run_to_commit_completes_and_returns_events():
    interp = _interp()
    world = interp.make_world([ThreadSpec.of(("Inc",))])
    outcome = run_to_commit(interp, world, 0)
    assert outcome.world is not None
    assert outcome.world.globals["G"] == 1
    kinds = [e.kind for e in outcome.events]
    assert kinds == ["invoke", "return"]
    assert outcome.events[-1].result == 1
    # the source world is untouched
    assert world.globals["G"] == 0


def test_run_to_commit_detects_spinning_as_disabled():
    interp = _interp()
    world = interp.make_world([ThreadSpec.of(("WaitFor", 5))])
    outcome = run_to_commit(interp, world, 0)
    assert outcome.world is None  # spins: G never becomes 5


def test_run_to_commit_enabled_once_condition_holds():
    interp = _interp()
    world = interp.make_world([ThreadSpec.of(("WaitFor", 0))])
    outcome = run_to_commit(interp, world, 0)
    assert outcome.world is not None


def test_run_to_commit_surfaces_assertion_violation():
    interp = _interp()
    world = interp.make_world([ThreadSpec.of(("Crash",))])
    world.globals["G"] = 100
    outcome = run_to_commit(interp, world, 0)
    assert outcome.violation is not None
    assert outcome.world is None


def test_run_variant_executes_specific_variant():
    analysis = analyze_program(corpus.NFQ_PRIME)
    variant_interp = Interp(analysis.variant_set.program)
    interp = Interp(corpus.NFQ_PRIME)
    world = interp.make_world([ThreadSpec.of(("DeqP",))])
    # on the empty queue only the EMPTY-returning variant is enabled
    empty = run_variant(interp, variant_interp, world, 0, "DeqP1")
    value = run_variant(interp, variant_interp, world, 0, "DeqP2")
    assert empty.world is not None
    assert empty.events[-1].result == -1
    assert empty.events[-1].proc == "DeqP"  # display name, not DeqP1
    assert value.world is None              # TRUE(next != null) fails


def test_run_variant_respects_assumptions_after_state_change():
    analysis = analyze_program(corpus.NFQ_PRIME)
    variant_interp = Interp(analysis.variant_set.program)
    interp = Interp(corpus.NFQ_PRIME)
    world = interp.make_world([
        ThreadSpec.of(("AddNode", 9)), ThreadSpec.of(("DeqP",))])
    added = run_to_commit(interp, world, 0)
    assert added.world is not None
    # Tail lags after an AddNode: DeqP2 requires h != Tail, which holds
    # only after UpdateTail helps — so the variant is disabled here
    value = run_variant(interp, variant_interp, added.world, 1, "DeqP2")
    assert value.world is None


# -- spin detection at loop heads ----------------------------------------------------

def _count_keys(monkeypatch) -> list[int]:
    calls = [0]
    real = atomic.state_key

    def counting(world):
        calls[0] += 1
        return real(world)

    monkeypatch.setattr(atomic, "state_key", counting)
    return calls


def test_gh_apply_keys_only_at_revisited_loop_heads(monkeypatch):
    calls = _count_keys(monkeypatch)
    interp = Interp(corpus.GH_PROGRAM1)
    world = interp.make_world([ThreadSpec.of(("Apply", 1))])
    outcome = run_to_commit(interp, world, 0)
    assert outcome.world is not None
    # the copy loop's head is reached four times: keys on the last three
    assert calls[0] <= 3


def test_loop_free_procedure_takes_no_keys(monkeypatch):
    calls = _count_keys(monkeypatch)
    interp = _interp()
    world = interp.make_world([ThreadSpec.of(("Crash",))])
    outcome = run_to_commit(interp, world, 0)
    assert outcome.world is not None
    assert calls[0] == 0


def test_spin_through_continue_to_outer_loop_is_disabled():
    interp = _interp()
    world = interp.make_world([ThreadSpec.of(("WaitOuter", 5))])
    assert run_to_commit(interp, world, 0).world is None
    world = interp.make_world([ThreadSpec.of(("WaitOuter", 0))])
    assert run_to_commit(interp, world, 0).world is not None


def test_spin_inside_inner_loop_is_disabled():
    interp = _interp()
    world = interp.make_world([ThreadSpec.of(("WaitInner", 5))])
    assert run_to_commit(interp, world, 0).world is None
    world = interp.make_world([ThreadSpec.of(("WaitInner", 0))])
    assert run_to_commit(interp, world, 0).world is not None


def test_variant_starting_at_loop_head_detects_spin():
    interp = _interp()
    world = interp.make_world([ThreadSpec.of(("WaitFor", 5))])
    # WaitFor's first node is its loop head, and a spin period is three
    # steps.  The start position counts as the first arrival, so the key
    # is recorded at step 3 and repeats at step 6
    outcome = run_variant(interp, interp, world, 0, "WaitFor",
                          step_budget=6)
    assert outcome.world is None and outcome.violation is None


def test_spin_detected_past_step_budget_raises():
    interp = _interp()
    world = interp.make_world([ThreadSpec.of(("WaitFor", 5))])
    with pytest.raises(InterpError, match="exceeded 5 steps"):
        run_variant(interp, interp, world, 0, "WaitFor", step_budget=5)
    # run-to-commit spends one step on the invocation itself
    assert run_to_commit(interp, world, 0, step_budget=7).world is None
    with pytest.raises(InterpError, match="exceeded 6 steps"):
        run_to_commit(interp, world, 0, step_budget=6)


# -- property: reduction soundness over random spec mixes ------------------------------

_ops = st.lists(
    st.sampled_from([("Inc",), ("WaitFor", 1), ("WaitFor", 2)]),
    min_size=1, max_size=2)


@given(st.lists(_ops, min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_full_and_atomic_agree_on_quiescent_states(spec_lists):
    specs = [ThreadSpec.of(*ops) for ops in spec_lists]
    interp = _interp()
    full = Explorer(interp, specs, mode="full", max_states=50_000,
                    collect_quiescent=True).run()
    atomic = Explorer(interp, specs, mode="atomic", max_states=50_000,
                      collect_quiescent=True).run()
    assert not full.capped
    assert atomic.quiescent == full.quiescent


@given(st.lists(_ops, min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_full_and_por_agree_on_quiescent_states(spec_lists):
    specs = [ThreadSpec.of(*ops) for ops in spec_lists]
    interp = _interp()
    full = Explorer(interp, specs, mode="full", max_states=50_000,
                    collect_quiescent=True).run()
    por = Explorer(interp, specs, mode="por", max_states=50_000,
                   collect_quiescent=True).run()
    assert por.quiescent == full.quiescent
