"""The benchmark's workloads: inputs made from a seed, one timed
operation each, and the known-answer checks on every output.

An *operation* is what ``fail_frac`` counts: one model-checker
exploration for the two Gao–Hesselink workloads, one program analysed
for ``corpus-analyze``.  A *batch* is what ``wall_s`` times: one
exploration, or one pass over the whole corpus.

The ``repro`` modules are looked up when a function runs, never at
import, so the set-up timing in ``run.py`` can re-import the package
and this file then uses the last import.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

ANSWERS_PATH = Path(__file__).with_name("known_answers.json")

#: seed % 6 indexes this list: thread i starts at group PERMS[..][i]
PERMS = list(itertools.permutations((1, 2, 3)))
GROUPS = 3


def load_answers() -> dict:
    with open(ANSWERS_PATH) as fh:
        return json.load(fh)


def perm_of(seed: int) -> tuple[int, ...]:
    return PERMS[seed % len(PERMS)]


def perm_name(perm: tuple[int, ...]) -> str:
    return "".join(str(g) for g in perm)


def rotation(start: int) -> list[int]:
    """Groups ``start, start+1, ...`` wrapping over 1..GROUPS."""
    return [(start - 1 + k) % GROUPS + 1 for k in range(GROUPS)]


def gh_specs(perm: tuple[int, ...], calls: int) -> list:
    """One script per thread: ``calls`` Apply operations starting at the
    thread's permuted group and rotating through the rest."""
    from repro.interp import ThreadSpec

    return [ThreadSpec.of(*(("Apply", g) for g in rotation(start)[:calls]))
            for start in perm]


@dataclass(frozen=True)
class GHWorkload:
    name: str
    mode: str           # Explorer mode
    calls: int          # Apply calls per thread
    max_states: int | None


GH_WORKLOADS = {
    "gh-noopt": GHWorkload("gh-noopt", "full", 1, 10_000),
    "gh-atomic": GHWorkload("gh-atomic", "atomic", GROUPS, None),
}
CORPUS = "corpus-analyze"
NAMES = (*GH_WORKLOADS, CORPUS)


def expected_data(calls_per_thread: int, threads: int) -> list[int]:
    """Final ``SharedObj.data`` by arithmetic alone, independent of the
    interpreter: ``compute(x, g) = x + g + 1`` (the default primitive),
    every group starts at 0, and the threads' rotating scripts apply it
    ``threads * calls / GROUPS`` times to each group.  Index 0 is
    unused by the program and stays 0."""
    per_group = threads * calls_per_thread // GROUPS
    return [0] + [per_group * (g + 1) for g in range(1, GROUPS + 1)]


def decode_data(shared: tuple) -> list[int]:
    """Read ``SharedObj.data`` out of a canonical shared-state key
    ``(globals, heap, locks)``: follow the ``SharedObj`` reference to
    its ``Obj`` record, then its ``data`` reference to the array."""
    globals_key, heap_key, _locks = shared
    records = {rec[1]: rec for rec in heap_key}
    obj = records[dict(globals_key)["SharedObj"][1]]
    data_ref = dict(obj[3])["data"]
    return list(records[data_ref[1]][3])


@dataclass
class Check:
    """Failures found while checking one operation's output."""

    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class GHRun:
    """Seeded inputs and known answers for one GH workload."""

    def __init__(self, workload: GHWorkload, seed: int, answers: dict):
        from repro.corpus.gao_hesselink import GH_PROGRAM1
        from repro.interp import Interp, run
        from repro.mc import shared_key

        self.workload = workload
        self.perm = perm_of(seed)
        self.specs = gh_specs(self.perm, workload.calls)
        self.pinned = answers["gh"][workload.name]["counts"][
            perm_name(self.perm)]
        self.interp = Interp(GH_PROGRAM1)
        # serial-run oracle: every thread's script run to completion,
        # lowest runnable tid first
        serial = run(self.interp, self.interp.make_world(self.specs),
                     lambda world, enabled: enabled[0])
        self.serial_shared = shared_key(serial)
        self.data = expected_data(workload.calls, len(self.perm))
        # the oracle itself is checked against arithmetic
        self.oracle = Check()
        self.oracle.expect(
            all(t.done for t in serial.threads),
            "serial run did not finish every script")
        self.oracle.expect(
            decode_data(self.serial_shared) == self.data,
            f"serial run data {decode_data(self.serial_shared)} "
            f"!= {self.data}")

    def explore(self):
        """One exploration — the timed operation."""
        from repro.mc import Explorer

        return Explorer(self.interp, self.specs, mode=self.workload.mode,
                        max_states=self.workload.max_states,
                        collect_quiescent=True).run()

    def check(self, result) -> Check:
        w = self.workload
        check = Check(list(self.oracle.problems))
        check.expect(result.violation is None,
                     f"violation: {result.violation}")
        check.expect(result.capped == (w.max_states is not None),
                     f"capped={result.capped}")
        got = {"states": result.states, "transitions": result.transitions}
        check.expect(got == self.pinned,
                     f"counts {got} != pinned {self.pinned}")
        finals = result.final_shared or set()
        # a capped run may stop before reaching some final states, but
        # the DFS reaches one long before the cap; an uncapped run
        # reaches exactly the serial one
        check.expect(len(finals) == 1,
                     f"{len(finals)} final shared states, expected 1")
        for shared in finals:
            check.expect(shared == self.serial_shared,
                         "final shared state differs from the serial run")
            check.expect(decode_data(shared) == self.data,
                         f"final data {decode_data(shared)} "
                         f"!= {self.data}")
        return check


class CorpusRun:
    """Seeded program order and the hand-written verdict table."""

    def __init__(self, seed: int, answers: dict):
        from repro import corpus

        table = answers["corpus"]["verdicts"]
        order = sorted(table)
        random.Random(seed).shuffle(order)
        self.programs = [(name, getattr(corpus, name), table[name])
                         for name in order]

    def analyze_pass(self, latencies_s: list[float]) -> Check:
        """Analyse every program once — one timed batch.  Appends each
        program's ``analyze_program`` latency to ``latencies_s``; each
        program whose verdicts disagree (or that raises) adds one
        problem."""
        from repro.analysis import analyze_program

        check = Check()
        for name, source, expected in self.programs:
            t0 = time.perf_counter()
            try:
                result = analyze_program(source)
            except Exception as exc:  # a crash is a failed operation
                latencies_s.append(time.perf_counter() - t0)
                check.problems.append(f"{name}: {type(exc).__name__}: "
                                      f"{exc}")
                continue
            latencies_s.append(time.perf_counter() - t0)
            got = {proc: result.is_atomic(proc) for proc in expected}
            check.expect(got == expected,
                         f"{name}: verdicts {got} != {expected}")
        return check
